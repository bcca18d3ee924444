"""The percentile rule, the error rate and the cycle-layer mapping."""

import pytest

from hpbench.stats import (CATEGORY_LAYER, Reconciled, cycle_shares,
                           error_rate, median, reconcile, tail)


def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100
    t = tail(values)
    assert t.value == 90.0
    assert t.percentile == 90.0
    assert t.beyond == 10
    assert sum(1 for v in values if v > t.value) == 10


def test_tail_percentile_follows_the_sample_count():
    # 40 samples: rank 29 (value 30) has 10 above it -> p75.
    t = tail([float(v) for v in range(1, 41)])
    assert (t.value, t.percentile) == (30.0, 75.0)
    # Order of the input does not matter.
    assert tail(list(reversed(range(1, 41)))).value == 30


def test_tail_with_too_few_samples_is_the_max_with_none_beyond():
    t = tail([3.0, 1.0, 2.0])
    assert (t.value, t.percentile, t.beyond, t.samples) == (3.0, 100.0,
                                                           0, 3)


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_error_rate():
    assert error_rate(200, 0) == 0.0
    assert error_rate(200, 3) == 0.015
    with pytest.raises(ValueError):
        error_rate(0, 0)


def test_category_mapping_matches_the_layer_modules():
    assert CATEGORY_LAYER["base"] == "program"
    assert CATEGORY_LAYER["encoding"] == "ccencoding"
    for category in ("interpose", "lookup", "metadata", "defense"):
        assert CATEGORY_LAYER[category] == "defense"
    for category in ("mmap", "mprotect", "sbrk"):
        assert CATEGORY_LAYER[category] == "machine"


def test_cycle_shares_group_categories_by_layer():
    shares = cycle_shares({"base": 50, "encoding": 10, "lookup": 5,
                           "metadata": 15, "sbrk": 10, "novel": 10})
    assert shares == pytest.approx({"program": 0.5, "ccencoding": 0.1,
                                    "defense": 0.2, "machine": 0.1,
                                    "unmapped": 0.1})
    assert cycle_shares({}) == {}


def test_reconcile_flags_disagreeing_layers_only():
    rows = {row.layer: row for row in reconcile(
        {"program": 6.0, "defense": 2.0, "allocator": 2.0},
        {"base": 90, "interpose": 10})}
    assert rows["program"].host_share == pytest.approx(0.6)
    assert rows["program"].cycle_share == pytest.approx(0.9)
    assert rows["program"].disagrees          # 60% vs 90%
    assert not rows["defense"].disagrees      # 20% vs 10%: within 10 pts
    # The allocator has no cycle category: shown, never flagged.
    assert rows["allocator"].cycle_share is None
    assert not rows["allocator"].disagrees


def test_reconciled_threshold_is_strict():
    assert not Reconciled("x", 0.30, 0.20).disagrees
    assert Reconciled("x", 0.31, 0.20).disagrees
