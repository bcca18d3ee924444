"""WorkerPool's host-side counters: maps, tasks and crash rebuilds.

The counters describe how a pool distributed its work, never what the
work computed, so they appear in no report or digest.  A once-only
worker crash costs exactly one rebuild; an undisturbed map costs none.
"""

import pytest

from repro.parallel.workers import WorkerPool


def scale(factor, item):
    """Pool task: the item times the shipped factor."""
    return factor * item


@pytest.mark.parametrize("workers", [1, 2])
def test_undisturbed_maps_count_no_rebuilds(workers):
    with WorkerPool("counted", workers, scale) as pool:
        assert pool.counters() == {"maps": 0, "tasks": 0, "rebuilds": 0}
        assert pool.map(range(5), 3) == [0, 3, 6, 9, 12]
        assert pool.map([7], 3) == [21]
        assert pool.counters() == {"maps": 2, "tasks": 6, "rebuilds": 0}


def test_once_only_crash_counts_one_rebuild(monkeypatch, tmp_path):
    flag = tmp_path / "crash-once"
    monkeypatch.setenv("REPRO_CRASH_TASK", "counted:4")
    monkeypatch.setenv("REPRO_CRASH_FLAG", str(flag))
    with WorkerPool("counted", 2, scale) as pool:
        assert pool.map(range(6), 2) == [0, 2, 4, 6, 8, 10]
        assert flag.exists(), "fault injection never fired"
        assert pool.counters() == {"maps": 1, "tasks": 6, "rebuilds": 1}
