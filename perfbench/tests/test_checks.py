"""Output checks: a deliberately corrupted outcome must raise the
error rate, on every workload."""

import dataclasses

import pytest

from hpbench import workloads
from hpbench.stats import error_rate
from repro.defense.patch_table import PatchTable


def _ready(cls):
    workload = cls(seed=3, workers=1)
    workload.setup()
    workload.reference()
    return workload


def _corrupt_first(result, status, replace_with):
    """Rewrite the first outcome with ``status`` to ``replace_with``."""
    batches = list(result.batches)
    for i, batch in enumerate(batches):
        outcomes = list(batch.outcomes)
        for j, outcome in enumerate(outcomes):
            if outcome[0] == status:
                outcomes[j] = replace_with
                batches[i] = dataclasses.replace(batch,
                                                 outcomes=tuple(outcomes))
                return dataclasses.replace(result, batches=batches)
    raise AssertionError(f"no {status!r} outcome to corrupt")


@pytest.mark.parametrize("cls,status,corrupt", [
    (workloads.NginxGuarded, "blocked", ("leak", 4216)),
    (workloads.NginxGuarded, "ok", ("ok", 1)),
    (workloads.MysqlPool, "ok", ("ok", 0)),
])
def test_serving_corruption_raises_error_rate(cls, status, corrupt):
    workload = _ready(cls)
    try:
        clean = workload.round()
        assert clean.failed == 0
        result = workload.engine.serve()
        admitted = workload.engine.plan.requests
        assert workload.check(admitted, result) == 0
        bad = workload.check(admitted,
                             _corrupt_first(result, status, corrupt))
        assert bad >= 1
        assert error_rate(len(admitted), bad) > 0
        # A digest that differs from the in-process oracle's fails the
        # whole round.
        forged = dict(result.report, outcomes_digest="0" * 64)
        assert workload.check(
            admitted, dataclasses.replace(result, report=forged)) == len(
                admitted)
    finally:
        workload.close()


def test_spec_cycle_drift_is_a_failure():
    workload = _ready(workloads.SpecFig8)
    assert workload.round().failed == 0
    workload.expected_cycles[0] += 1
    assert workload.round().failed == 1


def test_respond_unpatched_or_forged_table_fails():
    workload = _ready(workloads.Respond)
    assert workload.round().failed == 0
    key, system = next(iter(workload.systems.items()))
    # No patches: nothing to publish, the subscriber refuses the stale
    # version, the report counts as failed.
    assert not workload._deploy(system, PatchTable.empty(), {})
    # A table that does not defeat the attack fails re-verification.
    workload.systems = {key: system}
    original = workload.pool.diagnose

    def without_patches(corpus, programs):
        diagnosis = original(corpus, programs)
        diagnosis.tables = {}
        return diagnosis

    workload.pool.diagnose = without_patches
    assert workload.round().failed == len(workload.corpus)
