"""Worker crash recovery: a SIGKILLed worker never changes the report.

Fault injection is env-gated inside the pool worker
(:func:`repro.parallel.workers.maybe_inject_crash`): exactly one worker
SIGKILLs itself before serving a targeted batch (an ``O_EXCL`` flag
file makes the crash once-only), which breaks the whole
``ProcessPoolExecutor``.  The engine must reap the broken pool, refork,
resubmit only the unfinished batches, and still produce a report
byte-identical to the undisturbed ``workers=1`` oracle — batch
outcomes are pure functions of (batch, table version), so reruns are
exact.
"""

import json
from dataclasses import replace

import pytest

from repro.parallel.workers import MAX_POOL_REBUILDS
from repro.serving.engine import (
    ServingEngine,
    ServingError,
    ServingOptions,
    serve,
)

#: Multi-batch shape with attacks on both sides of the crashed batch.
OPTIONS = ServingOptions(service="nginx", requests=80, batch_size=10,
                         workers=2, attack_every=9)


def canonical(result):
    report = dict(result.report)
    report.pop("workers")
    return json.dumps(report, sort_keys=True)


@pytest.fixture()
def crash_env(monkeypatch, tmp_path):
    """Arm the fault injection for batch 3; yields the flag path."""
    flag = tmp_path / "crash-once"
    monkeypatch.setenv("REPRO_CRASH_TASK", "serve:3")
    monkeypatch.setenv("REPRO_CRASH_FLAG", str(flag))
    return flag


class TestCrashRecovery:
    def test_sigkilled_worker_matches_sequential_oracle(self, crash_env):
        oracle = serve(replace(OPTIONS, workers=1))
        crashed = serve(OPTIONS)
        assert crash_env.exists(), "fault injection never fired"
        assert canonical(crashed) == canonical(oracle)

    def test_recovery_reserves_every_batch_exactly_once(self, crash_env):
        result = serve(OPTIONS)
        assert crash_env.exists()
        indices = [batch.index for batch in result.batches]
        assert indices == list(range(len(indices)))

    def test_crash_with_bounded_admission(self, crash_env):
        """Recovery resubmission may walk the lazy stream backwards;
        the windowed replay must still serve identical tokens."""
        oracle = serve(replace(OPTIONS, workers=1))
        crashed = serve(replace(OPTIONS, max_admitted=2))
        assert crash_env.exists()
        report = dict(crashed.report)
        base = dict(oracle.report)
        assert report.pop("max_admitted") == 2
        assert base.pop("max_admitted") == 0
        report.pop("workers"), base.pop("workers")
        assert report == base

    def test_crash_loop_fails_after_bounded_rebuilds(self, monkeypatch):
        """With no once-only flag, the targeted batch crashes on every
        attempt; the engine must give up after MAX_POOL_REBUILDS
        rebuilds with a ServingError instead of spinning forever."""
        monkeypatch.setenv("REPRO_CRASH_TASK", "serve:0")
        monkeypatch.delenv("REPRO_CRASH_FLAG", raising=False)
        with pytest.raises(ServingError) as excinfo:
            serve(OPTIONS)
        assert "giving up" in str(excinfo.value)
        assert str(MAX_POOL_REBUILDS) in str(excinfo.value)


class TestQueuedBatchCrash:
    """Every batch is submitted at once, so batch 7 of ``OPTIONS``' 9
    waits in the executor's queue behind running ones.  A worker that
    dies picking it up must still cost only a re-fork and a rerun of
    the unfinished batches — also when the pool has more workers than
    the host has CPUs, and under bounded admission."""

    @pytest.mark.parametrize("max_admitted", [0, 2])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_last_batch_crash_matches_oracle(self, workers, max_admitted,
                                             monkeypatch, tmp_path):
        options = replace(OPTIONS, workers=workers,
                          max_admitted=max_admitted)
        oracle = serve(replace(options, workers=1))
        batches = oracle.report["batches"]
        assert batches == 9
        flag = tmp_path / "crash-once"
        monkeypatch.setenv("REPRO_CRASH_TASK", "serve:7")
        monkeypatch.setenv("REPRO_CRASH_FLAG", str(flag))
        with ServingEngine(options) as engine:
            crashed = engine.serve()
            counters = engine.worker_pool.counters()
        assert flag.exists(), "fault injection never fired"
        assert canonical(crashed) == canonical(oracle)
        indices = [batch.index for batch in crashed.batches]
        assert indices == list(range(batches))
        assert counters == {"maps": 1, "tasks": batches, "rebuilds": 1}
