"""Diagnosis worker crash recovery: a SIGKILLed worker changes nothing.

Fault injection is env-gated inside the pool worker
(:func:`repro.parallel.workers.maybe_inject_crash`): exactly one worker
SIGKILLs itself before replaying a targeted run of entries (an
``O_EXCL`` flag file makes the crash once-only), which breaks the whole
``ProcessPoolExecutor``.  The pool must reap the broken executor,
re-fork, resubmit only the unfinished entries and still merge tables
byte-identical to the undisturbed ``jobs=1`` oracle.  Because the pool
now outlives one call, recovery must also leave it usable for the next
``diagnose``.  :class:`TestCrashRecovery` runs under ``fork`` (the
default start method) and its twin :class:`TestCrashRecoverySpawn`
under ``spawn``, where every rebuilt worker starts a fresh interpreter.
"""


import pytest

from repro.parallel import DiagnosisError, DiagnosisPool
from repro.parallel.workers import MAX_POOL_REBUILDS
from repro.workloads.corpus import default_corpus

#: The second of the four runs ``jobs=2`` splits the corpus into, so
#: work finishes on both sides.
TARGET = "diag:1"


@pytest.fixture()
def crash_env(monkeypatch, tmp_path):
    """Arm the once-only fault injection; yields the flag path."""
    flag = tmp_path / "crash-once"
    monkeypatch.setenv("REPRO_CRASH_TASK", TARGET)
    monkeypatch.setenv("REPRO_CRASH_FLAG", str(flag))
    return flag


#: Every test runs its pools under its class's ``start_method``
#: (``tests/parallel/conftest.py``).
pytestmark = pytest.mark.usefixtures("start_method")


class TestCrashRecovery:
    def test_sigkilled_worker_matches_serial_oracle(self, crash_env):
        corpus = default_corpus()
        oracle = DiagnosisPool(jobs=1).diagnose(corpus)
        with DiagnosisPool(jobs=2) as pool:
            crashed = pool.diagnose(corpus)
            assert crash_env.exists(), "fault injection never fired"
            assert crashed.serialize() == oracle.serialize()
            assert ([r.entry_id for r in crashed.results]
                    == [e.entry_id for e in corpus.entries])
            for workload in oracle.tables:
                assert (crashed.table_for(workload).serialize()
                        == oracle.table_for(workload).serialize())
            # The rebuilt pool serves the next call as usual.
            assert pool.diagnose(corpus).serialize() == oracle.serialize()

    def test_crash_loop_fails_typed_after_bounded_rebuilds(
            self, monkeypatch):
        """With no once-only flag the targeted run kills its worker on
        every attempt; the pool gives up with a DiagnosisError."""
        monkeypatch.setenv("REPRO_CRASH_TASK", TARGET)
        monkeypatch.delenv("REPRO_CRASH_FLAG", raising=False)
        with DiagnosisPool(jobs=2) as pool:
            with pytest.raises(DiagnosisError) as excinfo:
                pool.diagnose(default_corpus())
            assert "giving up" in str(excinfo.value)
            assert str(MAX_POOL_REBUILDS) in str(excinfo.value)
            assert not pool.worker_pool.pids  # the broken pool was reaped

    def test_serial_path_ignores_the_injector(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRASH_TASK", TARGET)
        monkeypatch.delenv("REPRO_CRASH_FLAG", raising=False)
        diagnosis = DiagnosisPool(jobs=1).diagnose(default_corpus())
        assert not diagnosis.failures()


class TestCrashRecoverySpawn(TestCrashRecovery):
    start_method = "spawn"
