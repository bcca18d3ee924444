"""DiagnosisPool keeps its workers: reuse, re-fork and release.

The pool forks on its first parallel ``diagnose`` and keeps the workers
for later calls while they were shipped the same ``(key, program,
codec)`` objects.  A call with any other program object re-forks, so a
worker never replays a program it was not shipped.  ``close()`` (or the
``with`` block) releases the workers and their shared-memory arenas.
The pinned digest holds the serial output byte-for-byte to what the
per-byte shadow implementation produced.  Workers whose parent dies to
a signal exit on their own and unlink their arenas.

Every class runs under ``fork`` (the default start method) and again
under ``spawn`` through its ``...Spawn`` twin, which only overrides
``start_method``: page arenas and the other per-process state are
module state, so a spawned worker must build its own rather than
inherit it.
"""

import glob
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.parallel import DiagnosisPool
from repro.workloads.corpus import (
    AttackCorpus,
    CorpusEntry,
    default_corpus,
    table2_corpus,
)
from repro.workloads.vulnerable import workload_registry

#: sha256 of :func:`canonical` over ``DiagnosisPool(jobs=1)`` on the
#: default corpus: patches, summaries, per-entry cycles and tables.
DEFAULT_CORPUS_DIGEST = (
    "fcbc445238e6a4bc5fc265b0a2f97c173c4391c77e60c5ba6c3da29357b947c8")


#: Every test runs its pools under its class's ``start_method``
#: (``tests/parallel/conftest.py``).
pytestmark = pytest.mark.usefixtures("start_method")


def canonical(diagnosis):
    """Version-stable JSON of everything a diagnosis decides."""
    return json.dumps({
        "results": [{
            "entry": result.entry_id,
            "patches": [patch.render() for patch in result.patches],
            "vulns": int(result.vulns),
            "summary": [result.summary.warnings, int(result.summary.kinds),
                        result.summary.buffers_implicated,
                        [[fun, ccid, int(kinds)] for fun, ccid, kinds
                         in result.summary.candidates]],
            "crashed": result.crashed,
            "cycles": [[category, total]
                       for category, total in result.cycles],
        } for result in diagnosis.results],
        "tables": diagnosis.serialize(),
    }, sort_keys=True)


def worker_pids(pool):
    return set(pool.worker_pool.pids)


def alive(pid):
    """Whether ``pid`` runs (an unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def shipped_programs(corpus):
    """Instrument ``corpus`` once, as a long-lived caller would."""
    plan = DiagnosisPool(jobs=1).build_plan(corpus)
    return {plan_.key: (plan_.program, plan_.codec)
            for plan_ in plan.programs}


def shuffled(corpus, seed):
    entries = list(corpus.entries)
    random.Random(seed).shuffle(entries)
    return AttackCorpus(tuple(entries))


def diag_segments():
    return glob.glob("/dev/shm/repro-diag-pages*")


class TestPinnedOutput:
    def test_serial_default_corpus_digest(self):
        diagnosis = DiagnosisPool(jobs=1).diagnose(default_corpus())
        digest = hashlib.sha256(canonical(diagnosis).encode()).hexdigest()
        assert digest == DEFAULT_CORPUS_DIGEST

    def test_persistent_workers_match_serial_every_call(self):
        corpus = default_corpus()
        programs = shipped_programs(corpus)
        serial = canonical(DiagnosisPool(jobs=1).diagnose(
            corpus, programs=programs))
        with DiagnosisPool(jobs=2) as pool:
            for seed in range(3):
                diagnosis = pool.diagnose(shuffled(corpus, seed),
                                          programs=programs)
                by_entry = {r.entry_id: r for r in diagnosis.results}
                diagnosis.results = [by_entry[e.entry_id]
                                     for e in corpus.entries]
                assert canonical(diagnosis) == serial


class TestWorkerReuse:
    def test_same_programs_reuse_worker_pids(self):
        corpus = table2_corpus()
        programs = shipped_programs(corpus)
        with DiagnosisPool(jobs=2) as pool:
            pool.diagnose(corpus, programs=programs)
            first = worker_pids(pool)
            # A reordered corpus ships the same objects: no re-fork.
            pool.diagnose(shuffled(corpus, 1), programs=programs)
            assert worker_pids(pool) == first
            assert len(first) == 2

    def test_different_program_object_reforks(self):
        registry = workload_registry()
        entries = (CorpusEntry("a", "heartbleed", "attack"),
                   CorpusEntry("b", "heartbleed", "attack"))
        corpus = AttackCorpus(entries)
        heartbleed = shipped_programs(corpus)
        # Same key, another program: a stale worker would replay
        # Heartbleed and return Heartbleed's patches.
        swapped = shipped_programs(AttackCorpus(
            (CorpusEntry("c", "bc", "attack"),)))
        swapped = {"heartbleed": swapped["bc"]}
        expected = DiagnosisPool(jobs=1).diagnose(corpus, programs=swapped)
        with DiagnosisPool(jobs=2) as pool:
            before = pool.diagnose(corpus, programs=heartbleed)
            first = worker_pids(pool)
            after = pool.diagnose(corpus, programs=swapped)
            assert worker_pids(pool).isdisjoint(first)
        assert after.serialize() == expected.serialize()
        assert after.serialize() != before.serialize()

    def test_close_releases_workers_and_is_idempotent(self):
        pool = DiagnosisPool(jobs=2)
        pool.diagnose(table2_corpus())
        pids = worker_pids(pool)
        assert len(pids) == 2
        pool.close()
        pool.close()
        assert not pool.worker_pool.pids
        assert not any(alive(pid) for pid in pids)

    def test_serial_pool_never_forks(self):
        with DiagnosisPool(jobs=1) as pool:
            pool.diagnose(table2_corpus())
            assert not pool.worker_pool.pids


class TestPinnedOutputSpawn(TestPinnedOutput):
    start_method = "spawn"


class TestWorkerReuseSpawn(TestWorkerReuse):
    start_method = "spawn"


class TestSharedPagesLifecycle:
    def test_segments_bounded_across_calls_and_gone_after_close(self):
        corpus = table2_corpus()
        programs = shipped_programs(corpus)
        counts = []
        with DiagnosisPool(jobs=2, shared_pages=True) as pool:
            for _ in range(20):
                pool.diagnose(corpus, programs=programs)
                counts.append(len(diag_segments()))
        assert max(counts) == counts[0]
        assert diag_segments() == []


class TestSharedPagesLifecycleSpawn(TestSharedPagesLifecycle):
    start_method = "spawn"

    def test_segments_bounded_across_calls_and_gone_after_close(self):
        """A spawned worker can still be starting while its sibling
        takes every task of the first call, so its arena may first
        appear in a later call; from then on each worker's segments
        stay the same."""
        corpus = table2_corpus()
        programs = shipped_programs(corpus)
        by_worker = {}
        with DiagnosisPool(jobs=2, shared_pages=True) as pool:
            for _ in range(20):
                pool.diagnose(corpus, programs=programs)
                seen = {}
                for name in diag_segments():
                    pid = name.rsplit("-", 2)[-2]
                    seen.setdefault(pid, set()).add(name)
                for pid, names in seen.items():
                    assert by_worker.setdefault(pid, names) == names
                assert set(seen) == set(by_worker)
            assert len(by_worker) <= 2
        assert diag_segments() == []


#: Builds a kept diagnosis pool and a kept serving pool under the start
#: method in argv[2], records their worker pids, then dies to SIGKILL
#: with both pools live.
ORPHAN_SCRIPT = """
import multiprocessing, os, signal, sys
from repro.parallel import DiagnosisPool, workers
from repro.serving import ServingEngine, ServingOptions
from repro.workloads.corpus import table2_corpus

context = multiprocessing.get_context(sys.argv[2])
workers.pool_context = lambda: context
pool = DiagnosisPool(jobs=2, shared_pages=True)
pool.diagnose(table2_corpus())
engine = ServingEngine(ServingOptions(
    service="nginx", workers=2, requests=40, batch_size=10,
    shared_pages=True))
engine.serve()
pids = pool.worker_pool.pids | engine.worker_pool.pids
with open(sys.argv[1], "w") as handle:
    handle.write(" ".join(map(str, sorted(pids))))
os.kill(os.getpid(), signal.SIGKILL)
"""


def arenas():
    return set(glob.glob("/dev/shm/repro-*-pages*"))


class TestParentDeath:
    def test_workers_exit_and_unlink_when_parent_is_killed(
            self, tmp_path, start_method):
        before = arenas()
        pid_file = tmp_path / "pids"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(repro.__file__))
        # No pipe to the script: orphans holding it open would hang us.
        parent = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_SCRIPT, str(pid_file),
             start_method],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        assert parent.wait(timeout=120) == -signal.SIGKILL
        pids = [int(pid) for pid in pid_file.read_text().split()]
        assert len(pids) == 4
        try:
            deadline = time.monotonic() + 5
            while (any(alive(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert not any(alive(pid) for pid in pids)
            assert arenas() - before == set()
        finally:
            for pid in pids:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)


class TestParentDeathSpawn(TestParentDeath):
    start_method = "spawn"
