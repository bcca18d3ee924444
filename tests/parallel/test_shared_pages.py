"""Shared-memory page backing for worker pools.

The worker initializers install a process-wide shared
:class:`~repro.machine.pagestore.PageStore`, so every page frame a
worker materializes lives in ``/dev/shm`` instead of a private
``bytearray``.  Three guarantees are tested here:

1. workers really draw frames from a *shared* arena (fork and spawn
   start methods both),
2. normal pool shutdown unlinks every arena — nothing is left behind
   in ``/dev/shm`` (multiprocessing children skip plain ``atexit``, so
   this exercises the ``multiprocessing.util.Finalize`` registration),
3. diagnosis results are byte-identical with and without shared pages
   (frame backing must never be observable).
"""

import glob
import os

import multiprocessing
import pytest

from repro.machine.pagestore import (
    PageStore,
    get_default_store,
    install_shared_worker_store,
    uninstall_shared_worker_store,
)
from repro.parallel import DiagnosisPool, workers
from repro.parallel.fanout import fanout_map
from repro.workloads.corpus import table2_corpus


def _shm_entries(prefix):
    return sorted(os.path.basename(p)
                  for p in glob.glob(f"/dev/shm/{prefix}*"))


def _worker_probe(item):
    """Runs in a pool worker: report on the installed page store and
    prove guest paging actually draws frames from it."""
    from repro.machine.memory import VirtualMemory

    store = get_default_store()
    if store is None:
        return {"installed": False}
    before = store.allocated_pages
    vm = VirtualMemory()
    address = vm.mmap(4 * 4096)
    vm.write(address, bytes([item % 256]) * 4096)
    touched = store.allocated_pages > before
    data_ok = vm.read(address, 4096) == bytes([item % 256]) * 4096
    return {
        "installed": True,
        "shared": store.shared,
        "touched": touched,
        "data_ok": data_ok,
        "segments": [block.name for block in store._shm_blocks],
        "pid": os.getpid(),
    }


def _run_pool_probe(monkeypatch, start_method, jobs=2, items=8):
    context = multiprocessing.get_context(start_method)
    monkeypatch.setattr(workers, "pool_context", lambda: context)
    return fanout_map(_worker_probe, range(items), jobs=jobs,
                      shared_pages=True)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
class TestWorkerArenas:
    def test_workers_use_shared_arenas_and_clean_up(self, start_method,
                                                    monkeypatch):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this host")
        results = _run_pool_probe(monkeypatch, start_method)
        segment_names = set()
        for result in results:
            assert result["installed"]
            assert result["shared"]
            assert result["touched"]
            assert result["data_ok"]
            segment_names.update(result["segments"])
        assert segment_names  # at least one arena segment existed
        # Normal pool shutdown must have unlinked every segment.
        leftovers = [name for name in segment_names
                     if os.path.exists(f"/dev/shm/{name}")]
        assert leftovers == []
        assert _shm_entries("repro-fanout-pages") == []


class TestInProcessLifecycle:
    def test_install_is_idempotent_and_uninstall_clears(self):
        try:
            store = install_shared_worker_store("repro-test-pages")
            assert install_shared_worker_store("repro-test-pages") is store
            assert get_default_store() is store
            assert store.shared
        finally:
            uninstall_shared_worker_store()
        assert get_default_store() is None
        assert _shm_entries("repro-test-pages") == []
        # Uninstalling twice is a no-op.
        uninstall_shared_worker_store()

    def test_attached_store_sees_writes_without_copying(self):
        owner = PageStore(shared=True, name_prefix="repro-test-pages")
        try:
            slot, window, words = owner.alloc()
            window[:8] = b"ABCDEFGH"
            reader = PageStore.attach(owner.handle())
            view, view_words = reader._views_for(slot)
            assert bytes(view[:8]) == b"ABCDEFGH"
            words[0] = 0x1122334455667788
            assert view_words[0] == 0x1122334455667788
            del view, view_words, window, words
            reader.close()
            # The attached store must not have unlinked the segments.
            assert _shm_entries("repro-test-pages")
        finally:
            owner.close()
        assert _shm_entries("repro-test-pages") == []


class TestObservationEquivalence:
    def test_fanout_results_independent_of_backing(self):
        items = list(range(12))
        assert (fanout_map(_triple, items, jobs=2, shared_pages=True)
                == fanout_map(_triple, items, jobs=2)
                == fanout_map(_triple, items, jobs=1))
        assert _shm_entries("repro-fanout-pages") == []

    def test_diagnosis_identical_with_shared_pages(self):
        """`repro diagnose --jobs N --shared-pages` must serialize
        byte-identically to `--jobs 1`."""
        corpus = table2_corpus()
        serial = DiagnosisPool(jobs=1).diagnose(corpus)
        shared = DiagnosisPool(jobs=2,
                               shared_pages=True).diagnose(corpus)
        assert shared.serialize() == serial.serialize()
        assert _shm_entries("repro-diag-pages") == []


def _triple(item):
    """Module-level (picklable) worker for the fan-out smoke test; it
    pages through guest memory so shared arenas actually get traffic."""
    from repro.machine.memory import VirtualMemory

    vm = VirtualMemory()
    address = vm.mmap(4096)
    vm.write(address, item.to_bytes(8, "little"))
    return int.from_bytes(vm.read(address, 8), "little") * 3
