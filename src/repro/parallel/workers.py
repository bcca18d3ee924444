"""The one worker pool behind every process fan-out.

:class:`~repro.parallel.engine.DiagnosisPool`,
:class:`~repro.serving.engine.ServingEngine` and
:func:`~repro.parallel.fanout.fanout_map` (fuzz, synth and fleet) each
map a pure, module-level task over items on a :class:`WorkerPool`,
which owns what they share:

* a kept executor, forked lazily on the first parallel map; the plan
  is pickled once in the parent and turned into per-process state by a
  caller-supplied factory in one generic initializer, so per-task
  messages carry only the item;
* the in-process path (one worker, or at most one task) through the
  same state factory and task function;
* worker set-up: a CPU per worker (:func:`pin_to_cpu`), the
  ``--shared-pages`` arena, and a parent watch so no worker outlives a
  parent killed by a signal (:func:`watch_parent`);
* crash recovery: a dead worker breaks the whole executor (every
  in-flight future raises ``BrokenProcessPool``), so the map reaps it,
  re-forks and resubmits only the unfinished tasks.  Tasks are pure
  functions of their item, so a rerun is byte-identical, and results
  come back in item order.  A crash loop fails after
  :data:`MAX_POOL_REBUILDS` rebuilds instead of spinning;
* the env-gated crash injector the recovery tests arm
  (:func:`maybe_inject_crash`);
* release by :meth:`WorkerPool.close`, the ``with`` block or garbage
  collection.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..machine.pagestore import (
    install_shared_worker_store,
    uninstall_shared_worker_store,
)

#: Times a pool rebuilds after a worker crash before giving up.  Each
#: rebuild resubmits only the unfinished tasks, so a single worker
#: death costs one pool fork plus the lost task.
MAX_POOL_REBUILDS = 3

#: Seconds between a worker's checks that its parent is still alive:
#: an orphaned worker exits within about this long.
PARENT_POLL_SECONDS = 0.5


class WorkerPoolError(RuntimeError):
    """A fan-out failed in its workers (message-only: picklable)."""


class JobsError(ValueError):
    """A negative worker count (message-only: picklable)."""


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = 0) -> int:
    """A worker count: ``0`` or ``None`` means every usable CPU, and a
    negative count raises :class:`JobsError`."""
    if not jobs:
        return usable_cpus()
    if jobs < 0:
        raise JobsError(
            f"worker count must be >= 0 (0 = every usable CPU), got {jobs}")
    return jobs


def pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap workers, Linux default); shipped plans are
    pickle-clean either way so ``spawn`` hosts work too."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def cpu_slots(workers: int) -> Any:
    """A shared counter the pool's workers draw their CPUs from (the
    :func:`pin_to_cpu` initializer argument), or ``None`` where pinning
    does not apply: no affinity API, or more workers than usable CPUs."""
    if not hasattr(os, "sched_setaffinity") or workers > usable_cpus():
        return None
    return pool_context().Value("i", 0)


def pin_to_cpu(slots: Any) -> None:
    """Pool-initializer step: pin this worker to a CPU of its own.

    A fan-out wakes all idle workers at once.  Unpinned, a worker woken
    on the CPU where a sibling already runs waits there until the
    scheduler migrates it — milliseconds on a small host, as long as a
    whole diagnosis call.  With one CPU per worker it starts at once.
    """
    if slots is None:
        return
    with slots.get_lock():
        index = slots.value
        slots.value += 1
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})


def watch_parent(parent: int) -> None:
    """Pool-initializer step: end this worker once ``parent`` is gone.

    An idle worker blocks on the call queue, and a parent killed by a
    signal never sends it the shutdown sentinel — the siblings hold the
    queue open, so the worker would wait forever, holding the parent's
    stdout and its shared-memory arena.  A daemon thread polls
    ``os.getppid()`` instead; when the worker has been re-parented it
    unlinks the arena and exits.  Pool workers never fork, so the
    thread is safe.
    """
    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_SECONDS)
        uninstall_shared_worker_store()
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch",
                     daemon=True).start()


def maybe_inject_crash(name: str, index: int) -> None:
    """SIGKILL this worker before task ``index`` of pool ``name``
    (env-gated).

    ``REPRO_CRASH_TASK`` holds the ``<name>:<index>`` to die on;
    ``REPRO_CRASH_FLAG`` a flag-file path created atomically
    (``O_EXCL``), so exactly one worker dies exactly once and the
    resubmitted task then runs normally.  With no flag set the task
    crashes on *every* attempt: the crash-loop case the bounded rebuild
    count exists for.
    """
    if os.environ.get("REPRO_CRASH_TASK") != f"{name}:{index}":
        return
    flag = os.environ.get("REPRO_CRASH_FLAG")
    if flag is not None:
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return
    os.kill(os.getpid(), signal.SIGKILL)


def _the_plan(plan: Any) -> Any:
    """The default state factory: a worker's state is its plan."""
    return plan


#: This worker process's ``(pool name, task, state)``, set by
#: :func:`_init_worker`.
_WORKER: Optional[Tuple[str, Callable[[Any, Any], Any], Any]] = None


def _init_worker(name: str, task: Callable[[Any, Any], Any],
                 state: Callable[[Any], Any], payload: bytes,
                 shared_pages: bool, slots: Any, parent: int) -> None:
    """Pool initializer: set up this worker and build its state from
    the shipped plan, once."""
    global _WORKER
    watch_parent(parent)
    pin_to_cpu(slots)
    if shared_pages:
        install_shared_worker_store(f"repro-{name}-pages")
    _WORKER = (name, task, state(pickle.loads(payload)))


def _run_task(index: int, item: Any) -> Any:
    """Pool task: run the pool's task on one item."""
    assert _WORKER is not None, "worker initializer did not run"
    name, task, state = _WORKER
    maybe_inject_crash(name, index)
    return task(state, item)


class WorkerPool:
    """A kept process pool mapping one task over items, in item order.

    Args:
        name: names the pool in ``REPRO_CRASH_TASK`` and its workers'
            shared arenas (``/dev/shm/repro-<name>-pages*``).
        workers: most worker processes; ``1`` runs every map
            in-process.  A map forks at most one worker per task.
        task: module-level ``task(state, item) -> result``.
        state: module-level factory building a process's state from
            the shipped plan (default: the plan itself).
        error: the exception type raised for an unpicklable plan or a
            crash loop.
        shared_pages: back worker page frames with shared-memory
            arenas.  The in-process path has no process boundary, so
            the flag is a no-op there — results never depend on frame
            backing.

    A map submits every task at once: the executor's call queue keeps
    each worker fed, so a worker that finishes a task starts the next
    without waiting for the parent to collect a result.
    """

    def __init__(self, name: str, workers: int,
                 task: Callable[[Any, Any], Any],
                 state: Callable[[Any], Any] = _the_plan, *,
                 error: Callable[[str], Exception] = WorkerPoolError,
                 shared_pages: bool = False) -> None:
        if workers < 1:
            raise error(f"workers must be >= 1, got {workers}")
        self.name = name
        self.workers = workers
        self.task = task
        self.state = state
        self.error = error
        self.shared_pages = shared_pages
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Host-side counters (:meth:`counters`): maps run, items
        #: mapped and executor re-forks after a worker crash.
        self.maps = 0
        self.tasks = 0
        self.rebuilds = 0

    @property
    def pids(self) -> frozenset:
        """Process ids of the live workers (empty before the first
        parallel map and after :meth:`close`)."""
        if self._executor is None:
            return frozenset()
        return frozenset(self._executor._processes)

    def map(self, items: Sequence[Any], plan: Any = None) -> List[Any]:
        """``task(state(plan), item)`` for every item, in item order.

        Live workers keep the plan they were forked with; :meth:`close`
        first to ship another.
        """
        self.maps += 1
        self.tasks += len(items)
        if self.workers == 1 or len(items) <= 1:
            state = self.state(plan)
            return [self.task(state, item) for item in items]
        results: List[Any] = [None] * len(items)
        finished = [False] * len(items)
        rebuilds = 0
        while True:
            try:
                self._dispatch(self._pool(plan, len(items)), items,
                               results, finished)
                return results
            except BrokenProcessPool:
                rebuilds += 1
                self.rebuilds += 1
                self.close()
                if rebuilds > MAX_POOL_REBUILDS:
                    raise self.error(
                        f"worker pool died {rebuilds} times; giving up "
                        f"after {MAX_POOL_REBUILDS} rebuilds (crash loop, "
                        f"not a one-off worker death)") from None

    def _pool(self, plan: Any, tasks: int) -> ProcessPoolExecutor:
        """The live executor, forked with ``plan`` if there is none."""
        if self._executor is not None:
            return self._executor
        try:
            payload = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise self.error(
                f"{self.name} plan is not picklable ({exc!r}); parallel "
                f"workers need pickle-clean programs and codecs — run "
                f"with one worker") from None
        workers = min(self.workers, tasks)
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=pool_context(),
            initializer=_init_worker,
            initargs=(self.name, self.task, self.state, payload,
                      self.shared_pages, cpu_slots(workers), os.getpid()))
        return self._executor

    def _dispatch(self, executor: ProcessPoolExecutor,
                  items: Sequence[Any], results: List[Any],
                  finished: List[bool]) -> None:
        """One dispatch round: submit every unfinished item at once."""
        inflight: Dict[Future, int] = {
            executor.submit(_run_task, index, items[index]): index
            for index, done in enumerate(finished) if not done}
        for future in as_completed(inflight):
            index = inflight[future]
            results[index] = future.result()
            finished[index] = True

    def counters(self) -> Dict[str, int]:
        """Host-side pool counters, as a flat dict.

        They describe how the work was distributed, not what it
        computed, so they stay out of every report and digest.
        """
        return {"maps": self.maps, "tasks": self.tasks,
                "rebuilds": self.rebuilds}

    def close(self) -> None:
        """Shut down the workers (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
