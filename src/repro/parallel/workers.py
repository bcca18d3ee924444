"""Worker-pool plumbing shared by the process fan-outs.

:class:`~repro.parallel.engine.DiagnosisPool` and
:class:`~repro.serving.engine.ServingEngine` both keep a
``ProcessPoolExecutor`` alive across calls, and both must survive a
worker that dies mid-task.  This module holds the parts they share:

* :func:`pool_context` — the start method (``fork`` where available);
* :func:`run_recovering` — dispatch with crash recovery: a dead worker
  breaks the whole executor (every in-flight future raises
  ``BrokenProcessPool``), so recovery reaps the broken pool, re-forks
  and resubmits only the tasks that never completed.  Tasks are pure
  functions of their item, so a rerun is byte-identical to what the
  dead worker would have produced.  A persistent crash loop fails after
  :data:`MAX_POOL_REBUILDS` rebuilds instead of spinning;
* :func:`cpu_slots` / :func:`pin_to_cpu` — one CPU per worker;
* :func:`maybe_inject_crash` — the env-gated fault injector the
  crash-recovery tests arm (a no-op unless its variables are set).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Times a dispatcher rebuilds a crashed worker pool before giving up.
#: Each rebuild resubmits only the unfinished tasks, so a single worker
#: death costs one pool fork plus the lost task.
MAX_POOL_REBUILDS = 3


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
    if (not hasattr(os, "sched_setaffinity")
            or workers > len(os.sched_getaffinity(0))):
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


def maybe_inject_crash(target_var: str, flag_var: str, key: str) -> None:
    """SIGKILL this worker before the task named ``key`` (env-gated).

    ``target_var`` names the environment variable holding the task key
    to die on; ``flag_var`` one holding a flag-file path created
    atomically (``O_EXCL``), so exactly one worker dies exactly once and
    the resubmitted task then runs normally.  With no flag set the task
    crashes on *every* attempt: the crash-loop case the bounded rebuild
    count exists for.
    """
    if os.environ.get(target_var) != key:
        return
    flag = os.environ.get(flag_var)
    if flag is not None:
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return
    os.kill(os.getpid(), signal.SIGKILL)


def run_recovering(pool: Callable[[], ProcessPoolExecutor],
                   reap: Callable[[], None],
                   fn: Callable[[_ItemT], _ResultT],
                   items: Sequence[_ItemT],
                   error: Callable[[str], Exception],
                   max_inflight: Optional[int] = None) -> List[_ResultT]:
    """Map ``fn`` over ``items`` on a pool that survives worker deaths.

    ``pool()`` returns the live executor (forking one if needed) and
    ``reap()`` discards a broken one.  At most ``max_inflight`` tasks
    are in flight at once (``None``: all of them).  Results come back
    in item order, so completion order is unobservable.
    """
    results: List[Optional[_ResultT]] = [None] * len(items)
    finished = [False] * len(items)
    rebuilds = 0
    while True:
        try:
            _dispatch(pool(), fn, items, results, finished, max_inflight)
            return results  # type: ignore[return-value]
        except BrokenProcessPool:
            rebuilds += 1
            reap()
            if rebuilds > MAX_POOL_REBUILDS:
                raise error(
                    f"worker pool died {rebuilds} times; giving up after "
                    f"{MAX_POOL_REBUILDS} rebuilds (crash loop, not a "
                    f"one-off worker death)") from None


def _dispatch(executor: ProcessPoolExecutor,
              fn: Callable[[_ItemT], _ResultT],
              items: Sequence[_ItemT],
              results: List[Optional[_ResultT]],
              finished: List[bool],
              max_inflight: Optional[int]) -> None:
    """One dispatch round over the unfinished items."""
    pending = [index for index, done in enumerate(finished) if not done]
    limit = len(pending) if max_inflight is None else max_inflight
    inflight: Dict[Future, int] = {}
    next_pos = 0
    while next_pos < len(pending) or inflight:
        while next_pos < len(pending) and len(inflight) < limit:
            index = pending[next_pos]
            inflight[executor.submit(fn, items[index])] = index
            next_pos += 1
        done, _ = wait(inflight, return_when=FIRST_COMPLETED)
        for future in done:
            index = inflight.pop(future)
            results[index] = future.result()
            finished[index] = True
