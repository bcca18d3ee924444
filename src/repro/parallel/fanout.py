"""Generic deterministic fan-out over one worker pool.

:class:`~repro.parallel.engine.DiagnosisPool` is specialized to corpus
diagnosis; :func:`fanout_map` is the reusable primitive —
"map a picklable function over items across N worker processes and
return the results in item order".  The fuzz campaign runner, the
attack synthesizer and the fleet's instances shard their work through
it, on a :class:`~repro.parallel.workers.WorkerPool` that ships the
function once and survives a worker crash.

Determinism contract: results are returned in the order of ``items``,
never in completion order, so ``jobs=N`` output is byte-identical to
``jobs=1`` as long as ``fn`` itself is a pure function of its item.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, TypeVar

from .workers import WorkerPool, resolve_jobs

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def _apply(fn: Callable[[Any], Any], item: Any) -> Any:
    """Pool task: the shipped function on one item."""
    return fn(item)


def fanout_map(fn: Callable[[_ItemT], _ResultT],
               items: Sequence[_ItemT],
               jobs: int = 1,
               shared_pages: bool = False) -> List[_ResultT]:
    """Map ``fn`` over ``items`` across ``jobs`` worker processes.

    ``fn`` must be a module-level function and every item/result must be
    picklable (the :mod:`repro.parallel` rules).  ``jobs=1`` — or a
    single item — runs in-process through the identical code path, with
    no executor; ``0`` uses every usable CPU.  ``shared_pages`` backs
    each worker's page frames with a shared-memory arena (no-op
    in-process; results never depend on frame backing).
    """
    with WorkerPool("fanout", resolve_jobs(jobs), _apply,
                    shared_pages=shared_pages) as pool:
        return pool.map(items, fn)
