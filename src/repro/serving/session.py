"""Per-worker serving session: one batch, one private CCE state.

The paper's calling-context encoding is thread-local by design — every
thread owns its V register.  The serving engine reproduces that
ownership structurally: each batch is served by a fresh
:class:`ServingSession` holding its *own* encoding runtime, allocator,
meter and :class:`~repro.program.process.Process`.  Nothing mutable is
shared between workers, so per-worker CCIDs are computed by the same
codec over the same frames as a sequential run — the cross-worker
equivalence the tests pin down to byte-identical reports.

Fault isolation: a batch is split into *rounds* around attack tokens
(:func:`~repro.serving.services.split_rounds`).  Each round is one
``serve_main`` run; a guard-page fault in an attack round unwinds that
run (frames and encoding state rebalance through the call protocol's
``finally`` blocks) and is recorded as a ``blocked`` outcome — the
session keeps serving the remaining rounds, mirroring a supervised
worker process being restarted after a crash-stopped exploit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..allocator.base import Allocator
from ..allocator.libc import LibcAllocator
from ..allocator.segregated import SegregatedAllocator
from ..ccencoding.base import Codec
from ..ccencoding.runtime import EncodingRuntime
from ..defense.interpose import DEFAULT_ONLINE_QUOTA, DefendedAllocator
from ..defense.patch_table import PatchTable
from ..machine.errors import SegmentationFault
from ..program.cost import CycleMeter
from ..program.monitor import DirectMonitor
from ..program.process import Process
from ..program.program import Program

#: Underlying allocators the serving engine can deploy over (the defense
#: is allocator-transparent — paper property 5).  Segregated storage is
#: the default: slab reuse suits a request loop's fixed size classes.
ALLOCATORS = ("segregated", "libc")


#: Freed dedicated mappings a serving allocator may retain for reuse.
#: Large response bodies (8–16 KiB documents) otherwise cost an
#: ``mmap``/``munmap`` round trip per request; real server allocators
#: cache such spans (tcmalloc's span cache), and the serving engine
#: models that.  Identical for the ``workers=1`` oracle and ``workers=N``
#: runs, so report equivalence is unaffected.
MAP_CACHE_MAPPINGS = 256


def make_allocator(name: str, map_cache: int = 0) -> Allocator:
    """Construct a fresh underlying allocator by registry name."""
    if name == "segregated":
        return SegregatedAllocator(map_cache=map_cache)
    if name == "libc":
        return LibcAllocator()
    raise ValueError(f"unknown allocator {name!r}; choose from "
                     f"{', '.join(ALLOCATORS)}")


@dataclass(frozen=True)
class BatchResult:
    """Plain-data outcome of one served batch (picklable)."""

    index: int
    #: Per-request ``(status, sent_bytes)`` outcomes, in request order.
    outcomes: Tuple[Tuple[str, int], ...]
    served: int
    bytes_sent: int
    #: Sorted per-category cycle totals of the batch's meter.
    cycles: Tuple[Tuple[str, float], ...]
    #: Sorted ``((fun, ccid), count)`` allocation profile of the batch.
    profile: Tuple[Tuple[Tuple[str, int], int], ...]
    #: The patch-table version this batch was admitted under.
    table_version: int
    #: ``time.monotonic()`` at batch completion — wall-clock telemetry
    #: for the fleet's swap-latency samples.  Comparable across forked
    #: worker processes (CLOCK_MONOTONIC is system-wide) and strictly
    #: excluded from the canonical report, which stays timing-free.
    wall: float = 0.0
    #: :func:`outcomes_fragment` of ``outcomes``, rendered in the worker
    #: so the parent's outcome digest only joins and hashes.
    outcomes_json: str = ""


def outcomes_fragment(outcomes: Sequence[Tuple[str, int]]) -> str:
    """``outcomes`` as compact JSON list items without the brackets
    (``""`` when empty): the engine joins the fragments of every batch
    into one list, the same bytes as dumping all outcomes at once."""
    return json.dumps(outcomes, separators=(",", ":"))[1:-1]


class _ServeEntry:
    """Adapter giving ``Process.run`` a ``main`` for ``serve_main``."""

    __slots__ = ("_serve",)

    def __init__(self, serve: Any) -> None:
        self._serve = serve

    def main(self, process: Process, requests: List[Any]) -> Dict[str, Any]:
        return self._serve(process, requests)


class ServingSession:
    """One worker's state for serving one batch."""

    def __init__(self, program: Program, codec: Codec, *,
                 defended: bool = True,
                 table: Optional[PatchTable] = None,
                 allocator: str = "segregated",
                 quarantine_quota: int = DEFAULT_ONLINE_QUOTA) -> None:
        self.program = program
        self.meter = CycleMeter()
        underlying = make_allocator(allocator,
                                    map_cache=MAP_CACHE_MAPPINGS)
        runtime = EncodingRuntime(codec, self.meter)
        self.runtime = runtime
        if defended:
            heap: Allocator = DefendedAllocator(
                underlying, table if table is not None else
                PatchTable.empty(), context_source=runtime,
                meter=self.meter, quarantine_quota=quarantine_quota)
        else:
            heap = underlying
        self.heap = heap
        monitor = DirectMonitor(underlying.memory, heap, self.meter)
        self.process = Process(program.graph, monitor=monitor,
                               context_source=runtime, meter=self.meter,
                               record_allocations=False, track_live=False)
        self._entry = _ServeEntry(program.serve_main)  # type: ignore[attr-defined]

    def serve_rounds(self, rounds: List[List[Any]]
                     ) -> Tuple[List[Tuple[str, int]], int, int]:
        """Serve every round; returns (outcomes, served, bytes_sent)."""
        outcomes: List[Tuple[str, int]] = []
        served = 0
        bytes_sent = 0
        for round_requests in rounds:
            try:
                result = self.process.run(self._entry, round_requests)
            except SegmentationFault:
                # Guard page stopped the exploited request; the round is
                # a singleton by construction (split_rounds), so exactly
                # this request is lost.
                outcomes.append(("blocked", 0))
                served += len(round_requests)
                continue
            outcomes.extend(result["outcomes"])
            served += result["served"]
            bytes_sent += result["bytes_sent"]
        return outcomes, served, bytes_sent
