"""The guest process: executes a program against the simulated machine.

``Process`` is the reproduction's stand-in for a compiled C process.  A
:class:`~repro.program.program.Program` provides the code (Python methods
standing in for C functions) and the static call graph; the process
provides the execution context:

* a dynamic call stack (so true calling contexts are known at any moment),
* dispatch of every heap and memory operation through an
  :class:`~repro.program.monitor.ExecutionMonitor`,
* the calling-context encoding, run the way targeted instrumentation
  runs it: each frame carries ``t``, the encoding value ``V`` at its
  entry; a call resolves its site once into a cached *site record* from
  the :class:`~repro.program.context.TargetedContextSource`, folds ``t``
  only at instrumented sites and charges the encoding cycles in one
  step; a return just pops the frame, and an allocation site publishes
  its CCID to the source.  Sources without that protocol (the stack
  walker, the coverage tracker) get the reference hook protocol
  instead: :meth:`~repro.program.context.ContextSource.at_call_site`,
  ``enter_function`` and ``exit_function`` on every call,
* cycle accounting for the deterministic performance model, and
* an allocation profile (CCID → frequency) used by the Figure 8
  methodology of picking median-frequency CCIDs as hypothesized
  vulnerable ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..allocator.base import Allocator
from .blocks import BasicBlock
from .callgraph import CallGraph, CallSite
from .context import (
    ContextSource,
    NullContextSource,
    SiteRecord,
    TargetedContextSource,
)
from .cost import CycleMeter
from .monitor import DirectMonitor, ExecutionMonitor
from .values import TaggedValue

#: One dynamic activation record: ``(function, site, t)`` — the site it
#: was entered through (None for the entry) and the encoding value at
#: its entry (0 on the hook path, where the source keeps it).  A plain
#: tuple: frames are created and destroyed on every guest call.
Frame = Tuple[str, Optional[CallSite], int]


@dataclass(frozen=True)
class AllocationEvent:
    """One recorded allocation, for profiling and offline grouping."""

    serial: int
    fun: str
    ccid: int
    address: int
    size: int
    #: True calling context as a tuple of site ids (entry -> alloc site).
    context: Tuple[int, ...]


class ProcessError(RuntimeError):
    """Guest-program structural error (bad call protocol, etc.)."""


NO_FRAME = "no active frame; use run()"


class Process:
    """Executes a program's functions with full context tracking.

    Args:
        graph: the program's static call graph.
        monitor: memory/heap dispatch; defaults to a
            :class:`DirectMonitor` over ``heap``.
        heap: allocator used when no explicit monitor is given.
        context_source: the encoding runtime (or stack walker); defaults
            to no tracking.
        meter: cycle meter; a fresh one is created when omitted.
        record_allocations: keep an :class:`AllocationEvent` log (the
            offline analyzer and profiling runs need it; defaults on —
            disable for the longest benchmark loops).
        capture_context: record the true calling context tuple on each
            :class:`AllocationEvent`.  ``True``/``False`` switch the
            whole process; a *collection of site ids* captures tuples
            only for allocations flowing through those call sites (the
            per-site opt-out the fused fast paths lean on).  Defaults to
            ``record_allocations`` — when the event log is off the
            tuples would be dropped anyway, so benchmark loops skip
            building them.
        track_live: maintain the :attr:`live_allocations` address map
            (defaults on).  Serving sessions turn it off — they never
            inspect live buffers, and the per-allocation event object it
            forces is the last per-request cost batching cannot remove.
    """

    def __init__(self, graph: CallGraph,
                 monitor: Optional[ExecutionMonitor] = None,
                 heap: Optional[Allocator] = None,
                 context_source: Optional[ContextSource] = None,
                 meter: Optional[CycleMeter] = None,
                 record_allocations: bool = True,
                 capture_context: Optional[bool] = None,
                 track_live: bool = True) -> None:
        self.graph = graph
        self.meter = meter if meter is not None else CycleMeter()
        if monitor is None:
            if heap is None:
                raise ProcessError("Process needs a monitor or a heap")
            monitor = DirectMonitor(heap.memory, heap, self.meter)
        self.monitor = monitor
        self.monitor.bind(self)
        self.context_source: ContextSource = (
            context_source if context_source is not None
            else NullContextSource())
        self.record_allocations = record_allocations
        self.capture_context = (record_allocations if capture_context is None
                                else capture_context)
        self.track_live = track_live

        #: Targeted sources get the frame-carried protocol; any other
        #: source gets the per-call hooks (the reference path).
        source = self.context_source
        self._targeted = isinstance(source, TargetedContextSource)
        # Hot-path bindings.  Both dicts are the meters' own
        # ``by_category``, which is cleared in place, never rebound.
        self._counts = self.meter.by_category
        self._encoding_counts = (
            source.meter.by_category
            if isinstance(source, TargetedContextSource)
            and source.meter is not None else None)
        self._call_cost = self.meter.model.call
        self._compute = self.monitor.compute
        #: (caller, callee, label) -> site record of a call and of an
        #: allocation; populated only while the graph is frozen (site
        #: ids are stable then), in tables the frozen graph shares with
        #: every run whose source has the same record key.
        self._call_records: Dict[Tuple[str, str, str], SiteRecord]
        self._alloc_records: Dict[Tuple[str, str, str], SiteRecord]
        if graph.frozen:
            self._call_records, self._alloc_records = graph.site_records(
                source.record_key()
                if isinstance(source, TargetedContextSource) else None)
        else:
            self._call_records, self._alloc_records = {}, {}

        self._stack: List[Frame] = []
        #: The call site of the allocation currently being dispatched;
        #: monitors (the shadow analyzer) read it to reconstruct the true
        #: allocation context.
        self.last_alloc_site: Optional[CallSite] = None
        #: Lock-step scheduler hooks for multi-threaded guest execution
        #: (see :mod:`repro.program.threads`); unset for single-threaded
        #: runs.
        self.scheduler: Optional[Any] = None
        self.scheduler_thread_id: Optional[int] = None
        self._alloc_serial = 0
        self.allocations: List[AllocationEvent] = []
        #: (fun, ccid) -> number of allocations observed.
        self.alloc_profile: Counter = Counter()
        #: address -> most recent AllocationEvent for that address.
        self.live_allocations: Dict[int, AllocationEvent] = {}

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------

    @property
    def current_function(self) -> str:
        """Name of the function currently executing."""
        if not self._stack:
            raise ProcessError(NO_FRAME)
        return self._stack[-1][0]

    @property
    def depth(self) -> int:
        """Current call-stack depth."""
        return len(self._stack)

    def current_context(self) -> Tuple[int, ...]:
        """The true calling context: site ids from the entry downward."""
        return tuple(site.site_id for _, site, _ in self._stack
                     if site is not None)

    def run(self, program: "ProgramLike", *args: Any, **kwargs: Any) -> Any:
        """Execute ``program.main`` as the entry function."""
        if self._stack:
            raise ProcessError("process is already running")
        entry = self.graph.entry
        source = self.context_source
        if isinstance(source, TargetedContextSource):
            t = source.start(entry)
        else:
            source.enter_function(entry)
            t = 0
        self._stack.append((entry, None, t))
        try:
            return program.main(self, *args, **kwargs)
        finally:
            if isinstance(source, TargetedContextSource):
                source.finish()
            else:
                source.exit_function(entry)
            self._stack.pop()

    def _record(self, caller: str, callee: str, label: str,
                enters: bool) -> SiteRecord:
        """Resolve a site into its record, cached while the graph is
        frozen (``enters`` is False for allocation sites)."""
        call_site = self.graph.site(caller, callee, label)
        source = self.context_source
        if isinstance(source, TargetedContextSource):
            record = source.site_record(call_site, enters)
        else:
            record = (call_site, None, 0)
        if self.graph.frozen:
            records = self._call_records if enters else self._alloc_records
            records[(caller, callee, label)] = record
        return record

    def call(self, callee: str, fn: Callable[..., Any], *args: Any,
             site: str = "", **kwargs: Any) -> Any:
        """Call ``fn`` as guest function ``callee`` through a call site.

        The site is resolved on the static graph from the current function;
        ``site=`` disambiguates multiple sites to the same callee.  This is
        where instrumented code would execute the encoding update.
        """
        stack = self._stack
        if not stack:
            raise ProcessError(NO_FRAME)
        caller, _, t = stack[-1]
        record = self._call_records.get((caller, callee, site))
        if record is None:
            record = self._record(caller, callee, site, True)
        call_site, fold, cycles = record
        counts = self._counts
        counts["base"] = counts.get("base", 0) + self._call_cost
        source: Any = self.context_source
        if not self._targeted:
            source.at_call_site(call_site)
            stack.append((callee, call_site, 0))
            source.enter_function(callee)
            try:
                return fn(self, *args, **kwargs)
            finally:
                source.exit_function(callee)
                stack.pop()
        source.sites_crossed += 1
        if fold is not None:
            t = fold(t, call_site)
            source.updates_executed += 1
        if cycles:
            counts = self._encoding_counts
            counts["encoding"] = counts.get("encoding", 0) + cycles
        stack.append((callee, call_site, t))
        try:
            return fn(self, *args, **kwargs)
        finally:
            stack.pop()

    # ------------------------------------------------------------------
    # Heap API (each allocation flows through its declared call site)
    # ------------------------------------------------------------------

    def _checkpoint(self) -> None:
        """Preemption point for lock-step multi-threaded execution."""
        if self.scheduler is not None:
            self.scheduler.checkpoint(self.scheduler_thread_id)

    def _captures(self, call_site: CallSite) -> bool:
        """Whether this allocation site records its true context tuple."""
        capture = self.capture_context
        if capture is True:
            return True
        if not capture:
            return False
        return call_site.site_id in capture

    def _cross_alloc(self, fun: str, site: str) -> Tuple[CallSite, int]:
        """Cross the allocation site of ``fun``; returns it and the CCID.

        On the targeted path the CCID is the top frame's ``t`` folded
        with the site, and is published to the source so that
        ``current_ccid()`` — read by the defense and the shadow analyzer
        while the allocation is dispatched — returns it.
        """
        stack = self._stack
        if not stack:
            raise ProcessError(NO_FRAME)
        caller, _, t = stack[-1]
        record = self._alloc_records.get((caller, fun, site))
        if record is None:
            record = self._record(caller, fun, site, False)
        call_site, fold, cycles = record
        self.last_alloc_site = call_site
        source: Any = self.context_source
        if not self._targeted:
            source.at_call_site(call_site)
            return call_site, source.current_ccid()
        # The crossing of ``call``, which inlines it (its hottest path).
        source.sites_crossed += 1
        if fold is not None:
            t = fold(t, call_site)
            source.updates_executed += 1
        if cycles:
            counts = self._encoding_counts
            counts["encoding"] = counts.get("encoding", 0) + cycles
        source.v = t
        return call_site, t

    def _alloc(self, fun: str, site: str, *args: int) -> int:
        if self.scheduler is not None:
            self.scheduler.checkpoint(self.scheduler_thread_id)
        call_site, ccid = self._cross_alloc(fun, site)
        address = self.monitor.heap_alloc(fun, *args)
        size = args[-1] if fun != "calloc" else args[0] * args[1]
        self.alloc_profile[(fun, ccid)] += 1
        serial = self._alloc_serial
        self._alloc_serial = serial + 1
        if self.record_allocations or self.track_live:
            event = AllocationEvent(
                serial=serial,
                fun=fun,
                ccid=ccid,
                address=address,
                size=size,
                context=(self.current_context() + (call_site.site_id,)
                         if self._captures(call_site) else ()),
            )
            if self.record_allocations:
                self.allocations.append(event)
            if self.track_live:
                self.live_allocations[address] = event
        return address

    def malloc(self, size: int, site: str = "") -> int:
        """Guest ``malloc`` through the declared call site."""
        return self._alloc("malloc", site, size)

    def calloc(self, nmemb: int, size: int, site: str = "") -> int:
        """Guest ``calloc``."""
        return self._alloc("calloc", site, nmemb, size)

    def memalign(self, alignment: int, size: int, site: str = "") -> int:
        """Guest ``memalign``."""
        return self._alloc("memalign", site, alignment, size)

    def aligned_alloc(self, alignment: int, size: int,
                      site: str = "") -> int:
        """Guest ISO C11 ``aligned_alloc`` (its own FUN in patches)."""
        return self._alloc("aligned_alloc", site, alignment, size)

    def posix_memalign(self, alignment: int, size: int,
                       site: str = "") -> int:
        """Guest ``posix_memalign`` (its own FUN in patches)."""
        return self._alloc("posix_memalign", site, alignment, size)

    def realloc(self, address: int, size: int, site: str = "") -> int:
        """Guest ``realloc``; retags the buffer's allocation context."""
        self._checkpoint()
        call_site, ccid = self._cross_alloc("realloc", site)
        new_address = self.monitor.heap_alloc("realloc", address, size)
        self.alloc_profile[("realloc", ccid)] += 1
        self.live_allocations.pop(address, None)
        if size > 0 and new_address:
            serial = self._alloc_serial
            self._alloc_serial = serial + 1
            if self.record_allocations or self.track_live:
                event = AllocationEvent(
                    serial=serial,
                    fun="realloc",
                    ccid=ccid,
                    address=new_address,
                    size=size,
                    context=(self.current_context() + (call_site.site_id,)
                             if self._captures(call_site) else ()),
                )
                if self.record_allocations:
                    self.allocations.append(event)
                if self.track_live:
                    self.live_allocations[new_address] = event
        return new_address

    def free(self, address: int) -> None:
        """Guest ``free``."""
        self._checkpoint()
        self.monitor.heap_free(address)
        self.live_allocations.pop(address, None)

    # ------------------------------------------------------------------
    # Batched heap API (same-call-site runs)
    # ------------------------------------------------------------------

    def malloc_run(self, sizes: List[int], site: str = "") -> List[int]:
        """Batched guest ``malloc``: many requests through *one* site.

        Context work (site resolution, the encoding update, the CCID
        read) happens once — valid because every allocation of the run
        flows through the same call site, so the per-call path would
        compute the identical CCID each time (the fold depends only on the
        site and the caller frame's ``t``).  CCIDs, profile counts,
        events and live tracking match a per-call loop exactly.  The
        encoding charge does not: the run crosses the site once, so a
        run of *k* allocations charges the site's ``encode_site`` cycles
        (and bumps ``sites_crossed``/``updates_executed``) once where
        *k* ``malloc`` calls do so *k* times; every other category is
        the loop's.  Under a lock-step scheduler the run is replayed per
        call so every allocation stays a preemption point.
        """
        if not sizes:
            return []
        if self.scheduler is not None:
            return [self.malloc(size, site=site) for size in sizes]
        call_site, ccid = self._cross_alloc("malloc", site)
        addresses = self.monitor.heap_alloc_run("malloc", sizes)
        self.alloc_profile[("malloc", ccid)] += len(sizes)
        serial = self._alloc_serial
        self._alloc_serial = serial + len(sizes)
        if self.record_allocations or self.track_live:
            context = (self.current_context() + (call_site.site_id,)
                       if self._captures(call_site) else ())
            for address, size in zip(addresses, sizes):
                event = AllocationEvent(
                    serial=serial, fun="malloc", ccid=ccid,
                    address=address, size=size, context=context)
                serial += 1
                if self.record_allocations:
                    self.allocations.append(event)
                if self.track_live:
                    self.live_allocations[address] = event
        return addresses

    def free_run(self, addresses: List[int]) -> None:
        """Batched guest ``free`` (see :meth:`malloc_run`)."""
        if not addresses:
            return
        if self.scheduler is not None:
            for address in addresses:
                self.free(address)
            return
        self.monitor.heap_free_run(addresses)
        if self.live_allocations:
            pop = self.live_allocations.pop
            for address in addresses:
                pop(address, None)

    # ------------------------------------------------------------------
    # Memory API
    # ------------------------------------------------------------------

    def read(self, address: int, size: int) -> TaggedValue:
        """Load bytes into a register value (no validity check)."""
        self._checkpoint()
        return self.monitor.read(address, size)

    def write(self, address: int, data: Any) -> None:
        """Store bytes or a :class:`TaggedValue` to memory."""
        self._checkpoint()
        if isinstance(data, TaggedValue):
            self.monitor.write(address, data)
        else:
            self.monitor.write(address, TaggedValue.of_bytes(data))

    def write_int(self, address: int, value: int, size: int = 8) -> None:
        """Store an immediate little-endian integer."""
        self.monitor.write(address, TaggedValue.of_int(value, size))

    def read_int(self, address: int, size: int = 8) -> TaggedValue:
        """Load an integer-sized value."""
        return self.monitor.read(address, size)

    def copy(self, dst: int, src: int, size: int) -> None:
        """Guest ``memcpy`` (propagates shadow state, never checks it)."""
        self._checkpoint()
        self.monitor.copy(dst, src, size)

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        """Guest ``memset``."""
        self._checkpoint()
        self.monitor.fill(address, size, byte)

    def compute(self, cycles: int) -> None:
        """Charge ``cycles`` of pure computation to the baseline."""
        self._compute(cycles)

    def exec_block(self, block: BasicBlock, *args: int) -> Any:
        """Execute a pre-decoded straight-line run in one dispatch.

        Observationally identical to issuing the block's ops through the
        per-op methods above (``tests/program/test_block_equivalence.py``
        holds the batched path to that).  Under a lock-step scheduler the
        block is interpreted per-op so every op stays a preemption
        point; otherwise it goes to the monitor in one call (the
        :class:`~repro.program.monitor.DirectMonitor` fuses it).
        Returns the block outputs: one entry per value-use / syscall-out
        op, in op order.
        """
        if self.scheduler is not None:
            return block.interpret(self, args)
        return self.monitor.exec_block(block, args)

    def exec_block_run(self, block: BasicBlock,
                       rows: Sequence[Sequence[int]]) -> List[Any]:
        """Execute ``block`` once per argument row (a request batch).

        Equivalent to calling :meth:`exec_block` per row; the monitor
        fuses the loop.  Returns the per-row output lists in row order.
        """
        if self.scheduler is not None:
            return [block.interpret(self, row) for row in rows]
        return self.monitor.exec_block_run(block, rows)

    # ------------------------------------------------------------------
    # Value uses — the only validity check points (Fig. 4 discipline)
    # ------------------------------------------------------------------

    def branch_on(self, value: TaggedValue) -> int:
        """Use a value to decide control flow; returns it as an int."""
        self.monitor.use(value, "branch")
        return value.to_int()

    def use_as_address(self, value: TaggedValue) -> int:
        """Use a value as a memory address; returns it as an int."""
        self.monitor.use(value, "address")
        return value.to_int()

    def syscall_out(self, address: int, size: int) -> bytes:
        """Send a buffer to the outside world (kernel-visible use)."""
        self._checkpoint()
        return self.monitor.syscall_out(address, size)

    def syscall_in(self, address: int, data: bytes) -> None:
        """Receive external data into a buffer (initializes it)."""
        self._checkpoint()
        self.monitor.syscall_in(address, data)

    def sendfile(self, address: int, size: int) -> int:
        """Send a buffer zero-copy (``sendfile``): same access check and
        cycle charge as :meth:`syscall_out`, returns the byte count."""
        self._checkpoint()
        return self.monitor.sendfile(address, size)


class ProgramLike:
    """Structural typing helper for things with a ``main(process, ...)``."""

    def main(self, process: Process, *args: Any, **kwargs: Any) -> Any:
        """The program body; see :class:`repro.program.program.Program`."""
        raise NotImplementedError
