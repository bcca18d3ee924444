"""Online encoding runtimes: the thread-local-V state machine.

:class:`EncodingRuntime` is what the inserted instrumentation *does* at run
time.  Compiled code keeps ``t`` — ``V`` read in the prologue of an
instrumented function — in the frame, and only instrumented call sites
execute anything:

* instrumented call site → ``V = mix(t, c_site)`` (plus the callee's
  prologue cost when the callee is instrumented),
* uninstrumented call site → no encoding code at all,
* return → nothing; the resumed frame still holds its own ``t``.

The process mirrors that through the targeted protocol of
:class:`~repro.program.context.TargetedContextSource`: ``V`` rides on the
process's frames, each call site is resolved once into a site record
(:meth:`EncodingRuntime.site_record`) that says whether it folds and what
one crossing costs, and the CCID is published to the runtime at each
allocation site.  Reading the current CCID is a single register read —
that is the whole point of encoding versus stack walking, and the cost
model reflects it.

The per-call hooks (prologue → push ``V`` as ``t``, call site → fold,
return → restore ``V``) stay as the reference path: a hooks-only wrapper
such as ``CoverageTracker(inner=runtime)`` drives the runtime through
them, and both paths give identical CCIDs, cycles and counters
(``DESIGN.md`` §5).

:class:`WalkedContextSource` is the expensive alternative the paper argues
against: obtaining the context by walking the simulated stack on every
allocation, charged per frame like a real unwinder.
"""

from __future__ import annotations

import zlib
from typing import Hashable, List, Optional

from ..program.callgraph import CallSite
from ..program.context import ContextSource, SiteRecord, TargetedContextSource
from ..program.cost import CycleMeter
from .base import Codec


class EncodingRuntime(TargetedContextSource):
    """Drives one codec's V register along the dynamic call stack."""

    def __init__(self, codec: Codec, meter: Optional[CycleMeter] = None) -> None:
        super().__init__()
        self.codec = codec
        self.plan = codec.plan
        self.meter = meter
        self.v = codec.seed()
        #: Frame values of the hook path (the targeted path keeps them
        #: on the process's frames instead).
        self._t_stack: List[int] = []

    # -- targeted protocol ---------------------------------------------

    def site_record(self, site: CallSite, enters: bool) -> SiteRecord:
        folds = site.site_id in self.plan.sites
        cycles = 0
        if self.meter is not None:
            model = self.meter.model
            if folds:
                cycles += model.encode_site
            if enters and site.callee in self.plan.instrumented_functions:
                cycles += model.encode_prologue
        return (site, self.codec.mix if folds else None, cycles)

    def record_key(self) -> Hashable:
        # The codec by identity (it defines no equality); the frozen
        # cost model by value.
        return (self.codec,
                self.meter.model if self.meter is not None else None)

    def start(self, entry: str) -> int:
        if self.meter is not None and entry in self.plan.instrumented_functions:
            self.meter.charge("encoding", self.meter.model.encode_prologue)
        return self.v

    def finish(self) -> None:
        self.v = self.codec.seed()

    # -- ContextSource hooks (the reference path) ----------------------

    def enter_function(self, name: str) -> None:
        self._t_stack.append(self.v)
        if self.meter is not None and name in self.plan.instrumented_functions:
            self.meter.charge("encoding", self.meter.model.encode_prologue)

    def exit_function(self, name: str) -> None:
        self._t_stack.pop()
        self.v = self._t_stack[-1] if self._t_stack else self.codec.seed()

    def at_call_site(self, site: CallSite) -> None:
        self.sites_crossed += 1
        t = self._t_stack[-1] if self._t_stack else self.codec.seed()
        if site.site_id in self.plan.sites:
            self.v = self.codec.mix(t, site)
            self.updates_executed += 1
            if self.meter is not None:
                self.meter.charge("encoding", self.meter.model.encode_site)
        else:
            self.v = t


class WalkedContextSource(ContextSource):
    """Stack walking instead of encoding (the expensive baseline, §II-B).

    The CCID is a CRC over the frame chain, recomputed on demand; the
    meter is charged per live frame, mirroring a frame-pointer unwinder
    touching every activation record.
    """

    #: Modeled cycles per frame visited during a walk.
    CYCLES_PER_FRAME: int = 40

    def __init__(self, meter: Optional[CycleMeter] = None) -> None:
        self.meter = meter
        #: Site ids of the frames on the stack (entry frame has none).
        self._site_stack: List[int] = []
        #: Site of a call announced but not yet entered (allocation calls
        #: never push a frame, so this is how the alloc site is captured).
        self._pending_site: Optional[int] = None
        self.walks_performed: int = 0

    def enter_function(self, name: str) -> None:
        if self._pending_site is not None:
            self._site_stack.append(self._pending_site)
            self._pending_site = None

    def exit_function(self, name: str) -> None:
        if self._site_stack:
            self._site_stack.pop()
        # An allocation announces its site but enters no frame; drop
        # it here so it cannot become a phantom frame of the next
        # function entered without a call site (the next run's entry).
        self._pending_site = None

    def at_call_site(self, site: CallSite) -> None:
        self._pending_site = site.site_id

    def current_ccid(self) -> int:
        self.walks_performed += 1
        frames = list(self._site_stack)
        if self._pending_site is not None:
            frames.append(self._pending_site)
        if self.meter is not None:
            self.meter.charge(
                "encoding", self.CYCLES_PER_FRAME * max(1, len(frames)))
        payload = b",".join(str(s).encode() for s in frames)
        return zlib.crc32(payload)
