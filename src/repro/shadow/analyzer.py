"""The offline heavyweight analyzer (paper Section V).

``ShadowAnalyzer`` plays the role of the modified Valgrind tool: it is an
:class:`~repro.program.monitor.ExecutionMonitor` that replaces the heap
functions (adding 16-byte red zones and the freed-block FIFO) and tags
every byte with A-bits, every bit with a V-bit, and every uninitialized
byte with its origin buffer.

Detection, exactly as the paper specifies:

* **overflow** (overwrite *and* overread) — any access touching a red
  zone adjacent to a live buffer;
* **use after free** — any access to a buffer still in the freed-block
  FIFO (2 GiB quota by default, so reuse is long deferred);
* **uninitialized read** — V-bits are checked only when a value decides
  control flow, is used as an address, or enters a system call (avoiding
  the struct-padding false positives of Figure 4); origin tracking walks
  the invalid bits back to the allocation, whose CCID keys the patch.

Execution *resumes* after each warning, and chained warnings are
suppressed (checked bytes are marked valid; duplicate (kind, buffer)
pairs are deduplicated), so one replay can expose an attack that exploits
several vulnerabilities at once — e.g. Heartbleed's uninitialized-read +
overread mix.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..allocator.base import Allocator
from ..common.fifo import FreedBlock, FreedBlockQueue
from ..machine.errors import SegmentationFault
from ..program.cost import CycleMeter
from ..program.monitor import ExecutionMonitor
from ..program.values import TaggedValue
from ..vulntypes import VulnType
from .bits import ShadowState
from .report import AnalysisReport, BufferRecord, ShadowWarning

#: Red-zone size on each side of every buffer (paper: 16 bytes).
RED_ZONE = 16

#: Default quarantine quota for the freed-block FIFO (paper: 2 GB).
DEFAULT_QUOTA = 2 * 1024 * 1024 * 1024

#: Multiplicative slowdown of guest computation under the analyzer.
#: Memcheck's dynamic binary instrumentation interprets *every*
#: instruction and propagates V-bits on each copy; the paper cites a
#: 22.2x slowdown — we model a 20x interpretation tax on compute.
SHADOW_COMPUTE_FACTOR = 20


@dataclass
class _TrackedBuffer:
    """Analyzer-internal bookkeeping for one allocation."""

    record: BufferRecord
    #: Address returned by the underlying allocator (to free later).
    raw: int
    #: First byte of the leading red zone.
    region_start: int
    #: One past the trailing red zone.
    region_end: int
    freed: bool = False

    @property
    def user(self) -> int:
        return self.record.address

    @property
    def size(self) -> int:
        return self.record.size


class ShadowAnalyzer(ExecutionMonitor):
    """Valgrind-style monitor: shadow memory + heap replacement.

    Args:
        heap: the underlying allocator to obtain raw memory from.
        meter: optional cycle meter (charged under ``"analysis"``).
        quarantine_quota: byte quota of the freed-block FIFO.
        ccid_subspaces: optional ``(index, count)`` pair implementing the
            Section IX multi-execution strategy — only buffers whose CCID
            falls in subspace ``index`` (of ``count``) have their free
            deferred, bounding quarantine memory to roughly ``1/count``.
    """

    def __init__(self, heap: Allocator, meter: Optional[CycleMeter] = None,
                 quarantine_quota: int = DEFAULT_QUOTA,
                 ccid_subspaces: Optional[Tuple[int, int]] = None) -> None:
        self.heap = heap
        self.memory = heap.memory
        self.meter = meter
        self.shadow = ShadowState()
        self.report = AnalysisReport()
        self.quarantine = FreedBlockQueue(quarantine_quota)
        self.ccid_subspaces = ccid_subspaces
        self._live: Dict[int, _TrackedBuffer] = {}
        self._by_serial: Dict[int, BufferRecord] = {}
        #: Sorted region starts + parallel tracked list, for classification.
        self._region_starts: List[int] = []
        self._regions: List[_TrackedBuffer] = []
        self._serial = 0
        self._warned: Set[Tuple[VulnType, Optional[int], str]] = set()

    # ------------------------------------------------------------------
    # Region index
    # ------------------------------------------------------------------

    def _index_add(self, tracked: _TrackedBuffer) -> None:
        pos = bisect.bisect_left(self._region_starts, tracked.region_start)
        self._region_starts.insert(pos, tracked.region_start)
        self._regions.insert(pos, tracked)

    def _index_remove(self, tracked: _TrackedBuffer) -> None:
        pos = bisect.bisect_left(self._region_starts, tracked.region_start)
        while pos < len(self._regions):
            if self._regions[pos] is tracked:
                del self._region_starts[pos]
                del self._regions[pos]
                return
            if self._region_starts[pos] != tracked.region_start:
                break
            pos += 1

    def _classify(self, address: int, limit: int
                  ) -> Tuple[VulnType, Optional[BufferRecord], int]:
        """Attribute a faulting byte to a buffer and a vulnerability kind.

        The third item is where that attribution stops holding, capped
        at ``limit``: every byte in ``[address, end)`` lies in the same
        tracked region (or outside every region) and no other region
        starts in between, so it classifies identically.
        """
        starts = self._region_starts
        pos = bisect.bisect_right(starts, address) - 1
        if pos + 1 < len(starts):
            limit = min(limit, starts[pos + 1])
        if pos >= 0:
            tracked = self._regions[pos]
            if tracked.region_start <= address < tracked.region_end:
                end = min(limit, tracked.region_end)
                if tracked.freed:
                    return VulnType.USE_AFTER_FREE, tracked.record, end
                return VulnType.OVERFLOW, tracked.record, end
        return VulnType.NONE, None, limit

    # ------------------------------------------------------------------
    # Warning emission (dedup = chained-warning suppression)
    # ------------------------------------------------------------------

    def _warn(self, kind: VulnType, address: int, access: str,
              record: Optional[BufferRecord], message: str = "") -> None:
        serial = record.serial if record is not None else None
        category = access.split(":")[0]
        key = (kind, serial, category)
        if key in self._warned:
            return
        self._warned.add(key)
        self.report.add(ShadowWarning(kind, address, access, record, message))

    def _check_access(self, address: int, size: int, access: str) -> None:
        """A-bit check over a range; one warning per implicated buffer.

        Walks the runs of inaccessible bytes and classifies once per
        stretch that shares an attribution (a tracked region, or the gap
        up to the next one), warning at the stretch's first byte — the
        byte a per-byte scan would have warned at.
        """
        if self.meter is not None:
            self.meter.charge("analysis", size)
        if self.shadow.is_accessible(address, size):
            return
        seen: Set[Optional[int]] = set()
        for cursor, run_end in self.shadow.inaccessible_runs(address, size):
            while cursor < run_end:
                kind, record, end = self._classify(cursor, run_end)
                serial = record.serial if record else None
                if serial not in seen:
                    seen.add(serial)
                    if record is None:
                        self._warn(VulnType.NONE, cursor, access, None,
                                   "wild access outside any known buffer")
                    else:
                        self._warn(kind, cursor, access, record)
                cursor = end

    # ------------------------------------------------------------------
    # Heap replacement
    # ------------------------------------------------------------------

    def _current_context(self) -> Tuple[int, Tuple[int, ...], str]:
        """(ccid, true context, fun) for the allocation being dispatched."""
        process = self.process
        if process is None:
            return 0, (), "malloc"
        ccid = process.context_source.current_ccid()
        context = process.current_context()
        if process.last_alloc_site is not None:
            context = context + (process.last_alloc_site.site_id,)
        return ccid, context, "?"

    def _register(self, fun: str, raw: int, user: int, size: int,
                  valid: bool) -> _TrackedBuffer:
        ccid, context, _ = self._current_context()
        record = BufferRecord(self._serial, fun, ccid, user, size, context)
        self._serial += 1
        tracked = _TrackedBuffer(
            record=record,
            raw=raw,
            region_start=user - RED_ZONE,
            region_end=user + size + RED_ZONE,
        )
        self._live[user] = tracked
        self._by_serial[record.serial] = record
        self._index_add(tracked)
        # Red zones inaccessible; user area accessible.
        self.shadow.set_accessible(tracked.region_start, RED_ZONE, False)
        self.shadow.set_accessible(user, size, True)
        self.shadow.set_accessible(user + size, RED_ZONE, False)
        if valid:
            self.shadow.set_valid(user, size)
        else:
            self.shadow.set_invalid(user, size, origin=record.serial)
        return tracked

    def heap_alloc(self, fun: str, *args: int) -> int:
        if self.meter is not None:
            self.meter.charge("analysis", 200)
        if fun == "malloc":
            size = args[0]
            raw = self.heap.malloc(size + 2 * RED_ZONE)
            user = raw + RED_ZONE
            self._register(fun, raw, user, size, valid=False)
            return user
        if fun == "calloc":
            nmemb, size = args
            total = nmemb * size
            raw = self.heap.malloc(total + 2 * RED_ZONE)
            user = raw + RED_ZONE
            self.memory.fill(user, max(total, 1), 0)
            self._register(fun, raw, user, total, valid=True)
            return user
        if fun in ("memalign", "aligned_alloc", "posix_memalign"):
            alignment, size = args
            if alignment <= RED_ZONE:
                raw = self.heap.memalign(alignment, size + 2 * RED_ZONE)
                user = raw + RED_ZONE
            else:
                raw = self.heap.memalign(alignment, size + alignment + RED_ZONE)
                user = raw + alignment
            self._register(fun, raw, user, size, valid=False)
            return user
        if fun == "realloc":
            return self._realloc(*args)
        raise ValueError(f"unknown allocation function {fun!r}")

    def _realloc(self, address: int, size: int) -> int:
        if address == 0:
            raw = self.heap.malloc(size + 2 * RED_ZONE)
            user = raw + RED_ZONE
            self._register("realloc", raw, user, size, valid=False)
            return user
        if size == 0:
            self.heap_free(address)
            return 0
        old = self._live.get(address)
        if old is None:
            self._warn(VulnType.USE_AFTER_FREE, address, "realloc",
                       self._freed_record(address),
                       "realloc of freed or unknown pointer")
            raw = self.heap.malloc(size + 2 * RED_ZONE)
            user = raw + RED_ZONE
            self._register("realloc", raw, user, size, valid=False)
            return user
        # Allocate the new region, migrate data + shadow state (paper
        # realloc rules: kept prefix retains V-bits; growth is accessible
        # but invalid; the CCID is retagged at the realloc context).
        raw = self.heap.malloc(size + 2 * RED_ZONE)
        user = raw + RED_ZONE
        tracked = self._register("realloc", raw, user, size, valid=False)
        keep = min(old.size, size)
        if keep:
            self.memory.poke(user, self.memory.peek(old.user, keep))
            self.shadow.copy_shadow(user, old.user, keep)
        self._quarantine_free(old)
        return user

    def _freed_record(self, address: int) -> Optional[BufferRecord]:
        block = self.quarantine.find(address)
        if block is not None:
            tracked: _TrackedBuffer = block.payload
            return tracked.record
        return None

    def _quarantine_free(self, tracked: _TrackedBuffer) -> None:
        tracked.freed = True
        del self._live[tracked.user]
        span = tracked.region_end - tracked.region_start
        self.shadow.set_accessible(tracked.region_start, span, False)
        defer = True
        if self.ccid_subspaces is not None:
            index, count = self.ccid_subspaces
            defer = (tracked.record.ccid % count) == index
        if defer:
            evictions = self.quarantine.push(
                FreedBlock(tracked.user, span, tracked))
        else:
            evictions = [FreedBlock(tracked.user, span, tracked)]
        for block in evictions:
            old: _TrackedBuffer = block.payload
            self._index_remove(old)
            self.heap.free(old.raw)

    def heap_free(self, address: int) -> None:
        if self.meter is not None:
            self.meter.charge("analysis", 100)
        if address == 0:
            return
        tracked = self._live.get(address)
        if tracked is None:
            self._warn(VulnType.USE_AFTER_FREE, address, "free",
                       self._freed_record(address),
                       "double free or free of unknown pointer")
            return
        self._quarantine_free(tracked)

    # ------------------------------------------------------------------
    # Guest memory operations
    # ------------------------------------------------------------------

    def compute(self, cycles: int) -> None:
        """Guest computation under DBI: charged at the Memcheck-like
        interpretation factor (base share + analysis share)."""
        if self.meter is not None:
            self.meter.charge("base", cycles)
            self.meter.charge("analysis",
                              cycles * (SHADOW_COMPUTE_FACTOR - 1))

    def read(self, address: int, size: int) -> TaggedValue:
        self._check_access(address, size, "read")
        data = self.memory.peek(address, size)
        mask = self.shadow.vmask(address, size)
        origin = None
        first_invalid = self.shadow.first_invalid(address, size)
        if first_invalid is not None:
            origin = self.shadow.origin_of(first_invalid)
        return TaggedValue(data, mask, origin)

    def write(self, address: int, value: TaggedValue) -> None:
        self._check_access(address, len(value), "write")
        self._poke_resumed(address, value.data)
        self.shadow.write_shadow(address, len(value), value.valid_mask,
                                 value.origin)

    def copy(self, dst: int, src: int, size: int) -> None:
        self._check_access(src, size, "read")
        self._check_access(dst, size, "write")
        self._poke_resumed(dst, self.memory.peek(src, size))
        self.shadow.copy_shadow(dst, src, size)

    def fill(self, address: int, size: int, byte: int) -> None:
        self._check_access(address, size, "write")
        self._poke_resumed(address, bytes([byte]) * size)
        self.shadow.set_valid(address, size)

    def _poke_resumed(self, address: int, data: bytes) -> None:
        """Write guest data, tolerating unmapped wilds (already warned)."""
        try:
            self.memory.poke(address, data)
        except SegmentationFault:
            pass

    # ------------------------------------------------------------------
    # Value-use checks (the only V-bit check points)
    # ------------------------------------------------------------------

    def use(self, value: TaggedValue, kind: str) -> None:
        if value.valid_mask is None:
            return
        index = value.first_invalid_byte
        if index is None:
            return
        record = None
        if value.origin is not None:
            record = self._by_serial.get(value.origin)
        self._warn(VulnType.UNINIT_READ, 0, f"use:{kind}", record,
                   f"uninitialized value used for {kind}")

    def syscall_out(self, address: int, size: int) -> bytes:
        self._check_access(address, size, "read:syscall")
        # Kernel-visible use: V-bits of the whole range are checked, one
        # warning per origin buffer, then set valid (chained-warning
        # suppression, Section V).
        if not self.shadow.is_fully_valid(address, size):
            seen: Set[Optional[int]] = set()
            for start, end in self.shadow.invalid_runs(address, size):
                for at, origin in self.shadow.first_origins(start,
                                                            end - start):
                    if origin in seen:
                        continue
                    seen.add(origin)
                    record = (self._by_serial.get(origin)
                              if origin is not None else None)
                    self._warn(VulnType.UNINIT_READ, at, "use:syscall",
                               record,
                               "uninitialized data reaches a system call")
            self.shadow.set_valid(address, size)
        return self.memory.peek(address, size)

    def syscall_in(self, address: int, data: bytes) -> None:
        self._check_access(address, len(data), "write")
        self._poke_resumed(address, data)
        self.shadow.set_valid(address, len(data))

    # ------------------------------------------------------------------
    # End-of-run queries
    # ------------------------------------------------------------------

    def leaked_buffers(self) -> List[BufferRecord]:
        """Buffers still live when the program exited (leak check).

        Valgrind reports these as "definitely/possibly lost"; patch
        generation does not use them, but the forensics tooling surfaces
        them since leaks often accompany the buggy paths being analyzed.
        """
        return [tracked.record for tracked in self._live.values()]

    def live_bytes(self) -> int:
        """User bytes in still-live buffers at this point."""
        return sum(tracked.size for tracked in self._live.values())
