"""The Online Defense Generator (paper Section VI, Figures 5–7).

``DefendedAllocator`` is the reproduction of the ``LD_PRELOAD`` shared
library: it implements the public :class:`~repro.allocator.base.Allocator`
API, wraps *any* other allocator, and never touches that allocator's
internals — every piece of state it needs at ``free``/``realloc`` time is
self-maintained in the per-buffer metadata word (and, for guarded buffers,
the first word of the guard page).

Per allocation it does exactly what the paper describes:

1. read the current CCID from the encoding runtime (one register read),
2. look up ``(allocation function, CCID)`` in the read-only patch table —
   O(1),
3. lay the buffer out as Structure 1–4 and apply the matched enhancements:
   guard page (``mprotect``) against overflow, zero-fill against
   uninitialized read, deferred-free FIFO against use after free.

Structure 1 (no patch) and Structure 2 (overflow-only patch, unaligned:
the guard page on a hot context) are laid out and freed in integer
arithmetic; :mod:`.structures` and :mod:`.metadata` serve the other
structures and the uaf/uninit paths, and are the oracle both
integer paths are tested against.

Unpatched buffers still pay interposition + metadata — that is the 4.3%
"zero patches" bar of Figure 8 — while enhancement cost is confined to
vulnerable contexts, which is the whole point of heap patches as
configuration.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..allocator.base import Allocator
from ..allocator.stats import AllocationStats
from ..common.fifo import FreedBlock, FreedBlockQueue
from ..machine.errors import OutOfMemoryError
from ..machine.layout import PAGE_SIZE, SIZE_MAX, is_power_of_two
from ..machine.memory import PROT_NONE, PROT_RW
from ..patch.model import HeapPatch
from ..program.context import ContextSource, NullContextSource
from ..program.cost import CycleMeter
from ..vulntypes import VulnType
from .metadata import (
    METADATA_SIZE,
    BufferMetadata,
    guard_page_of,
    overflow_word,
)
from .patch_table import PatchTable
from .structures import (
    StructureError,
    buffer_start,
    place_buffer,
    plan_request,
)

#: Largest user size representable in the metadata word's 48-bit size
#: field; bigger requests take the generic (validating) path.
_MAX_INLINE_SIZE = (1 << 48) - 1

#: Bit position of the user-size field in the metadata word (Figure 6);
#: for an unpatched, unaligned buffer the whole word is ``size << 4``.
_METADATA_SIZE_SHIFT = 4

#: Low nibble (vulnerability bits + ALIGNED) of a Structure 2 word:
#: overflow only, unaligned.  Plain ``int`` so the hot-path tests are
#: integer compares, never ``IntFlag`` operations.
_OVERFLOW = int(VulnType.OVERFLOW)
#: The other two vulnerability bits, as plain ``int`` masks too: a
#: ``VulnType`` operand would build a new flag member per test.
_USE_AFTER_FREE = int(VulnType.USE_AFTER_FREE)
_UNINIT_READ = int(VulnType.UNINIT_READ)

#: Bytes requested past the user buffer for a guard page: enough to
#: page-align the guard wherever the underlying allocator lands, plus
#: the guard page itself (as :func:`~.structures.plan_request`).
_GUARD_SLACK = (PAGE_SIZE - 1) + PAGE_SIZE

_PAGE_MASK = PAGE_SIZE - 1


class _LookupView:
    """``ccid -> patch`` probe for tables without :meth:`per_fun`.

    The interposer only requires ``lookup``/``frozen``/``__len__`` of a
    table (e.g. :class:`~repro.defense.sealed_table.SealedPatchTable`);
    this adapter gives such tables the same ``.get(ccid)`` face the
    hot path uses for frozen per-function maps.
    """

    __slots__ = ("_lookup", "_fun")

    def __init__(self, lookup, fun: str) -> None:
        self._lookup = lookup
        self._fun = fun

    def get(self, ccid: int) -> Optional[HeapPatch]:
        return self._lookup(self._fun, ccid)

#: Default byte quota of the online deferred-free queue (paper: 2 GB,
#: customizable; only patched buffers ever enter it).
DEFAULT_ONLINE_QUOTA = 2 * 1024 * 1024 * 1024


class DefendedAllocator(Allocator):
    """Allocation-API interposer enforcing heap patches.

    Args:
        underlying: the real allocator; only its public API is used.
        table: the frozen patch table.
        context_source: where CCIDs come from (the encoding runtime).
        meter: cycle meter for the overhead decomposition; optional.
        quarantine_quota: byte quota for the deferred-free queue.
    """

    def __init__(self, underlying: Allocator, table: PatchTable,
                 context_source: Optional[ContextSource] = None,
                 meter: Optional[CycleMeter] = None,
                 quarantine_quota: int = DEFAULT_ONLINE_QUOTA) -> None:
        if not table.frozen:
            raise ValueError("patch table must be frozen before use")
        self.underlying = underlying
        self.memory = underlying.memory
        self.table = table
        self.context_source = (context_source if context_source is not None
                               else NullContextSource())
        self.meter = meter
        self.quarantine = FreedBlockQueue(quarantine_quota)
        self.stats = AllocationStats()
        # Hot-path bindings: the CCID read is the paper's "one register
        # read"; the per-function patch maps are frozen at table-freeze
        # time, so caching them turns the lookup into one dict probe.
        self._current_ccid = self.context_source.current_ccid
        #: True when the CCID read may be elided for functions the
        #: frozen table provably never patches: the read must be a pure
        #: register read (see
        #: :attr:`~repro.program.context.ContextSource.pure_ccid`).
        self._pure_ccid = bool(getattr(self.context_source,
                                       "pure_ccid", False))
        #: fun -> object with ``.get(ccid) -> Optional[HeapPatch]``:
        #: a frozen per-function map, or a :class:`_LookupView`.
        self._fun_patches: Dict[str, Any] = {}
        # Hot callees, prebound once: none of these objects is rebound.
        self._underlying_malloc = underlying.malloc
        self._underlying_free = underlying.free
        self._write_word = self.memory.write_word
        self._read_word = self.memory.read_word
        self._record_free = self.stats.record_free
        #: Buffers currently enhanced, by defense kind (for reports).
        self.enhanced_counts = {
            VulnType.OVERFLOW: 0,
            VulnType.USE_AFTER_FREE: 0,
            VulnType.UNINIT_READ: 0,
        }

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------

    def _charge(self, category: str, cycles: float) -> None:
        if self.meter is not None:
            self.meter.charge(category, cycles)

    def _charge_interposition(self) -> None:
        if self.meter is not None:
            model = self.meter.model
            self.meter.charge("interpose", model.interpose)
            self.meter.charge("metadata", model.metadata)

    # ------------------------------------------------------------------
    # Allocation family
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> int:
        return self._allocate("malloc", size)

    def malloc_run(self, sizes: Sequence[int]) -> List[int]:
        """Batched ``malloc``: one same-call-site run of requests.

        Observation-identical to calling :meth:`malloc` per entry — same
        addresses, same stats, same cycles per category (``n`` per-call
        charges collapse into one ``n``-scaled charge) — because a run
        comes from a *single* call site: the CCID is the same for every
        entry, so the patch probe is hoisted out of the loop.  The hoist
        is only taken when the CCID read is pure (an impure source must
        be read once per allocation, exactly like the per-call path).
        """
        n = len(sizes)
        if n == 0:
            return []
        meter = self.meter
        if meter is not None:
            model = meter.model
            meter.charge("interpose", model.interpose * n)
            meter.charge("metadata", model.metadata * n)
            meter.charge("lookup", model.hash_lookup * n)
        if self._pure_ccid:
            # An impure CCID read has observable effects, so only a pure
            # one is hoisted; otherwise every entry takes the per-call
            # path below.
            patches = self._fun_patches.get("malloc")
            if patches is None:
                patches = self._patches_for("malloc")
            patch = patches.get(self._current_ccid()) if patches else None
            if (patch is None and 0 <= min(sizes)
                    and max(sizes) <= _MAX_INLINE_SIZE):
                # Whole-run Structure 1: one batched underlying request,
                # then stamp each metadata word (``size << 4``).
                raws = self.underlying.malloc_run(
                    [METADATA_SIZE + size for size in sizes])
                write_word = self._write_word
                for raw, size in zip(raws, sizes):
                    write_word(raw, size << _METADATA_SIZE_SHIFT)
                self.stats.record_malloc_run(sizes)
                return [raw + METADATA_SIZE for raw in raws]
            if patch is not None and patch.vuln == _OVERFLOW:
                allocate_guarded = self._allocate_guarded
                return [allocate_guarded("malloc", size) for size in sizes]
        return [self._allocate("malloc", size, _charged=True)
                for size in sizes]

    def calloc(self, nmemb: int, size: int) -> int:
        if nmemb < 0 or size < 0:
            raise ValueError("calloc: negative argument")
        total = nmemb * size
        if total > SIZE_MAX:
            # glibc's overflow check, enforced before the request ever
            # reaches the underlying allocator.
            raise OutOfMemoryError(
                f"calloc: {nmemb} * {size} overflows size_t")
        return self._allocate("calloc", total, zero=True)

    def memalign(self, alignment: int, size: int) -> int:
        return self._allocate("memalign", size, aligned=True,
                              alignment=alignment)

    def aligned_alloc(self, alignment: int, size: int) -> int:
        return self._allocate("aligned_alloc", size, aligned=True,
                              alignment=alignment)

    def posix_memalign(self, alignment: int, size: int) -> int:
        if alignment % 8 or not is_power_of_two(alignment):
            # POSIX: the alignment must be a power of two multiple of
            # sizeof(void*); EINVAL otherwise.
            raise ValueError("posix_memalign: alignment must be a "
                             "power-of-two multiple of sizeof(void*)")
        return self._allocate("posix_memalign", size, aligned=True,
                              alignment=alignment)

    def _patches_for(self, fun: str):
        patches = self._fun_patches.get(fun)
        if patches is None:
            per_fun = getattr(self.table, "per_fun", None)
            if per_fun is not None:
                patches = per_fun(fun)
            else:
                patches = _LookupView(self.table.lookup, fun)
            self._fun_patches[fun] = patches
        return patches

    def _allocate(self, fun: str, size: int, aligned: bool = False,
                  alignment: int = 0, zero: bool = False,
                  _charged: bool = False) -> int:
        meter = self.meter
        if meter is not None and not _charged:
            model = meter.model
            meter.charge("interpose", model.interpose)
            meter.charge("metadata", model.metadata)
            meter.charge("lookup", model.hash_lookup)
        patches = self._fun_patches.get(fun)
        if patches is None:
            patches = self._patches_for(fun)
        if patches or not self._pure_ccid:
            ccid = self._current_ccid()
            patch = patches.get(ccid)
        else:
            # Elided read: the frozen per-function map is *empty*
            # — no CCID of ``fun`` can match a patch — and the CCID read
            # is a pure register read.  Skip it entirely.  (A lookup
            # view without ``per_fun`` can never prove emptiness; it is
            # always truthy and takes the read.)
            patch = None

        if (patch is None and not aligned and not zero
                and 0 <= size <= _MAX_INLINE_SIZE):
            # Structure 1 fast path — the "zero patches" common case:
            # no guard, no zero-fill, no alignment.  Request metadata
            # word + user bytes, stamp the word (vuln NONE, unaligned:
            # the encoding degenerates to ``size << 4``), done.
            raw = self._underlying_malloc(METADATA_SIZE + size)
            self._write_word(raw, size << _METADATA_SIZE_SHIFT)
            self.stats.record_alloc(fun, size)
            return raw + METADATA_SIZE
        if patch is not None and not aligned and patch.vuln == _OVERFLOW:
            return self._allocate_guarded(fun, size, zero)

        vuln = patch.vuln if patch is not None else VulnType.NONE
        bits = int(vuln)
        plan = plan_request(vuln, aligned, alignment, size)
        if plan.request_alignment:
            raw = self.underlying.memalign(plan.request_alignment,
                                           plan.request_size)
        else:
            raw = self.underlying.malloc(plan.request_size)
        placed = place_buffer(plan, raw, size)

        metadata = BufferMetadata(
            vuln=vuln,
            aligned=aligned,
            align_log2=(plan.user_alignment.bit_length() - 1
                        if aligned else 0),
            guard_page=placed.guard,
            user_size=0 if placed.guard else size,
        )
        # Every failure exit from here on (a guard ``mprotect`` fault,
        # say) rolls the half-built buffer back before re-raising, so a
        # failed allocation leaks nothing.  The try costs nothing on the
        # success path.
        try:
            self.memory.write_word(placed.metadata_address,
                                   metadata.encode())

            if placed.guard:
                # User size lives in the guard page's first word, then
                # the page is sealed.
                self.memory.write_word(placed.guard, size)
                self.memory.mprotect(placed.guard, PAGE_SIZE, PROT_NONE)
                self._charge("defense", self.meter.model.mprotect
                             if self.meter else 0)
                self.enhanced_counts[VulnType.OVERFLOW] += 1
            if zero or bits & _UNINIT_READ:
                if size:
                    self.memory.fill(placed.user, size, 0)
                if not zero and self.meter is not None:
                    # calloc zeroes natively; only patch-driven zeroing
                    # is defense cost.
                    self.meter.charge(
                        "defense",
                        self.meter.model.zero_fill_per_byte * size)
                if bits & _UNINIT_READ:
                    self.enhanced_counts[VulnType.UNINIT_READ] += 1
        except BaseException:
            self._rollback_allocation(raw, placed.metadata_address,
                                      placed.guard)
            raise
        if bits & _USE_AFTER_FREE:
            self.enhanced_counts[VulnType.USE_AFTER_FREE] += 1

        self.stats.record_alloc(fun, size)
        return placed.user

    def _allocate_guarded(self, fun: str, size: int,
                          zero: bool = False) -> int:
        """Structure 2 (overflow patch, unaligned) in integer arithmetic.

        The layout :func:`~.structures.plan_request` and
        :func:`~.structures.place_buffer` compute, and the word
        :meth:`BufferMetadata.encode` packs, without building either:
        metadata word · user buffer · pad · guard page, the user size in
        the guard page's first word, the guard sealed ``PROT_NONE``.
        Interposition must already have been charged.
        """
        if size < 0:
            raise StructureError(f"negative size {size}")
        raw = self._underlying_malloc(METADATA_SIZE + size + _GUARD_SLACK)
        user = raw + METADATA_SIZE
        guard = (user + size + _PAGE_MASK) & ~_PAGE_MASK
        try:
            self._write_word(raw, overflow_word(guard))
            self._write_word(guard, size)
            self.memory.mprotect(guard, PAGE_SIZE, PROT_NONE)
            meter = self.meter
            if meter is not None:
                meter.charge("defense", meter.model.mprotect)
            self.enhanced_counts[VulnType.OVERFLOW] += 1
            if zero and size:
                self.memory.fill(user, size, 0)
        except BaseException:
            self._rollback_allocation(raw, raw, guard)
            raise
        self.stats.record_alloc(fun, size)
        return user

    def _rollback_allocation(self, raw: int, metadata_address: int,
                             guard: int) -> None:
        """Undo a half-built allocation: unseal its guard page if it got
        sealed, clear the metadata word, return the chunk."""
        if guard and self.memory.protection_of(guard) != PROT_RW:
            self.memory.mprotect(guard, PAGE_SIZE, PROT_RW)
        self.memory.write_word(metadata_address, 0)
        self.underlying.free(raw)

    # ------------------------------------------------------------------
    # Deallocation (Figure 7)
    # ------------------------------------------------------------------

    def _read_metadata(self, user: int, word: Optional[int] = None
                       ) -> Tuple[BufferMetadata, int]:
        """Decode the metadata word; returns (metadata, user_size).

        ``word`` is the metadata word when the caller already loaded it.
        For guarded buffers the guard page is made accessible first (the
        user size lives in its first word) — step (1) of Figure 7.
        """
        if word is None:
            word = self.memory.read_word(user - METADATA_SIZE)
        metadata = BufferMetadata.decode(word)
        if metadata.has_guard:
            self.memory.mprotect(metadata.guard_page, PAGE_SIZE, PROT_RW)
            self._charge("defense", self.meter.model.mprotect
                         if self.meter else 0)
            user_size = self.memory.read_word(metadata.guard_page)
        else:
            user_size = metadata.user_size
        return metadata, user_size

    def free(self, address: int) -> None:
        if self.meter is not None:
            self._charge_interposition()
        if address == 0:
            return
        word = self._read_word(address - METADATA_SIZE)
        if not word & 0xF:
            # Fused un-patched fast path: vuln NONE + unaligned means no
            # guard page, no quarantine, align_log2 0 — the whole word
            # is ``user_size << 4``.  Free without decoding (Figure 7
            # collapses to its degenerate first row).
            self._record_free(word >> _METADATA_SIZE_SHIFT)
            self._underlying_free(address - METADATA_SIZE)
            return
        self._free_decoded(address, word)

    def _free_decoded(self, address: int, word: int) -> None:
        """The decoding free path (guard unseal, quarantine, Figure 7).

        Interposition must already have been charged; shared by
        :meth:`free` and :meth:`free_run` for buffers whose metadata word
        (``word``, already loaded) carries flags.
        """
        if word & 0xF == _OVERFLOW:
            # Structure 2: unseal the guard, read the user size from its
            # first word, release the chunk — Figure 7 in integer
            # arithmetic.
            guard = guard_page_of(word)
            self.memory.mprotect(guard, PAGE_SIZE, PROT_RW)
            meter = self.meter
            if meter is not None:
                meter.charge("defense", meter.model.mprotect)
            self._record_free(self._read_word(guard))
            self._underlying_free(address - METADATA_SIZE)
            return
        metadata, user_size = self._read_metadata(address, word)
        raw = buffer_start(address, metadata.aligned, metadata.alignment)
        if metadata.has_guard:
            region_size = metadata.guard_page + PAGE_SIZE - raw
        else:
            region_size = (address - raw) + user_size
        self.stats.record_free(user_size)
        if word & _USE_AFTER_FREE:
            self._charge("defense", self.meter.model.quarantine_op
                         if self.meter else 0)
            evictions = self.quarantine.push(
                FreedBlock(raw, region_size, None))
            for block in evictions:
                self.underlying.free(block.address)
        else:
            self.underlying.free(raw)

    def free_run(self, addresses: Sequence[int]) -> None:
        """Batched ``free``: observation-identical to per-call frees."""
        n = len(addresses)
        if n == 0:
            return
        meter = self.meter
        if meter is not None:
            model = meter.model
            meter.charge("interpose", model.interpose * n)
            meter.charge("metadata", model.metadata * n)
        live = [address for address in addresses if address]
        read_word = self._read_word
        words = [read_word(address - METADATA_SIZE) for address in live]
        if not any(word & 0xF for word in words):
            # All plain (the steady-state batch): release the whole run
            # in one batched underlying call.
            if live:
                self.underlying.free_run(
                    [address - METADATA_SIZE for address in live])
                self.stats.record_free_run(
                    [word >> _METADATA_SIZE_SHIFT for word in words])
            return
        raws: List[int] = []
        append_raw = raws.append
        usables: List[int] = []
        append_usable = usables.append
        free_decoded = self._free_decoded
        try:
            for address, word in zip(live, words):
                if not word & 0xF:
                    # Accumulate the whole fast-path run and release it
                    # in one batched underlying call.  Reordering plain
                    # frees after the decoding ones is unobservable:
                    # decoding frees never touch a live buffer's
                    # metadata word, and the underlying allocator sees
                    # the same multiset of releases from this one call
                    # site.
                    append_usable(word >> _METADATA_SIZE_SHIFT)
                    append_raw(address - METADATA_SIZE)
                else:
                    free_decoded(address, word)
        finally:
            # Also on a failing decoded free (a guard unseal fault, say):
            # the plain frees before it happened in the per-call loop,
            # so they happen here too before the error propagates.
            if raws:
                self.underlying.free_run(raws)
                self.stats.record_free_run(usables)

    # ------------------------------------------------------------------
    # Patch-table swap (read-mostly shared tables, copy-on-write)
    # ------------------------------------------------------------------

    def swap_table(self, table: PatchTable) -> None:
        """Atomically replace the patch table (copy-on-write swap).

        The serving controller distributes new tables while workers keep
        allocating.  Publication order makes every lookup see one
        internally consistent table version, old or new, never a mix:

        1. publish the new frozen table;
        2. drop the per-function probe cache — stale maps derived from
           the old table are unreachable after this store (probes that
           raced step 1 cached into the *old* dict, which dies here).

        Live enhanced buffers keep the structures their allocation-time
        table gave them — their self-describing metadata words make frees
        correct under any table version (the paper's patches-as-
        configuration property).
        """
        if not table.frozen:
            raise ValueError("patch table must be frozen before use")
        self.table = table
        self._fun_patches = {}

    # ------------------------------------------------------------------
    # Realloc & queries
    # ------------------------------------------------------------------

    def realloc(self, address: int, size: int) -> int:
        if address == 0:
            return self._allocate("realloc", size)
        if size == 0:
            self.free(address)
            return 0
        self._charge_interposition()
        # Allocate before unsealing the old buffer's guard page, so a
        # failed allocation leaves the old buffer as it was: live, guard
        # sealed (fail closed).
        new_user = self._allocate("realloc", size)
        try:
            _, old_size = self._read_metadata(address)
        except BaseException:
            self.free(new_user)
            raise
        keep = min(old_size, size)
        if keep:
            self.memory.write(new_user, self.memory.read(address, keep))
        self.free(address)
        return new_user

    def malloc_usable_size(self, address: int) -> int:
        if address == 0:
            return 0
        word = self.memory.read_word(address - METADATA_SIZE)
        metadata = BufferMetadata.decode(word)
        if not metadata.has_guard:
            return metadata.user_size
        # Reading the size requires briefly unsealing the guard page.
        self.memory.mprotect(metadata.guard_page, PAGE_SIZE, PROT_RW)
        user_size = self.memory.read_word(metadata.guard_page)
        self.memory.mprotect(metadata.guard_page, PAGE_SIZE, PROT_NONE)
        return user_size
