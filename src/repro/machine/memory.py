"""Sparse paged virtual memory with POSIX-style protection semantics.

``VirtualMemory`` is the bottom layer of the simulated machine.  It provides
exactly the facilities HeapTherapy+ relies on from the operating system:

* a 48-bit virtual address space managed in 4 KiB pages,
* ``mmap``/``munmap``/``sbrk`` for obtaining address ranges,
* ``mprotect`` for changing page permissions — the mechanism behind guard
  pages, and
* faulting semantics: any access to an unmapped page or one lacking the
  needed permission raises :class:`~repro.machine.errors.SegmentationFault`.

Resident-set accounting mirrors Linux demand paging: a mapped page consumes
no physical memory until it is first *written* (reads of untouched pages are
served from the shared zero page).  This is what makes the paper's
observation "guard pages themselves do not increase the use of memory"
reproducible — a guard page is mapped ``PROT_NONE`` and never touched, so it
never becomes resident.  A page counts as resident from its first write,
whether that write gave it a frame or made it a *word-only page* (below):
``resident_pages``, ``resident_bytes`` and ``peak_resident_pages`` count
both kinds, so the accounting is the same with and without fast paths.

Hot-path design (every guest load/store funnels through here, so the
entire benchmark suite is bottlenecked on this file):

* page frames live in a columnar :class:`~repro.machine.pagestore.PageStore`
  arena rather than one ``bytearray`` per page; each framed page is a
  ``memoryview`` window plus a pre-cast 64-bit word view, so aligned
  word traffic is a single indexed store/load with no ``int.from_bytes``
  round trip;
* ``read``/``write``/``fill`` take a *single-page fast path* when the
  access fits in one page — the overwhelmingly common case — doing one
  protection probe, one frame probe and one slice instead of the
  general page-walk;
* aligned ``read_word``/``write_word`` are one protection probe plus one
  word-view load or store; anything unaligned or faulting falls back to
  ``read``/``write``, so faults stay exact;
* a page whose only writes so far are aligned ``write_word`` stores is a
  *word-only page*: it has no frame, just a small word map standing in
  for its word view (:class:`_WordOnlyPage`, missing words read as 0).
  A guarded buffer's guard page holds only its user-size word for its
  whole life (write, seal, unseal, read), so it never takes a 4 KiB
  frame.  The first byte-level or bulk access (``read``/``write``/
  ``fill``, ``read_words``/``write_words``, ``peek``/``poke``)
  *promotes* the page: :meth:`VirtualMemory._materialize` gives it a
  frame and copies the recorded words in.  ``counters()`` reports how
  many word-only pages were created and promoted;
* multi-page and bulk-word copies (``read_words``/``write_words``) go
  through ``memoryview`` slices rather than per-element Python loops.

Fast paths must be *observation-identical* to the general path: same
first faulting address, same ``resident_pages`` demand-paging behaviour,
same fault and ``mprotect`` counts (only ``counters()``, which counts
word-only pages, tells the modes apart).
``VirtualMemory(fast_paths=False)`` disables them so the
equivalence is testable (``tests/machine/test_fastpath_equivalence.py``).
The word views use the host's native byte order; the substrate assumes a
little-endian host (as the generic paths do ``int.from_bytes(...,
"little")``), which covers every platform CPython ships for today.

Pass ``page_store=`` to draw frames from an explicit (possibly
shared-memory) arena.  Otherwise frames come from the process-wide
default store if one has been installed via
:func:`repro.machine.pagestore.set_default_store` (the diagnosis-pool
workers do this to share page state without pickling it), else from the
process's one private arena (:func:`repro.machine.pagestore.private_arena`).
No ``VirtualMemory`` owns its store: it returns its slots on
:meth:`VirtualMemory.close` or when it is collected, and the store
re-zeroes a reused slot, so a fresh machine costs no segment of its own
and its pages still start as the zero page.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from .errors import MapError, OutOfMemoryError, SegmentationFault
from .layout import (
    ADDRESS_SPACE_SIZE,
    HEAP_BASE,
    HEAP_LIMIT,
    MMAP_BASE,
    MMAP_LIMIT,
    PAGE_SIZE,
    is_page_aligned,
    page_align_up,
    page_number,
)
from .pagestore import PageStore, get_default_store, private_arena

#: No access at all; used for guard pages and red zones at page granularity.
PROT_NONE: int = 0
#: Page may be read.
PROT_READ: int = 1
#: Page may be written.
PROT_WRITE: int = 2
#: Convenience combination for ordinary data pages.
PROT_RW: int = PROT_READ | PROT_WRITE

_ZERO_PAGE = bytes(PAGE_SIZE)
_PAGE_MASK = PAGE_SIZE - 1
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_WORDS = PAGE_SIZE >> 3
_WORD_MASK = (1 << 64) - 1


class _WordOnlyPage(dict):
    """The aligned words stored to a page that has no frame yet, by
    word index.  It stands in for the page's word view, so
    ``read_word``/``write_word`` index it the same way; a word never
    stored reads as 0 (the zero page)."""

    __slots__ = ()

    def __missing__(self, index: int) -> int:
        return 0


class VirtualMemory:
    """A sparse, permission-checked, demand-paged address space.

    The class is deliberately small and explicit: one dictionary for
    page permissions (defines what is *mapped*) and a frame table over a
    columnar page store (defines what is *resident*).  All byte-level
    operations validate permissions page by page and fault with the
    exact first offending address, which the shadow analyzer and the
    defense tests rely on.

    Args:
        fast_paths: enable the single-page and word fast paths
            (default).  Disable only to cross-check fast-path
            equivalence; semantics are identical either way.
        fault_injector: optional hook with a ``charge(op)`` method
            (see :class:`repro.fuzz.faults.FaultInjector`) consulted
            *before* every ``mmap``/``mprotect`` call and every growing
            ``sbrk``; it may raise the op's typed error to simulate
            substrate exhaustion.  A raised charge leaves the memory
            map untouched.  ``None`` (the default) costs one attribute
            test on these management paths and nothing on data paths.
        page_store: explicit frame arena to draw resident pages from
            (e.g. a shared-memory store).  ``None`` uses the process
            default store if one is installed, else the process's
            private arena.
    """

    __slots__ = (
        "_store", "_protections", "_frames", "_frame_words",
        "_frame_slots", "_brk", "_mmap_cursor", "fault_count",
        "mprotect_count", "peak_resident_pages", "fast_paths",
        "fault_injector", "word_pages_created", "word_pages_promoted",
    )

    def __init__(self, fast_paths: bool = True,
                 fault_injector: Optional[object] = None,
                 page_store: Optional[PageStore] = None) -> None:
        if page_store is None:
            page_store = get_default_store() or private_arena()
        self._store = page_store
        self._protections: Dict[int, int] = {}
        #: Byte view of each page with a frame (window into the store).
        self._frames: Dict[int, memoryview] = {}
        #: The same windows cast to 64-bit words ('Q'), plus the word
        #: map of every word-only page (resident, but no frame yet).
        self._frame_words: Dict[int, Union[memoryview, _WordOnlyPage]] = {}
        #: Store slot backing each page with a frame (for freeing).
        self._frame_slots: Dict[int, int] = {}
        self._brk: int = HEAP_BASE
        self._mmap_cursor: int = MMAP_BASE
        #: Lifetime counters, useful for tests and cost accounting.
        self.fault_count: int = 0
        self.mprotect_count: int = 0
        #: High-water mark of resident pages (the paper's RSS sampling).
        self.peak_resident_pages: int = 0
        self.fast_paths: bool = fast_paths
        #: Fault-injection hook for mapping-management operations.
        self.fault_injector = fault_injector
        #: Word-only pages made by ``write_word``, and how many of them
        #: a byte-level or bulk access later gave a frame.
        self.word_pages_created: int = 0
        self.word_pages_promoted: int = 0

    @property
    def page_store(self) -> PageStore:
        """The frame arena resident pages are drawn from."""
        return self._store

    # ------------------------------------------------------------------
    # Mapping management
    # ------------------------------------------------------------------

    def mmap(self, length: int, prot: int = PROT_RW,
             address: Optional[int] = None) -> int:
        """Map ``length`` bytes (rounded up to pages) and return the base.

        Without ``address`` the mapping is placed at the current mmap cursor
        (deterministic bump allocation).  With ``address`` the mapping is
        fixed and must not overlap an existing mapping.
        """
        if length <= 0:
            raise MapError(f"mmap: invalid length {length}")
        if self.fault_injector is not None:
            self.fault_injector.charge("mmap")
        length = page_align_up(length)
        if address is None:
            address = self._mmap_cursor
            if address + length > MMAP_LIMIT:
                raise OutOfMemoryError("mmap area exhausted")
            self._mmap_cursor = address + length
        else:
            if not is_page_aligned(address):
                raise MapError(f"mmap: address 0x{address:x} not page aligned")
            if address + length > ADDRESS_SPACE_SIZE:
                raise MapError("mmap: mapping exceeds address space")
        first = page_number(address)
        count = length // PAGE_SIZE
        for pno in range(first, first + count):
            if pno in self._protections:
                raise MapError(
                    f"mmap: page 0x{pno << 12:x} already mapped")
        for pno in range(first, first + count):
            self._protections[pno] = prot
        return address

    def munmap(self, address: int, length: int) -> None:
        """Unmap ``length`` bytes starting at the page-aligned ``address``."""
        if not is_page_aligned(address):
            raise MapError(f"munmap: address 0x{address:x} not page aligned")
        if length <= 0:
            raise MapError(f"munmap: invalid length {length}")
        first = page_number(address)
        count = page_align_up(length) // PAGE_SIZE
        for pno in range(first, first + count):
            self._protections.pop(pno, None)
            if pno in self._frame_words:
                self._discard_frame(pno)

    def mprotect(self, address: int, length: int, prot: int) -> None:
        """Change the protection of every page overlapping the range.

        Mirrors POSIX: the whole range must already be mapped, and the
        address must be page aligned.  Counting calls lets benchmarks charge
        a realistic cost to guard-page installation and removal.
        """
        if not is_page_aligned(address):
            raise MapError(
                f"mprotect: address 0x{address:x} not page aligned")
        if length <= 0:
            raise MapError(f"mprotect: invalid length {length}")
        if self.fault_injector is not None:
            self.fault_injector.charge("mprotect")
        first = page_number(address)
        protections = self._protections
        if length <= PAGE_SIZE:
            # One page (a guard page): check and set it directly.
            if first not in protections:
                raise MapError(
                    f"mprotect: page 0x{first << 12:x} is not mapped")
            protections[first] = prot
        else:
            count = page_align_up(length) // PAGE_SIZE
            for pno in range(first, first + count):
                if pno not in protections:
                    raise MapError(
                        f"mprotect: page 0x{pno << 12:x} is not mapped")
            for pno in range(first, first + count):
                protections[pno] = prot
        self.mprotect_count += 1

    def sbrk(self, increment: int) -> int:
        """Grow (or shrink) the program break; return the previous break.

        New heap pages are mapped read-write.  Shrinking unmaps and discards
        the released pages, as Linux does for ``brk``.
        """
        old_brk = self._brk
        new_brk = old_brk + increment
        if increment > 0:
            if self.fault_injector is not None:
                self.fault_injector.charge("sbrk")
            if new_brk > HEAP_LIMIT:
                raise OutOfMemoryError("heap limit exceeded")
            first_new = page_number(page_align_up(old_brk))
            last = page_number(page_align_up(new_brk))
            for pno in range(first_new, last):
                if pno not in self._protections:
                    self._protections[pno] = PROT_RW
        elif increment < 0:
            if new_brk < HEAP_BASE:
                raise MapError("sbrk: cannot shrink below heap base")
            first_freed = page_number(page_align_up(new_brk))
            last = page_number(page_align_up(old_brk))
            for pno in range(first_freed, last):
                self._protections.pop(pno, None)
                if pno in self._frame_words:
                    self._discard_frame(pno)
        self._brk = new_brk
        return old_brk

    @property
    def brk(self) -> int:
        """The current program break."""
        return self._brk

    # ------------------------------------------------------------------
    # Access checking
    # ------------------------------------------------------------------

    def _check(self, address: int, size: int, needed: int, kind: str) -> None:
        if size <= 0:
            raise MapError(f"invalid access size {size}")
        if address < 0 or address + size > ADDRESS_SPACE_SIZE:
            self.fault_count += 1
            raise SegmentationFault(address, kind, size)
        first = page_number(address)
        last = page_number(address + size - 1)
        for pno in range(first, last + 1):
            prot = self._protections.get(pno)
            if prot is None or (prot & needed) != needed:
                self.fault_count += 1
                fault_at = max(address, pno * PAGE_SIZE)
                raise SegmentationFault(fault_at, kind, size)

    def _translate(self, address: int, size: int, needed: int,
                   kind: str) -> Tuple[int, int, Optional[memoryview]]:
        """Fast-path translation of a single-page access.

        The caller guarantees ``0 < size`` and that ``[address,
        address+size)`` lies within one page with ``address >= 0``.
        Returns ``(page, offset, frame)``; faults exactly as the general
        ``_check`` would.
        """
        pno = address >> _PAGE_SHIFT
        prot = self._protections.get(pno)
        if prot is None or (prot & needed) != needed:
            self.fault_count += 1
            raise SegmentationFault(address, kind, size)
        return pno, address & _PAGE_MASK, self._frames.get(pno)

    def check_read(self, address: int, size: int) -> None:
        """Permission-check a read of the range without copying it.

        Faults exactly where :meth:`read` would — the zero-copy send
        path (``sendfile``) still takes a guard-page fault if the range
        crosses into sealed memory.
        """
        self._check(address, size, PROT_READ, "read")

    def is_mapped(self, address: int, size: int = 1) -> bool:
        """True if every page in ``[address, address+size)`` is mapped."""
        if size <= 0 or address < 0:
            return False
        first = page_number(address)
        last = page_number(address + size - 1)
        return all(pno in self._protections for pno in range(first, last + 1))

    def protection_of(self, address: int) -> Optional[int]:
        """Return the protection flags of the page holding ``address``."""
        return self._protections.get(page_number(address))

    def is_accessible(self, address: int, size: int = 1,
                      write: bool = False) -> bool:
        """True if the range can be read (and written, if asked) safely."""
        needed = PROT_RW if write else PROT_READ
        if size <= 0 or address < 0:
            return False
        first = page_number(address)
        last = page_number(address + size - 1)
        for pno in range(first, last + 1):
            prot = self._protections.get(pno)
            if prot is None or (prot & needed) != needed:
                return False
        return True

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes, faulting on any protection violation."""
        if (self.fast_paths and 0 < size
                and (address & _PAGE_MASK) + size <= PAGE_SIZE
                and address >= 0):
            pno, offset, frame = self._translate(address, size, PROT_READ,
                                                 "read")
            if frame is None:
                if pno not in self._frame_words:
                    return _ZERO_PAGE[offset:offset + size]
                frame = self._materialize(pno)
            return bytes(frame[offset:offset + size])
        self._check(address, size, PROT_READ, "read")
        return self._copy_out(address, size)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data``, faulting on any protection violation."""
        size = len(data)
        if size == 0:
            return
        if (self.fast_paths
                and (address & _PAGE_MASK) + size <= PAGE_SIZE
                and address >= 0):
            pno, offset, frame = self._translate(address, size, PROT_WRITE,
                                                 "write")
            if frame is None:
                frame = self._materialize(pno)
            frame[offset:offset + size] = data
            return
        self._check(address, size, PROT_WRITE, "write")
        self._copy_in(address, data)

    def read_word(self, address: int) -> int:
        """Read a little-endian 64-bit word.

        8-aligned reads of a readable page are one protection probe plus
        one word-view load; everything else funnels through :meth:`read`.
        """
        if self.fast_paths and not address & 7:
            pno = address >> _PAGE_SHIFT
            if self._protections.get(pno, PROT_NONE) & PROT_READ:
                words = self._frame_words.get(pno)
                if words is None:
                    return 0  # the shared zero page
                return words[(address & _PAGE_MASK) >> 3]
        return int.from_bytes(self.read(address, 8), "little")

    def write_word(self, address: int, value: int) -> None:
        """Write a little-endian 64-bit word (value masked to 64 bits).

        On the fast path, the first store to a page with no frame makes
        it a word-only page instead of giving it a frame.
        """
        if self.fast_paths and not address & 7:
            pno = address >> _PAGE_SHIFT
            if self._protections.get(pno, PROT_NONE) & PROT_WRITE:
                frame_words = self._frame_words
                words = frame_words.get(pno)
                if words is None:
                    words = frame_words[pno] = _WordOnlyPage()
                    self.word_pages_created += 1
                    if len(frame_words) > self.peak_resident_pages:
                        self.peak_resident_pages = len(frame_words)
                words[(address & _PAGE_MASK) >> 3] = value & _WORD_MASK
                return
        self.write(address, (value & _WORD_MASK).to_bytes(8, "little"))

    def read_words(self, address: int, count: int) -> "array[int]":
        """Read ``count`` consecutive 64-bit words as an ``array('Q')``.

        Bulk columnar read: one permission check for the whole span,
        then per-page word-view slice copies.  Requires an 8-aligned
        address on the fast path; unaligned spans fall back to
        :meth:`read`.
        """
        size = count << 3
        if not self.fast_paths or address & 7 or address < 0 or count <= 0:
            return array("Q", self.read(address, size))
        self._check(address, size, PROT_READ, "read")
        out = array("Q", bytes(size))
        view = memoryview(out)
        frames = self._frames
        frame_words = self._frame_words
        position = 0
        cursor = address
        remaining = count
        while remaining > 0:
            pno = cursor >> _PAGE_SHIFT
            woff = (cursor & _PAGE_MASK) >> 3
            chunk = min(_PAGE_WORDS - woff, remaining)
            words = frame_words.get(pno)
            if words is not None:
                if pno not in frames:
                    self._materialize(pno)
                    words = frame_words[pno]
                view[position:position + chunk] = words[woff:woff + chunk]
            # else: the fresh array is already zero-filled.
            position += chunk
            cursor += chunk << 3
            remaining -= chunk
        return out

    def write_words(self, address: int,
                    values: Union["array[int]", Sequence[int]]) -> None:
        """Write consecutive 64-bit words (each masked to 64 bits).

        Bulk columnar write: one permission check, then per-page
        word-view slice assignments.  ``values`` may be an ``array('Q')``
        (zero-conversion) or any sequence of ints.
        """
        if isinstance(values, array) and values.typecode == "Q":
            buf = values
        else:
            buf = array("Q", [value & _WORD_MASK for value in values])
        count = len(buf)
        if count == 0:
            return
        if not self.fast_paths or address & 7 or address < 0:
            self.write(address, buf.tobytes())
            return
        self._check(address, count << 3, PROT_WRITE, "write")
        view = memoryview(buf)
        frames = self._frames
        frame_words = self._frame_words
        position = 0
        cursor = address
        remaining = count
        while remaining > 0:
            pno = cursor >> _PAGE_SHIFT
            woff = (cursor & _PAGE_MASK) >> 3
            chunk = min(_PAGE_WORDS - woff, remaining)
            if pno not in frames:
                self._materialize(pno)
            frame_words[pno][woff:woff + chunk] = \
                view[position:position + chunk]
            position += chunk
            cursor += chunk << 3
            remaining -= chunk

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        """Set ``size`` bytes to ``byte`` (memset).

        Zero-copy: fills page frames in place instead of materializing a
        ``size``-byte pattern first.  Filling *writes*, so touched pages
        become resident exactly as they would under ``write``.
        """
        if size == 0:
            return
        if (self.fast_paths and 0 < size
                and (address & _PAGE_MASK) + size <= PAGE_SIZE
                and address >= 0):
            pno, offset, frame = self._translate(address, size, PROT_WRITE,
                                                 "write")
            if frame is None:
                frame = self._materialize(pno)
            if byte == 0:
                frame[offset:offset + size] = _ZERO_PAGE[:size]
            else:
                frame[offset:offset + size] = bytes([byte]) * size
            return
        self._check(address, size, PROT_WRITE, "write")
        self._fill_pages(address, size, byte)

    def peek(self, address: int, size: int) -> bytes:
        """Read bytes *without* permission checks (debugger access).

        Used by the offline analyzer, which — like Valgrind — can observe
        memory the guest program cannot.  Unmapped bytes read as zero.
        """
        return self._copy_out(address, size)

    def poke(self, address: int, data: bytes) -> None:
        """Write bytes without permission checks (debugger access).

        The target pages must at least be mapped; protections are ignored.
        """
        if not self.is_mapped(address, max(len(data), 1)):
            raise SegmentationFault(address, "write", len(data),
                                    message="poke of unmapped memory")
        self._copy_in(address, data)

    # ------------------------------------------------------------------
    # Page-frame plumbing
    # ------------------------------------------------------------------

    def _materialize(self, pno: int) -> memoryview:
        """Give a mapped page a frame from the store: on its first write,
        or on the first byte-level or bulk access to a word-only page,
        whose recorded words are copied into the new frame."""
        slot, frame, words = self._store.alloc()
        frame_words = self._frame_words
        recorded = frame_words.get(pno)
        if recorded is not None:
            for index, value in recorded.items():
                words[index] = value
            self.word_pages_promoted += 1
        self._frames[pno] = frame
        frame_words[pno] = words
        self._frame_slots[pno] = slot
        if len(frame_words) > self.peak_resident_pages:
            self.peak_resident_pages = len(frame_words)
        return frame

    def _discard_frame(self, pno: int) -> None:
        """Drop a resident page; a framed one returns its slot to the
        store, a word-only one has none."""
        words = self._frame_words.pop(pno)
        frame = self._frames.pop(pno, None)
        if frame is None:
            return
        slot = self._frame_slots.pop(pno)
        frame.release()
        words.release()
        self._store.free(slot)

    def _copy_out(self, address: int, size: int) -> bytes:
        if size <= 0:
            return b""
        out = bytearray(size)
        view = memoryview(out)
        frames = self._frames
        frame_words = self._frame_words
        position = 0
        cursor = address
        remaining = size
        while remaining > 0:
            pno = cursor >> _PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            chunk = min(PAGE_SIZE - offset, remaining)
            frame = frames.get(pno)
            if frame is None and pno in frame_words:
                frame = self._materialize(pno)
            if frame is not None:
                view[position:position + chunk] = \
                    frame[offset:offset + chunk]
            # else: the preallocated buffer is already zero-filled.
            position += chunk
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def _copy_in(self, address: int, data: bytes) -> None:
        view = memoryview(data)
        frames = self._frames
        remaining = len(data)
        cursor = address
        consumed = 0
        while remaining > 0:
            pno = cursor >> _PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            chunk = min(PAGE_SIZE - offset, remaining)
            frame = frames.get(pno)
            if frame is None:
                frame = self._materialize(pno)
            frame[offset:offset + chunk] = view[consumed:consumed + chunk]
            cursor += chunk
            consumed += chunk
            remaining -= chunk

    def _fill_pages(self, address: int, size: int, byte: int) -> None:
        """Page-walking memset; never builds a ``size``-byte pattern."""
        frames = self._frames
        pattern = _ZERO_PAGE if byte == 0 else bytes([byte]) * PAGE_SIZE
        remaining = size
        cursor = address
        while remaining > 0:
            pno = cursor >> _PAGE_SHIFT
            offset = cursor & _PAGE_MASK
            chunk = min(PAGE_SIZE - offset, remaining)
            frame = frames.get(pno)
            if frame is None:
                frame = self._materialize(pno)
            frame[offset:offset + chunk] = pattern[:chunk]
            cursor += chunk
            remaining -= chunk

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release all resident frames, returning their slots to the
        store.

        Optional: garbage collection returns the slots too.  Useful
        when slots should go back to the long-lived store promptly.
        """
        for pno in list(self._frame_words):
            self._discard_frame(pno)

    def __del__(self) -> None:  # pragma: no cover - GC timing
        # Return slots to the long-lived store so it does not leak pages
        # as VirtualMemory instances come and go.
        try:
            store = self._store
            for slot in self._frame_slots.values():
                store.free(slot)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Accounting & introspection
    # ------------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Number of pages that have been written to: pages with a frame
        plus word-only pages."""
        return len(self._frame_words)

    @property
    def resident_bytes(self) -> int:
        """Resident set size in bytes — the simulated ``VmRSS``."""
        return len(self._frame_words) * PAGE_SIZE

    def counters(self) -> Dict[str, int]:
        """Host-side fast-path counters, as a flat dict.

        They describe how the simulator stored pages, not what the guest
        observed, so they stay out of every report and digest.
        """
        return {"word_pages_created": self.word_pages_created,
                "word_pages_promoted": self.word_pages_promoted}

    @property
    def mapped_pages(self) -> int:
        """Number of pages currently mapped (any protection)."""
        return len(self._protections)

    @property
    def mapped_bytes(self) -> int:
        """Total mapped bytes — the simulated ``VmSize`` contribution."""
        return len(self._protections) * PAGE_SIZE

    def iter_mappings(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(start, length, prot)`` for maximal contiguous runs."""
        pages = sorted(self._protections)
        i = 0
        while i < len(pages):
            start = pages[i]
            prot = self._protections[start]
            j = i
            while (j + 1 < len(pages) and pages[j + 1] == pages[j] + 1
                   and self._protections[pages[j + 1]] == prot):
                j += 1
            yield (start * PAGE_SIZE, (j - i + 1) * PAGE_SIZE, prot)
            i = j + 1
