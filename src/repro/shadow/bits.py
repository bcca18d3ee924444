"""Packed shadow state: A-bits, V-bit masks and origins.

Memcheck-style shadow memory (paper Section V and Figure 3):

* **A-bit** — one per byte: may the program touch this byte at all?
* **V-bits** — one per *bit*: has this bit been given a value?  Stored as
  one mask byte per data byte (bit ``i`` of the mask = V-bit of data bit
  ``i``), which is what gives uninitialized-read detection bit precision.
* **origin** — per byte, the serial of the heap buffer whose uninitialized
  memory the byte's invalid bits came from; propagated on copies so a
  warning can be traced back to the vulnerable buffer (origin tracking).

Storage is page-granular sparse arrays, defaulting to *inaccessible,
invalid, no origin* — which is exactly right for a heap area where only
explicitly allocated buffers may be touched.

Every plane stores each page in one of two columns: a *uniform* page is
just the ``int`` value every one of its 4096 bytes holds (an absent page
is implicitly uniform-default), and only pages with mixed content
materialize a per-byte column.  Shadow traffic is dominated by
whole-buffer fills (red-zoning, validity marking, origin tagging) and
whole-buffer scans, so most pages stay uniform and those operations are
O(1) per page instead of O(page size).

* :class:`_BytePlane` (A-bits, V-masks) materializes a ``bytearray``.
* :class:`_OriginPlane` (origins) materializes an ``array('q')`` of
  serials, with :data:`NO_ORIGIN` for bytes without one; an absent page
  means *no origin* and an ``int`` page means every byte of the page has
  that origin.  A fresh buffer tags all its pages with one serial, so
  origin tagging, copies and the per-origin scans of
  :meth:`ShadowState.first_origins` do one step per page, not per byte.
"""

from __future__ import annotations

from array import array
from itertools import groupby
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..machine.layout import PAGE_SIZE

#: Mask byte meaning "all eight bits valid".
ALL_VALID = 0xFF
#: Mask byte meaning "all eight bits invalid".
ALL_INVALID = 0x00
#: Origin-column code for a byte with no origin (serials are >= 0).
NO_ORIGIN = -1

#: ``bytes.translate`` table: V-mask byte -> 1 when fully valid, else 0.
_VALID_FLAGS = bytes(1 if mask == ALL_VALID else 0 for mask in range(256))

#: Shared full-page fill templates, keyed by byte value (a plane only
#: ever holds a handful of distinct values: default, 1, 0xFF, ...).
_FULL_PAGES: Dict[int, bytes] = {}


def _full_page(value: int) -> bytes:
    template = _FULL_PAGES.get(value)
    if template is None:
        template = bytes([value]) * PAGE_SIZE
        _FULL_PAGES[value] = template
    return template


def _zero_runs(flags: bytes) -> Iterator[Tuple[int, int]]:
    """``(start, end)`` offsets of the maximal runs of ``0`` in a string
    of 0/1 flag bytes, in order (``bytes.find`` does the scanning)."""
    start = flags.find(0)
    while start != -1:
        end = flags.find(1, start)
        if end == -1:
            yield start, len(flags)
            return
        yield start, end
        start = flags.find(0, end)


class _PagedPlane:
    """A sparse per-byte plane with a default, one page at a time.

    Page representation (the columnar split):

    * absent from ``_pages`` — uniform page of ``default``;
    * ``int`` value — uniform page of that value;
    * a ``_COLUMN`` instance — materialized page with mixed content.
    """

    #: Mutable per-byte page type of mixed pages.
    _COLUMN: Any

    def __init__(self, default: Any) -> None:
        self.default = default
        self._pages: Dict[int, Any] = {}

    def _fill(self, value: Any, count: int) -> Any:
        """``count`` copies of ``value``, assignable to a column slice."""
        raise NotImplementedError

    def _new_column(self, value: Any) -> Any:
        """A fresh mutable page column holding ``value`` throughout."""
        raise NotImplementedError

    def _page(self, page_no: int) -> Any:
        """Materialize ``page_no`` as a mutable column."""
        page = self._pages.get(page_no)
        if type(page) is self._COLUMN:
            return page
        page = self._new_column(self.default if page is None else page)
        self._pages[page_no] = page
        return page

    def set_range(self, address: int, size: int, value: Any) -> None:
        """Set ``size`` bytes starting at ``address`` to ``value``.

        Fast paths: a chunk covering one *whole* page stores just the
        uniform value (dropping the page entirely when filled with the
        default, so big default fills also shrink the plane), and a
        partial fill with the value a uniform page already holds is a
        no-op.  Only partial fills of mixed pages touch page content.
        """
        remaining = size
        cursor = address
        pages = self._pages
        default = self.default
        column = self._COLUMN
        while remaining > 0:
            page_no, offset = divmod(cursor, PAGE_SIZE)
            chunk = min(PAGE_SIZE - offset, remaining)
            if chunk == PAGE_SIZE:
                # Whole page: record the uniform value, content-free.
                if value == default:
                    pages.pop(page_no, None)
                else:
                    pages[page_no] = value
            else:
                page = pages.get(page_no)
                if type(page) is column:
                    page[offset:offset + chunk] = self._fill(value, chunk)
                elif value != (default if page is None else page):
                    # Partial fill changes part of a uniform page.
                    self._page(page_no)[offset:offset + chunk] = (
                        self._fill(value, chunk))
                # else: the uniform page already holds ``value``.
            cursor += chunk
            remaining -= chunk


class _BytePlane(_PagedPlane):
    """A sparse per-byte plane of small integers (A-bits, V-masks)."""

    _COLUMN = bytearray

    def _fill(self, value: int, count: int) -> bytes:
        return _full_page(value)[:count]

    def _new_column(self, value: int) -> bytearray:
        return bytearray(_full_page(value))

    def get_range(self, address: int, size: int) -> bytes:
        """Read ``size`` plane bytes starting at ``address``."""
        out = bytearray(size)
        view = memoryview(out)
        position = 0
        remaining = size
        cursor = address
        default = self.default
        while remaining > 0:
            page_no, offset = divmod(cursor, PAGE_SIZE)
            chunk = min(PAGE_SIZE - offset, remaining)
            page = self._pages.get(page_no)
            if type(page) is bytearray:
                view[position:position + chunk] = \
                    memoryview(page)[offset:offset + chunk]
            else:
                value = default if page is None else page
                if value:  # the fresh buffer is already zero-filled
                    view[position:position + chunk] = \
                        _full_page(value)[:chunk]
            position += chunk
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write_range(self, address: int, values: bytes) -> None:
        """Write raw plane bytes starting at ``address``."""
        remaining = len(values)
        cursor = address
        consumed = 0
        while remaining > 0:
            page_no, offset = divmod(cursor, PAGE_SIZE)
            chunk = min(PAGE_SIZE - offset, remaining)
            self._page(page_no)[offset:offset + chunk] = (
                values[consumed:consumed + chunk])
            cursor += chunk
            consumed += chunk
            remaining -= chunk

    def first_not_equal(self, address: int, size: int,
                        value: int) -> Optional[int]:
        """Address of the first byte in range differing from ``value``.

        Uniform pages answer in O(1): either every byte matches (skip)
        or the first byte of the chunk differs.  Mixed pages compare the
        chunk against a template (memcmp) and only on mismatch walk to
        the differing byte.
        """
        remaining = size
        cursor = address
        default = self.default
        template = _full_page(value)
        while remaining > 0:
            page_no, offset = divmod(cursor, PAGE_SIZE)
            chunk = min(PAGE_SIZE - offset, remaining)
            page = self._pages.get(page_no)
            if type(page) is bytearray:
                window = page[offset:offset + chunk]
                if window != template[:chunk]:
                    for index, byte in enumerate(window):
                        if byte != value:
                            return cursor + index
            elif (default if page is None else page) != value:
                return cursor
            cursor += chunk
            remaining -= chunk
        return None


#: One piece of an origin range: ``(address, length, content)`` where
#: ``content`` is the uniform origin (``int``/``None``) of the piece or
#: a copied ``array('q')`` slice of a mixed page.
_Segment = Tuple[int, int, Any]


class _OriginPlane(_PagedPlane):
    """Per-byte origin serials; default *no origin* (``None``)."""

    _COLUMN = array

    def __init__(self) -> None:
        super().__init__(None)

    def _fill(self, value: Optional[int], count: int) -> "array[int]":
        return array("q", (NO_ORIGIN if value is None else value,)) * count

    def _new_column(self, value: Optional[int]) -> "array[int]":
        return self._fill(value, PAGE_SIZE)

    def get(self, address: int) -> Optional[int]:
        """Origin of one byte."""
        page_no, offset = divmod(address, PAGE_SIZE)
        page = self._pages.get(page_no)
        if type(page) is array:
            origin = page[offset]
            return None if origin == NO_ORIGIN else origin
        return page

    def segments(self, address: int, size: int) -> List[_Segment]:
        """The range split at page boundaries (mixed pieces copied, so
        the result stays valid across later writes)."""
        out: List[_Segment] = []
        remaining = size
        cursor = address
        pages = self._pages
        while remaining > 0:
            page_no, offset = divmod(cursor, PAGE_SIZE)
            chunk = min(PAGE_SIZE - offset, remaining)
            page = pages.get(page_no)
            if type(page) is array:
                page = page[offset:offset + chunk]
            out.append((cursor, chunk, page))
            cursor += chunk
            remaining -= chunk
        return out

    def write_segments(self, address: int,
                       segments: List[_Segment]) -> None:
        """Write ``segments`` (from :meth:`segments`) back to back from
        ``address`` on (memmove semantics: the pieces are copies)."""
        cursor = address
        for _, length, content in segments:
            if type(content) is not array:
                self.set_range(cursor, length, content)
                cursor += length
                continue
            consumed = 0
            while consumed < length:
                page_no, offset = divmod(cursor, PAGE_SIZE)
                chunk = min(PAGE_SIZE - offset, length - consumed)
                self._page(page_no)[offset:offset + chunk] = (
                    content[consumed:consumed + chunk])
                cursor += chunk
                consumed += chunk


class ShadowState:
    """The combined A/V/origin shadow planes for one guest process."""

    def __init__(self) -> None:
        self._a = _BytePlane(default=0)          # 0 = inaccessible
        self._v = _BytePlane(default=ALL_INVALID)
        self._origins = _OriginPlane()

    # -- accessibility -------------------------------------------------

    def set_accessible(self, address: int, size: int,
                       accessible: bool = True) -> None:
        """Mark a byte range (in)accessible."""
        self._a.set_range(address, size, 1 if accessible else 0)

    def first_inaccessible(self, address: int, size: int) -> Optional[int]:
        """First inaccessible byte address in the range, or ``None``."""
        return self._a.first_not_equal(address, size, 1)

    def accessibility(self, address: int, size: int) -> bytes:
        """Raw A-bit bytes (0/1 per byte) for a range."""
        return self._a.get_range(address, size)

    def is_accessible(self, address: int, size: int = 1) -> bool:
        """True when the entire range is accessible."""
        return self.first_inaccessible(address, size) is None

    def inaccessible_runs(self, address: int,
                          size: int) -> Iterator[Tuple[int, int]]:
        """Maximal ``[start, end)`` address runs of inaccessible bytes."""
        for start, end in _zero_runs(self._a.get_range(address, size)):
            yield address + start, address + end

    # -- validity --------------------------------------------------------

    def set_valid(self, address: int, size: int) -> None:
        """Mark bytes fully initialized."""
        self._v.set_range(address, size, ALL_VALID)

    def set_invalid(self, address: int, size: int,
                    origin: Optional[int] = None) -> None:
        """Mark bytes fully uninitialized, optionally recording origin."""
        self._v.set_range(address, size, ALL_INVALID)
        if origin is not None:
            self._origins.set_range(address, size, origin)

    def set_vmask(self, address: int, masks: bytes) -> None:
        """Write per-byte validity masks (bit precision)."""
        self._v.write_range(address, masks)

    def vmask(self, address: int, size: int) -> bytes:
        """Per-byte validity masks for a range."""
        return self._v.get_range(address, size)

    def first_invalid(self, address: int, size: int) -> Optional[int]:
        """First byte with any invalid bit, or ``None``."""
        return self._v.first_not_equal(address, size, ALL_VALID)

    def is_fully_valid(self, address: int, size: int) -> bool:
        """True when every bit in the range is initialized."""
        return self.first_invalid(address, size) is None

    def invalid_runs(self, address: int,
                     size: int) -> Iterator[Tuple[int, int]]:
        """Maximal ``[start, end)`` address runs of bytes with at least
        one invalid bit."""
        flags = self._v.get_range(address, size).translate(_VALID_FLAGS)
        for start, end in _zero_runs(flags):
            yield address + start, address + end

    # -- origins ---------------------------------------------------------

    def origin_of(self, address: int) -> Optional[int]:
        """Origin serial recorded for the byte at ``address``."""
        return self._origins.get(address)

    def origins(self, address: int, size: int) -> List[Optional[int]]:
        """Per-byte origins for a range."""
        out: List[Optional[int]] = []
        for _, length, content in self._origins.segments(address, size):
            if type(content) is array:
                out.extend(None if origin == NO_ORIGIN else origin
                           for origin in content)
            else:
                out.extend([content] * length)
        return out

    def set_origins(self, address: int,
                    origins: List[Optional[int]]) -> None:
        """Write per-byte origins (``None`` clears), one fill per run of
        equal origins."""
        cursor = address
        for origin, run in groupby(origins):
            length = sum(1 for _ in run)
            self._origins.set_range(cursor, length, origin)
            cursor += length

    def first_origins(self, address: int,
                      size: int) -> List[Tuple[int, Optional[int]]]:
        """Each distinct origin in the range (``None`` included) with the
        address of its first byte, in address order.

        Uniform pages cost one lookup; a mixed page finds its distinct
        serials with ``set`` and their first bytes with ``array.index``.
        """
        out: List[Tuple[int, Optional[int]]] = []
        seen: Set[Optional[int]] = set()
        for at, _, content in self._origins.segments(address, size):
            if type(content) is not array:
                if content not in seen:
                    seen.add(content)
                    out.append((at, content))
                continue
            firsts: List[Tuple[int, Optional[int]]] = []
            for code in set(content):
                origin = None if code == NO_ORIGIN else code
                if origin not in seen:
                    firsts.append((content.index(code), origin))
            for index, origin in sorted(firsts):
                seen.add(origin)
                out.append((at + index, origin))
        return out

    # -- compound operations ----------------------------------------------

    def write_shadow(self, address: int, size: int,
                     masks: Optional[bytes],
                     origin: Optional[int]) -> None:
        """Shadow of a guest store: V-bits from ``masks`` (``None``:
        fully valid); ``origin`` on every byte with an invalid bit and no
        origin on the fully valid ones."""
        plane = self._origins
        if masks is None:
            self.set_valid(address, size)
            plane.set_range(address, size, None)
            return
        self.set_vmask(address, masks)
        if origin is None:
            plane.set_range(address, size, None)
            return
        cursor = 0
        for start, end in _zero_runs(masks.translate(_VALID_FLAGS)):
            plane.set_range(address + cursor, start - cursor, None)
            plane.set_range(address + start, end - start, origin)
            cursor = end
        plane.set_range(address + cursor, size - cursor, None)

    def copy_shadow(self, dst: int, src: int, size: int) -> None:
        """Propagate V-bits and origins on a memory copy (never checks)."""
        self.set_vmask(dst, self.vmask(src, size))
        self._origins.write_segments(dst, self._origins.segments(src, size))
