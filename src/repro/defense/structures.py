"""Buffer structures 1–4 (paper Figure 6, Table I).

The online defense lays every buffer out as one of four structures chosen
by two bits: *does the patch demand a guard page* (overflow defense) and
*was the allocation aligned* (memalign family):

=========  =========  ============================================
structure  aligned    contents, low address → high
=========  =========  ============================================
1          no         metadata word · user buffer
2          no         metadata word · user buffer · pad · guard page
3          yes        padding · metadata word · user buffer
4          yes        padding · metadata word · user buffer · pad ·
                      guard page
=========  =========  ============================================

Layout happens in two stages because only stage two knows real addresses:

* :func:`plan_request` — how much to request from the underlying
  allocator (and with what alignment) so everything fits;
* :func:`place_buffer` — given the raw address the underlying allocator
  returned, compute the user address, the page-aligned guard location and
  the total region extent.

The guard page is page-aligned by construction (``mprotect`` granularity)
and the user buffer ends flush against it apart from sub-word padding, so
a contiguous overflow touches the guard within at most a page.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.layout import PAGE_SIZE, is_power_of_two, page_align_up
from ..vulntypes import VulnType
from .metadata import _OVERFLOW_BITS, METADATA_SIZE

#: Minimum alignment the defense uses for the memalign family (the
#: metadata word must fit below the user address).
MIN_DEFENSE_ALIGNMENT = 16


class StructureError(ValueError):
    """Invalid layout request."""


@dataclass(frozen=True)
class RequestPlan:
    """What to ask the underlying allocator for."""

    structure: int
    #: Bytes to request.
    request_size: int
    #: Alignment to request via ``memalign`` (0 = plain ``malloc``).
    request_alignment: int
    #: The effective alignment of the user buffer (1 when unaligned).
    user_alignment: int


@dataclass(frozen=True)
class PlacedBuffer:
    """Concrete layout of one allocated buffer."""

    structure: int
    raw: int
    user: int
    user_size: int
    #: Base address of the guard page, or 0 when there is none.
    guard: int
    #: One past the last byte belonging to this buffer's region.
    region_end: int

    @property
    def metadata_address(self) -> int:
        """Where the metadata word lives."""
        return self.user - METADATA_SIZE

    @property
    def region_size(self) -> int:
        """Total footprint (for quarantine quota accounting)."""
        return self.region_end - self.raw


def structure_for(vuln: VulnType, aligned: bool) -> int:
    """Table I: pick the structure for a vulnerability mask."""
    wants_guard = bool(int(vuln) & _OVERFLOW_BITS)
    if aligned:
        return 4 if wants_guard else 3
    return 2 if wants_guard else 1


def plan_request(vuln: VulnType, aligned: bool, alignment: int,
                 size: int) -> RequestPlan:
    """Stage one: the underlying-allocator request for this buffer."""
    if size < 0:
        raise StructureError(f"negative size {size}")
    structure = structure_for(vuln, aligned)
    wants_guard = structure in (2, 4)
    guard_slack = (PAGE_SIZE - 1) + PAGE_SIZE if wants_guard else 0
    if aligned:
        if alignment and not is_power_of_two(alignment):
            raise StructureError(
                f"alignment {alignment} is not a power of two")
        user_alignment = max(alignment, MIN_DEFENSE_ALIGNMENT)
        request = user_alignment + size + guard_slack
        return RequestPlan(structure, request, user_alignment,
                           user_alignment)
    request = METADATA_SIZE + size + guard_slack
    return RequestPlan(structure, request, 0, 1)


def place_buffer(plan: RequestPlan, raw: int, size: int) -> PlacedBuffer:
    """Stage two: concrete addresses once ``raw`` is known."""
    if plan.request_alignment:
        user = raw + plan.request_alignment
    else:
        user = raw + METADATA_SIZE
    if plan.structure in (2, 4):
        guard = page_align_up(user + size)
        region_end = guard + PAGE_SIZE
    else:
        guard = 0
        region_end = user + size
    return PlacedBuffer(plan.structure, raw, user, size, guard, region_end)


def buffer_start(user: int, aligned: bool, alignment: int) -> int:
    """Figure 7's ``pi``: the raw start given the user address.

    For plain buffers ``pi = p − sizeof(void*)``; for aligned buffers
    ``pi = p − A`` where ``A`` is the (defense-effective) alignment.
    """
    if aligned:
        return user - alignment
    return user - METADATA_SIZE
