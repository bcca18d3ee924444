"""``check_read``: the zero-copy send path's permission check.

The serving fast path re-validates the same response buffer for every
request, so a check must reflect the protections in force *now*: every
mapping change that can revoke read access (``munmap``, ``mprotect``,
``sbrk`` shrink) takes effect on the very next check.
"""

import pytest

from repro.machine import (
    PAGE_SIZE,
    PROT_NONE,
    PROT_READ,
    PROT_RW,
    SegmentationFault,
    VirtualMemory,
)


class TestCheckRead:
    """Every ``check_read`` consults the protections in force at the
    call: each revocation (munmap, mprotect, sbrk shrink) faults the very
    next check, and a fresh mapping over the same span passes again."""

    def test_repeated_checks_succeed(self):
        memory = VirtualMemory()
        base = memory.mmap(2 * PAGE_SIZE)
        for _ in range(3):
            memory.check_read(base + 10, 100)
        memory.check_read(base, 2 * PAGE_SIZE)  # different span

    def test_unmapped_never_cached(self):
        memory = VirtualMemory()
        base = memory.mmap(PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            memory.check_read(base + PAGE_SIZE, 8)
        with pytest.raises(SegmentationFault):
            memory.check_read(base + PAGE_SIZE, 8)

    def test_munmap_invalidates_cached_span(self):
        memory = VirtualMemory()
        base = memory.mmap(PAGE_SIZE)
        memory.check_read(base, 64)
        memory.munmap(base, PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            memory.check_read(base, 64)

    def test_mprotect_invalidates_cached_span(self):
        memory = VirtualMemory()
        base = memory.mmap(PAGE_SIZE, prot=PROT_RW)
        memory.check_read(base, 64)
        memory.mprotect(base, PAGE_SIZE, PROT_NONE)
        with pytest.raises(SegmentationFault):
            memory.check_read(base, 64)

    def test_sbrk_shrink_invalidates_cached_span(self):
        memory = VirtualMemory()
        memory.sbrk(2 * PAGE_SIZE)
        top = memory.sbrk(0)
        memory.check_read(top - 64, 64)
        memory.sbrk(-2 * PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            memory.check_read(top - 64, 64)

    def test_remap_after_unmap_revalidates(self):
        """A fresh mapping over the same span is readable again — the
        invalidation must not stick past the next successful check."""
        memory = VirtualMemory()
        base = memory.mmap(PAGE_SIZE)
        memory.check_read(base, 64)
        memory.munmap(base, PAGE_SIZE)
        again = memory.mmap(PAGE_SIZE)
        memory.check_read(again, 64)

    def test_read_only_pages_pass_check_read(self):
        memory = VirtualMemory()
        base = memory.mmap(PAGE_SIZE, prot=PROT_READ)
        memory.check_read(base, PAGE_SIZE)
