"""Machine-substrate edge cases."""

import pytest

from repro.machine import (
    ADDRESS_SPACE_SIZE,
    MapError,
    PAGE_SIZE,
    PROT_NONE,
    SegmentationFault,
)


class TestBoundaries:
    def test_access_beyond_address_space_faults(self, memory):
        with pytest.raises(SegmentationFault):
            memory.read(ADDRESS_SPACE_SIZE - 4, 8)

    def test_negative_address_faults(self, memory):
        with pytest.raises(SegmentationFault):
            memory.read(-8, 8)

    def test_zero_size_read_rejected(self, memory):
        address = memory.mmap(PAGE_SIZE)
        with pytest.raises(MapError):
            memory.read(address, 0)

    def test_zero_length_write_is_noop(self, memory):
        address = memory.mmap(PAGE_SIZE)
        memory.write(address, b"")  # explicitly allowed
        assert memory.resident_pages == 0

    def test_fixed_mapping_beyond_space_rejected(self, memory):
        with pytest.raises(MapError):
            memory.mmap(2 * PAGE_SIZE,
                        address=ADDRESS_SPACE_SIZE - PAGE_SIZE)

    def test_exact_last_page_mappable(self, memory):
        address = memory.mmap(PAGE_SIZE,
                              address=ADDRESS_SPACE_SIZE - PAGE_SIZE)
        memory.write(address, b"edge")
        assert memory.read(address, 4) == b"edge"


class TestProtectionGranularity:
    def test_word_access_straddling_guard_faults(self, memory):
        """An 8-byte access whose tail crosses into a sealed page must
        fault — the exact mechanism that catches small overflows ending
        on the guard boundary."""
        base = memory.mmap(2 * PAGE_SIZE)
        memory.mprotect(base + PAGE_SIZE, PAGE_SIZE, PROT_NONE)
        memory.write(base + PAGE_SIZE - 8, b"x" * 8)  # flush, fine
        with pytest.raises(SegmentationFault) as excinfo:
            memory.write(base + PAGE_SIZE - 4, b"y" * 8)
        assert excinfo.value.address == base + PAGE_SIZE

    def test_remap_after_munmap(self, memory):
        address = memory.mmap(PAGE_SIZE, address=0x7000_0000_0000)
        memory.write(address, b"old")
        memory.munmap(address, PAGE_SIZE)
        again = memory.mmap(PAGE_SIZE, address=0x7000_0000_0000)
        # Fresh mapping: old contents are gone.
        assert memory.read(again, 3) == bytes(3)


class TestSbrkPageSharing:
    def test_partial_page_brk_keeps_page_mapped(self, memory):
        """Shrinking brk into the middle of a page must not unmap the
        page still covering the new break."""
        memory.sbrk(PAGE_SIZE + 100)
        top_of_heap = memory.brk - 1
        memory.write(top_of_heap - 10, b"keep")
        memory.sbrk(-50)  # still inside the second page
        assert memory.read(top_of_heap - 10, 4) == b"keep"
