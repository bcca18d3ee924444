"""ASCII heap maps."""


from repro.allocator.libc import LibcAllocator
from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.patch.model import HeapPatch
from repro.program.context import ContextSource
from repro.tools import HeapMap, render_heap
from repro.vulntypes import VulnType


class Fixed(ContextSource):
    def __init__(self, ccid):
        self.ccid = ccid

    def current_ccid(self):
        return self.ccid


def test_plain_allocator_map_lists_every_chunk():
    allocator = LibcAllocator()
    pointers = [allocator.malloc(s) for s in (64, 200, 32)]
    allocator.free(pointers[1])
    text = render_heap(allocator)
    assert text.count("USED") == 2
    assert text.count("free") >= 1
    assert "top at" in text


def test_defended_map_annotates_metadata():
    defended = DefendedAllocator(LibcAllocator(), PatchTable.empty(),
                                 context_source=Fixed(0))
    defended.malloc(100)
    text = render_heap(defended.underlying, defended=defended)
    assert "[defended]" in text
    assert "meta+user(100)" in text


def test_guarded_buffer_shows_guard_state():
    table = PatchTable([HeapPatch("malloc", 7, VulnType.OVERFLOW)])
    defended = DefendedAllocator(LibcAllocator(), table,
                                 context_source=Fixed(7))
    defended.malloc(64)
    text = render_heap(defended.underlying, defended=defended)
    assert "GUARD@" in text
    assert "(sealed)" in text


def test_quarantined_region_flagged():
    table = PatchTable([HeapPatch("malloc", 9,
                                  VulnType.USE_AFTER_FREE)])
    defended = DefendedAllocator(LibcAllocator(), table,
                                 context_source=Fixed(9))
    address = defended.malloc(64)
    defended.free(address)
    text = render_heap(defended.underlying, defended=defended)
    assert "[quarantine]" in text
    assert "deferred free" in text
    assert "1 block(s)" in text


def test_map_rows_tile_the_heap():
    allocator = LibcAllocator()
    for size in (50, 500, 5000):
        allocator.malloc(size)
    heap_map = HeapMap(allocator)
    cursor = allocator.heap_start
    for row in heap_map.rows:
        assert row.base == cursor
        cursor += row.size
    assert cursor == allocator.top
