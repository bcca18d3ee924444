"""LibcAllocator behaviour: API semantics, coalescing, reuse, errors."""

import pytest

from repro.allocator import CHUNK_ALIGN, SMALL_MAX
from repro.machine import DoubleFree, InvalidFree


class TestMallocFree:
    def test_malloc_returns_distinct_aligned_pointers(self, allocator):
        pointers = [allocator.malloc(n) for n in (0, 1, 15, 16, 17, 1000)]
        assert len(set(pointers)) == len(pointers)
        for pointer in pointers:
            assert pointer % CHUNK_ALIGN == 0

    def test_malloc_zero_returns_unique_pointer(self, allocator):
        a = allocator.malloc(0)
        b = allocator.malloc(0)
        assert a and b and a != b

    def test_data_survives_other_allocations(self, allocator):
        a = allocator.malloc(100)
        allocator.memory.write(a, b"A" * 100)
        b = allocator.malloc(200)
        allocator.memory.write(b, b"B" * 200)
        assert allocator.memory.read(a, 100) == b"A" * 100
        assert allocator.memory.read(b, 200) == b"B" * 200

    def test_free_null_is_noop(self, allocator):
        allocator.free(0)

    def test_free_makes_memory_reusable(self, allocator):
        a = allocator.malloc(64)
        allocator.free(a)
        b = allocator.malloc(64)
        assert b == a  # LIFO bin reuse

    def test_live_buffer_count(self, allocator):
        pointers = [allocator.malloc(32) for _ in range(5)]
        assert allocator.live_buffer_count == 5
        for pointer in pointers:
            allocator.free(pointer)
        assert allocator.live_buffer_count == 0

    def test_usable_size_at_least_requested(self, allocator):
        pointer = allocator.malloc(100)
        assert allocator.malloc_usable_size(pointer) >= 100
        assert allocator.malloc_usable_size(0) == 0


class TestErrors:
    def test_double_free_detected(self, allocator):
        pointer = allocator.malloc(64)
        allocator.free(pointer)
        with pytest.raises(DoubleFree):
            allocator.free(pointer)

    def test_free_of_foreign_pointer_rejected(self, allocator):
        with pytest.raises(InvalidFree):
            allocator.free(0x1234_5678)

    def test_free_of_interior_pointer_rejected(self, allocator):
        pointer = allocator.malloc(256)
        with pytest.raises(InvalidFree):
            allocator.free(pointer + 8)

    def test_realloc_of_foreign_pointer_rejected(self, allocator):
        with pytest.raises(InvalidFree):
            allocator.realloc(0xDEAD_0000, 10)

    def test_calloc_rejects_negative(self, allocator):
        with pytest.raises(ValueError):
            allocator.calloc(-1, 8)

    def test_memalign_rejects_non_power_of_two(self, allocator):
        with pytest.raises(ValueError):
            allocator.memalign(24, 64)


class TestCoalescing:
    def test_adjacent_frees_coalesce(self, allocator):
        a = allocator.malloc(64)
        b = allocator.malloc(64)
        c = allocator.malloc(64)  # keeps the top region away
        allocator.memory.write(c, b"c")
        allocator.free(a)
        allocator.free(b)
        allocator.check_consistency()
        # The two freed chunks merged into one; a request spanning both
        # is served from it without growing the heap.
        merged = allocator.malloc(128)
        assert merged == a
        allocator.check_consistency()

    def test_backward_coalesce(self, allocator):
        a = allocator.malloc(64)
        b = allocator.malloc(64)
        c = allocator.malloc(64)
        allocator.memory.write(c, b"c")
        allocator.free(b)
        allocator.free(a)  # must merge into the free b-chunk
        allocator.check_consistency()
        merged = allocator.malloc(128)
        assert merged == a

    def test_free_adjacent_to_top_merges_into_top(self, allocator):
        a = allocator.malloc(64)
        top_before = allocator.top
        allocator.free(a)
        assert allocator.top < top_before
        assert allocator.free_chunk_count == 0

    def test_split_leaves_usable_remainder(self, allocator):
        a = allocator.malloc(1024)
        sentinel = allocator.malloc(16)
        allocator.memory.write(sentinel, b"s")
        allocator.free(a)
        small = allocator.malloc(100)
        assert small == a  # split of the freed chunk
        second = allocator.malloc(64)
        assert a < second < sentinel
        allocator.check_consistency()


class TestRealloc:
    def test_realloc_null_is_malloc(self, allocator):
        pointer = allocator.realloc(0, 64)
        assert pointer != 0
        assert allocator.live_buffer_count == 1

    def test_realloc_zero_is_free(self, allocator):
        pointer = allocator.malloc(64)
        assert allocator.realloc(pointer, 0) == 0
        assert allocator.live_buffer_count == 0

    def test_realloc_shrink_in_place(self, allocator):
        pointer = allocator.malloc(1024)
        allocator.memory.write(pointer, b"payload!")
        assert allocator.realloc(pointer, 64) == pointer
        assert allocator.memory.read(pointer, 8) == b"payload!"
        allocator.check_consistency()

    def test_realloc_grow_into_top(self, allocator):
        pointer = allocator.malloc(64)
        allocator.memory.write(pointer, b"grow-me!")
        grown = allocator.realloc(pointer, 4096)
        assert grown == pointer  # last chunk extends in place
        assert allocator.memory.read(grown, 8) == b"grow-me!"

    def test_realloc_grow_absorbs_free_neighbour(self, allocator):
        a = allocator.malloc(64)
        b = allocator.malloc(256)
        c = allocator.malloc(64)
        allocator.memory.write(a, b"keep-a!!")
        allocator.memory.write(c, b"keep-c!!")
        allocator.free(b)
        grown = allocator.realloc(a, 200)
        assert grown == a
        assert allocator.memory.read(c, 8) == b"keep-c!!"
        allocator.check_consistency()

    def test_realloc_move_copies_data(self, allocator):
        a = allocator.malloc(64)
        blocker = allocator.malloc(64)
        allocator.memory.write(a, bytes(range(64)))
        allocator.memory.write(blocker, b"x" * 64)
        moved = allocator.realloc(a, 8 * 1024)
        assert moved != a
        assert allocator.memory.read(moved, 64) == bytes(range(64))
        assert allocator.memory.read(blocker, 64) == b"x" * 64
        allocator.check_consistency()


class TestCalloc:
    def test_calloc_zeroes(self, allocator):
        dirty = allocator.malloc(512)
        allocator.memory.write(dirty, b"\xff" * 512)
        allocator.free(dirty)
        pointer = allocator.calloc(8, 64)
        assert allocator.memory.read(pointer, 512) == bytes(512)

    def test_calloc_counts_in_stats(self, allocator):
        allocator.calloc(4, 16)
        assert allocator.stats.calloc_calls == 1
        assert allocator.stats.malloc_calls == 0


class TestMemalign:
    @pytest.mark.parametrize("alignment", [8, 16, 32, 64, 256, 4096])
    def test_alignment_honoured(self, allocator, alignment):
        pointer = allocator.memalign(alignment, 100)
        assert pointer % alignment == 0
        allocator.memory.write(pointer, b"z" * 100)
        allocator.check_consistency()

    def test_memalign_free_roundtrip(self, allocator):
        pointers = [allocator.memalign(64, 100) for _ in range(8)]
        for pointer in pointers:
            allocator.free(pointer)
        allocator.check_consistency()
        assert allocator.live_buffer_count == 0

    def test_aligned_alloc_alias(self, allocator):
        pointer = allocator.aligned_alloc(128, 50)
        assert pointer % 128 == 0

    def test_posix_memalign_requires_word_multiple(self, allocator):
        with pytest.raises(ValueError):
            allocator.posix_memalign(4, 64)


class TestHeapDiscipline:
    def test_walk_tiles_heap_exactly(self, allocator):
        for n in (10, 200, 3000, 64):
            allocator.malloc(n)
        chunks = allocator.walk_heap()
        cursor = allocator.heap_start
        for chunk in chunks:
            assert chunk.base == cursor
            cursor = chunk.next_base
        assert cursor == allocator.top

    def test_trim_returns_memory_to_system(self, allocator):
        # Several sub-mmap-threshold chunks grow the brk heap; freeing
        # them all leaves a huge top region that must be trimmed.
        chunks = [allocator.malloc(100 * 1024) for _ in range(6)]
        brk_high = allocator.memory.brk
        for chunk in chunks:
            allocator.free(chunk)
        assert allocator.memory.brk < brk_high

    def test_large_bin_best_fit(self, allocator):
        big = allocator.malloc(SMALL_MAX * 4)
        separator = allocator.malloc(64)
        small = allocator.malloc(SMALL_MAX * 2)
        keeper = allocator.malloc(64)
        allocator.memory.write(separator, b"s")
        allocator.memory.write(keeper, b"k")
        allocator.free(big)
        allocator.free(small)
        # Best fit should pick the smaller of the two free chunks.
        taken = allocator.malloc(SMALL_MAX + SMALL_MAX // 2)
        assert taken == small
        allocator.check_consistency()
