"""Batched allocation runs: ``malloc_run``/``free_run`` equivalence.

The serving engine's request batches land on the allocators through the
batched entry points, whose uniform-shape fast paths (one size class,
one large length, all-plain metadata) must produce exactly the
addresses, stats and errors ``n`` scalar calls would.  Every test here
drives a batched allocator and a scalar twin and compares observables.
"""

import pytest

from repro.allocator.libc import LibcAllocator
from repro.allocator.segregated import (
    MAX_CLASS,
    SegregatedAllocator,
)
from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.machine import DoubleFree, InvalidFree
from repro.patch.model import HeapPatch
from repro.program.context import ContextSource
from repro.vulntypes import VulnType

LARGE = MAX_CLASS + 1000

#: The error-path tests hold both allocators to the per-call contract.
ALLOCATORS = (SegregatedAllocator, LibcAllocator)


def twin_run(sizes, map_cache=0):
    """Batched and scalar twins over fresh, deterministic memory."""
    batched = SegregatedAllocator(map_cache=map_cache)
    scalar = SegregatedAllocator(map_cache=map_cache)
    got = batched.malloc_run(sizes)
    want = [scalar.malloc(size) for size in sizes]
    return batched, scalar, got, want


def raise_same(batched_call, scalar_call, items):
    """Run a batched call and the per-call loop over the same items;
    both must fail with the same error type, which is returned."""
    with pytest.raises(Exception) as batched_error:
        batched_call(items)
    with pytest.raises(Exception) as scalar_error:
        for item in items:
            scalar_call(item)
    assert type(batched_error.value) is type(scalar_error.value)
    return batched_error.value


def assert_twins(batched, scalar):
    """A failed run leaves the state its per-call loop leaves."""
    assert batched.stats.snapshot() == scalar.stats.snapshot()
    assert batched.live_buffer_count == scalar.live_buffer_count


class TestSegregatedMallocRun:
    @pytest.mark.parametrize("sizes", [
        [48] * 10,                 # uniform small (one class)
        [48] * 2000,               # uniform small across slab refills
        [LARGE] * 6,               # uniform large
        [48, 48, 64, LARGE, 48],   # mixed: generic loop
        [0, 1, 16],                # zero-size and boundary
        [],                        # empty run
    ])
    def test_matches_scalar_twin(self, sizes):
        batched, scalar, got, want = twin_run(sizes)
        assert got == want
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.live_buffer_count == scalar.live_buffer_count

    def test_negative_size_raises(self):
        """The prefix before the bad size is allocated and recorded, as
        the per-call loop does it (both allocators)."""
        for make in ALLOCATORS:
            batched, scalar = make(), make()
            error = raise_same(batched.malloc_run, scalar.malloc,
                               [32, -1, 32])
            assert isinstance(error, ValueError)
            assert_twins(batched, scalar)

    def test_uniform_large_drains_map_cache_lifo(self):
        allocator = SegregatedAllocator(map_cache=8)
        first = allocator.malloc_run([LARGE] * 4)
        allocator.free_run(first)
        # The batched refill must reuse the cached mappings in the LIFO
        # order four scalar mallocs would (last freed first), then map
        # fresh for the remainder.
        again = allocator.malloc_run([LARGE] * 6)
        assert again[:4] == list(reversed(first))
        assert len(set(again)) == 6


class TestSegregatedFreeRun:
    def test_uniform_slot_run_returns_slots_for_reuse(self):
        batched, scalar, got, want = twin_run([48] * 20)
        batched.free_run(got)
        for address in want:
            scalar.free(address)
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        # Freed slots are reusable in the same (stack) order.
        assert batched.malloc_run([48] * 20) \
            == [scalar.malloc(48) for _ in range(20)]

    def test_uniform_large_run_unmaps_eagerly(self):
        allocator = SegregatedAllocator()
        addresses = allocator.malloc_run([LARGE] * 4)
        allocator.free_run(addresses)
        for address in addresses:
            assert not allocator.memory.is_mapped(address)

    def test_uniform_large_run_respects_cache_limit(self):
        allocator = SegregatedAllocator(map_cache=2)
        addresses = allocator.malloc_run([LARGE] * 5)
        allocator.free_run(addresses)
        cached = [address for address in addresses
                  if allocator.memory.is_mapped(address)]
        assert len(cached) == 2

    def test_mixed_run_matches_scalar_twin(self):
        sizes = [48, LARGE, 64, 48, LARGE]
        batched, scalar, got, want = twin_run(sizes)
        batched.free_run(got)
        for address in want:
            scalar.free(address)
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.live_buffer_count == scalar.live_buffer_count == 0

    def test_null_addresses_skipped(self):
        """``free(NULL)`` is a no-op and doesn't count — run included."""
        allocator = SegregatedAllocator()
        address = allocator.malloc(48)
        allocator.free_run([0, address, 0])
        assert allocator.live_buffer_count == 0
        allocator.free_run([0, 0])
        assert allocator.stats.snapshot()["free"] == 1

    def test_double_free_within_run_is_canonical(self):
        """A duplicate inside one run raises exactly what scalar replay
        raises, with the prefix released and recorded and no entry lost
        (both allocators)."""
        for make in ALLOCATORS:
            batched, scalar = make(), make()
            a, b = batched.malloc_run([48, 48])
            assert [scalar.malloc(48), scalar.malloc(48)] == [a, b]
            error = raise_same(batched.free_run, scalar.free, [a, b, a])
            assert isinstance(error, DoubleFree)
            assert_twins(batched, scalar)
            assert batched.live_buffer_count == 0

    def test_free_of_retired_address_raises_double_free(self):
        for make in ALLOCATORS:
            batched, scalar = make(), make()
            for allocator in (batched, scalar):
                a = allocator.malloc(48)
                allocator.malloc(48)  # keeps a's chunk off the top
                allocator.free(a)
                b = allocator.malloc(4096 * 4)
            error = raise_same(batched.free_run, scalar.free, [b, a])
            assert isinstance(error, DoubleFree)
            # The prefix (b) was released and recorded before the
            # error, as scalar would.
            assert_twins(batched, scalar)
            assert batched.live_buffer_count == 1

    def test_invalid_free_raises_and_restores_state(self):
        """An unknown pointer first releases nothing; in the middle it
        releases (and records) exactly the prefix.  Every other buffer
        stays live and individually freeable (both allocators)."""
        bogus = 0x5EAF00D000
        for make in ALLOCATORS:
            for position, live_after in ((0, 3), (1, 2)):
                batched, scalar = make(), make()
                addresses = batched.malloc_run([32] * 3)
                assert [scalar.malloc(32) for _ in range(3)] == addresses
                run = list(addresses)
                run.insert(position, bogus)
                error = raise_same(batched.free_run, scalar.free, run)
                assert isinstance(error, InvalidFree)
                assert_twins(batched, scalar)
                assert batched.live_buffer_count == live_after
                batched.free_run(addresses[position:])
                assert batched.live_buffer_count == 0


class _FixedContext(ContextSource):
    def __init__(self, ccid=0x42):
        self.ccid = ccid

    def current_ccid(self):
        return self.ccid


def defended_pair(table=None, ccid=0x42):
    def make():
        return DefendedAllocator(SegregatedAllocator(),
                                 table or PatchTable.empty(),
                                 context_source=_FixedContext(ccid))
    return make(), make()


class TestDefendedRuns:
    @pytest.mark.parametrize("sizes", [
        [120] * 16,              # uniform: list-repeat stamp fast path
        [120, 120, 64, 120],     # mixed sizes: per-element stamps
    ])
    def test_malloc_run_matches_scalar_twin(self, sizes):
        batched, scalar = defended_pair()
        got = batched.malloc_run(sizes)
        want = [scalar.malloc(size) for size in sizes]
        assert got == want
        for address, size in zip(got, sizes):
            assert batched.malloc_usable_size(address) == size

    def test_all_plain_free_run_matches_scalar_twin(self):
        batched, scalar = defended_pair()
        got = batched.malloc_run([120] * 16)
        want = [scalar.malloc(120) for _ in range(16)]
        batched.free_run(got)
        for address in want:
            scalar.free(address)
        assert batched.stats.snapshot() == scalar.stats.snapshot()
        assert batched.underlying.live_buffer_count \
            == scalar.underlying.live_buffer_count

    def test_mixed_guarded_and_plain_free_run(self):
        """Patched (guarded) and plain buffers freed in one run: the
        decoding frees take the scalar path, the plain remainder the
        batched one, and every buffer ends up released."""
        table = PatchTable([HeapPatch("malloc", 0x42, VulnType.OVERFLOW)])
        batched, _ = defended_pair(table=table)
        guarded = [batched.malloc(100) for _ in range(3)]
        batched.context_source.ccid = 0x43  # subsequent allocs unpatched
        plain = batched.malloc_run([100] * 5)
        batched.free_run([plain[0], guarded[0], plain[1], guarded[1],
                          plain[2], guarded[2], plain[3], plain[4]])
        assert batched.underlying.live_buffer_count == 0
