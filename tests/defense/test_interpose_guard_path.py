"""The Structure-2 guard path (overflow patch, unaligned allocation).

``DefendedAllocator`` builds guarded buffers in integer arithmetic
rather than through ``plan_request``/``place_buffer``/``BufferMetadata``;
those stay the oracle.  These tests hold the batched runs
(``malloc_run``/``free_run``) to the per-call loop on every observable —
addresses, guard protections, metadata and guard-page words, stats,
cycles, ``mprotect`` counts, live buffers — over both underlying
allocators, with and without substrate faults.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.allocator.libc import LibcAllocator
from repro.allocator.segregated import SegregatedAllocator
from repro.defense.interpose import DefendedAllocator
from repro.defense.metadata import (
    METADATA_SIZE,
    BufferMetadata,
    MetadataError,
    guard_page_of,
    overflow_word,
)
from repro.defense.patch_table import PatchTable
from repro.defense.structures import place_buffer, plan_request
from repro.fuzz.faults import FaultInjector
from repro.machine.errors import MachineError
from repro.machine.layout import PAGE_SIZE
from repro.machine.memory import PROT_NONE, VirtualMemory
from repro.patch.model import HeapPatch
from repro.program.context import ContextSource
from repro.program.cost import CycleMeter
from repro.vulntypes import VulnType

CCID = 0x42

ALLOCATORS = {"libc": LibcAllocator, "segregated": SegregatedAllocator}


class FixedContext(ContextSource):
    #: A pure read lets ``malloc_run`` probe the patch once per run.
    pure_ccid = True

    def __init__(self, ccid=CCID):
        self.ccid = ccid

    def current_ccid(self):
        return self.ccid


def make_defended(kind, fun="malloc", injector=None):
    memory = VirtualMemory(fault_injector=injector)
    table = PatchTable([HeapPatch(fun, CCID, VulnType.OVERFLOW)])
    return DefendedAllocator(ALLOCATORS[kind](memory), table,
                             context_source=FixedContext(),
                             meter=CycleMeter())


def observe(defended):
    return {
        "stats": defended.stats.snapshot(),
        "cycles": defended.meter.snapshot(),
        "mprotect": defended.memory.mprotect_count,
        "enhanced": dict(defended.enhanced_counts),
        "live": defended.underlying.live_buffer_count,
    }


#: Request sizes around the page and word boundaries the guard layout
#: rounds at, plus arbitrary ones up to three pages.
SIZES = st.one_of(
    st.sampled_from([0, 1, 4087, 4088, 4089, 4096, 4097,
                     3 * PAGE_SIZE + 5]),
    st.integers(0, 3 * PAGE_SIZE))


class TestGuardPathOracle:
    @pytest.mark.parametrize("kind", sorted(ALLOCATORS))
    @given(sizes=st.lists(SIZES, min_size=1, max_size=10))
    def test_run_matches_scalar_loop_and_oracle(self, kind, sizes):
        batched = make_defended(kind)
        scalar = make_defended(kind)
        got = batched.malloc_run(sizes)
        want = [scalar.malloc(size) for size in sizes]
        assert got == want
        assert observe(batched) == observe(scalar)
        for defended in (batched, scalar):
            memory = defended.memory
            for user, size in zip(got, sizes):
                plan = plan_request(VulnType.OVERFLOW, False, 0, size)
                placed = place_buffer(plan, user - METADATA_SIZE, size)
                assert placed.user == user
                expected = BufferMetadata(
                    vuln=VulnType.OVERFLOW, aligned=False, align_log2=0,
                    guard_page=placed.guard, user_size=0).encode()
                assert memory.read_word(user - METADATA_SIZE) == expected
                assert memory.protection_of(placed.guard) == PROT_NONE
                assert int.from_bytes(memory.peek(placed.guard, 8),
                                      "little") == size
        batched.free_run(got)
        for user in want:
            scalar.free(user)
        assert observe(batched) == observe(scalar)
        assert batched.underlying.live_buffer_count == 0
        assert batched.stats.live_buffers == 0
        assert batched.stats.bytes_live == 0
        assert batched.malloc(64) == scalar.malloc(64)

    @pytest.mark.parametrize("kind", sorted(ALLOCATORS))
    @pytest.mark.parametrize("op", ["mprotect", "mmap"])
    @given(data=st.data())
    def test_faulted_run_matches_scalar_loop(self, kind, op, data):
        sizes = data.draw(st.lists(SIZES, min_size=1, max_size=8))
        budget = data.draw(st.integers(0, 2 * len(sizes)))
        twins = []
        for run in (True, False):
            injector = FaultInjector({op: budget})
            defended = make_defended(kind, injector=injector)
            error = None
            try:
                if run:
                    defended.malloc_run(sizes)
                else:
                    for size in sizes:
                        defended.malloc(size)
            except MachineError as exc:
                error = type(exc)
            injector.disarm()
            twins.append((error, defended.underlying.live_buffer_count,
                          defended.stats.snapshot(),
                          defended.enhanced_counts[VulnType.OVERFLOW],
                          defended.malloc(64)))
        assert twins[0] == twins[1]

    def test_frame_range_error_matches_encode(self):
        """The integer path keeps ``encode()``'s frame-range check."""
        guard = 1 << 48
        with pytest.raises(MetadataError) as direct:
            overflow_word(guard)
        with pytest.raises(MetadataError) as oracle:
            BufferMetadata(VulnType.OVERFLOW, False, 0, guard, 0).encode()
        assert str(direct.value) == str(oracle.value)


class TestFreeRunFaults:
    @pytest.mark.parametrize("kind", sorted(ALLOCATORS))
    def test_unseal_fault_releases_preceding_plain_frees(self, kind):
        """A guarded entry whose unseal ``mprotect`` fails stops the run
        where the per-call loop stops: plain frees before it happened,
        the guarded buffer and everything after it stay live."""
        outcomes = []
        for batched in (True, False):
            injector = FaultInjector({"mprotect": 0}, armed=False)
            defended = make_defended(kind, fun="calloc", injector=injector)
            first = defended.malloc(48)
            guarded = defended.calloc(4, 16)
            last = defended.malloc(48)
            injector.arm()
            addresses = [first, guarded, last]
            with pytest.raises(MachineError) as caught:
                if batched:
                    defended.free_run(addresses)
                else:
                    for address in addresses:
                        defended.free(address)
            injector.disarm()
            outcomes.append((caught.type,
                             defended.underlying.live_buffer_count,
                             defended.stats.snapshot()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == 2

    @pytest.mark.parametrize("kind", sorted(ALLOCATORS))
    @pytest.mark.parametrize("batched", [True, False],
                             ids=["free_run", "free"])
    def test_unseal_fault_fails_closed_and_retry_releases(self, kind,
                                                          batched):
        """A faulted unseal leaves the chunk allocated and its guard
        sealed; once the fault clears, retrying the same free releases
        everything."""
        injector = FaultInjector({"mprotect": 0}, armed=False)
        defended = make_defended(kind, fun="calloc", injector=injector)
        memory = defended.memory
        guarded = defended.calloc(4, 16)
        last = defended.malloc(48)
        guard = guard_page_of(memory.read_word(guarded - METADATA_SIZE))
        injector.arm()
        with pytest.raises(MachineError):
            if batched:
                defended.free_run([guarded, last])
            else:
                defended.free(guarded)
        assert memory.protection_of(guard) == PROT_NONE
        assert defended.underlying.live_buffer_count == 2
        assert defended.stats.live_buffers == 2
        injector.disarm()
        if batched:
            defended.free_run([guarded, last])
        else:
            defended.free(guarded)
            defended.free(last)
        assert defended.underlying.live_buffer_count == 0
        assert defended.stats.live_buffers == 0
        assert defended.stats.bytes_live == 0


class TestReallocFaults:
    @pytest.mark.parametrize("kind, op, size", [
        # Past the mmap threshold: the new buffer needs a fresh mapping.
        ("libc", "mmap", 1 << 20),
        ("segregated", "mmap", 1 << 20),
        # Below it but past the heap's free space: a heap extension.
        ("libc", "sbrk", 100_000),
    ])
    def test_failed_realloc_keeps_old_guard_sealed(self, kind, op, size):
        """A ``realloc`` whose new allocation fails leaves the old
        guarded buffer live, its contents intact and its guard sealed;
        once the fault clears, the old buffer frees normally."""
        injector = FaultInjector({op: 0}, armed=False)
        defended = make_defended(kind, injector=injector)
        memory = defended.memory
        user = defended.malloc(100)
        memory.write(user, b"payload")
        guard = guard_page_of(memory.read_word(user - METADATA_SIZE))
        before = observe(defended)
        injector.arm()
        with pytest.raises(MachineError):
            defended.realloc(user, size)
        injector.disarm()
        assert memory.protection_of(guard) == PROT_NONE
        assert memory.read(user, 7) == b"payload"
        assert observe(defended)["live"] == before["live"] == 1
        assert observe(defended)["stats"] == before["stats"]
        defended.free(user)
        assert defended.underlying.live_buffer_count == 0

    @pytest.mark.parametrize("kind", sorted(ALLOCATORS))
    def test_realloc_of_guarded_buffer_unseals_twice(self, kind):
        """The success path reads the old size through one unseal and
        frees through another: two ``mprotect`` calls, each charged."""
        defended = make_defended(kind)
        user = defended.malloc(100)
        before = observe(defended)
        grown = defended.realloc(user, 300)
        after = observe(defended)
        model = defended.meter.model
        assert after["mprotect"] - before["mprotect"] == 2
        assert (after["cycles"]["defense"] - before["cycles"]["defense"]
                == 2 * model.mprotect)
        assert after["live"] == 1
        defended.free(grown)
