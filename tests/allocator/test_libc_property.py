"""Property-based allocator torture: invariants under random op sequences.

Hypothesis drives arbitrary interleavings of the allocation API while the
test maintains a model of live buffers and their contents.  After every
step the heap must tile exactly, ``prev_size`` links must agree, the free
index must match the headers, and no live buffer's data may change.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.allocator.libc import LibcAllocator

_sizes = st.integers(min_value=0, max_value=5000)
_alignments = st.sampled_from([8, 16, 32, 64, 128, 4096])


def _pattern(address: int, size: int) -> bytes:
    return bytes((address + i) % 251 for i in range(size))


class AllocatorMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.allocator = LibcAllocator()
        self.live: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(size=_sizes)
    def malloc(self, size):
        address = self.allocator.malloc(size)
        assert address not in self.live
        self._fill(address, size)

    @rule(size=st.integers(min_value=0, max_value=600),
          count=st.integers(min_value=1, max_value=8))
    def calloc(self, size, count):
        address = self.allocator.calloc(count, size)
        total = count * size
        assert self.allocator.memory.read(address, max(total, 1))[:total] \
            == bytes(total)
        self._fill(address, total)

    @rule(alignment=_alignments, size=_sizes)
    def memalign(self, alignment, size):
        address = self.allocator.memalign(alignment, size)
        assert address % alignment == 0
        self._fill(address, size)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(min_value=0), size=_sizes)
    def realloc(self, index, size):
        address = sorted(self.live)[index % len(self.live)]
        old_size = self.live.pop(address)
        new_address = self.allocator.realloc(address, size)
        if size == 0:
            assert new_address == 0
            return
        kept = min(old_size, size)
        assert (self.allocator.memory.read(new_address, max(kept, 1))[:kept]
                == _pattern(address, old_size)[:kept])
        # Restore the canonical pattern for the new identity.
        self._fill(new_address, size)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(min_value=0))
    def free(self, index):
        address = sorted(self.live)[index % len(self.live)]
        del self.live[address]
        self.allocator.free(address)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def heap_is_consistent(self):
        self.allocator.check_consistency()

    @invariant()
    def live_data_is_intact(self):
        for address, size in self.live.items():
            if size:
                assert (self.allocator.memory.read(address, size)
                        == _pattern(address, size))

    @invariant()
    def live_count_matches(self):
        assert self.allocator.live_buffer_count == len(self.live)

    # ------------------------------------------------------------------

    def _fill(self, address: int, size: int) -> None:
        if size:
            self.allocator.memory.write(address, _pattern(address, size))
        self.live[address] = size


AllocatorMachine.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)

TestAllocatorMachine = AllocatorMachine.TestCase


@given(st.lists(st.integers(min_value=0, max_value=2000),
                min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_alloc_all_then_free_all_returns_heap_to_pristine(sizes):
    allocator = LibcAllocator()
    pointers = [allocator.malloc(size) for size in sizes]
    for pointer in reversed(pointers):
        allocator.free(pointer)
    allocator.check_consistency()
    assert allocator.live_buffer_count == 0
    assert allocator.free_chunk_count == 0  # everything merged into top
    assert allocator.top == allocator.heap_start
