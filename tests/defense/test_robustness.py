"""Defense robustness against hostile or malformed free/realloc input.

The interposer is self-describing via the metadata word; these tests pin
what happens when that assumption is violated — pointers that never came
from the defended allocator, wild addresses, junk where the metadata
word should be.  The defense need not *recover* (real interposers abort
too) but must fail with a diagnosable error, never silent corruption.
"""

import pytest

from repro.allocator.libc import LibcAllocator
from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.machine.errors import MachineError


@pytest.fixture
def defended():
    return DefendedAllocator(LibcAllocator(), PatchTable.empty())


def test_free_of_wild_pointer_raises(defended):
    with pytest.raises(MachineError):
        defended.free(0x4141_4141_4000)


def test_free_of_underlying_interior_pointer_raises(defended):
    address = defended.malloc(128)
    with pytest.raises(MachineError):
        defended.free(address + 24)
    # The legitimate buffer is still usable afterwards.
    defended.memory.write(address, b"ok")
    defended.free(address)


def test_free_survives_junk_metadata_detectably(defended):
    """A buffer whose metadata word was clobbered by the program (e.g.
    an underflow) produces an allocator-level error, not silence."""
    address = defended.malloc(64)
    defended.memory.write_word(address - 8, 0xFFFF_FFFF_FFFF_FFFF)
    with pytest.raises(MachineError):
        defended.free(address)


def test_double_free_detected_through_interposer(defended):
    address = defended.malloc(64)
    defended.free(address)
    with pytest.raises(MachineError):
        defended.free(address)


def test_realloc_of_foreign_pointer_raises(defended):
    with pytest.raises(MachineError):
        defended.realloc(0x5151_0000_0000, 32)


def test_usable_size_of_foreign_pointer_raises(defended):
    with pytest.raises(MachineError):
        defended.malloc_usable_size(0x5151_0000_0000)


def test_defense_state_consistent_after_errors(defended):
    """Errors must not leave the interposer half-updated."""
    good = defended.malloc(64)
    try:
        defended.free(0xBAD0_0000_0000)
    except MachineError:
        pass
    assert defended.stats.free_calls == 0
    defended.memory.write(good, b"still fine")
    assert defended.memory.read(good, 10) == b"still fine"
    defended.free(good)
    assert defended.stats.free_calls == 1