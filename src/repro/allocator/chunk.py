"""Boundary-tag chunk headers for the simulated libc allocator.

The allocator manages the heap as a tiling of *chunks*, each preceded by a
16-byte header in the style of dlmalloc/ptmalloc:

::

    chunk base ->  +--------------------------------+
                   | prev_size (8 bytes)            |
                   +--------------------------------+
                   | size | flags (8 bytes)         |
    user data ->   +--------------------------------+
                   | ...  size - 16 bytes ...       |
                   +--------------------------------+

``size`` is always a multiple of 16 and includes the header.  Bit 0 of the
size word is the IN_USE flag for *this* chunk.  ``prev_size`` is kept valid
for every chunk so that backward coalescing can locate the previous chunk's
header without a footer walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..machine.memory import VirtualMemory

#: Size of the per-chunk header (prev_size + size/flags words).
HEADER_SIZE: int = 16

#: All chunk sizes are multiples of this.
CHUNK_ALIGN: int = 16

#: Smallest chunk the allocator will create (header + 16 usable bytes).
MIN_CHUNK_SIZE: int = 32

#: Flag bit: this chunk is allocated.
IN_USE: int = 0x1

_FLAG_MASK: int = CHUNK_ALIGN - 1
_SIZE_MASK: int = ~_FLAG_MASK
_WORD_MASK: int = (1 << 64) - 1


@dataclass(frozen=True)
class ChunkView:
    """A decoded chunk header.

    Attributes:
        base: address of the chunk header.
        size: total chunk size in bytes, header included.
        prev_size: total size of the physically preceding chunk.
        in_use: whether the chunk is currently allocated.
    """

    base: int
    size: int
    prev_size: int
    in_use: bool

    @property
    def user_address(self) -> int:
        """Address of the first usable byte."""
        return self.base + HEADER_SIZE

    @property
    def user_size(self) -> int:
        """Number of usable bytes in the chunk."""
        return self.size - HEADER_SIZE

    @property
    def next_base(self) -> int:
        """Address of the physically following chunk header."""
        return self.base + self.size

    @property
    def prev_base(self) -> int:
        """Address of the physically preceding chunk header."""
        return self.base - self.prev_size


def request_to_chunk_size(request: int) -> int:
    """Round a user request up to a legal chunk size.

    A request of 0 is legal (``malloc(0)`` must return a unique pointer) and
    maps to the minimum chunk size.
    """
    if request < 0:
        raise ValueError(f"negative allocation request: {request}")
    total = request + HEADER_SIZE
    total = (total + CHUNK_ALIGN - 1) & _SIZE_MASK
    return max(total, MIN_CHUNK_SIZE)


def write_chunk(mem: VirtualMemory, base: int, size: int, prev_size: int,
                in_use: bool) -> None:
    """Write a chunk header at ``base``: the ``prev_size`` word, then the
    size word."""
    if size % CHUNK_ALIGN or size < MIN_CHUNK_SIZE:
        raise ValueError(f"illegal chunk size {size}")
    mem.write_word(base, prev_size)
    mem.write_word(base + 8, (size | IN_USE) if in_use else size)


def read_header(mem: VirtualMemory, base: int) -> Tuple[int, int, bool]:
    """Decode the header at ``base`` as ``(size, prev_size, in_use)``.

    The tuple-returning twin of :func:`read_chunk` for the allocator's
    hot paths: two word loads, no dataclass construction.
    """
    prev_size = mem.read_word(base)
    size_word = mem.read_word(base + 8)
    return (size_word & _SIZE_MASK, prev_size,
            bool(size_word & IN_USE))


def read_chunk(mem: VirtualMemory, base: int) -> ChunkView:
    """Decode the chunk header at ``base``."""
    size, prev_size, in_use = read_header(mem, base)
    return ChunkView(base=base, size=size, prev_size=prev_size,
                     in_use=in_use)


def set_in_use(mem: VirtualMemory, base: int, in_use: bool) -> None:
    """Flip only the IN_USE flag of the chunk at ``base``."""
    size_word = mem.read_word(base + 8)
    if in_use:
        size_word |= IN_USE
    else:
        size_word &= ~IN_USE
    mem.write_word(base + 8, size_word)


def set_prev_size(mem: VirtualMemory, base: int, prev_size: int) -> None:
    """Update the ``prev_size`` field of the chunk at ``base``."""
    mem.write_word(base, prev_size)
