"""The per-buffer metadata word (paper Figure 6).

Every buffer the online defense hands out is preceded by one 64-bit word
that makes ``free``/``realloc`` self-describing without any registry —
the defense never needs the underlying allocator's internals.

Bit layout (little-endian word, bit 0 = least significant):

========  =======================================================
bits      meaning
========  =======================================================
0..2      vulnerability type (OVERFLOW / USE_AFTER_FREE / UNINIT)
3         ALIGNED — buffer was allocated via the memalign family
4..39     *overflow buffers*: 36-bit guard-page frame number
          (48-bit address space, 4 KiB pages ⇒ 48 − 12 = 36 bits);
          the user-buffer size lives in the first word of the
          guard page instead
4..51     *non-overflow buffers*: 48-bit user-buffer size
52..57    log2(alignment), 6 bits (values 0..63; 0 = unaligned);
          for overflow buffers the field sits at bits 40..45
========  =======================================================

The two placements for log2(alignment) exist because the guard-frame and
size fields have different widths; both are 6 bits as the paper notes
("the alignment size is always a power of two ... we only need 6 bits").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.layout import PAGE_SHIFT
from ..vulntypes import VulnType

#: Width of the metadata word in bytes.
METADATA_SIZE = 8

_TYPE_MASK = 0b0111
_ALIGNED_BIT = 1 << 3
_GUARD_SHIFT = 4
_GUARD_MASK = (1 << 36) - 1
_SIZE_SHIFT = 4
_SIZE_MASK = (1 << 48) - 1
_ALIGN_SHIFT_OVERFLOW = 40
_ALIGN_SHIFT_PLAIN = 52
_ALIGN_MASK = (1 << 6) - 1
_OVERFLOW_BITS = int(VulnType.OVERFLOW)
#: Every 3-bit type field as its ``VulnType``, so decoding indexes a
#: tuple instead of calling the enum (bit tests use plain ``int`` masks
#: for the same reason: a ``VulnType`` operand builds a new member).
_VULN_TYPES = tuple(VulnType(bits) for bits in range(_TYPE_MASK + 1))


class MetadataError(ValueError):
    """Field out of range or inconsistent flag combination."""


@dataclass(frozen=True)
class BufferMetadata:
    """Decoded metadata word."""

    vuln: VulnType
    aligned: bool
    #: log2 of the alignment; 0 when unaligned.
    align_log2: int
    #: Guard-page base address (overflow buffers only), else 0.
    guard_page: int
    #: User buffer size (non-overflow buffers only), else 0 — for
    #: overflow buffers the size is read from the guard page's first word.
    user_size: int

    @property
    def has_guard(self) -> bool:
        """True when a guard page exists (overflow defense active)."""
        return bool(int(self.vuln) & _OVERFLOW_BITS)

    @property
    def alignment(self) -> int:
        """The alignment in bytes (1 when unaligned)."""
        return 1 << self.align_log2

    def encode(self) -> int:
        """Pack into the 64-bit word."""
        word = int(self.vuln) & _TYPE_MASK
        if self.aligned:
            word |= _ALIGNED_BIT
        if not 0 <= self.align_log2 <= _ALIGN_MASK:
            raise MetadataError(f"align_log2 out of range: {self.align_log2}")
        if self.has_guard:
            frame = self.guard_page >> PAGE_SHIFT
            if self.guard_page & ((1 << PAGE_SHIFT) - 1):
                raise MetadataError(
                    f"guard page 0x{self.guard_page:x} not page aligned")
            if not 0 <= frame <= _GUARD_MASK:
                raise MetadataError(
                    f"guard frame out of range: 0x{frame:x}")
            word |= frame << _GUARD_SHIFT
            word |= self.align_log2 << _ALIGN_SHIFT_OVERFLOW
        else:
            if not 0 <= self.user_size <= _SIZE_MASK:
                raise MetadataError(
                    f"user size out of range: {self.user_size}")
            word |= self.user_size << _SIZE_SHIFT
            word |= self.align_log2 << _ALIGN_SHIFT_PLAIN
        return word

    @staticmethod
    def decode(word: int) -> "BufferMetadata":
        """Unpack a 64-bit metadata word."""
        vuln = _VULN_TYPES[word & _TYPE_MASK]
        aligned = bool(word & _ALIGNED_BIT)
        if word & _OVERFLOW_BITS:
            guard_page = guard_page_of(word)
            align_log2 = (word >> _ALIGN_SHIFT_OVERFLOW) & _ALIGN_MASK
            user_size = 0
        else:
            guard_page = 0
            user_size = (word >> _SIZE_SHIFT) & _SIZE_MASK
            align_log2 = (word >> _ALIGN_SHIFT_PLAIN) & _ALIGN_MASK
        return BufferMetadata(vuln, aligned, align_log2, guard_page,
                              user_size)


def overflow_word(guard_page: int) -> int:
    """The word of an unaligned overflow-only buffer (Structure 2).

    ``OVERFLOW | frame << 4`` in integer arithmetic: equal to
    ``BufferMetadata(OVERFLOW, False, 0, guard_page, 0).encode()`` for a
    page-aligned ``guard_page``, with the same frame range check.
    """
    frame = guard_page >> PAGE_SHIFT
    if frame > _GUARD_MASK:
        raise MetadataError(f"guard frame out of range: 0x{frame:x}")
    return _OVERFLOW_BITS | frame << _GUARD_SHIFT


def guard_page_of(word: int) -> int:
    """The guard-page address an overflow buffer's word records."""
    return ((word >> _GUARD_SHIFT) & _GUARD_MASK) << PAGE_SHIFT
