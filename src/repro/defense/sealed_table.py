"""The patch hash table sealed into read-only memory pages.

Figure 5's note — "once the hash table is initialized, its memory pages
are set as read only" — is a hardening detail with teeth: an attacker
who gains an arbitrary-write primitive through some *other* bug must not
be able to switch the defense off by editing the table.
:class:`PatchTable` models the semantics (frozen after init);
``SealedPatchTable`` models the mechanism: the table is laid out as an
open-addressing hash structure inside actual simulated memory pages,
lookups are performed by reading those pages, and after initialization
the pages are ``mprotect``-ed read-only — so a stray or hostile write
faults instead of corrupting policy.

Slot layout (32 bytes each)::

    +0   fun tag      (8 bytes: index into the allocation-function table,
                        0 = empty slot; tag = index + 1)
    +8   ccid         (8 bytes)
    +16  vuln mask    (8 bytes)
    +24  reserved     (8 bytes)
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..allocator.base import ALLOCATION_FUNCTIONS
from ..machine.layout import page_align_up
from ..machine.memory import PROT_READ, PROT_RW, VirtualMemory
from ..patch.model import HeapPatch
from ..vulntypes import VulnType

#: Bytes per hash slot.
SLOT_SIZE = 32

#: Table load factor: slots = next power of two >= patches / LOAD.
LOAD_FACTOR = 0.5


def _mix(fun_index: int, ccid: int, slots: int) -> int:
    """Probe start for a (fun, ccid) key."""
    h = (ccid * 0x9E3779B97F4A7C15 + fun_index * 0xBF58476D1CE4E5B9)
    h &= (1 << 64) - 1
    return (h >> 17) % slots


class SealedPatchTable:
    """Patch lookups served from read-only simulated memory.

    Args:
        memory: the address space to seal the table into (the same one
            the defended process runs in — that is the point).
        patches: the configuration to install.
    """

    def __init__(self, memory: VirtualMemory,
                 patches: Iterable[HeapPatch]) -> None:
        self.memory = memory
        entries = list(patches)
        slots = 8
        while slots * LOAD_FACTOR < max(len(entries), 1):
            slots *= 2
        self.slot_count = slots
        length = page_align_up(max(slots * SLOT_SIZE, 1))
        self.base = memory.mmap(length, prot=PROT_RW)
        self._length = length
        self._count = 0
        for patch in entries:
            self._insert(patch)
        # Initialization done: seal the pages (Figure 5's note).
        memory.mprotect(self.base, length, PROT_READ)

    # ------------------------------------------------------------------

    def _slot_address(self, index: int) -> int:
        return self.base + index * SLOT_SIZE

    def _insert(self, patch: HeapPatch) -> None:
        fun_index = ALLOCATION_FUNCTIONS.index(patch.fun)
        tag = fun_index + 1
        index = _mix(fun_index, patch.ccid, self.slot_count)
        for _ in range(self.slot_count):
            address = self._slot_address(index)
            existing_tag = self.memory.read_word(address)
            if existing_tag == 0:
                self.memory.write_word(address, tag)
                self.memory.write_word(address + 8, patch.ccid)
                self.memory.write_word(address + 16, int(patch.vuln))
                self._count += 1
                return
            if (existing_tag == tag
                    and self.memory.read_word(address + 8) == patch.ccid):
                # Duplicate key: union the masks (PatchTable semantics).
                merged = (self.memory.read_word(address + 16)
                          | int(patch.vuln))
                self.memory.write_word(address + 16, merged)
                return
            index = (index + 1) % self.slot_count
        raise RuntimeError("sealed table over capacity")  # pragma: no cover

    # ------------------------------------------------------------------

    def lookup(self, fun: str, ccid: int) -> Optional[HeapPatch]:
        """O(1) expected probe over the sealed pages."""
        try:
            fun_index = ALLOCATION_FUNCTIONS.index(fun)
        except ValueError:
            return None
        tag = fun_index + 1
        index = _mix(fun_index, ccid, self.slot_count)
        for _ in range(self.slot_count):
            address = self._slot_address(index)
            slot_tag = self.memory.read_word(address)
            if slot_tag == 0:
                return None
            if slot_tag == tag and self.memory.read_word(address + 8) == ccid:
                vuln = VulnType(self.memory.read_word(address + 16))
                return HeapPatch(fun, ccid, vuln)
            index = (index + 1) % self.slot_count
        return None

    def __len__(self) -> int:
        return self._count

    @property
    def frozen(self) -> bool:
        """Sealed tables are read-only by construction."""
        return True
