"""Fast-path equivalence: the optimized memory paths must be
observation-identical to the slow validator (``fast_paths=False``) —
same fault addresses, same residency accounting, same cycle totals.

:class:`TestSubstrateEquivalence` is the hard gate CI runs in its own
step: a guest loop executed as batched blocks on the fast paths against
the same loop interpreted op by op on the slow validator.
:class:`TestWordOnlyPages` (run in the same CI step) holds word-only
pages — resident pages with a word map and no frame — to the validator,
which never makes one.  :class:`TestPageArena` (same CI step) holds
machines that draw frames from the process's one private arena, and so
reuse slots dead machines left dirty, to a machine with a never-used
store of its own.
"""

import gc
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.allocator.libc import LibcAllocator
from repro.machine import (
    PAGE_SIZE,
    PROT_NONE,
    PROT_READ,
    PROT_RW,
    MapError,
    SegmentationFault,
    VirtualMemory,
)
from repro.machine.pagestore import (
    PageStore,
    get_default_store,
    private_arena,
)
from repro.program.blocks import BasicBlock, BlockBuilder
from repro.program.callgraph import CallGraph
from repro.program.monitor import DirectMonitor
from repro.program.process import Process, ProgramLike


def _pair():
    return VirtualMemory(fast_paths=True), VirtualMemory(fast_paths=False)


def _fault_address(fn):
    with pytest.raises(SegmentationFault) as exc:
        fn()
    return exc.value.address


class TestFaultEquivalence:
    """Every fault the fast path raises matches the slow path exactly."""

    def test_unmapped_read_same_fault_address(self):
        fast, slow = _pair()
        for mem in (fast, slow):
            mem.mmap(PAGE_SIZE)
        target = 0x7000_0000_0123
        assert (_fault_address(lambda: fast.read(target, 8))
                == _fault_address(lambda: slow.read(target, 8))
                == target)
        assert fast.fault_count == slow.fault_count == 1

    def test_protection_fault_same_address(self):
        fast, slow = _pair()
        addrs = []
        for mem in (fast, slow):
            a = mem.mmap(2 * PAGE_SIZE, prot=PROT_RW)
            mem.mprotect(a, PAGE_SIZE, PROT_READ)
            addrs.append(a)
        fa = _fault_address(lambda: fast.write(addrs[0] + 5, b"x"))
        sa = _fault_address(lambda: slow.write(addrs[1] + 5, b"x"))
        assert fa - addrs[0] == sa - addrs[1] == 5

    def test_cross_page_fault_at_second_page(self):
        """A straddling access faults at the *second* page's base when
        only the first page is accessible — both modes agree."""
        fast, slow = _pair()
        offsets = []
        for mem in (fast, slow):
            a = mem.mmap(2 * PAGE_SIZE, prot=PROT_RW)
            mem.mprotect(a + PAGE_SIZE, PAGE_SIZE, PROT_NONE)
            start = a + PAGE_SIZE - 4
            offsets.append(_fault_address(lambda: mem.read(start, 8)) - a)
        assert offsets[0] == offsets[1] == PAGE_SIZE

    def test_negative_and_huge_addresses(self):
        fast, slow = _pair()
        for target in (-8, (1 << 48) - 4):
            fa = _fault_address(lambda: fast.read(target, 8))
            sa = _fault_address(lambda: slow.read(target, 8))
            assert fa == sa

    def test_fill_invalid_size_rejected_in_both(self):
        from repro.machine import MapError
        fast, slow = _pair()
        for mem in (fast, slow):
            a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
            with pytest.raises(MapError):
                mem.fill(a, -4, 0)

    def test_word_ops_fault_like_the_validator(self):
        """``read_word``/``write_word`` on the fast path fault at the
        same addresses as the validator, and read the zero page as 0."""
        results = []
        for mem in _pair():
            a = mem.mmap(4 * PAGE_SIZE, prot=PROT_RW)
            mem.mprotect(a + PAGE_SIZE, PAGE_SIZE, PROT_NONE)
            mem.mprotect(a + 2 * PAGE_SIZE, PAGE_SIZE, PROT_READ)
            unmapped = a + (1 << 30)
            faults = [
                _fault_address(lambda: mem.read_word(a + PAGE_SIZE + 8)),
                _fault_address(
                    lambda: mem.write_word(a + 2 * PAGE_SIZE + 16, 1)),
                _fault_address(lambda: mem.read_word(unmapped)),
                _fault_address(lambda: mem.write_word(unmapped, 1)),
                # Unaligned word straddling into the PROT_NONE page.
                _fault_address(lambda: mem.read_word(a + PAGE_SIZE - 4)),
            ]
            zero = mem.read_word(a + 3 * PAGE_SIZE + 8)
            results.append(([f - a for f in faults], zero,
                             mem.fault_count, mem.resident_pages))
        assert results[0] == results[1] == (
            [PAGE_SIZE + 8, 2 * PAGE_SIZE + 16, 1 << 30, 1 << 30,
             PAGE_SIZE], 0, 5, 0)


class TestRevocation:
    """A mapping change takes effect on the very next access: nothing
    keeps serving the state from before a revocation."""

    def test_munmap_revokes(self):
        mem = VirtualMemory()
        a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
        mem.write(a, b"hello")
        mem.munmap(a, PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            mem.read(a, 4)

    def test_mprotect_revokes(self):
        mem = VirtualMemory()
        a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
        mem.write(a, b"hello")
        mem.mprotect(a, PAGE_SIZE, PROT_NONE)
        with pytest.raises(SegmentationFault):
            mem.read(a, 4)

    def test_sbrk_shrink_revokes(self):
        mem = VirtualMemory()
        base = mem.sbrk(0)
        mem.sbrk(PAGE_SIZE)
        mem.write(base, b"data")
        mem.sbrk(-PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            mem.read(base, 4)

    def test_zero_page_read_then_write(self):
        """Reading a zero page, then writing it, materializes the frame;
        the next read must see the data."""
        mem = VirtualMemory()
        a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
        assert mem.read(a, 8) == bytes(8)  # cached as zero page
        mem.write(a, b"\x01\x02\x03")
        assert mem.read(a, 3) == b"\x01\x02\x03"

    def test_write_then_read_other_page_then_back(self):
        mem = VirtualMemory()
        a = mem.mmap(2 * PAGE_SIZE, prot=PROT_RW)
        mem.write(a, b"first")
        mem.write(a + PAGE_SIZE, b"second")
        assert mem.read(a, 5) == b"first"
        assert mem.read(a + PAGE_SIZE, 6) == b"second"

    def test_word_ops_see_munmap(self):
        mem = VirtualMemory()
        a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
        mem.write_word(a, 7)
        assert mem.read_word(a) == 7
        mem.munmap(a, PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            mem.read_word(a)
        with pytest.raises(SegmentationFault):
            mem.write_word(a, 8)

    def test_word_ops_see_mprotect(self):
        mem = VirtualMemory()
        a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
        mem.write_word(a, 7)
        mem.mprotect(a, PAGE_SIZE, PROT_READ)
        assert mem.read_word(a) == 7
        with pytest.raises(SegmentationFault):
            mem.write_word(a, 8)
        mem.mprotect(a, PAGE_SIZE, PROT_NONE)
        with pytest.raises(SegmentationFault):
            mem.read_word(a)
        mem.mprotect(a, PAGE_SIZE, PROT_RW)
        mem.write_word(a, 9)
        assert mem.read_word(a) == 9

    def test_word_ops_see_sbrk_shrink(self):
        mem = VirtualMemory()
        base = mem.sbrk(0)
        mem.sbrk(PAGE_SIZE)
        mem.write_word(base, 7)
        mem.sbrk(-PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            mem.read_word(base)
        with pytest.raises(SegmentationFault):
            mem.write_word(base, 8)

    def test_word_read_of_zero_page_then_write(self):
        """A word read of a never-written page, then a write that
        materializes it: the next read sees the write."""
        mem = VirtualMemory()
        a = mem.mmap(PAGE_SIZE, prot=PROT_RW)
        assert mem.read_word(a + 8) == 0
        assert mem.resident_pages == 0
        mem.write_word(a + 8, 0x1234)
        assert mem.read_word(a + 8) == 0x1234
        assert mem.resident_pages == 1


class TestObservationEquivalence:
    """Whole-workload equivalence between the two modes."""

    def _workout(self, mem):
        a = mem.mmap(8 * PAGE_SIZE, prot=PROT_RW)
        # Word traffic inside one page, across pages, and fills.
        for i in range(0, 3 * PAGE_SIZE, 40):
            mem.write_word(a + i, i)
        total = 0
        for i in range(0, 3 * PAGE_SIZE, 40):
            total += mem.read_word(a + i)
        mem.fill(a + 4 * PAGE_SIZE, PAGE_SIZE + 100, 0xAB)
        cross = mem.read(a + PAGE_SIZE - 8, 16)
        mem.write(a + 2 * PAGE_SIZE - 3, b"straddle")
        mem.mprotect(a + 6 * PAGE_SIZE, PAGE_SIZE, PROT_READ)
        ro = mem.read(a + 6 * PAGE_SIZE, 32)
        mem.munmap(a + 7 * PAGE_SIZE, PAGE_SIZE)
        return (total, cross, ro, mem.resident_pages,
                mem.peak_resident_pages, mem.mapped_bytes,
                mem.fault_count, list(mem.iter_mappings()))

    def test_same_observations(self):
        fast, slow = _pair()
        assert self._workout(fast) == self._workout(slow)

    def test_guest_cycle_totals_identical(self):
        """A guest program's cycle decomposition must not depend on
        whether the memory fast paths are enabled."""

        class Prog(ProgramLike):
            def __init__(self):
                self.graph = CallGraph()
                self.graph.add_call_site("main", "malloc", "buf")
                self.graph.add_call_site("main", "free", "buf")
                self.graph.freeze()

            def main(self, p, iters):
                for i in range(iters):
                    buf = p.malloc(64 + (i % 5) * 16, site="buf")
                    p.fill(buf, 64, 0)
                    p.write_int(buf, i)
                    value = p.read_int(buf)
                    p.branch_on(value)
                    p.free(buf)
                return 0

        snapshots = []
        for fast in (True, False):
            program = Prog()
            heap = LibcAllocator(VirtualMemory(fast_paths=fast))
            process = Process(program.graph, heap=heap)
            process.run(program, 50)
            snapshots.append(process.meter.snapshot())
        assert snapshots[0] == snapshots[1]


def _aligned_across_pages(mem, base):
    start = base + PAGE_SIZE - 24
    mem.write_words(start, array("Q", range(1, 11)))
    return mem.read_words(start, 10).tolist(), mem.read(start, 16)


def _unaligned_byte_fallback(mem, base):
    start = base + PAGE_SIZE - 21
    mem.write_words(start, [0x0102030405060708, 0xFFFF])
    return mem.read_words(start, 2).tolist(), mem.read(start - 3, 6)


def _zero_count_and_empty_values(mem, base):
    """An empty write is a no-op; a zero-word read is a zero-size
    access, rejected like ``read(address, 0)``."""
    mem.write_words(base, [])
    mem.write_words(base + 4, array("Q"))
    with pytest.raises(MapError) as caught:
        mem.read_words(base, 0)
    return str(caught.value)


def _list_values_masked(mem, base):
    mem.write_words(base + 8, [(1 << 64) + 5, (1 << 70) | 7])
    return mem.read_words(base + 8, 2).tolist()


def _write_into_read_only_page(mem, base):
    mem.mprotect(base + PAGE_SIZE, PAGE_SIZE, PROT_READ)
    start = base + PAGE_SIZE - 16
    offset = _fault_address(
        lambda: mem.write_words(start, [1, 2, 3, 4])) - base
    return offset, mem.read_words(start, 4).tolist()


class TestWordSpanEquivalence:
    """``read_words``/``write_words`` on the fast paths against the same
    calls on the slow validator."""

    @pytest.mark.parametrize("workout, want", [
        (_aligned_across_pages,
         ((list(range(1, 11)), array("Q", [1, 2]).tobytes()), 0, 2)),
        (_unaligned_byte_fallback,
         (([0x0102030405060708, 0xFFFF],
           bytes(3) + bytes.fromhex("080706")), 0, 1)),
        (_zero_count_and_empty_values,
         ("invalid access size 0", 0, 0)),
        (_list_values_masked, ([5, 7], 0, 1)),
        (_write_into_read_only_page,
         ((PAGE_SIZE, [0, 0, 0, 0]), 1, 0)),
    ])
    def test_same_words_faults_and_residency(self, workout, want):
        """Each mode runs ``workout`` on a fresh two-page RW mapping;
        both give ``want``: (result, fault_count, resident_pages)."""
        for mem in _pair():
            base = mem.mmap(2 * PAGE_SIZE, prot=PROT_RW)
            got = workout(mem, base)
            assert (got, mem.fault_count, mem.resident_pages) == want


class _GuestLoop(ProgramLike):
    """Synthetic guest: per iteration a call, an allocation, a
    straight-line run of memory traffic (clear the buffer, stamp a
    header, scan/branch, copy half the buffer forward), and a free —
    the instruction mix of the service workloads, reduced to a counted
    loop.

    The straight-line run between ``malloc`` and ``free`` is pre-decoded
    into one :class:`~repro.program.blocks.BasicBlock` per distinct
    buffer size and dispatched with ``exec_block``, the batched path.

    Guest instructions are counted at word granularity, exactly like
    :meth:`~repro.program.cost.CostModel.mem_cost` charges them: a
    ``size``-byte fill is ``size/8`` word stores, a copy is loads plus
    stores (``BasicBlock.instructions`` is the per-block count).
    ``call``, ``malloc`` and ``free`` count one instruction each."""

    def __init__(self) -> None:
        graph = CallGraph(entry="main")
        graph.add_call_site("main", "work")
        graph.add_call_site("work", "malloc", "buf")
        self.graph = graph.freeze()
        self._blocks = tuple(self._build_block(64 + k * 32)
                             for k in range(7))
        #: Instructions per iteration, by size class: call + malloc +
        #: free + the block's word-granular count.
        self._iter_instructions = tuple(
            3 + block.instructions for block in self._blocks)

    @staticmethod
    def _build_block(size: int) -> BasicBlock:
        builder = BlockBuilder()
        builder.fill(0, 0, size, 0)
        builder.write(0, 0, b"\x2a" * 16)
        builder.branch_on(builder.read(0, 0, 8))
        builder.write_arg(0, 8, 1)  # store loop counter at buf+8
        slot = builder.read_int(0, 8)
        builder.branch_on(slot)
        builder.copy(0, size // 2, 0, 0, size // 2)
        builder.write_value(0, 16, slot)
        builder.compute(5)
        return builder.build()

    def instruction_count(self, iters: int) -> int:
        """Exact guest instructions ``main(iters)`` executes."""
        per_cycle = sum(self._iter_instructions)
        full, rest = divmod(iters, len(self._iter_instructions))
        return full * per_cycle + sum(self._iter_instructions[:rest])

    def main(self, process: Process, iters: int) -> int:
        work = self._work
        for i in range(iters):
            process.call("work", work, i)
        return self.instruction_count(iters)

    def _work(self, process: Process, i: int) -> None:
        slot = i % 7
        buf = process.malloc(64 + slot * 32, site="buf")
        process.exec_block(self._blocks[slot], buf, i)
        process.free(buf)


class _GuestLoopPerOp(_GuestLoop):
    """The per-instruction twin of :class:`_GuestLoop`: every block is
    interpreted op by op through the ordinary ``Process`` methods."""

    def _work(self, process: Process, i: int) -> None:
        slot = i % 7
        buf = process.malloc(64 + slot * 32, site="buf")
        self._blocks[slot].interpret(process, (buf, i))
        process.free(buf)


#: Guest-loop iterations: every size class, many times over.
GUEST_ITERS = 150


def substrate_mismatches():
    """Run the guest loop batched on the fast paths and per-op on the
    slow validator; return the observables that differ (empty means
    equivalent)."""

    def observe(program, fast_paths):
        memory = VirtualMemory(fast_paths=fast_paths)
        heap = LibcAllocator(memory)
        process = Process(program.graph, heap=heap,
                          record_allocations=False)
        result = process.run(program, GUEST_ITERS)
        return {
            "instructions": result,
            "meter": process.meter.snapshot(),
            "alloc_stats": heap.stats.snapshot(),
            "alloc_profile": dict(process.alloc_profile),
            "fault_count": memory.fault_count,
            "resident_pages": memory.resident_pages,
            "peak_resident_pages": memory.peak_resident_pages,
        }

    batched = observe(_GuestLoop(), fast_paths=True)
    validated = observe(_GuestLoopPerOp(), fast_paths=False)
    return [f"{key} diverged: batched {batched[key]!r} != per-op "
            f"validator {validated[key]!r}"
            for key in batched if batched[key] != validated[key]]


class TestSubstrateEquivalence:
    """Batched blocks on the fast paths == per-op interpretation on the
    ``fast_paths=False`` validator, on every simulated observable."""

    def test_batched_guest_loop_matches_per_op_validator(self):
        assert substrate_mismatches() == []

    def test_planted_block_divergence_is_caught(self, monkeypatch):
        """One extra cycle charged by the fused block path must fail the
        gate on the meter, so the gate is not vacuous."""
        real = DirectMonitor.exec_block

        def exec_block(self, block, args):
            outputs = real(self, block, args)
            self.compute(1)
            return outputs

        monkeypatch.setattr(DirectMonitor, "exec_block", exec_block)
        mismatches = substrate_mismatches()
        assert len(mismatches) == 1
        assert mismatches[0].startswith("meter diverged")


#: Byte-level and bulk ops that promote a word-only page, each run on a
#: page holding two recorded words (at offsets 16 and PAGE_SIZE - 8).
PROMOTING_OPS = {
    "read": lambda mem, page: mem.read(page + 12, 8),
    "write": lambda mem, page: mem.write(page + 40, b"\xab\xcd"),
    "fill": lambda mem, page: mem.fill(page + 48, 40, 0x5A),
    "read_words": lambda mem, page: mem.read_words(page + 8, 3).tolist(),
    "write_words": lambda mem, page: mem.write_words(page + 96, [7, 8]),
    "peek": lambda mem, page: mem.peek(page, 32),
    "poke": lambda mem, page: mem.poke(page + 3, b"xyz"),
}

#: Pages in the mapping the op sequences run on; the page after it is
#: unmapped, so spans off its end fault.
SEQ_PAGES = 3
_SEQ_BYTES = SEQ_PAGES * PAGE_SIZE
_OFFSETS = st.integers(0, _SEQ_BYTES - 1)
#: Word offsets, mostly aligned (the fast path) and sometimes not.
_WORD_OFFSETS = st.one_of(
    st.integers(0, _SEQ_BYTES // 8 - 1).map(lambda index: index * 8),
    _OFFSETS)
_WORDS = st.integers(0, (1 << 64) - 1)
_PAGE_INDEXES = st.integers(0, SEQ_PAGES - 1)
SEQ_OPS = st.one_of(
    st.tuples(st.just("write_word"), _WORD_OFFSETS, _WORDS),
    st.tuples(st.just("read_word"), _WORD_OFFSETS),
    st.tuples(st.just("write"), _OFFSETS, st.binary(min_size=1,
                                                     max_size=16)),
    st.tuples(st.just("read"), _OFFSETS, st.integers(1, 16)),
    st.tuples(st.just("fill"), _OFFSETS, st.integers(1, 64),
              st.integers(0, 255)),
    st.tuples(st.just("write_words"), _WORD_OFFSETS,
              st.lists(_WORDS, min_size=1, max_size=4)),
    st.tuples(st.just("read_words"), _WORD_OFFSETS, st.integers(1, 4)),
    st.tuples(st.just("peek"), _OFFSETS, st.integers(1, 16)),
    st.tuples(st.just("poke"), _OFFSETS, st.binary(min_size=1,
                                                    max_size=8)),
    st.tuples(st.just("mprotect"), _PAGE_INDEXES,
              st.sampled_from([PROT_NONE, PROT_READ, PROT_RW])),
    st.tuples(st.just("remap"), _PAGE_INDEXES),
)


def _run_sequence(mem, ops):
    """Run ``ops`` on a fresh mapping; return every observable."""
    base = mem.mmap(_SEQ_BYTES)
    outcomes = []
    for name, *args in ops:
        if name == "mprotect":
            mem.mprotect(base + args[0] * PAGE_SIZE, PAGE_SIZE, args[1])
            outcomes.append(None)
            continue
        if name == "remap":
            page = base + args[0] * PAGE_SIZE
            mem.munmap(page, PAGE_SIZE)
            mem.mmap(PAGE_SIZE, address=page)
            outcomes.append(None)
            continue
        try:
            result = getattr(mem, name)(base + args[0], *args[1:])
        except SegmentationFault as fault:
            result = ("fault", fault.address - base)
        if isinstance(result, array):
            result = result.tolist()
        outcomes.append(result)
    residency = (mem.resident_pages, mem.peak_resident_pages)
    for index in range(SEQ_PAGES):
        mem.mprotect(base + index * PAGE_SIZE, PAGE_SIZE, PROT_RW)
    return {
        "outcomes": outcomes,
        "residency": residency,
        "fault_count": mem.fault_count,
        "contents": mem.read(base, _SEQ_BYTES),
    }


def word_only_mismatches(ops):
    """Run ``ops`` on the fast paths and on the validator; return the
    observables that differ (empty means equivalent)."""
    fast, slow = (_run_sequence(mem, ops) for mem in _pair())
    return [f"{key} diverged: fast {fast[key]!r} != validator "
            f"{slow[key]!r}" for key in fast if fast[key] != slow[key]]


class TestWordOnlyPages:
    """A page that has only taken aligned word stores holds a word map
    and no frame until a byte-level or bulk op promotes it; every
    observable matches the ``fast_paths=False`` validator, which never
    makes such a page."""

    @pytest.mark.parametrize("op", sorted(PROMOTING_OPS))
    def test_byte_or_bulk_op_promotes_with_the_recorded_words(self, op):
        seen = []
        for fast in (True, False):
            store = PageStore()
            mem = VirtualMemory(fast_paths=fast, page_store=store)
            page = mem.mmap(2 * PAGE_SIZE)
            mem.write_word(page + 16, 0x1122334455667788)
            mem.write_word(page + PAGE_SIZE - 8, 5)
            assert store.allocated_pages == (0 if fast else 1)
            result = PROMOTING_OPS[op](mem, page)
            assert store.allocated_pages == 1
            if fast:
                assert mem.counters() == {"word_pages_created": 1,
                                          "word_pages_promoted": 1}
            seen.append((result, mem.read(page, PAGE_SIZE),
                         mem.read_word(page + 16), mem.resident_pages,
                         mem.peak_resident_pages, mem.fault_count))
        assert seen[0] == seen[1]
        assert seen[0][2:] == (0x1122334455667788, 1, 1, 0)

    def test_sealed_guard_page_life_takes_no_frame(self):
        """Write the size word, seal, fault, unseal, read the size word:
        the whole guard-page life, with no ``PageStore`` slot."""
        seen = []
        for fast in (True, False):
            store = PageStore()
            mem = VirtualMemory(fast_paths=fast, page_store=store)
            base = mem.mmap(2 * PAGE_SIZE)
            guard = base + PAGE_SIZE
            mem.write_word(guard, 100)
            mem.mprotect(guard, PAGE_SIZE, PROT_NONE)
            faults = (_fault_address(lambda: mem.read_word(guard)),
                      _fault_address(lambda: mem.write_word(guard, 1)),
                      _fault_address(lambda: mem.read(guard, 8)))
            mem.mprotect(guard, PAGE_SIZE, PROT_RW)
            size = mem.read_word(guard)
            assert store.allocated_pages == (0 if fast else 1)
            if fast:
                assert mem.counters() == {"word_pages_created": 1,
                                          "word_pages_promoted": 0}
            seen.append(([fault - base for fault in faults], size,
                         mem.fault_count, mem.resident_pages,
                         mem.resident_bytes, mem.peak_resident_pages,
                         mem.mprotect_count))
        assert seen[0] == seen[1] == (
            [PAGE_SIZE] * 3, 100, 3, 1, PAGE_SIZE, 1, 2)

    @staticmethod
    def _munmap(mem):
        base = mem.mmap(PAGE_SIZE)
        mem.write_word(base + 8, 9)
        mem.munmap(base, PAGE_SIZE)
        fault = _fault_address(lambda: mem.read_word(base + 8)) - base
        mem.mmap(PAGE_SIZE, address=base)
        return fault, mem.read_word(base + 8)

    @staticmethod
    def _sbrk_shrink(mem):
        base = mem.sbrk(PAGE_SIZE)
        mem.write_word(base + 8, 9)
        mem.sbrk(-PAGE_SIZE)
        fault = _fault_address(lambda: mem.read_word(base + 8)) - base
        mem.sbrk(PAGE_SIZE)
        return fault, mem.read_word(base + 8)

    @staticmethod
    def _close(mem):
        base = mem.mmap(PAGE_SIZE)
        mem.write_word(base + 8, 9)
        mem.close()
        return None

    @pytest.mark.parametrize("release", ["_munmap", "_sbrk_shrink",
                                         "_close"])
    def test_release_drops_the_page_without_touching_the_store(
            self, release):
        """munmap, sbrk shrink and ``close()`` drop a word-only page; a
        fresh mapping over it reads zero again."""
        seen = []
        for fast in (True, False):
            store = PageStore()
            mem = VirtualMemory(fast_paths=fast, page_store=store)
            result = getattr(self, release)(mem)
            assert store.allocated_pages == 0
            if fast:
                assert mem.counters()["word_pages_promoted"] == 0
            seen.append((result, mem.resident_pages,
                         mem.peak_resident_pages))
        assert seen[0] == seen[1]
        assert seen[0][1:] == (0, 1)

    def test_residency_counts_word_only_pages_in_both_modes(self):
        seen = []
        for mem in _pair():
            base = mem.mmap(4 * PAGE_SIZE)
            for index in range(4):
                mem.write_word(base + index * PAGE_SIZE, index)
            mem.write(base, b"x")  # one page promoted
            mem.munmap(base + 3 * PAGE_SIZE, PAGE_SIZE)
            seen.append((mem.resident_pages, mem.resident_bytes,
                         mem.peak_resident_pages))
        assert seen[0] == seen[1] == (3, 3 * PAGE_SIZE, 4)

    def test_validator_never_makes_a_word_only_page(self):
        mem = VirtualMemory(fast_paths=False)
        base = mem.mmap(PAGE_SIZE)
        mem.write_word(base, 1)
        mem.read(base, 8)
        assert mem.counters() == {"word_pages_created": 0,
                                  "word_pages_promoted": 0}

    @given(ops=st.lists(SEQ_OPS, max_size=40))
    def test_op_sequences_match_the_validator(self, ops):
        assert word_only_mismatches(ops) == []

    def test_planted_promotion_that_drops_words_is_caught(self,
                                                          monkeypatch):
        """A promotion that forgets the recorded words must fail the
        differential check, so it is not vacuous."""
        real = VirtualMemory._materialize

        def materialize_dropping_words(self, pno):
            self._frame_words.pop(pno, None)
            return real(self, pno)

        monkeypatch.setattr(VirtualMemory, "_materialize",
                            materialize_dropping_words)
        ops = [("write_word", 16, 0xFEED), ("read", 16, 8)]
        mismatches = word_only_mismatches(ops)
        assert [m.split(" ")[0] for m in mismatches] == ["outcomes",
                                                         "contents"]


def _dirty_slots(store, pages):
    """Leave ``pages`` slots filled with 0xA5 on top of ``store``'s free
    list (a machine fills them and is closed); return those slots."""
    mem = VirtualMemory(page_store=store)
    base = mem.mmap(pages * PAGE_SIZE)
    mem.fill(base, pages * PAGE_SIZE, 0xA5)
    slots = set(mem._frame_slots.values())
    mem.close()
    return slots


def arena_mismatches(ops, store):
    """Run ``ops`` on a fast and a validator machine, each drawing from
    ``store`` right after dirtying it, and on a validator with a store of
    its own; return the observables that differ (empty: equivalent)."""
    reference = _run_sequence(
        VirtualMemory(fast_paths=False, page_store=PageStore()), ops)
    mismatches = []
    for fast in (True, False):
        _dirty_slots(store, SEQ_PAGES)
        seen = _run_sequence(VirtualMemory(fast_paths=fast,
                                           page_store=store), ops)
        mode = "fast" if fast else "validator"
        mismatches += [f"{mode} {key} diverged: {seen[key]!r} != "
                       f"{reference[key]!r}"
                       for key in seen if seen[key] != reference[key]]
    return mismatches


class TestPageArena:
    """Every ``VirtualMemory`` built with no store draws frames from the
    process's one private arena and returns them when it is closed or
    collected.  A machine must still see zero pages and only its own
    data, whatever the dead machines before it left in the slots."""

    @pytest.fixture(autouse=True)
    def arena(self):
        assert get_default_store() is None
        # Pending garbage would free slots on top of the ones a test
        # dirtied; collect it first.
        gc.collect()
        return private_arena()

    def test_machines_without_a_store_share_the_arena(self, arena):
        assert VirtualMemory().page_store is arena
        assert VirtualMemory(fast_paths=False).page_store is arena
        assert LibcAllocator().memory.page_store is arena

    @pytest.mark.parametrize("death", ["closed", "collected"])
    def test_page_a_dead_machine_left_dirty_reads_zero(self, death):
        dead = VirtualMemory()
        base = dead.mmap(4 * PAGE_SIZE)
        dead.fill(base, 4 * PAGE_SIZE, 0xA5)
        slots = set(dead._frame_slots.values())
        if death == "closed":
            dead.close()
        else:
            del dead
        mem = VirtualMemory()
        base = mem.mmap(4 * PAGE_SIZE)
        for index in range(4):
            mem.write(base + index * PAGE_SIZE + 1, b"\x01")
        assert set(mem._frame_slots.values()) == slots  # reused
        assert (mem.read(base, 4 * PAGE_SIZE)
                == (b"\x00\x01" + bytes(PAGE_SIZE - 2)) * 4)

    @given(ops=st.lists(SEQ_OPS, max_size=40))
    def test_fast_and_validator_machines_sharing_the_arena_agree(self,
                                                                 ops):
        assert arena_mismatches(ops, private_arena()) == []

    def test_planted_reuse_without_rezeroing_is_caught(self, monkeypatch):
        """A store that hands out a freed slot without re-zeroing it
        must fail the differential check, so it is not vacuous.  (It
        runs on a store of its own: the process arena stays clean.)"""
        def free_forgetting_dirt(self, slot):
            self._free_slots.append(slot)  # as if never allocated
            self._allocated -= 1

        monkeypatch.setattr(PageStore, "free", free_forgetting_dirt)
        ops = [("write", 8, b"x"), ("read", 0, 16)]
        mismatches = arena_mismatches(ops, PageStore())
        assert {m.split(" ")[1] for m in mismatches} == {"outcomes",
                                                         "contents"}

    def test_close_and_collection_return_every_slot(self, arena):
        before = arena.allocated_pages
        for death in ("closed", "collected"):
            mem = VirtualMemory()
            base = mem.mmap(8 * PAGE_SIZE)
            for index in range(8):  # word-only pages: no slot yet
                mem.write_word(base + index * PAGE_SIZE, index)
            mem.fill(base, 3 * PAGE_SIZE, 7)
            mem.write(base + 5 * PAGE_SIZE + 3, b"z")
            assert arena.allocated_pages == before + 4
            if death == "closed":
                mem.close()
                assert mem.resident_pages == 0
            del mem
            assert arena.allocated_pages == before

    def test_word_only_page_promoted_into_a_reused_slot(self, arena):
        """The promoted page holds exactly its recorded words and the
        promoting write, nothing the slot's last owner left."""
        expected = bytearray(PAGE_SIZE)
        expected[16:24] = (0x1122334455667788).to_bytes(8, "little")
        expected[-8:] = (5).to_bytes(8, "little")
        expected[100:101] = b"x"
        for fast in (True, False):
            slots = _dirty_slots(arena, 1)
            mem = VirtualMemory(fast_paths=fast)
            page = mem.mmap(PAGE_SIZE)
            mem.write_word(page + 16, 0x1122334455667788)
            mem.write_word(page + PAGE_SIZE - 8, 5)
            assert len(mem._frame_slots) == (0 if fast else 1)
            mem.write(page + 100, b"x")
            assert set(mem._frame_slots.values()) == slots
            assert mem.read(page, PAGE_SIZE) == bytes(expected)
            if fast:
                assert mem.counters() == {"word_pages_created": 1,
                                          "word_pages_promoted": 1}
            mem.close()
