"""Differential test: the analyzer's run scans against per-byte oracles.

``ShadowAnalyzer._check_access`` walks the runs of inaccessible bytes and
classifies once per tracked region; ``syscall_out`` walks the invalid
runs of the V-mask with one origin lookup per uniform origin page.  The
reference analyzer below keeps the original per-byte scans (and a
per-byte ``dict`` origin map); random red-zone, freed-buffer and wild
accesses plus system calls over partially initialised buffers must give
the same warnings — kind, address, access, buffer serial, message, in
order — and charge the same cycles.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocator.libc import LibcAllocator
from repro.machine.errors import SegmentationFault
from repro.machine.layout import PAGE_SIZE
from repro.program.cost import CycleMeter
from repro.program.values import TaggedValue
from repro.shadow.analyzer import ShadowAnalyzer
from repro.shadow.bits import ShadowState
from repro.vulntypes import VulnType


class DictOriginShadow(ShadowState):
    """Shadow planes with the original per-byte origin dictionary."""

    def __init__(self):
        super().__init__()
        self._byte_origins = {}

    def set_invalid(self, address, size, origin=None):
        self._v.set_range(address, size, 0)
        if origin is not None:
            for offset in range(size):
                self._byte_origins[address + offset] = origin

    def origin_of(self, address):
        return self._byte_origins.get(address)

    def origins(self, address, size):
        return [self._byte_origins.get(address + i) for i in range(size)]

    def set_origins(self, address, origins):
        for offset, origin in enumerate(origins):
            if origin is None:
                self._byte_origins.pop(address + offset, None)
            else:
                self._byte_origins[address + offset] = origin

    def write_shadow(self, address, size, masks, origin):
        if masks is None:
            self.set_valid(address, size)
            self.set_origins(address, [None] * size)
        else:
            self.set_vmask(address, masks)
            self.set_origins(address, [origin if mask != 0xFF else None
                                       for mask in masks])

    def copy_shadow(self, dst, src, size):
        self.set_vmask(dst, self.vmask(src, size))
        self.set_origins(dst, self.origins(src, size))


class PerByteAnalyzer(ShadowAnalyzer):
    """The original per-byte ``_check_access`` and ``syscall_out``."""

    def __init__(self, heap, meter):
        super().__init__(heap, meter=meter)
        self.shadow = DictOriginShadow()

    def _classify_byte(self, address):
        import bisect

        pos = bisect.bisect_right(self._region_starts, address) - 1
        if 0 <= pos < len(self._regions):
            tracked = self._regions[pos]
            if tracked.region_start <= address < tracked.region_end:
                if tracked.freed:
                    return VulnType.USE_AFTER_FREE, tracked.record
                return VulnType.OVERFLOW, tracked.record
        return VulnType.NONE, None

    def _check_access(self, address, size, access):
        if self.meter is not None:
            self.meter.charge("analysis", size)
        if self.shadow.is_accessible(address, size):
            return
        flags = self.shadow.accessibility(address, size)
        seen = set()
        for offset, flag in enumerate(flags):
            if flag:
                continue
            kind, record = self._classify_byte(address + offset)
            serial = record.serial if record else None
            if serial in seen:
                continue
            seen.add(serial)
            if record is None:
                self._warn(VulnType.NONE, address + offset, access, None,
                           "wild access outside any known buffer")
            else:
                self._warn(kind, address + offset, access, record)

    def syscall_out(self, address, size):
        self._check_access(address, size, "read:syscall")
        if not self.shadow.is_fully_valid(address, size):
            masks = self.shadow.vmask(address, size)
            seen = set()
            for offset, mask in enumerate(masks):
                if mask == 0xFF:
                    continue
                origin = self.shadow.origin_of(address + offset)
                if origin in seen:
                    continue
                seen.add(origin)
                record = (self._by_serial.get(origin)
                          if origin is not None else None)
                self._warn(VulnType.UNINIT_READ, address + offset,
                           "use:syscall", record,
                           "uninitialized data reaches a system call")
            self.shadow.set_valid(address, size)
        return self.memory.peek(address, size)


#: Buffer sizes: tiny, page-sized and page-straddling.
sizes = st.one_of(st.integers(min_value=0, max_value=96),
                  st.integers(min_value=PAGE_SIZE - 40,
                              max_value=2 * PAGE_SIZE + 40))
pick = st.integers(min_value=0, max_value=1 << 16)
offset = st.integers(min_value=-48, max_value=2 * PAGE_SIZE + 96)
length = st.integers(min_value=1, max_value=PAGE_SIZE + 200)

op = st.one_of(
    st.tuples(st.just("malloc"), sizes),
    st.tuples(st.just("calloc"), sizes),
    st.tuples(st.just("realloc"), pick, sizes),
    st.tuples(st.just("free"), pick),
    st.tuples(st.just("read"), pick, offset, length),
    st.tuples(st.just("write"), pick, offset,
              st.lists(st.sampled_from([0x00, 0x0F, 0xFF]), min_size=1,
                       max_size=64), pick),
    st.tuples(st.just("fill"), pick, offset, length),
    st.tuples(st.just("copy"), pick, pick, offset, length),
    st.tuples(st.just("syscall_out"), pick, offset, length),
    st.tuples(st.just("wild"), offset, length),
)


def drive(analyzer, steps):
    """Run ``steps``; every buffer ever allocated stays addressable so
    later steps reach freed buffers and their red zones too."""
    buffers = []
    for step in steps:
        kind = step[0]
        try:
            if kind in ("malloc", "calloc"):
                args = (step[1],) if kind == "malloc" else (1, step[1])
                buffers.append(analyzer.heap_alloc(kind, *args))
            elif not buffers:
                continue
            elif kind == "realloc":
                old = buffers[step[1] % len(buffers)]
                buffers.append(analyzer.heap_alloc("realloc", old, step[2]))
            elif kind == "free":
                analyzer.heap_free(buffers[step[1] % len(buffers)])
            elif kind == "read":
                _, which, at, size = step
                analyzer.read(buffers[which % len(buffers)] + at, size)
            elif kind == "write":
                _, which, at, masks, origin = step
                analyzer.write(buffers[which % len(buffers)] + at,
                               TaggedValue(bytes(len(masks)), bytes(masks),
                                           origin % (len(buffers) + 1)))
            elif kind == "fill":
                _, which, at, size = step
                analyzer.fill(buffers[which % len(buffers)] + at, size, 7)
            elif kind == "copy":
                _, dst, src, at, size = step
                analyzer.copy(buffers[dst % len(buffers)] + at,
                              buffers[src % len(buffers)], size)
            elif kind == "syscall_out":
                _, which, at, size = step
                analyzer.syscall_out(buffers[which % len(buffers)] + at,
                                     size)
            else:
                _, at, size = step
                analyzer.read(max(buffers) + 8 * PAGE_SIZE + at, size)
        except SegmentationFault:
            pass  # the warnings before the fault still count


def observe(analyzer):
    return ([(w.kind, w.address, w.access,
              w.buffer.serial if w.buffer else None, w.message)
             for w in analyzer.report.warnings],
            analyzer.meter.snapshot())


class TestRunScansMatchPerByteScans:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(op, min_size=1, max_size=30))
    def test_warnings_and_cycles_identical(self, steps):
        fast = ShadowAnalyzer(LibcAllocator(), meter=CycleMeter())
        slow = PerByteAnalyzer(LibcAllocator(), meter=CycleMeter())
        drive(fast, steps)
        drive(slow, steps)
        assert observe(fast) == observe(slow)

    def test_overread_spanning_buffers_warns_once_per_buffer(self):
        steps = [("malloc", 40), ("malloc", 40), ("free", 0),
                 ("malloc", PAGE_SIZE + 8), ("read", 1, -200, 3000),
                 ("syscall_out", 2, -16, PAGE_SIZE + 64)]
        fast = ShadowAnalyzer(LibcAllocator(), meter=CycleMeter())
        slow = PerByteAnalyzer(LibcAllocator(), meter=CycleMeter())
        drive(fast, steps)
        drive(slow, steps)
        warnings, _ = observe(fast)
        assert warnings
        assert {kind for kind, *_ in warnings} >= {
            VulnType.OVERFLOW, VulnType.UNINIT_READ}
        assert observe(fast) == observe(slow)

    def test_syscall_reports_each_origin_at_its_first_byte(self):
        """Two uninitialised sources copied back to back into one
        calloc'd buffer: one invalid run over a mixed origin page, where
        the later serial comes first and so is reported first."""
        steps = [("malloc", 64), ("malloc", 64), ("calloc", 200),
                 ("copy", 2, 1, 0, 32), ("copy", 2, 0, 32, 32),
                 ("syscall_out", 2, 0, 200)]
        fast = ShadowAnalyzer(LibcAllocator(), meter=CycleMeter())
        slow = PerByteAnalyzer(LibcAllocator(), meter=CycleMeter())
        drive(fast, steps)
        drive(slow, steps)
        warnings, _ = observe(fast)
        syscall = [(serial, address) for kind, address, access, serial, _
                   in warnings if access == "use:syscall"]
        assert [serial for serial, _ in syscall] == [1, 0]
        assert syscall[1][1] - syscall[0][1] == 32
        assert observe(fast) == observe(slow)
