"""Shadow analyzer detections (paper Section V)."""

import pytest

from repro.allocator.libc import LibcAllocator
from repro.program.callgraph import CallGraph
from repro.program.process import Process
from repro.program.program import Program
from repro.shadow.analyzer import ShadowAnalyzer
from repro.vulntypes import VulnType


class Harness(Program):
    """Runs an arbitrary body with a permissive call graph."""

    name = "harness"

    def __init__(self, body):
        super().__init__()
        self._body = body

    def build_graph(self):
        graph = CallGraph()
        for fun in ("malloc", "calloc", "realloc", "memalign", "free"):
            graph.add_call_site("main", fun)
        return graph

    def main(self, p):
        return self._body(p)


def analyze(body, **analyzer_kwargs):
    analyzer = ShadowAnalyzer(LibcAllocator(), **analyzer_kwargs)
    program = Harness(body)
    process = Process(program.graph, monitor=analyzer)
    result = process.run(program)
    return analyzer, result


def kinds(analyzer):
    return analyzer.report.kinds_seen()


class TestOverflowDetection:
    def test_write_into_trailing_red_zone(self):
        def body(p):
            buf = p.malloc(40)
            p.write(buf, b"x" * 41)
        analyzer, _ = analyze(body)
        assert kinds(analyzer) == VulnType.OVERFLOW
        warning = analyzer.report.warnings[0]
        assert warning.access == "write"
        assert warning.buffer is not None

    def test_read_past_end(self):
        def body(p):
            buf = p.malloc(40)
            p.fill(buf, 40, 1)
            p.read(buf, 48)
        analyzer, _ = analyze(body)
        assert kinds(analyzer) == VulnType.OVERFLOW

    def test_underflow_before_buffer(self):
        def body(p):
            buf = p.malloc(40)
            p.write(buf - 8, b"under")
        analyzer, _ = analyze(body)
        assert kinds(analyzer) == VulnType.OVERFLOW

    def test_in_bounds_access_is_clean(self):
        def body(p):
            buf = p.malloc(40)
            p.fill(buf, 40, 7)
            p.read(buf, 40)
            p.free(buf)
        analyzer, _ = analyze(body)
        assert len(analyzer.report) == 0

    def test_execution_resumes_after_warning(self):
        def body(p):
            buf = p.malloc(8)
            p.write(buf, b"y" * 16)
            return "finished"
        analyzer, result = analyze(body)
        assert result == "finished"
        assert kinds(analyzer) == VulnType.OVERFLOW


class TestUseAfterFree:
    def test_read_after_free(self):
        def body(p):
            buf = p.malloc(64)
            p.fill(buf, 64, 3)
            p.free(buf)
            p.read(buf, 8)
        analyzer, _ = analyze(body)
        assert kinds(analyzer) == VulnType.USE_AFTER_FREE

    def test_write_after_free(self):
        def body(p):
            buf = p.malloc(64)
            p.free(buf)
            p.write(buf, b"stale")
        analyzer, _ = analyze(body)
        assert kinds(analyzer) == VulnType.USE_AFTER_FREE

    def test_double_free_warns(self):
        def body(p):
            buf = p.malloc(64)
            p.free(buf)
            p.free(buf)
        analyzer, _ = analyze(body)
        assert kinds(analyzer) & VulnType.USE_AFTER_FREE

    def test_quarantine_defers_reuse(self):
        addresses = []

        def body(p):
            first = p.malloc(64)
            p.free(first)
            second = p.malloc(64)
            addresses.append((first, second))
        analyzer, _ = analyze(body)
        first, second = addresses[0]
        assert first != second  # no immediate reuse while quarantined

    def test_quota_eviction_enables_detection_window(self):
        """With a small quota, old frees are released and can be reused —
        the Section IX discussion."""
        def body(p):
            buffers = [p.malloc(1024) for _ in range(8)]
            for buf in buffers:
                p.free(buf)
        analyzer, _ = analyze(body, quarantine_quota=2048)
        assert analyzer.quarantine.evicted > 0
        assert analyzer.quarantine.held_bytes <= 2048

    def test_ccid_subspace_partitioning(self):
        """Section IX: only buffers whose CCID falls in the chosen
        subspace are deferred."""
        def body(p):
            buf = p.malloc(64)
            p.free(buf)
        analyzer0, _ = analyze(body, ccid_subspaces=(0, 1))
        assert len(analyzer0.quarantine) == 1
        # With a subspace that never matches ccid (ccid % 2 == 1 needed,
        # NullContextSource gives 0), the free is immediate.
        analyzer1, _ = analyze(body, ccid_subspaces=(1, 2))
        assert len(analyzer1.quarantine) == 0


class TestUninitializedRead:
    def test_copy_does_not_warn(self):
        """Copying uninitialized data is legal (Fig. 4 discipline)."""
        def body(p):
            buf = p.malloc(16)
            other = p.malloc(16)
            p.copy(other, buf, 16)
        analyzer, _ = analyze(body)
        assert len(analyzer.report) == 0

    def test_branch_on_uninit_warns(self):
        def body(p):
            buf = p.malloc(16)
            p.branch_on(p.read_int(buf))
        analyzer, _ = analyze(body)
        assert kinds(analyzer) == VulnType.UNINIT_READ

    def test_address_use_warns(self):
        def body(p):
            buf = p.malloc(16)
            p.use_as_address(p.read_int(buf))
        analyzer, _ = analyze(body)
        assert kinds(analyzer) == VulnType.UNINIT_READ

    def test_syscall_out_warns_and_attributes_origin(self):
        def body(p):
            buf = p.malloc(32)
            p.syscall_in(buf, b"half")  # initialize 4 of 32 bytes
            p.syscall_out(buf, 32)
        analyzer, _ = analyze(body)
        assert kinds(analyzer) == VulnType.UNINIT_READ
        warning = analyzer.report.warnings[0]
        assert warning.buffer is not None
        assert warning.buffer.size == 32

    def test_uninit_propagates_through_copy(self):
        """Origin tracking follows the data, not the access site."""
        def body(p):
            source = p.malloc(16)
            dest = p.malloc(16)
            p.copy(dest, source, 16)
            p.syscall_out(dest, 16)
        analyzer, _ = analyze(body)
        warning = analyzer.report.warnings[0]
        assert warning.kind == VulnType.UNINIT_READ
        assert warning.buffer.serial == 0  # the *source* buffer

    def test_calloc_is_fully_valid(self):
        def body(p):
            buf = p.calloc(4, 8)
            p.branch_on(p.read_int(buf))
            p.syscall_out(buf, 32)
        analyzer, _ = analyze(body)
        assert len(analyzer.report) == 0

    def test_fill_validates(self):
        def body(p):
            buf = p.malloc(16)
            p.fill(buf, 16, 0xAA)
            p.syscall_out(buf, 16)
        analyzer, _ = analyze(body)
        assert len(analyzer.report) == 0

    def test_padding_false_positive_avoided(self):
        """Figure 4: copying a struct with uninitialized padding must not
        warn; only a *use* of the padding bits would."""
        def body(p):
            struct = p.malloc(8)        # 5 meaningful bytes + 3 padding
            p.write(struct, b"\x00\x00\x00\x00f")
            copy = p.malloc(8)
            p.copy(copy, struct, 8)      # y = *p copies all 8 bytes
            value = p.read_int(copy, 4)  # use only the initialized field
            p.branch_on(value)
        analyzer, _ = analyze(body)
        assert len(analyzer.report) == 0

    def test_chained_warnings_suppressed(self):
        """Checked bytes become valid; duplicates are deduplicated."""
        def body(p):
            buf = p.malloc(16)
            p.syscall_out(buf, 16)
            p.syscall_out(buf, 16)  # second leak: already validated
            p.branch_on(p.read_int(buf))
        analyzer, _ = analyze(body)
        uninit = [w for w in analyzer.report.warnings
                  if w.kind == VulnType.UNINIT_READ]
        assert len(uninit) == 1


class TestReallocRules:
    def test_kept_prefix_retains_validity(self):
        def body(p):
            buf = p.malloc(16)
            p.fill(buf, 16, 1)
            grown = p.realloc(buf, 64)
            p.syscall_out(grown, 16)  # the kept prefix: valid
        analyzer, _ = analyze(body)
        assert len(analyzer.report) == 0

    def test_grown_region_is_invalid(self):
        def body(p):
            buf = p.malloc(16)
            p.fill(buf, 16, 1)
            grown = p.realloc(buf, 64)
            p.syscall_out(grown, 64)  # includes the invalid growth
        analyzer, _ = analyze(body)
        assert kinds(analyzer) == VulnType.UNINIT_READ

    def test_old_region_quarantined_after_realloc(self):
        def body(p):
            buf = p.malloc(16)
            p.realloc(buf, 64)
            p.read(buf, 8)  # stale pointer into the old region
        analyzer, _ = analyze(body)
        assert kinds(analyzer) & VulnType.USE_AFTER_FREE

    def test_realloc_retags_ccid_record(self):
        def body(p):
            buf = p.malloc(16)
            grown = p.realloc(buf, 64)
            p.write(grown, b"z" * 65)  # overflow the realloc'd buffer
        analyzer, _ = analyze(body)
        grouped = analyzer.report.group_by_origin()
        assert any(fun == "realloc" for (fun, _), _ in grouped.items())


class TestMemalign:
    @pytest.mark.parametrize("alignment", [8, 32, 256])
    def test_aligned_buffer_red_zones(self, alignment):
        def body(p):
            buf = p.memalign(alignment, 64)
            assert buf % alignment == 0
            p.write(buf, b"x" * 65)
        analyzer, _ = analyze(body)
        assert kinds(analyzer) == VulnType.OVERFLOW


class TestMixedAttack:
    def test_heartbleed_style_mix_detected_in_one_run(self):
        """Overread + uninit read in a single resumed execution."""
        def body(p):
            buf = p.malloc(64)
            p.syscall_in(buf, b"req")
            out = p.malloc(128)
            p.copy(out, buf, 128)   # overread past buf
            p.syscall_out(out, 128)  # leak uninit bytes
        analyzer, _ = analyze(body)
        assert kinds(analyzer) & VulnType.OVERFLOW
        assert kinds(analyzer) & VulnType.UNINIT_READ
        grouped = analyzer.report.group_by_origin()
        merged = [t for t in grouped.values()
                  if (t & VulnType.OVERFLOW) and (t & VulnType.UNINIT_READ)]
        assert merged, "the same buffer must carry both bits"


class TestWildAccess:
    def test_wild_access_warns_without_buffer(self):
        def body(p):
            p.write(0x1234_5678_0000, b"wild")
        analyzer, _ = analyze(body)
        warning = analyzer.report.warnings[0]
        assert warning.buffer is None
        assert not analyzer.report.detected  # unattributable
