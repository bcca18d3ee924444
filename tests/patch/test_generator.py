"""Offline patch generation by attack replay."""


from repro.ccencoding import SCHEMES, InstrumentationPlan, Strategy
from repro.patch.generator import OfflinePatchGenerator
from repro.program.callgraph import CallGraph
from repro.program.program import Program
from repro.shadow.report import AnalysisReport, BufferRecord, ShadowWarning
from repro.vulntypes import VulnType
from repro.workloads.vulnerable import HeartbleedService


def generator_for(program, strategy=Strategy.INCREMENTAL):
    plan = InstrumentationPlan.build(program.graph,
                                     program.graph.allocation_targets,
                                     strategy)
    codec = SCHEMES["pcc"].build(plan)
    return OfflinePatchGenerator(program, codec)


class TestReplay:
    def test_heartbleed_attack_yields_mixed_patch(self):
        program = HeartbleedService()
        generator = generator_for(program)
        result = generator.replay(HeartbleedService.attack_input())
        assert result.detected
        assert result.crashed is None
        mixed = [p for p in result.patches
                 if p.vuln & VulnType.UNINIT_READ
                 and p.vuln & VulnType.OVERFLOW]
        assert mixed, "Heartbleed is a UR+overread mix (paper §VIII-A)"

    def test_benign_input_yields_no_patches(self):
        program = HeartbleedService()
        generator = generator_for(program)
        result = generator.replay(HeartbleedService.benign_input())
        assert not result.detected
        assert result.patches == []

    def test_patch_ccids_match_encoding(self):
        """The patch CCID must be reproducible by statically encoding the
        vulnerable allocation context under the same codec."""
        program = HeartbleedService()
        generator = generator_for(program)
        result = generator.replay(HeartbleedService.attack_input())
        implicated = result.report.buffers_implicated()
        static = {generator.codec.encode_context_ids(buf.context)
                  for buf in implicated}
        assert {p.ccid for p in result.patches} <= static

    def test_same_attack_same_patches_across_replays(self):
        program = HeartbleedService()
        generator = generator_for(program)
        first = generator.replay(HeartbleedService.attack_input())
        second = generator.replay(HeartbleedService.attack_input())
        assert first.patches == second.patches

    def test_crash_still_yields_patches(self):
        class Crasher(Program):
            name = "crasher"

            def build_graph(self):
                graph = CallGraph()
                graph.add_call_site("main", "malloc")
                return graph

            def main(self, p):
                buf = p.malloc(8)
                p.write(buf, b"x" * 16)      # warned, resumed
                p.monitor.memory.read(0, 8)  # hard fault outside guest API

        generator = generator_for(Crasher())
        result = generator.replay()
        assert result.crashed is not None
        assert result.detected


class TestReportPostprocessing:
    def test_patches_from_report_groups_and_sorts(self):
        report = AnalysisReport()
        buf_a = BufferRecord(0, "malloc", 0x2, 0x1000, 64)
        buf_b = BufferRecord(1, "calloc", 0x1, 0x2000, 64)
        report.add(ShadowWarning(VulnType.OVERFLOW, 0, "write", buf_a))
        report.add(ShadowWarning(VulnType.UNINIT_READ, 0, "use:syscall",
                                 buf_a))
        report.add(ShadowWarning(VulnType.USE_AFTER_FREE, 0, "read", buf_b))
        patches = OfflinePatchGenerator.patches_from_report(report)
        assert [p.fun for p in patches] == ["calloc", "malloc"]
        assert patches[1].vuln == VulnType.OVERFLOW | VulnType.UNINIT_READ
