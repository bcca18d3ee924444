"""Call-graph coverage tooling."""

import pytest

from repro.allocator.libc import LibcAllocator
from repro.ccencoding import SCHEMES, EncodingRuntime, InstrumentationPlan, Strategy
from repro.program.callgraph import CallGraph
from repro.program.coverage import (
    CoverageReport,
    CoverageTracker,
    merge_coverage,
)
from repro.program.process import Process
from repro.program.program import Program
from repro.workloads.vulnerable import table2_programs


class Branchy(Program):
    name = "branchy"

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "left")
        graph.add_call_site("main", "right")
        graph.add_call_site("left", "malloc")
        graph.add_call_site("right", "malloc")
        return graph

    def main(self, p, go_right):
        if go_right:
            buf = p.call("right", lambda q: q.malloc(8))
        else:
            buf = p.call("left", lambda q: q.malloc(8))
        p.free(buf) if False else None
        return buf


def run_with_tracker(program, *args):
    tracker = CoverageTracker()
    process = Process(program.graph, heap=LibcAllocator(),
                      context_source=tracker)
    process.run(program, *args)
    return tracker


class TestTracker:
    def test_records_executed_sites(self):
        program = Branchy()
        tracker = run_with_tracker(program, False)
        report = CoverageReport(program.graph, tracker.executed)
        covered = {f"{s.caller}->{s.callee}" for s in report.covered_sites}
        assert covered == {"main->left", "left->malloc"}
        uncovered = {f"{s.caller}->{s.callee}"
                     for s in report.uncovered_sites}
        assert uncovered == {"main->right", "right->malloc"}
        assert report.coverage == 0.5

    def test_merge_across_inputs_reaches_full_coverage(self):
        program = Branchy()
        trackers = [run_with_tracker(program, flag)
                    for flag in (False, True)]
        report = merge_coverage(program.graph, trackers)
        assert report.coverage == 1.0
        assert report.uncovered_sites == []

    def test_crossing_counts_accumulate(self):
        program = Branchy()
        trackers = [run_with_tracker(program, False) for _ in range(3)]
        report = merge_coverage(program.graph, trackers)
        left = program.graph.site("main", "left")
        assert report.crossings(left) == 3

    def test_subset_restricts_to_plan(self):
        program = Branchy()
        plan = InstrumentationPlan.build(program.graph, ["malloc"],
                                         Strategy.SLIM)
        tracker = run_with_tracker(program, True)
        report = CoverageReport(program.graph, tracker.executed,
                                subset=plan.sites)
        # Slim instruments only main's two branching sites.
        assert len(report._universe()) == 2

    def test_stacked_with_encoding_runtime(self):
        program = Branchy()
        plan = InstrumentationPlan.build(program.graph, ["malloc"],
                                         Strategy.FCS)
        runtime = EncodingRuntime(SCHEMES["pcc"].build(plan))
        tracker = CoverageTracker(inner=runtime)
        process = Process(program.graph, heap=LibcAllocator(),
                          context_source=tracker)
        process.run(program, True)
        assert tracker.executed  # coverage captured...
        assert process.allocations[0].ccid != 0  # ...and CCIDs flowed

    def test_render_lists_gaps(self):
        program = Branchy()
        tracker = run_with_tracker(program, False)
        text = CoverageReport(program.graph, tracker.executed).render()
        assert "never executed: main->right" in text


class TestWorkloadGraphHygiene:
    @pytest.mark.parametrize("program", table2_programs(),
                             ids=lambda prog: prog.name)
    def test_cve_workloads_cover_their_graphs(self, program):
        """Attack + benign inputs together must exercise every declared
        call site except the allocation/free API edges (which are
        declared per entry point, and some programs legitimately skip
        e.g. the free path on the crash input)."""
        trackers = [run_with_tracker(program, program.attack_input()),
                    run_with_tracker(program, program.benign_input())]
        report = merge_coverage(program.graph, trackers)
        uncovered = [site for site in report.uncovered_sites
                     if not (site.callee in ("malloc", "calloc", "realloc",
                                             "memalign", "free"))]
        assert uncovered == [], (
            f"{program.name}: dead declared sites "
            f"{[(s.caller, s.callee) for s in uncovered]}")
