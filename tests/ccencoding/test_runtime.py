"""Encoding runtime: the V state machine driven by a process."""

import pytest

from repro.allocator.libc import LibcAllocator
from repro.ccencoding import SCHEMES, EncodingRuntime, InstrumentationPlan, Strategy
from repro.ccencoding.runtime import WalkedContextSource
from repro.program.cost import CycleMeter
from repro.program.callgraph import CallGraph
from repro.program.process import Process
from repro.program.program import Program


class DeepProgram(Program):
    """main -> {parse, render} -> helper -> malloc (two contexts)."""

    name = "deep"

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "parse")
        graph.add_call_site("main", "render")
        graph.add_call_site("parse", "helper")
        graph.add_call_site("render", "helper")
        graph.add_call_site("helper", "malloc")
        graph.add_call_site("main", "free")
        return graph

    def main(self, p):
        a = p.call("parse", self._mid)
        b = p.call("render", self._mid)
        p.free(a)
        p.free(b)

    def _mid(self, p):
        return p.call("helper", self._helper)

    def _helper(self, p):
        return p.malloc(32)


@pytest.fixture
def program():
    return DeepProgram()


def run_with(program, strategy, scheme="pcc"):
    plan = InstrumentationPlan.build(program.graph, ["malloc"], strategy)
    codec = SCHEMES[scheme].build(plan)
    meter = CycleMeter()
    runtime = EncodingRuntime(codec, meter)
    process = Process(program.graph, heap=LibcAllocator(),
                      context_source=runtime, meter=meter)
    process.run(program)
    return process, runtime, codec, meter


class TestRuntimeAgreesWithStaticEncoding:
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("scheme", ["pcc", "pcce", "deltapath"])
    def test_runtime_ccid_equals_static_encode(self, program, strategy,
                                               scheme):
        process, _, codec, _ = run_with(program, strategy, scheme)
        for event in process.allocations:
            assert event.ccid == codec.encode_context_ids(event.context)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_two_contexts_get_two_ccids(self, program, strategy):
        process, _, _, _ = run_with(program, strategy)
        ccids = {event.ccid for event in process.allocations}
        assert len(ccids) == 2

    def test_ccids_stable_across_runs(self, program):
        first, _, _, _ = run_with(program, Strategy.INCREMENTAL)
        second, _, _, _ = run_with(program, Strategy.INCREMENTAL)
        assert ([e.ccid for e in first.allocations]
                == [e.ccid for e in second.allocations])


class TestRuntimeCosts:
    def test_fewer_instrumented_sites_cost_less(self, program):
        _, _, _, fcs_meter = run_with(program, Strategy.FCS)
        _, _, _, slim_meter = run_with(program, Strategy.SLIM)
        assert (slim_meter.category("encoding")
                < fcs_meter.category("encoding"))

    def test_update_counters(self, program):
        _, runtime, _, _ = run_with(program, Strategy.FCS)
        # Six call-site crossings: 2 × (main->mid, mid->helper,
        # helper->malloc).  free() is intercepted by address, not via an
        # encoded call site, so it does not cross one.
        assert runtime.sites_crossed == 6
        assert runtime.updates_executed <= runtime.sites_crossed

    def test_uninstrumented_site_does_not_charge(self, program):
        plan = InstrumentationPlan.build(program.graph, ["malloc"],
                                         Strategy.INCREMENTAL)
        codec = SCHEMES["pcc"].build(plan)
        meter = CycleMeter()
        runtime = EncodingRuntime(codec, meter)
        process = Process(program.graph, heap=LibcAllocator(),
                          context_source=runtime, meter=meter)
        process.run(program)
        expected = (runtime.updates_executed * meter.model.encode_site)
        prologue_part = meter.category("encoding") - expected
        # Remaining charge is only instrumented-function prologues.
        assert prologue_part >= 0
        assert prologue_part % meter.model.encode_prologue == 0


class TestVRestoreSemantics:
    def test_sibling_subtree_does_not_pollute(self):
        """The history-independence property V-restore guarantees: the
        CCID observed in the second sibling is identical whether or not
        the first sibling executed (original PCC under pruning would
        leak the first subtree's V)."""

        class Siblings(Program):
            name = "siblings"

            def __init__(self, run_first):
                super().__init__()
                self.run_first = run_first
                self.observed = []

            def build_graph(self):
                graph = CallGraph()
                graph.add_call_site("main", "first")
                graph.add_call_site("first", "deep")
                graph.add_call_site("deep", "malloc")
                graph.add_call_site("main", "second")
                graph.add_call_site("second", "calloc")
                return graph

            def main(self, p):
                if self.run_first:
                    p.call("first",
                           lambda p2: p2.call("deep",
                                              lambda p3: p3.malloc(8)))
                p.call("second", lambda p2: p2.calloc(1, 8))

        ccids = []
        for run_first in (True, False):
            program = Siblings(run_first)
            plan = InstrumentationPlan.build(
                program.graph, ["malloc", "calloc"], Strategy.INCREMENTAL)
            codec = SCHEMES["pcc"].build(plan)
            runtime = EncodingRuntime(codec)
            process = Process(program.graph, heap=LibcAllocator(),
                              context_source=runtime)
            process.run(program)
            ccids.append(process.allocations[-1].ccid)
        assert ccids[0] == ccids[1]


class TestWalkedContextSource:
    def test_walker_distinguishes_contexts(self, program):
        meter = CycleMeter()
        walker = WalkedContextSource(meter)
        process = Process(program.graph, heap=LibcAllocator(),
                          context_source=walker, meter=meter)
        process.run(program)
        ccids = {event.ccid for event in process.allocations}
        assert len(ccids) == 2
        assert walker.walks_performed == 2

    def test_walker_is_much_more_expensive(self, program):
        _, _, _, encoded_meter = run_with(program, Strategy.FCS)
        meter = CycleMeter()
        walker = WalkedContextSource(meter)
        process = Process(program.graph, heap=LibcAllocator(),
                          context_source=walker, meter=meter)
        process.run(program)
        assert (meter.category("encoding")
                > encoded_meter.category("encoding") * 3)

    def test_walker_ccids_stable(self, program):
        results = []
        for _ in range(2):
            walker = WalkedContextSource()
            process = Process(program.graph, heap=LibcAllocator(),
                              context_source=walker)
            process.run(program)
            results.append([e.ccid for e in process.allocations])
        assert results[0] == results[1]


class TestWalkerReuse:
    class Chain(Program):
        """main -> helper -> malloc."""

        name = "chain"

        def build_graph(self):
            graph = CallGraph()
            graph.add_call_site("main", "helper")
            graph.add_call_site("helper", "malloc")
            graph.add_call_site("main", "free")
            return graph

        def main(self, p):
            p.free(p.call("helper", lambda p2: p2.malloc(16)))

    @staticmethod
    def _run(program, walker, meter):
        before = meter.category("encoding")
        process = Process(program.graph, heap=LibcAllocator(),
                          context_source=walker, meter=meter)
        process.run(program)
        return ([e.ccid for e in process.allocations],
                meter.category("encoding") - before)

    def test_reused_walker_matches_fresh_one(self):
        """The allocation's announced site must not survive the run and
        turn into a phantom frame under the next run's entry."""
        program = self.Chain()
        meter = CycleMeter()
        walker = WalkedContextSource(meter)
        first = self._run(program, walker, meter)
        second = self._run(program, walker, meter)
        fresh_meter = CycleMeter()
        fresh = self._run(program, WalkedContextSource(fresh_meter),
                          fresh_meter)
        assert first == fresh
        assert second == fresh
