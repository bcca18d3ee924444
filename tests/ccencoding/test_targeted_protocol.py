"""Targeted call protocol vs the hook protocol (the reference path).

``Process`` drives an :class:`EncodingRuntime` through the targeted
protocol: ``V`` rides on the frames, only instrumented sites fold, a
return runs nothing.  Wrapping the same runtime in
``CoverageTracker(inner=runtime)`` forces the per-call hook protocol
instead.  Both must be observationally identical: the allocation events
(CCIDs included), the allocation profile, the cycle meter (ordered
items), the runtime's counters and ``V`` after the run.
"""

import pytest

from repro.allocator.libc import LibcAllocator
from repro.ccencoding import SCHEMES, EncodingRuntime, InstrumentationPlan, Strategy
from repro.core.instrument import instrument
from repro.core.profiling import AllocationProfile
from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.machine.errors import SegmentationFault
from repro.patch.model import HeapPatch
from repro.program.callgraph import CallGraph
from repro.program.coverage import CoverageTracker
from repro.program.cost import CycleMeter
from repro.program.monitor import DirectMonitor
from repro.program.process import Process
from repro.program.program import Program
from repro.program.threads import ThreadLocalContextSource, ThreadedExecution
from repro.vulntypes import VulnType
from repro.workloads.spec import SPEC_PROFILES, SyntheticSpecProgram

SCHEME_NAMES = ("pcc", "pcce", "deltapath")


def observe(graph, program, codec, patches=None, hooked=False,
            args=()):
    """Run ``program`` once; return everything the two paths must agree
    on, plus the process (for profiling)."""
    meter = CycleMeter()
    runtime = EncodingRuntime(codec, meter)
    source = CoverageTracker(inner=runtime) if hooked else runtime
    underlying = LibcAllocator()
    heap = underlying
    if patches is not None:
        heap = DefendedAllocator(underlying, PatchTable(patches),
                                 context_source=runtime, meter=meter)
    process = Process(graph,
                      monitor=DirectMonitor(underlying.memory, heap, meter),
                      context_source=source, meter=meter,
                      record_allocations=True)
    blocked = False
    result = None
    try:
        result = process.run(program, *args)
    except SegmentationFault:
        blocked = True
    assert runtime.current_ccid() == codec.seed()
    assert process.depth == 0
    return {
        "result": result,
        "blocked": blocked,
        "events": process.allocations,
        "profile": dict(process.alloc_profile),
        "cycles": list(meter.snapshot().items()),
        "sites_crossed": runtime.sites_crossed,
        "updates_executed": runtime.updates_executed,
    }, process


def assert_paths_agree(graph, program, codec, patches=None, args=()):
    targeted, process = observe(graph, program, codec, patches, False,
                                args)
    hooked, _ = observe(graph, program, codec, patches, True, args)
    assert targeted == hooked
    return targeted, process


@pytest.mark.parametrize("profile", SPEC_PROFILES,
                         ids=[p.name for p in SPEC_PROFILES])
def test_spec_programs_agree(profile):
    """Every SPEC-like program under every scheme and strategy, native
    and defended with its five median-frequency overflow patches."""
    program = SyntheticSpecProgram(profile, scale=0.02)
    for scheme in SCHEME_NAMES:
        for strategy in Strategy:
            codec = instrument(program, strategy=strategy,
                               scheme=scheme).codec
            native, process = assert_paths_agree(program.graph, program,
                                                 codec)
            assert native["sites_crossed"] > 0
            profiling = AllocationProfile()
            profiling.ingest(process)
            patches = profiling.hypothesize_patches(VulnType.OVERFLOW,
                                                    "median", 5)
            assert patches
            defended, _ = assert_paths_agree(program.graph, program,
                                             codec, patches)
            assert not defended["blocked"]


class Overflow(Program):
    """main -> handler -> {parse -> malloc, emit}; parse overflows its
    buffer two calls below the entry."""

    name = "overflow"

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "handler")
        graph.add_call_site("handler", "parse")
        graph.add_call_site("handler", "emit")
        graph.add_call_site("parse", "malloc")
        graph.add_call_site("emit", "malloc")
        graph.add_call_site("main", "free")
        return graph

    def main(self, p, length):
        return p.call("handler", self._handler, length)

    def _handler(self, p, length):
        out = p.call("emit", lambda q: q.malloc(32))
        return p.call("parse", self._parse, length), out

    def _parse(self, p, length):
        buf = p.malloc(16)
        p.fill(buf, length, 0x41)
        return buf


def test_blocked_run_agrees():
    """A guard page faults mid-call: both paths unwind identically and
    leave V at the seed."""
    program = Overflow()
    codec = instrument(program, strategy=Strategy.TCS).codec
    _, process = observe(program.graph, program, codec, args=(16,))
    parse_ccid = process.allocations[-1].ccid
    patches = [HeapPatch("malloc", parse_ccid, VulnType.OVERFLOW)]
    outcome, _ = assert_paths_agree(program.graph, program, codec,
                                    patches, args=(8192,))
    assert outcome["blocked"]
    assert outcome["events"][0].ccid != parse_ccid


class Worker(Program):
    """Allocates through one of two contexts, then frees."""

    name = "worker"

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "producer")
        graph.add_call_site("main", "consumer")
        graph.add_call_site("producer", "malloc")
        graph.add_call_site("consumer", "malloc")
        graph.add_call_site("main", "free")
        return graph

    def main(self, p, role, rounds):
        for _ in range(rounds):
            p.free(p.call(role, lambda q: q.malloc(64)))


def threaded_outcome(codec, patch_ccid, hooked):
    program = Worker()
    underlying = LibcAllocator()
    meter = CycleMeter()
    tls = ThreadLocalContextSource()
    defended = DefendedAllocator(
        underlying,
        PatchTable([HeapPatch("malloc", patch_ccid, VulnType.OVERFLOW)]),
        context_source=tls, meter=meter)
    jobs, runtimes = [], []
    for role in ("producer", "consumer", "producer"):
        runtime = EncodingRuntime(codec, meter)
        source = CoverageTracker(inner=runtime) if hooked else runtime
        process = Process(program.graph,
                          monitor=DirectMonitor(underlying.memory, defended,
                                                meter),
                          context_source=source, meter=meter)
        jobs.append((process, program, (role, 6)))
        runtimes.append(runtime)
    results = ThreadedExecution(jobs, seed="differential",
                                thread_local_source=tls).run()
    assert all(result.ok for result in results)
    assert all(r.current_ccid() == codec.seed() for r in runtimes)
    return ([(p.allocations, dict(p.alloc_profile)) for p, _, _ in jobs],
            [(r.sites_crossed, r.updates_executed) for r in runtimes],
            list(meter.snapshot().items()))


def test_threaded_run_agrees():
    """Lock-step threads, each with its own runtime, over one defense
    that reads the calling thread's V."""
    program = Worker()
    plan = InstrumentationPlan.build(program.graph, ["malloc"],
                                     Strategy.TCS)
    codec = SCHEMES["pcc"].build(plan)
    producer = program.graph.site("producer", "malloc")
    patch_ccid = codec.encode_path(
        [program.graph.site("main", "producer"), producer])
    targeted = threaded_outcome(codec, patch_ccid, hooked=False)
    assert targeted == threaded_outcome(codec, patch_ccid, hooked=True)
    # The producers' buffers got guard pages: the patch matched V as
    # read through the calling thread.
    assert dict(targeted[2])["defense"] > 0


def test_unfrozen_graph_agrees():
    """Records are not cached on a mutable graph; both paths still
    agree, including after the graph grows between runs."""
    graph = CallGraph()
    graph.add_call_site("main", "a")
    graph.add_call_site("a", "b")
    graph.add_call_site("b", "malloc")
    graph.add_call_site("a", "calloc")
    assert not graph.frozen

    class Guest:
        def main(self, p):
            for _ in range(3):
                p.call("a", self._a)

        def _a(self, p):
            p.call("b", lambda q: q.malloc(8))
            p.calloc(2, 8)

    plan = InstrumentationPlan.build(graph, ["malloc", "calloc"],
                                     Strategy.FCS)
    codec = SCHEMES["pcc"].build(plan)
    outcome, _ = assert_paths_agree(graph, Guest(), codec)
    assert len(set(outcome["profile"])) == 2
    assert outcome["updates_executed"] > 0
