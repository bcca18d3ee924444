"""Multi-threaded guest execution: thread-local V over a shared heap."""

import pytest

from repro.allocator.libc import LibcAllocator
from repro.ccencoding import SCHEMES, EncodingRuntime, InstrumentationPlan, Strategy
from repro.defense.interpose import DefendedAllocator
from repro.defense.patch_table import PatchTable
from repro.patch.model import HeapPatch
from repro.program.callgraph import CallGraph
from repro.program.cost import CycleMeter
from repro.program.monitor import DirectMonitor
from repro.program.process import Process
from repro.program.program import Program
from repro.program.threads import (
    LockStepScheduler,
    ThreadLocalContextSource,
    ThreadedExecution,
)
from repro.vulntypes import VulnType


class Worker(Program):
    """Allocates through one of two contexts, writes, verifies, frees."""

    name = "worker"

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "producer")
        graph.add_call_site("main", "consumer")
        graph.add_call_site("producer", "malloc")
        graph.add_call_site("consumer", "malloc")
        graph.add_call_site("main", "free")
        return graph

    def main(self, p, role, rounds, tag):
        ccids = []
        for index in range(rounds):
            buf = p.call(role, lambda q: q.malloc(64))
            ccids.append(p.allocations[-1].ccid
                         if p.allocations else None)
            pattern = bytes([tag]) * 64
            p.write(buf, pattern)
            got = p.read(buf, 64)
            assert got.data == pattern, "cross-thread corruption!"
            p.free(buf)
        return ccids


def make_shared_system(patches=()):
    underlying = LibcAllocator()
    table = PatchTable(patches)
    meter = CycleMeter()
    tls = ThreadLocalContextSource()
    defended = DefendedAllocator(underlying, table, context_source=tls,
                                 meter=meter)
    return tls, defended, meter


def make_thread(program, defended, meter, codec):
    runtime = EncodingRuntime(codec)
    monitor = DirectMonitor(defended.memory, defended, meter)
    process = Process(program.graph, monitor=monitor,
                      context_source=runtime)
    return process, runtime


@pytest.fixture
def codec():
    program = Worker()
    plan = InstrumentationPlan.build(program.graph, ["malloc"],
                                     Strategy.TCS)
    return SCHEMES["pcc"].build(plan)


class TestScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            LockStepScheduler(min_slice=0)
        with pytest.raises(ValueError):
            LockStepScheduler(min_slice=5, max_slice=2)

    def test_single_thread_degenerates_to_sequential(self, codec):
        program = Worker()
        tls, defended, meter = make_shared_system()
        process, _ = make_thread(program, defended, meter, codec)
        execution = ThreadedExecution([(process, program,
                                        ("producer", 5, 0x41))],
                                      thread_local_source=tls)
        results = execution.run()
        assert results[0].ok
        assert len(results[0].result) == 5


class TestInterleaving:
    def test_threads_interleave_and_complete(self, codec):
        program = Worker()
        tls, defended, meter = make_shared_system()
        jobs = []
        for tag, role in ((0x41, "producer"), (0x42, "consumer"),
                          (0x43, "producer")):
            process, _ = make_thread(program, defended, meter, codec)
            jobs.append((process, program, (role, 8, tag)))
        execution = ThreadedExecution(jobs, seed="interleave",
                                      thread_local_source=tls)
        results = execution.run()
        assert all(result.ok for result in results), \
            [result.error for result in results]
        assert execution.scheduler.switches > 2, \
            "threads must actually interleave"

    def test_interleaving_is_deterministic(self, codec):
        def run(seed):
            program = Worker()
            tls, defended, meter = make_shared_system()
            jobs = []
            for tag in (1, 2):
                process, _ = make_thread(program, defended, meter, codec)
                jobs.append((process, program, ("producer", 6, tag)))
            execution = ThreadedExecution(jobs, seed=seed,
                                          thread_local_source=tls)
            execution.run()
            return (execution.scheduler.switches,
                    execution.scheduler.checkpoints)
        assert run("alpha") == run("alpha")

    def test_thread_local_v_uncontaminated(self, codec):
        """The crux: each thread's CCIDs must equal the single-threaded
        encoding of its own contexts, however the threads interleave."""
        program = Worker()

        # Single-threaded reference CCIDs per role.
        reference = {}
        for role in ("producer", "consumer"):
            tls, defended, meter = make_shared_system()
            process, _ = make_thread(program, defended, meter, codec)
            tls.bind(process.context_source)
            ccids = process.run(program, role, 1, 0x5A)
            reference[role] = ccids[0]
        assert reference["producer"] != reference["consumer"]

        tls, defended, meter = make_shared_system()
        jobs = []
        roles = ["producer", "consumer", "producer", "consumer"]
        for index, role in enumerate(roles):
            process, _ = make_thread(program, defended, meter, codec)
            jobs.append((process, program, (role, 6, index)))
        execution = ThreadedExecution(jobs, seed="pollution-check",
                                      min_slice=1, max_slice=3,
                                      thread_local_source=tls)
        results = execution.run()
        for role, result in zip(roles, results):
            assert result.ok, result.error
            assert all(ccid == reference[role] for ccid in result.result), \
                f"{role} thread saw foreign CCIDs: {result.result}"

    def test_patch_enforced_across_threads(self, codec):
        """A patch keyed on the producer context must zero producer
        buffers on every thread, and never consumer buffers."""
        program = Worker()
        probe_tls, defended_probe, meter_probe = make_shared_system()
        probe, _ = make_thread(program, defended_probe, meter_probe, codec)
        probe_tls.bind(probe.context_source)
        probe.run(program, "producer", 1, 0)
        producer_ccid = probe.allocations[-1].ccid

        patches = [HeapPatch("malloc", producer_ccid,
                             VulnType.USE_AFTER_FREE)]
        tls, defended, meter = make_shared_system(patches)
        jobs = []
        for role in ("producer", "consumer", "producer"):
            process, _ = make_thread(program, defended, meter, codec)
            jobs.append((process, program, (role, 4, 1)))
        results = ThreadedExecution(jobs, seed=7,
                                    thread_local_source=tls).run()
        assert all(result.ok for result in results)
        # 2 producer threads x 4 rounds of UAF-deferred frees.
        assert defended.enhanced_counts[VulnType.USE_AFTER_FREE] == 8
        assert len(defended.quarantine) == 8

    def test_shared_heap_integrity_under_interleaving(self, codec):
        """The Worker itself asserts its buffer contents every round; a
        corrupted interleaving would surface as a thread error."""
        program = Worker()
        tls, defended, meter = make_shared_system()
        jobs = []
        for tag in range(6):
            process, _ = make_thread(program, defended, meter, codec)
            jobs.append((process, program, ("producer", 10, tag)))
        results = ThreadedExecution(jobs, seed="integrity",
                                    thread_local_source=tls).run()
        assert all(result.ok for result in results)

    def test_guest_exception_does_not_wedge_others(self, codec):
        class Crasher(Program):
            name = "crasher"

            def build_graph(self):
                graph = CallGraph()
                graph.add_call_site("main", "malloc")
                return graph

            def main(self, p):
                p.malloc(8)
                raise RuntimeError("guest bug")

        worker = Worker()
        crasher = Crasher()
        tls, defended, meter = make_shared_system()
        worker_process, _ = make_thread(worker, defended, meter, codec)
        crash_plan = InstrumentationPlan.build(crasher.graph, ["malloc"],
                                               Strategy.TCS)
        crash_codec = SCHEMES["pcc"].build(crash_plan)
        crash_process, _ = make_thread(crasher, defended, meter,
                                       crash_codec)
        results = ThreadedExecution([
            (worker_process, worker, ("producer", 6, 9)),
            (crash_process, crasher, ()),
        ], seed=3, thread_local_source=tls).run()
        assert results[0].ok
        assert not results[1].ok
        assert isinstance(results[1].error, RuntimeError)
