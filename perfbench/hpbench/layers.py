"""Which public methods the traced run wraps, per layer, and the
per-layer metrics computed from the resulting trace.

Each layer is named after its module under ``src/repro/``.  The spans
sit on the public calls into the layer; see ``README.md`` for which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from .stats import median, tail
from .tracer import Tracer, block_rows, first_arg_len

#: Every layer the trace can attribute self time to.
LAYERS = ("serving", "program", "ccencoding", "defense", "allocator",
          "machine", "shadow", "parallel", "fleet", "core")

ALLOC_METHODS = ("malloc", "malloc_run", "calloc", "realloc")
FREE_METHODS = ("free", "free_run")
ACCESS_METHODS = ("read", "write", "read_word", "write_word", "read_words",
                  "write_words", "fill")
#: ``ShadowAnalyzer`` monitor hooks the replaying process calls.
SHADOW_HOOKS = ("heap_alloc", "heap_free", "compute", "read", "write",
                "copy", "fill", "use", "syscall_out", "syscall_in")
#: Cycle categories reported per op (``sim.<category>``).
SIM_CATEGORIES = ("encoding", "interpose", "lookup", "metadata", "defense",
                  "mmap", "mprotect")


def _resident(args: Tuple[Any, ...]) -> float:
    return args[0].peak_resident_pages


class Spans:
    """Span names installed by :func:`install`, grouped for metrics."""

    def __init__(self) -> None:
        self.serve = ""
        self.batch = ""
        self.calls: List[str] = []
        self.blocks: List[str] = []
        self.site_updates = ""
        self.instrument = ""
        self.defense_allocs: List[str] = []
        self.defense_frees: List[str] = []
        self.allocator_allocs: List[str] = []
        self.allocator_frees: List[str] = []
        self.mmap = ""
        self.munmap = ""
        self.mprotect = ""
        self.accesses: List[str] = []
        self.resident: List[str] = []
        self.replay = ""
        self.submit = ""
        self.accept = ""
        self.run_defended = ""


def install(tracer: Tracer) -> Spans:
    """Wrap every traced public method at class level.

    Must run before any engine, program or allocator is constructed:
    the hot paths bind their callees at construction.
    """
    import importlib

    # ``repro.core`` re-exports the function under the submodule's name.
    instrument_module = importlib.import_module("repro.core.instrument")
    from repro.allocator.libc import LibcAllocator
    from repro.allocator.segregated import SegregatedAllocator
    from repro.ccencoding.runtime import EncodingRuntime
    from repro.core.pipeline import HeapTherapy
    from repro.defense.interpose import DefendedAllocator
    from repro.fleet import PatchRegistry, Subscriber
    from repro.machine.memory import VirtualMemory
    from repro.parallel import DiagnosisPool
    from repro.patch.generator import OfflinePatchGenerator
    from repro.program.process import Process
    from repro.serving import ServingEngine, ServingSession
    from repro.shadow.analyzer import ShadowAnalyzer

    wrap = tracer.wrap_method
    s = Spans()
    s.serve = wrap(ServingEngine, "serve", "serving")
    wrap(ServingSession, "__init__", "serving")
    s.batch = wrap(ServingSession, "serve_rounds", "serving")

    s.calls = [wrap(Process, "call", "program")]
    wrap(Process, "run", "program")
    # Blocks run inside ``Process.call`` spans: count every one.
    s.blocks = [wrap(Process, "exec_block", "program", outer_only=False),
                wrap(Process, "exec_block_run", "program", items=block_rows,
                     outer_only=False)]

    s.site_updates = wrap(EncodingRuntime, "at_call_site", "ccencoding")
    wrap(EncodingRuntime, "enter_function", "ccencoding")
    wrap(EncodingRuntime, "exit_function", "ccencoding")
    s.instrument = tracer.wrap_function(instrument_module, "instrument",
                                        "ccencoding")

    def alloc_family(cls: type, layer: str) -> Tuple[List[str], List[str]]:
        allocs = [wrap(cls, method, layer,
                       items=first_arg_len if method.endswith("_run")
                       else None)
                  for method in ALLOC_METHODS]
        frees = [wrap(cls, method, layer,
                      items=first_arg_len if method.endswith("_run")
                      else None)
                 for method in FREE_METHODS]
        return allocs, frees

    s.defense_allocs, s.defense_frees = alloc_family(DefendedAllocator,
                                                     "defense")
    for cls in (SegregatedAllocator, LibcAllocator):
        allocs, frees = alloc_family(cls, "allocator")
        s.allocator_allocs += allocs
        s.allocator_frees += frees

    s.mmap = wrap(VirtualMemory, "mmap", "machine", gauge=_resident)
    s.munmap = wrap(VirtualMemory, "munmap", "machine")
    s.mprotect = wrap(VirtualMemory, "mprotect", "machine")
    s.resident = [s.mmap, wrap(VirtualMemory, "sbrk", "machine",
                               gauge=_resident)]
    for method in ACCESS_METHODS:
        writes = method.startswith("write") or method == "fill"
        name = wrap(VirtualMemory, method, "machine",
                    gauge=_resident if writes else None)
        s.accesses.append(name)
        if writes:
            s.resident.append(name)

    s.replay = wrap(OfflinePatchGenerator, "replay", "shadow")
    # The analyzer is the replay's execution monitor: its hooks run
    # under ``Process`` calls and would otherwise count as program time.
    for method in SHADOW_HOOKS:
        wrap(ShadowAnalyzer, method, "shadow")
    wrap(DiagnosisPool, "diagnose", "parallel")
    s.submit = wrap(PatchRegistry, "submit", "fleet")
    s.accept = wrap(Subscriber, "accept", "fleet")
    s.run_defended = wrap(HeapTherapy, "run_defended", "core")
    wrap(HeapTherapy, "run_native", "core")
    wrap(HeapTherapy, "__init__", "core")

    tracer.keep_durations = {s.batch, s.instrument, s.submit, s.accept,
                             s.run_defended}
    return s


def _ms(values: Sequence[float]) -> float:
    return median(values) * 1000 if values else 0.0


def per_round_sum_ms(durations: Sequence[Tuple[int, float]]) -> float:
    """Median over rounds of the summed span seconds, in ms."""
    by_round: Dict[int, float] = {}
    for rnd, seconds in durations:
        by_round[rnd] = by_round.get(rnd, 0.0) + seconds
    return _ms(list(by_round.values()))


def layer_metrics(tracer: Tracer, spans: Spans, rounds: int,
                  ops_per_round: int, cycles: Dict[str, float],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of a traced run of ``rounds`` rounds.

    Counts, self seconds and cycles are per round; ``sim.*`` cycles are
    per op.  ``extra`` carries figures measured outside the trace
    (plan bytes, worker scaling, pool busy ratio, tracing overhead,
    set-up instrumentation seconds).
    """
    per = 1.0 / rounds
    layer_self = tracer.layer_self()
    self_total = sum(layer_self.values())
    m: Dict[str, float] = {
        "program.calls": tracer.sum_calls(spans.calls) * per,
        "program.block_rows": tracer.sum_items(spans.blocks) * per,
        "ccencoding.site_updates":
            tracer.sum_calls([spans.site_updates]) * per,
        "defense.allocs": tracer.sum_items(spans.defense_allocs) * per,
        "defense.frees": tracer.sum_items(spans.defense_frees) * per,
        "allocator.allocs": tracer.sum_items(spans.allocator_allocs) * per,
        "allocator.frees": tracer.sum_items(spans.allocator_frees) * per,
        "machine.mmap": tracer.sum_calls([spans.mmap]) * per,
        "machine.munmap": tracer.sum_calls([spans.munmap]) * per,
        "machine.mprotect": tracer.sum_calls([spans.mprotect]) * per,
        "machine.accesses": tracer.sum_calls(spans.accesses) * per,
        "machine.peak_resident_pages": max(
            (tracer.gauges.get(name, 0.0) for name in spans.resident),
            default=0.0),
        "serving.batches": tracer.sum_calls([spans.batch]) * per,
        "shadow.replays": tracer.sum_calls([spans.replay]) * per,
    }
    for layer in ("program", "ccencoding", "defense", "allocator",
                  "machine"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0) * per
    for layer in LAYERS:
        m[f"{layer}.host_share"] = (layer_self.get(layer, 0.0) / self_total
                                    if self_total else 0.0)
    for category in SIM_CATEGORIES:
        m[f"sim.{category}"] = (cycles.get(category, 0.0) * per
                                / ops_per_round)
    m.update(extra)
    return m


def detail_metrics(tracer: Tracer, spans: Spans, rounds: int,
                   replay_seconds: Sequence[float]) -> Dict[str, float]:
    """Workload-specific layer times (0 where the layer did not run).

    These stay out of the result line, which lists only metrics every
    workload measures; the runner prints them and writes them to the
    layer summary file.
    """
    batch = [seconds for _, seconds in tracer.durations.get(spans.batch,
                                                             [])]
    m: Dict[str, float] = {
        "serving.dispatch_self_s":
            tracer.self_time.get(spans.serve, 0.0) / rounds,
        "serving.batch_ms.p50": _ms(batch),
        "fleet.submit_ms": _ms([seconds for _, seconds in
                                tracer.durations.get(spans.submit, [])]),
        "fleet.accept_ms": _ms([seconds for _, seconds in
                                tracer.durations.get(spans.accept, [])]),
        "core.verify_ms": per_round_sum_ms(
            tracer.durations.get(spans.run_defended, [])),
        "shadow.replay_ms.p50": _ms(list(replay_seconds)),
    }
    if batch:
        t = tail(batch)
        m["serving.batch_ms.tail"] = t.value * 1000
        m["serving.batch_ms.tail_pct"] = t.percentile
    if replay_seconds:
        t = tail(replay_seconds)
        m["shadow.replay_ms.tail"] = t.value * 1000
        m["shadow.replay_ms.tail_pct"] = t.percentile
    return m
