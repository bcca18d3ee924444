"""Run one workload untraced (end-to-end metrics) or traced (per-layer).

Untraced run: set up repeatedly (``setup_s`` is the median), run the
off-the-clock reference passes, warm up, then run closed-loop rounds for
the requested seconds.

Traced run: the same inputs in three phases of a third of the seconds
each — untraced in-process (``workers=1``, ``jobs=1``), untraced with
``nproc`` workers (skipped for a workload without workers), then traced
in-process with spans on every layer.
The first phase is the base of the tracing overhead and of the worker
scaling; the last gives the per-layer breakdown and the trace file.
"""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Any, Callable, Dict, List, Tuple

from . import hostspeed, layers
from .stats import error_rate, finite, median, reconcile, tail
from .tracer import Tracer
from .workloads import WORKLOADS, Round, Workload

#: Set-ups per untraced run (``setup_s`` is their median): at least
#: ``SETUP_REPEATS``, more while they add up to under ``SETUP_SECONDS``
#: so a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 50
#: Warm-up before timing: at least this many rounds and seconds.
WARMUP_ROUNDS = 3
WARMUP_SECONDS = 1.0
#: Fewest timed rounds in any phase, however slow the host.
MIN_ROUNDS = 3

Printer = Callable[[str], None]


def host_cpus() -> int:
    """CPUs this process may run on (the worker and job count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_rounds(workload: Workload, seconds: float,
               before_round: Callable[[int], None] = lambda index: None
               ) -> List[Round]:
    """Closed-loop rounds until ``seconds`` of wall time have passed,
    each bracketed by host-speed probes."""
    rounds: List[Round] = []
    before = hostspeed.probe()
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        before_round(len(rounds))
        result = workload.round()
        after = hostspeed.probe()
        result.host_factor = hostspeed.factor(before, after)
        before = after
        rounds.append(result)
    return rounds


def timed_setups(workload: Workload) -> Tuple[List[float], List[float]]:
    """Repeated set-ups: (wall seconds, host-normalised seconds)."""
    raw: List[float] = []
    norm: List[float] = []
    before = hostspeed.probe()
    while len(raw) < SETUP_REPEATS or (
            sum(raw) < SETUP_SECONDS and len(raw) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        workload.setup()
        raw.append(time.perf_counter() - start)
        after = hostspeed.probe()
        norm.append(raw[-1] * hostspeed.factor(before, after))
        before = after
    return raw, norm


def warm_up(workload: Workload) -> None:
    """Untimed rounds (and probes) so lazy set-up and caches settle."""
    start = time.perf_counter()
    done = 0
    while (done < WARMUP_ROUNDS
           or time.perf_counter() - start < WARMUP_SECONDS):
        workload.round()
        hostspeed.probe()
        done += 1


def _rates(rounds: List[Round]) -> List[float]:
    return [r.work / r.norm_seconds for r in rounds]


def _failures(rounds: List[Round]) -> Tuple[int, int]:
    return (sum(r.attempted for r in rounds),
            sum(r.failed for r in rounds))


def untraced(name: str, seed: int, seconds: float,
             say: Printer) -> Dict[str, Any]:
    """End-to-end metrics of one workload; returns the result object."""
    workload = WORKLOADS[name](seed, host_cpus())
    try:
        raw_setups, setups = timed_setups(workload)
        overhead = workload.reference()
        warm_up(workload)
        rounds = run_rounds(workload, seconds)
    finally:
        workload.close()
    latencies = [r.norm_seconds * 1000 for r in rounds]
    lat_tail = tail(latencies)
    attempted, failed = _failures(rounds)
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput": (median(_rates(rounds)), "ops/s"),
        "latency_ms.p50": (median(latencies), "ms"),
        "latency_ms.tail": (lat_tail.value, "ms"),
        "sim_overhead_pct": (overhead, "%"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    raw_rate = median([r.work / r.seconds for r in rounds])
    say(f"workload {name} seed {seed}: {len(rounds)} rounds in "
        f"{sum(r.seconds for r in rounds):.2f}s, workers={workload.workers}"
        f", host speed factor {median([r.host_factor for r in rounds]):.3f}"
        f" (times below are host-normalised; wall figures in brackets)")
    say(f"  setup_s           {metrics['setup_s'][0]:.4f} s "
        f"[{median(raw_setups):.4f}] (median of {len(setups)})")
    say(f"  throughput        {metrics['throughput'][0]:.2f} "
        f"{workload.unit} [{raw_rate:.2f}] (median of {len(rounds)} "
        f"rounds)")
    label = "time_to_patch_ms" if name == "respond" else "latency_ms"
    say(f"  {label}.p50  {metrics['latency_ms.p50'][0]:.3f} ms per round "
        f"[{median([r.seconds * 1000 for r in rounds]):.3f}] "
        f"(n={len(latencies)})")
    say(f"  {label}.tail {lat_tail.value:.3f} ms = p{lat_tail.percentile:.1f}"
        f" (n={lat_tail.samples}, {lat_tail.beyond} beyond)")
    say(f"  sim_overhead_pct  {overhead:.4f} % (cycle model, exact)")
    say(f"  error_rate        {error_rate(attempted, failed):.6f} "
        f"({failed} failed of {attempted})")
    say(f"  peak_rss_mb       {metrics['peak_rss_mb'][0]:.1f} MiB")
    return _result(metrics, attempted, failed)


def traced(name: str, seed: int, seconds: float, out_dir: str,
           say: Printer) -> Dict[str, Any]:
    """Per-layer metrics of one workload; returns the result object."""
    cls = WORKLOADS[name]
    phase = seconds / 3

    base = cls(seed, 1)
    try:
        base.setup()
        base.reference()
        warm_up(base)
        base_rounds = run_rounds(base, phase)
    finally:
        base.close()

    wide_rounds: List[Round] = []
    plan_bytes = 0
    if cls.parallel:
        wide = cls(seed, host_cpus())
        try:
            wide.setup()
            wide.reference()
            warm_up(wide)
            wide_rounds = run_rounds(wide, phase)
            plan_bytes = wide.plan_bytes()
        finally:
            wide.close()

    tracer = Tracer()
    spans = layers.install(tracer)
    try:
        work = cls(seed, 1)
        try:
            work.setup()
            instrument_s = sum(seconds for _, seconds in
                               tracer.durations.get(spans.instrument, []))
            work.reference()
            tracer.reset_stats()

            def stamp(index: int) -> None:
                tracer.round = index

            traced_rounds = run_rounds(work, phase, stamp)
            ops = work.ops_per_round()
        finally:
            work.close()
    finally:
        tracer.uninstall()

    attempted, failed = _failures(base_rounds + wide_rounds + traced_rounds)
    n = len(traced_rounds)
    cycles: Dict[str, float] = {}
    for r in traced_rounds:
        for category, value in r.cycles.items():
            cycles[category] = cycles.get(category, 0) + value
    scaling = (median(_rates(wide_rounds)) / median(_rates(base_rounds))
               if wide_rounds else 0.0)
    serving = plan_bytes > 0
    busy = [sum(r.extra["replay_seconds"])
            / (r.extra["jobs"] * r.extra["diagnose_seconds"])
            for r in wide_rounds if "replay_seconds" in r.extra]
    overhead = (median([r.norm_seconds for r in traced_rounds])
                / median([r.norm_seconds for r in base_rounds]))
    extra = {
        "ccencoding.instrument_s": instrument_s,
        "serving.plan_bytes": float(plan_bytes),
        "serving.worker_scaling": scaling if serving else 0.0,
        "parallel.busy_ratio": median(busy) if busy else 0.0,
        "trace.overhead": overhead,
    }
    metrics = layers.layer_metrics(tracer, spans, n, ops, cycles, extra)
    replay = [s for r in traced_rounds
              for s in r.extra.get("replay_seconds", [])]
    detail = layers.detail_metrics(tracer, spans, n, replay)
    merges = [r.extra["merge_seconds"] for r in wide_rounds
              if "merge_seconds" in r.extra]
    detail["parallel.merge_ms"] = median(merges) * 1000 if merges else 0.0
    if busy:
        detail["parallel.jobs_scaling"] = scaling

    rows = reconcile(tracer.layer_self(), cycles)
    _print_layers(say, f"{name} seed {seed}", cls.op, n, metrics, detail,
                  rows, tracer)
    os.makedirs(out_dir, exist_ok=True)
    meta = {"workload": name, "seed": seed, "rounds": n}
    tracer.write_chrome_trace(
        os.path.join(out_dir, f"trace-{name}.json"), meta)
    with open(os.path.join(out_dir, f"layers-{name}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "traced_rounds": n,
                   "metrics": metrics, "detail": detail,
                   "reconcile": [{"layer": row.layer,
                                  "host_share": row.host_share,
                                  "cycle_share": row.cycle_share,
                                  "disagrees": row.disagrees}
                                 for row in rows]},
                  handle, indent=2, sort_keys=True)
    return _result({key: (value, PER_LAYER_UNITS[key])
                    for key, value in metrics.items()},
                   attempted, failed)


def _print_layers(say: Printer, run: str, op: str, rounds: int,
                  metrics: Dict[str, float], detail: Dict[str, float],
                  rows: List[Any], tracer: Tracer) -> None:
    say(f"workload {run}: traced {rounds} rounds in-process (per-round "
        f"figures, sim.* per {op}); tracing overhead "
        f"{metrics['trace.overhead']:.2f}x")
    for key in sorted(metrics):
        say(f"  {key:<30} {metrics[key]:.6g} {PER_LAYER_UNITS[key]}")
    for key in sorted(detail):
        say(f"  {key:<30} {detail[key]:.6g}")
    say("  layer        host self share   cycle share")
    for row in rows:
        cycle = ("      -" if row.cycle_share is None
                 else f"{row.cycle_share * 100:6.1f}%")
        flag = "  DISAGREE" if row.disagrees else ""
        say(f"  {row.layer:<12} {row.host_share * 100:6.1f}%"
            f"           {cycle}{flag}")
    say(f"  spans stored {len(tracer.spans)}, beyond the cap "
        f"{tracer.dropped}")


def _result(metrics: Dict[str, Tuple[float, str]], attempted: int,
            failed: int) -> Dict[str, Any]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": finite(float(value)), "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


#: Units of every per-layer metric on the result line.
PER_LAYER_UNITS: Dict[str, str] = {
    "program.calls": "count",
    "program.block_rows": "count",
    "ccencoding.site_updates": "count",
    "defense.allocs": "count",
    "defense.frees": "count",
    "allocator.allocs": "count",
    "allocator.frees": "count",
    "machine.mmap": "count",
    "machine.munmap": "count",
    "machine.mprotect": "count",
    "machine.accesses": "count",
    "machine.peak_resident_pages": "pages",
    "serving.batches": "count",
    "shadow.replays": "count",
    "program.self_s": "s",
    "ccencoding.self_s": "s",
    "defense.self_s": "s",
    "allocator.self_s": "s",
    "machine.self_s": "s",
    "ccencoding.instrument_s": "s",
    "serving.plan_bytes": "bytes",
    "serving.worker_scaling": "ratio",
    "parallel.busy_ratio": "ratio",
    "trace.overhead": "ratio",
    **{f"{layer}.host_share": "ratio" for layer in layers.LAYERS},
    **{f"sim.{category}": "cycles/op"
       for category in layers.SIM_CATEGORIES},
}
