"""Static heap-layout analysis: adjacency precision and throughput.

Two experiments around :mod:`repro.analysis.layout`:

1. **Predicted vs observed adjacency** — the layout pass run over the
   Table II + SAMATE workloads (the numbers behind the EXPERIMENTS.md
   table) and cross-checked against ground-truth adjacency observed by
   the fuzz oracle on seed-generated programs: every dynamically
   observed overflow (source, victim) pair must be statically predicted
   with a sound minimal overflow length (lower bound), and the corpus
   false-positive rate is recorded.

2. **Throughput** — layout graphs analyzed per second over the builtin
   corpus, timed with pytest-benchmark.
"""

from __future__ import annotations

from repro.analysis import analyze_layout
from repro.fuzz.adjacency import cross_check_range
from repro.workloads.vulnerable import workload_registry

from conftest import BENCH_SCALE, format_table, write_result

#: Fuzz corpus size for the soundness/precision cross-check (the
#: acceptance floor is 50 at full scale).
CROSS_CHECK_SEEDS = max(int(60 * BENCH_SCALE), 12)


def layout_row(name, program):
    """Analyze one workload and summarize its adjacency graph."""
    result = analyze_layout(program)
    forward = sum(1 for p in result.pairs if p.direction == "forward")
    backward = len(result.pairs) - forward
    min_l = (min(p.min_overflow_len for p in result.pairs)
             if result.pairs else "-")
    return (name, len(result.sites), forward, backward, min_l,
            len(result.plans))


def test_layout_adjacency_across_workloads(results_dir, benchmark):
    registry = workload_registry()
    programs = {name: factory() for name, factory in
                sorted(registry.items())}
    rows = [layout_row(name, program)
            for name, program in programs.items()]

    benchmark.pedantic(analyze_layout,
                       args=(programs["heartbleed"],),
                       rounds=3, iterations=1)

    text = format_table(
        "Static heap-layout adjacency — Table II + SAMATE workloads",
        ["workload", "sites", "fwd pairs", "bwd pairs", "min l",
         "plans"],
        rows,
        note=("Adjacent pairs are (overflow-source site, victim site) "
              "edges whose chunks can neighbour on the libc heap while "
              "both are live; 'min l' is the smallest predicted "
              "overflow length that reaches a victim chunk.  Every "
              "workload with a planted overflow/underflow must show at "
              "least one pair; pure UAF/double-free/uninit cases show "
              "zero."))
    write_result(results_dir, "layout_adjacency_workloads", text)

    # Overflow-family workloads must produce adjacency; others may not.
    with_pairs = {row[0] for row in rows if row[2] + row[3] > 0}
    assert "heartbleed" in with_pairs
    assert "tiff" in with_pairs or "tiff-4.0.8" in with_pairs
    overflow_named = [name for name in programs
                      if "overflow" in name or "underflow" in name]
    for name in overflow_named:
        assert name in with_pairs, f"{name}: no adjacency predicted"


def test_layout_soundness_vs_fuzz_oracle(results_dir, benchmark):
    checks, fp_rate = benchmark.pedantic(
        cross_check_range, args=(0, CROSS_CHECK_SEEDS),
        rounds=1, iterations=1)

    observed = [check for check in checks if check.observed is not None]
    unsound = [check for check in checks if not check.sound]
    matched = sum(1 for check in checks if check.matched)

    rows = [(check.seed, check.kind,
             check.observed.direction if check.observed else "-",
             check.predicted_pairs,
             "yes" if check.matched else
             ("-" if check.observed is None else "NO"))
            for check in checks[:20]]
    text = format_table(
        "Static-vs-dynamic adjacency cross-check (first 20 seeds)",
        ["seed", "kind", "observed dir", "predicted pairs", "matched"],
        rows,
        note=(f"Corpus: {len(checks)} seed-generated programs, "
              f"{len(observed)} with an observable overflow adjacency; "
              f"all observed pairs statically predicted with sound "
              f"minimal lengths ({matched} matches). "
              f"False-positive rate (predicted edges the concrete heap "
              f"did not realize): {fp_rate:.3f}."))
    write_result(results_dir, "layout_soundness_cross_check", text)

    assert not unsound, [check.failures for check in unsound]
    assert observed, "corpus produced no observable adjacency"
    assert matched == len(observed)
    # Precision: co-liveness over-approximates, but the graph must not
    # degenerate to all-pairs (decoys disjoint from victims by size
    # keep some selectivity).
    assert fp_rate < 0.9
