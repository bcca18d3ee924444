"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation (see DESIGN.md §3 for the index), writes the reproduced table
to ``benchmarks/results/<experiment>.txt``, asserts the paper's *shape*
claims, and times its hot path with pytest-benchmark.

Scale: benchmarks honour ``REPRO_BENCH_SCALE`` (default 0.2) — the factor
applied on top of the profiles' 1:10,000 allocation-count scaling.  Use
``REPRO_BENCH_SCALE=1.0`` for the full-scale paper-vs-measured run that
EXPERIMENTS.md reports.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Workload scale multiplier for benchmark runs.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 note: str = "") -> str:
    """Fixed-width table rendering for the results files."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title), ""]
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    if note:
        lines += ["", note]
    lines.append("")
    return "\n".join(lines)


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist one experiment's reproduced table."""
    path = results_dir / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
