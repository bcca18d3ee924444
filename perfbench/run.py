"""Benchmark command: one workload, untraced or traced, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nginx_guarded --seed 1 \\
        --seconds 10 --trace 0

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics and writes a Chrome trace-event
file under ``perfbench/out/``.  The program is imported from ``src/``
of the checkout this file sits in; without it the command exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("nginx_guarded", "mysql_pool", "spec_fig8", "respond")


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from hpbench import runner

    def say(line: str) -> None:
        print(line, flush=True)

    if args.trace:
        result = runner.traced(args.workload, args.seed, args.seconds,
                               os.path.join(HERE, "out"), say)
    else:
        result = runner.untraced(args.workload, args.seed, args.seconds,
                                 say)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
