"""Alternating parent/change pairs of the e2e ``setup_s`` metric.

Runs ``benchmarks/e2e/run.py`` from two checkouts, one after the other,
``--pairs`` times per seed (the order inside a pair alternates, so a
slow spell on a shared host hits both sides), and reports each side's
``setup_s`` (the median of that invocation's repeats) per pair::

    python benchmarks/setup_pairs.py --parent ../parent --change . \\
        --workload blk-mq --pairs 10 --seeds 1 2 --write

``--write`` stores the result under ``setup_pairs.<workload>`` in
``benchmarks/results/BENCH_static_verify.json``.  Host timings are
recorded, never asserted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RESULTS = Path(__file__).parent / "results" / "BENCH_static_verify.json"


def setup_s(tree: Path, workload: str, seed: int, seconds: float) -> float:
    """One e2e invocation in ``tree``; its ``setup_s``."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--seed", str(seed),
         "--workload", workload, "--seconds", repr(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["metrics"]["setup_s"]["value"]


def measure(parent: Path, change: Path, workload: str, pairs: int,
            seeds: list[int], seconds: float) -> dict:
    rows = []
    for seed in seeds:
        for i in range(pairs):
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            row = {"seed": seed}
            for side, tree in order:
                row[side] = round(setup_s(tree, workload, seed, seconds), 5)
            rows.append(row)
            print(json.dumps(row), flush=True)
    parent_s = [r["parent"] for r in rows]
    change_s = [r["change"] for r in rows]
    q1, median, q3 = statistics.quantiles(parent_s, n=4)
    change_median = statistics.median(change_s)
    return {
        "host": f"{os.cpu_count()}-vCPU {platform.machine()}, "
                f"CPython {platform.python_version()}",
        "seconds": seconds,
        "pairs": rows,
        "parent_median_s": round(median, 5),
        "parent_iqr_s": round(q3 - q1, 5),
        "change_median_s": round(change_median, 5),
        "change_vs_parent_pct": round(100 * (change_median / median - 1), 2),
        "pairs_improved": sum(r["change"] < r["parent"] for r in rows),
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, default=Path("."))
    p.add_argument("--workload", default="blk-mq")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p.add_argument("--seconds", type=float, default=2.0)
    p.add_argument("--write", action="store_true",
                   help="store under setup_pairs.<workload> in "
                        "BENCH_static_verify.json")
    args = p.parse_args()
    result = measure(args.parent.resolve(), args.change.resolve(),
                     args.workload, args.pairs, args.seeds, args.seconds)
    print(json.dumps({args.workload: result}, indent=2))
    if args.write:
        report = json.loads(RESULTS.read_text())
        report.setdefault("setup_pairs", {})[args.workload] = result
        RESULTS.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
