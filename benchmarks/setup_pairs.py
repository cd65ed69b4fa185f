"""Alternating parent/change pairs of end-to-end metrics.

Runs ``benchmarks/e2e/run.py`` from two checkouts, one after the other,
``--pairs`` times per seed (the order inside a pair alternates, so a
slow spell on a shared host hits both sides), and reports each side's
value of every ``--metric`` (the median of that invocation's repeats)
per pair, all read from the same invocations::

    python benchmarks/setup_pairs.py --parent ../parent --change . \\
        --workload blk-mq --pairs 10 --seeds 1 2 --write
    python benchmarks/setup_pairs.py --parent ../parent \\
        --workload net-verified --metric ops_per_s setup_s \\
        --results BENCH_engine.json --seconds 8 --write

Whether higher or lower is better comes from the metric's entry in
``BENCHMARK.json``.  ``--write`` stores the result in
``benchmarks/results/<--results>``: ``setup_s`` pairs under
``setup_pairs.<workload>``, ``ops_per_s`` pairs under
``e2e_pairs.<workload>`` and any other metric under
``e2e_pairs.<workload>:<metric>``.  Host timings are recorded, never
asserted.
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

ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = ROOT / "benchmarks" / "results"


def end_to_end_metrics() -> dict:
    """``BENCHMARK.json``'s end-to-end metrics by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def metric_values(tree: Path, workload: str, seed: int, seconds: float,
                  metrics: list[str]) -> dict:
    """One e2e invocation in ``tree``; its value of each of ``metrics``."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--seed", str(seed),
         "--workload", workload, "--seconds", repr(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {m: line["metrics"][m]["value"] for m in metrics}


def measure(parent: Path, change: Path, workload: str, pairs: int,
            seeds: list[int], seconds: float,
            metrics: tuple = ("setup_s",)) -> dict:
    """Each metric's result, from one set of alternating pairs."""
    rows = {m: [] for m in metrics}
    for seed in seeds:
        for i in range(pairs):
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            row = {m: {"seed": seed} for m in metrics}
            for side, tree in order:
                values = metric_values(tree, workload, seed, seconds,
                                       list(metrics))
                for m in metrics:
                    row[m][side] = round(values[m], 5)
            for m in metrics:
                rows[m].append(row[m])
            print(json.dumps(row), flush=True)
    return {m: summarize(rows[m], m, seconds) for m in metrics}


def summarize(rows: list, metric: str, seconds: float) -> dict:
    spec = end_to_end_metrics()[metric]
    higher = spec["better"] == "higher"
    parent_v = [r["parent"] for r in rows]
    change_v = [r["change"] for r in rows]
    q1, median, q3 = statistics.quantiles(parent_v, n=4)
    change_median = statistics.median(change_v)
    improved = sum((r["change"] > r["parent"]) if higher
                   else (r["change"] < r["parent"]) for r in rows)
    return {
        "host": f"{os.cpu_count()}-vCPU {platform.machine()}, "
                f"CPython {platform.python_version()}",
        "metric": metric,
        "unit": spec["unit"],
        "better": spec["better"],
        "seconds": seconds,
        "pairs": rows,
        "parent_median": round(median, 5),
        "parent_iqr": round(q3 - q1, 5),
        "change_median": round(change_median, 5),
        "change_vs_parent_pct": round(100 * (change_median / median - 1), 2),
        "pairs_improved": improved,
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, default=Path("."))
    p.add_argument("--workload", default="blk-mq")
    p.add_argument("--metric", nargs="+", default=["setup_s"],
                   choices=sorted(end_to_end_metrics()))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p.add_argument("--seconds", type=float, default=2.0)
    p.add_argument("--results", default="BENCH_static_verify.json",
                   help="file under benchmarks/results that --write updates")
    p.add_argument("--write", action="store_true",
                   help="store under setup_pairs.<workload> (setup_s), "
                        "e2e_pairs.<workload> (ops_per_s) or "
                        "e2e_pairs.<workload>:<metric> (any other)")
    args = p.parse_args()
    results = measure(args.parent.resolve(), args.change.resolve(),
                      args.workload, args.pairs, args.seeds, args.seconds,
                      tuple(args.metric))
    print(json.dumps({args.workload: results}, indent=2))
    if args.write:
        path = RESULTS_DIR / args.results
        report = json.loads(path.read_text())
        for metric, result in results.items():
            if metric == "setup_s":
                report.setdefault("setup_pairs", {})[args.workload] = result
            else:
                name = (args.workload if metric == "ops_per_s"
                        else f"{args.workload}:{metric}")
                report.setdefault("e2e_pairs", {})[name] = result
        path.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
