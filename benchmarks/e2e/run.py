#!/usr/bin/env python3
"""End-to-end benchmark for both guarded stacks.

Run from the repository root:

    python3 benchmarks/e2e/run.py --seed 1                    # all workloads
    python3 benchmarks/e2e/run.py --seed 1 --workload blk-mq  # one workload
    python3 benchmarks/e2e/run.py --seed 1 --trace 1 --out results.json

Each repeat runs in a fresh child process, so the process-global
translation cache starts cold as it does for a CLI user, and only one
child runs at a time.  ``--seconds`` is the measured time per workload,
split evenly over the repeats' timed phases.  With ``--workload all``
the repeats are interleaved round-robin across workloads, so slow spells
on a shared host spread over all of them.  ``--trace 1`` adds one traced
repeat per workload for the per-layer numbers.

Every metric is printed as ``workload metric value unit``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace 1`` the per-layer ones.  ``--out`` writes everything,
every repeat included, for ``compare.py``.
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

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("net-faithful", "net-verified", "net-churn", "blk-mq")
REPEATS = 10
SECONDS = 24.0
#: Child time allowed on top of its timed phase (start-up, set-up,
#: warm-up, oracles).
CHILD_SLACK_S = 60.0

#: End-to-end metrics and their units.  Plain units are host time
#: (``time.perf_counter``); ``sim_`` units are simulated cycles of the
#: r415 machine model.
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_us": "us",
    "op_p90_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ops_per_s": "ops/sim_s",
}

#: Exact counts from the untraced repeats, and their units.
COUNTS = {
    "policy.checks_per_op": "1/op",
    "policy.cache_hit_ratio": "ratio",
    "policy.comparisons_per_structure_check": "1/check",
    "policy.replica_publishes_per_mutation": "1/mutation",
    "vm.instructions_per_op": "1/op",
    "vm.translation_cache_misses": "count",
    "syscall.stalls_per_op": "1/op",
    "absint.proven_ratio": "ratio",
    "kernel.verify_demotions": "count",
}


#: Every per-layer metric and its unit, in report order.
PER_LAYER = {
    **{f"{layer}_ms": "ms" for layer in spans.BUILD_LAYERS},
    **{f"{layer}_us": "us" for layer in spans.RUN_LAYERS},
    "policy.guard_calls_per_op": "1/op",
    **COUNTS,
    "syscall.p99_us": "us",
    "policy.mutation_p50_us": "us",
    "trace.overhead_pct": "%",
}


# -- one repeat in a child process ------------------------------------------

def spawn(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one repeat in a fresh interpreter; a crash or a timeout comes
    back as ``{"error": ...}``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--repeat-child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repeat timed out after {seconds + CHILD_SLACK_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"repeat exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


# -- summaries --------------------------------------------------------------

def describe(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def summarize(untraced: list[dict], traced: dict | None) -> dict:
    """One workload's report from its repeats.  A crashed repeat counts
    as many failed ops as the largest completed repeat attempted."""
    done = [r for r in untraced if "error" not in r]
    if not done:
        raise RuntimeError(untraced[0]["error"])
    runs = untraced + ([traced] if traced is not None else [])
    per_crash = max(r["attempted"] for r in done)
    errors = [r["error"] for r in runs if "error" in r]
    ok = [r for r in runs if "error" not in r]
    attempted = sum(r["attempted"] for r in ok) + per_crash * len(errors)
    failed = sum(r["failed"] for r in ok) + per_crash * len(errors)
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "oracle_failures": sorted({f for r in ok for f in r["oracle_failures"]}),
        "timed_ops": sum(r["timed_ops"] for r in done),
        "windows": sum(r["windows"] for r in done),
        "end_to_end": {
            name: {"unit": unit, **describe([r[name] for r in done])}
            for name, unit in END_TO_END.items()
        },
        "repeats": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
    }
    if traced is not None and "error" not in traced:
        report["per_layer"] = _per_layer(done, traced)
        report["span_tree"] = {"setup": traced["spans"]["setup_tree"],
                               "run": traced["spans"]["run_tree"]}
    return report


def _per_layer(done: list[dict], traced: dict) -> dict:
    med = statistics.median
    layers = traced["spans"]
    values = {
        **{f"{k}_ms": v for k, v in layers["build_ms"].items()},
        **{f"{k}_us": v for k, v in layers["run_us_per_op"].items()},
        "policy.guard_calls_per_op": layers["calls_per_op"]["policy.guard"],
        **{k: med(r["counts"][k] for r in done) for k in COUNTS},
        "syscall.p99_us": med(r["op_p99_us"] for r in done),
        "policy.mutation_p50_us": med(r["mutation_p50_us"] for r in done),
        "trace.overhead_pct": 100 * (
            med(r["ops_per_s"] for r in done) / traced["ops_per_s"] - 1),
    }
    return {name: {"unit": unit, "value": values[name]}
            for name, unit in PER_LAYER.items()}


def result_line(reports: dict[str, dict], traced: bool) -> dict:
    """The last stdout line.  With several workloads the metric names
    are prefixed ``<workload>.``."""
    metrics = {}
    for workload, rep in reports.items():
        prefix = f"{workload}." if len(reports) > 1 else ""
        if traced:
            chosen = {k: (m["value"], m["unit"]) for k, m in rep["per_layer"].items()}
        else:
            chosen = {k: (m["median"], m["unit"]) for k, m in rep["end_to_end"].items()}
        for name, (value, unit) in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }


def print_report(workload: str, rep: dict) -> None:
    e2e = rep["end_to_end"]
    print(f"# {workload}: median of {e2e['ops_per_s']['n']} repeats; "
          f"{rep['timed_ops']} timed ops in {rep['windows']} windows; "
          f"{rep['failed']}/{rep['attempted']} ops failed")
    for problem in rep["errors"] + rep["oracle_failures"]:
        print(f"# {workload}: FAILED: {problem}")
    for name, m in e2e.items():
        print(f"{workload} {name} {m['median']:.6g} {m['unit']}")
    for name, m in rep.get("per_layer", {}).items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


# -- entry point ------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seconds", type=float, default=SECONDS,
                   help="measured seconds per workload (per repeat with "
                        "--repeat-child)")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", type=Path, help="write the full report here")
    p.add_argument("--repeat-child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.repeat_child:
        if args.workload == "all":
            print("error: a repeat runs one workload", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        from workloads import run_repeat

        print(json.dumps(run_repeat(args.workload, args.seed,
                                    seconds=args.seconds,
                                    traced=bool(args.trace))))
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = bool(args.trace)
    timed = args.seconds / (REPEATS + traced)
    untraced: dict[str, list] = {name: [] for name in names}
    for _ in range(REPEATS):
        for name in names:
            untraced[name].append(spawn(name, args.seed, timed, False))
    traced_runs = {name: spawn(name, args.seed, timed, True) if traced else None
                   for name in names}
    try:
        reports = {name: summarize(untraced[name], traced_runs[name])
                   for name in names}
    except RuntimeError as e:
        print(f"error: every repeat failed: {e}", file=sys.stderr)
        return 1
    if traced and any("per_layer" not in r for r in reports.values()):
        print("error: a traced repeat failed", file=sys.stderr)
        return 1

    for name, rep in reports.items():
        print_report(name, rep)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "benchmark": "caratkop-e2e",
            "seed": args.seed,
            "seconds": args.seconds,
            "repeats": REPEATS,
            "trace": traced,
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "machine": platform.machine()},
            "workloads": reports,
        }, indent=1) + "\n")
    line = result_line(reports, traced)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
