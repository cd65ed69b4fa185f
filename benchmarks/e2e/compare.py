#!/usr/bin/env python3
"""Compare two end-to-end benchmark reports written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every workload and end-to-end metric in both reports it prints each
side's median and quartiles, B's change against A's median, the metric's
bound from BENCHMARK.json, and a verdict:

- ``ok``: B is not worse than A by more than the bound;
- ``worse``: B is worse than A by more than the bound;
- ``unresolved``: the spread of either side's median is wider than the
  bound, so noise could hide a regression of that size.  That spread is
  estimated from the side's n repeats as (q3 - q1) / median / sqrt(n).
  It cannot see slow drift of the host between the two runs, so judge a
  change on several pairs of runs.  When every B repeat reads better
  than every A repeat the verdict is ``ok``, and when every B repeat
  reads worse by more than the bound it is ``worse``.

Per-layer metrics, when both reports have them, follow with their
change only: they have no bounds.  The exit status is 0 when every
verdict is ``ok`` and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(m: dict) -> float:
    """Relative spread of a median of ``n`` repeats."""
    if not m["median"]:
        return 0.0
    return (m["q3"] - m["q1"]) / m["median"] / math.sqrt(m["n"])


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(B's change against A as a share of A's median, verdict)``; a
    positive change is an improvement."""
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    best_a = max(a["samples"]) if better == "higher" else min(a["samples"])
    worst_a = min(a["samples"]) if better == "higher" else max(a["samples"])
    if all(sign * (x - best_a) > 0 for x in b["samples"]):
        return change, "ok"
    if all(sign * (x - worst_a) < -bound * abs(a["median"])
           for x in b["samples"]):
        return change, "worse"
    if max(spread(a), spread(b)) > bound:
        return change, "unresolved"
    return change, "worse" if change < -bound else "ok"


def compare(a: dict, b: dict, bounds: dict) -> list[tuple]:
    """One row per (workload, end-to-end metric) present in both."""
    rows = []
    for workload, rep_a in a["workloads"].items():
        rep_b = b["workloads"].get(workload)
        if rep_b is None:
            continue
        for name, (better, bound) in bounds.items():
            ma, mb = rep_a["end_to_end"].get(name), rep_b["end_to_end"].get(name)
            if ma is None or mb is None:
                continue
            change, word = verdict(ma, mb, better, bound)
            rows.append((workload, name, ma, mb, change, bound, word))
    return rows


def _quartiles(m: dict) -> str:
    return f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path, help="baseline report")
    p.add_argument("b", type=Path, help="report to judge against it")
    args = p.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    bench = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}

    rows = compare(a, b, bounds)
    print(f"{'workload':13} {'metric':14} {'A median [q1, q3]':32} "
          f"{'B median [q1, q3]':32} {'change':>8} {'bound':>6}  verdict")
    for workload, name, ma, mb, change, bound, word in rows:
        print(f"{workload:13} {name:14} {_quartiles(ma):32} {_quartiles(mb):32} "
              f"{change:+8.2%} {bound:6.0%}  {word}")

    for workload, rep_a in a["workloads"].items():
        la = rep_a.get("per_layer")
        lb = b["workloads"].get(workload, {}).get("per_layer")
        if not la or not lb:
            continue
        print(f"\n# {workload} per-layer (A -> B, no bounds)")
        for name, m in la.items():
            if name in lb:
                va, vb = m["value"], lb[name]["value"]
                rel = f"{(vb - va) / va:+.1%}" if va else ""
                print(f"{name:42} {va:12.5g} -> {vb:<12.5g} {m['unit']:10} {rel}")

    bad = [r for r in rows if r[-1] != "ok"]
    print(f"\n{len(rows) - len(bad)}/{len(rows)} ok"
          + "".join(f"; {w} {n}: {v}" for w, n, *_, v in bad))
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
