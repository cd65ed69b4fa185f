"""Trace artifacts for figure runs: who pays the guard tax, per callsite.

``repro.bench`` answers "how much slower" at figure granularity; this
module answers "where the cycles went".  For a figure configuration it
boots the same system the harness would, enables the trace subsystem,
runs the workload, and writes:

- ``<fid>.trace.json`` — chrome://tracing / Perfetto timeline,
- ``<fid>.folded`` — folded stacks for flamegraph.pl,
- ``<fid>.stat.txt`` — the ``/proc/trace_stat`` dump (guard cycle-cost
  histogram included),
- ``<fid>.guards.json`` — per-guard-callsite attribution: hits, cycles,
  and each site's share of total guard cost.

Tracing is observability-only, so the simulated results of a traced run
are bit-identical to the untraced figure runs — the artifacts *explain*
the figures without perturbing them.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core.system import CaratKopSystem, SystemConfig

#: Figure id -> the workload cell its trace artifact reproduces.
FIGURE_TRACE_CONFIGS: dict[str, dict] = {
    "fig3": {"machine": "r415", "size": 128, "regions": 2},
    "fig4": {"machine": "r350", "size": 128, "regions": 2},
    "fig5": {"machine": "r350", "size": 128, "regions": 64},
    "fig6": {"machine": "r350", "size": 1500, "regions": 2},
    "fig7": {"machine": "r350", "size": 128, "regions": 2},
}


def emit_trace_artifact(
    out_dir: str | Path,
    fid: str = "fig3",
    count: int = 1000,
    engine: str = "compiled",
    protect: bool = True,
) -> dict:
    """Run one traced workload and write its artifact set.

    Returns a summary dict (paths written, event totals, top guard
    sites) that ``caratkop-bench --trace-dir`` folds into its report.
    """
    from ..trace import write_artifacts

    cell = FIGURE_TRACE_CONFIGS.get(fid)
    if cell is None:
        raise ValueError(
            f"unknown figure {fid!r}; know {sorted(FIGURE_TRACE_CONFIGS)}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    system = CaratKopSystem(
        SystemConfig(
            machine=cell["machine"],
            protect=protect,
            regions=cell["regions"],
            engine=engine,
        )
    )
    trace = system.kernel.trace
    trace.enable()
    result = system.blast(size=cell["size"], count=count)
    trace.disable()

    trace_path, folded_path, stat_path = write_artifacts(
        trace, chrome=out / f"{fid}.trace.json",
        folded=out / f"{fid}.folded", stat=out / f"{fid}.stat.txt",
        process_name=f"caratkop-{fid}",
    )
    guards_path = out / f"{fid}.guards.json"
    guards_path.write_text(json.dumps({
        "figure": fid,
        "engine": engine,
        "machine": cell["machine"],
        "size": cell["size"],
        "regions": cell["regions"],
        "packets": count,
        "guard_checks": trace.guard_hist.count,
        "guard_cycles": trace.guard_hist.total,
        "sites": trace.guard_sites.as_dict(),
        "top": trace.guard_sites.top(10),
    }, indent=2))

    return {
        "figure": fid,
        "packets_sent": result.packets_sent,
        "throughput_pps": result.throughput_pps,
        "events": trace.ring_stats()["total"],
        "events_lost": trace.ring_stats()["lost"],
        "guard_checks": trace.guard_hist.count,
        "guard_cycles": trace.guard_hist.total,
        "top_sites": [s["site"] for s in trace.guard_sites.top(3)],
        "paths": {
            "chrome": trace_path,
            "folded": folded_path,
            "stat": stat_path,
            "guards": str(guards_path),
        },
    }


__all__ = ["FIGURE_TRACE_CONFIGS", "emit_trace_artifact"]
