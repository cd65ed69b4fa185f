"""SMP scale-out: cooperative identity curve + process-pool wall clock.

Two axes, two claims:

1. **Cooperative SMP** (``--cpus N``) is a determinism feature, not a
   speed feature: the sharded run must produce a byte-identical simulated
   digest at every CPU count.  We record the cpus = 1/2/4 curve to prove
   the invariant held on the exact Figure 3 hot configuration.

2. **Process pool** (``--workers N``) is the real scale-out: N OS
   processes each run a complete system and the merge divides the stream
   by the straggler.  Wall-clock speedup is a host property, so the
   >= 2.5x assertion at workers=4 only fires where the host actually has
   >= 4 cores; on smaller hosts the curve is still recorded honestly
   with the gate noted in the report.  The in-process curve (workers run
   one after another, wall time summed) is always recorded as the
   control: it must show no speedup.

Writes ``benchmarks/results/BENCH_smp.json``.
"""

from __future__ import annotations

import gc
import json
import os
import time

from repro.core.system import CaratKopSystem, SystemConfig
from repro.net import pool_blast

MACHINE = "r415"
FRAME_BYTES = 128
PACKETS = 1000
CPU_COUNTS = (1, 2, 4)
WORKER_COUNTS = (1, 2, 4)
POOL_ROUNDS = 5
REQUIRED_POOL_SPEEDUP = 2.5
#: Sequential workers overlap nothing; beyond this the in-process curve
#: would be reporting a speedup the host did not deliver.
MAX_IN_PROCESS_SPEEDUP = 1.25
# comparisons/structure_checks, like the hit/miss counters, track
# per-CPU decision-cache warmth rather than simulated state.
_CACHE_KEYS = ("guard_cache_hits", "guard_cache_misses",
               "comparisons", "structure_checks")


def _cooperative_digest(cpus: int) -> dict:
    system = CaratKopSystem(SystemConfig(
        machine=MACHINE, protect=True, cpus=cpus,
    ))
    result = system.blast(size=FRAME_BYTES, count=PACKETS)
    guard_stats = {
        k: v for k, v in system.guard_stats().items()
        if k not in _CACHE_KEYS and not k.startswith("translation_")
    }
    return {
        "packets_sent": result.packets_sent,
        "errors": result.errors,
        "stalls": result.stalls,
        "total_cycles": result.total_cycles,
        "throughput_pps": result.throughput_pps,
        "timing_cycles": system.kernel.vm.timing.cycles,
        "guard_stats": guard_stats,
    }


def _pool_curve(processes: bool) -> list[dict]:
    """One point per worker count: the median-time run of
    ``POOL_ROUNDS``, with the rounds interleaved across worker counts so
    a slow spell of the host hits every point alike."""
    runs: dict[int, list] = {w: [] for w in WORKER_COUNTS}
    for _ in range(POOL_ROUNDS):
        for workers in WORKER_COUNTS:
            merged = pool_blast(
                workers,
                size=FRAME_BYTES,
                count=PACKETS,
                config_kwargs={"machine": MACHINE, "protect": True},
                processes=processes,
            )
            assert merged.packets_sent == PACKETS
            assert merged.errors == 0
            runs[workers].append(merged)
    curve = []
    for workers, merged in runs.items():
        median = sorted(merged, key=lambda m: m.wall_elapsed_s)[
            len(merged) // 2]
        curve.append({
            "workers": workers,
            "wall_elapsed_s": median.wall_elapsed_s,
            "wall_pps": median.wall_pps,
            "total_cycles": median.total_cycles,
            "per_worker_packets": [
                w["packets_sent"] for w in median.per_worker
            ],
        })
    baseline_pps = curve[0]["wall_pps"]
    for point in curve:
        point["speedup_vs_one_worker"] = (
            point["wall_pps"] / baseline_pps if baseline_pps else 0.0
        )
    return curve


def test_smp_scaling(results_dir):
    host_cores = os.cpu_count() or 1

    # -- axis 1: cooperative identity curve ----------------------------
    digests = {cpus: _cooperative_digest(cpus) for cpus in CPU_COUNTS}
    reference = digests[CPU_COUNTS[0]]
    for cpus, digest in digests.items():
        assert digest == reference, (
            f"cooperative SMP diverged at cpus={cpus}; the sharded run "
            f"must be byte-identical to the single-CPU run"
        )

    # -- axis 2: process-pool wall-clock curves ------------------------
    gc.disable()
    try:
        curves = {"in_process": _pool_curve(processes=False)}
        if host_cores >= 2:
            curves["processes"] = _pool_curve(processes=True)
    finally:
        gc.enable()

    speedup_gate_active = host_cores >= 4
    report = {
        "workload": {
            "figure": "fig3",
            "machine": MACHINE,
            "frame_bytes": FRAME_BYTES,
            "packets": PACKETS,
            "protect": True,
        },
        "host_cores": host_cores,
        "cooperative": {
            "cpu_counts": list(CPU_COUNTS),
            "bit_identical": True,
            "digest": reference,
        },
        "pool": {
            "rounds": POOL_ROUNDS,
            "curves": curves,
            "max_in_process_speedup": MAX_IN_PROCESS_SPEEDUP,
            "required_speedup_at_4": REQUIRED_POOL_SPEEDUP,
            "speedup_gate_active": speedup_gate_active,
            "speedup_gate_note": (
                "asserted" if speedup_gate_active else
                f"not asserted: host has {host_cores} core(s); wall-clock "
                f"scale-out needs >= 4"
            ),
        },
    }
    (results_dir / "BENCH_smp.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    at4 = next(p for p in curves["in_process"] if p["workers"] == 4)
    assert at4["speedup_vs_one_worker"] <= MAX_IN_PROCESS_SPEEDUP, (
        f"in-process workers=4 reports {at4['speedup_vs_one_worker']:.2f}x; "
        "sequential workers cannot speed anything up"
    )
    if speedup_gate_active:
        at4 = next(p for p in curves["processes"] if p["workers"] == 4)
        assert at4["speedup_vs_one_worker"] >= REQUIRED_POOL_SPEEDUP, (
            f"workers=4 only {at4['speedup_vs_one_worker']:.2f}x over one "
            f"worker (need >= {REQUIRED_POOL_SPEEDUP}x); see BENCH_smp.json"
        )
