"""SMP scale-out: the cooperative identity curve.

Cooperative SMP (``--cpus N``) is a determinism feature, not a speed
feature: the sharded run must produce a byte-identical simulated digest
at every CPU count.  We record the cpus = 1/2/4 curve to prove the
invariant held on the exact Figure 3 hot configuration.

Writes ``benchmarks/results/BENCH_smp.json``.
"""

from __future__ import annotations

import json

from repro.core.system import CaratKopSystem, SystemConfig

MACHINE = "r415"
FRAME_BYTES = 128
PACKETS = 1000
CPU_COUNTS = (1, 2, 4)
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


def test_smp_scaling(results_dir):
    digests = {cpus: _cooperative_digest(cpus) for cpus in CPU_COUNTS}
    reference = digests[CPU_COUNTS[0]]
    for cpus, digest in digests.items():
        assert digest == reference, (
            f"cooperative SMP diverged at cpus={cpus}; the sharded run "
            f"must be byte-identical to the single-CPU run"
        )

    report = {
        "workload": {
            "figure": "fig3",
            "machine": MACHINE,
            "frame_bytes": FRAME_BYTES,
            "packets": PACKETS,
            "protect": True,
        },
        "cooperative": {
            "cpu_counts": list(CPU_COUNTS),
            "bit_identical": True,
            "digest": reference,
        },
    }
    (results_dir / "BENCH_smp.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

