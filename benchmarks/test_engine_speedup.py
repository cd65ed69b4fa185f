"""Execution-engine speedup: the compiled engine vs the interpreter.

The compiled engine exists to make the paper's figures cheap to
regenerate: every Figure 3-7 data point is thousands of guarded e1000e
``sendmsg`` calls, and the reference interpreter re-dispatches every IR
instruction on every visit.  This benchmark measures both engines on the
exact Figure 3 hot configuration (R415, protected driver, 128-byte
frames) and asserts the translate-once engine is at least 3x faster with
byte-identical simulated results.

Writes ``benchmarks/results/BENCH_engine.json``.

Methodology: the engines alternate within each round and the best of
several rounds is kept, so drifting background load on the measurement
box biases both engines equally instead of whichever ran last.
"""

from __future__ import annotations

import gc
import json
import time

from repro.core.system import CaratKopSystem, SystemConfig

MACHINE = "r415"
FRAME_BYTES = 128
WARMUP_PACKETS = 64
PACKETS = 1000
ROUNDS = 5
REQUIRED_SPEEDUP = 3.0


def _blast_seconds(engine: str, count: int) -> tuple[float, dict]:
    system = CaratKopSystem(
        SystemConfig(machine=MACHINE, protect=True, engine=engine)
    )
    system.blast(size=FRAME_BYTES, count=WARMUP_PACKETS)
    t0 = time.perf_counter()
    result = system.blast(size=FRAME_BYTES, count=count)
    elapsed = time.perf_counter() - t0
    # Translation-cache counters track process-global cache warmth (the
    # interpreter never compiles; later compiled rounds hit what the
    # first round missed), not simulated behaviour — strip them.
    guard_stats = {
        k: v for k, v in system.guard_stats().items()
        if not k.startswith("translation_")
    }
    state = {
        "packets_sent": result.packets_sent + WARMUP_PACKETS,
        "errors": result.errors,
        "total_cycles": result.total_cycles,
        "instructions": system.kernel.vm.instructions_executed,
        "guard_checks": system.kernel.vm.guard_checks,
        "guard_stats": guard_stats,
    }
    return elapsed, state


def test_compiled_engine_speedup(results_dir):
    gc.disable()
    try:
        best = {"interp": float("inf"), "compiled": float("inf")}
        states = {}
        for _ in range(ROUNDS):
            for engine in ("interp", "compiled"):
                elapsed, state = _blast_seconds(engine, PACKETS)
                best[engine] = min(best[engine], elapsed)
                states[engine] = state
    finally:
        gc.enable()

    # The engines must have simulated the same machine: identical packet
    # counts, identical cycle totals, identical guard statistics.
    assert states["interp"] == states["compiled"]

    speedup = best["interp"] / best["compiled"]
    report = {
        "workload": {
            "figure": "fig3",
            "machine": MACHINE,
            "frame_bytes": FRAME_BYTES,
            "packets": PACKETS,
            "protect": True,
            "rounds": ROUNDS,
        },
        "interp": {
            "seconds": best["interp"],
            "packets_per_sec_wallclock": PACKETS / best["interp"],
        },
        "compiled": {
            "seconds": best["compiled"],
            "packets_per_sec_wallclock": PACKETS / best["compiled"],
        },
        "simulated_state_identical": True,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
    }
    path = results_dir / "BENCH_engine.json"
    if path.exists():
        # Keep the e2e and set-up pairs ``benchmarks/setup_pairs.py`` and
        # the guard replay ``benchmarks/guard_hit_replay.py`` record here.
        old = json.loads(path.read_text())
        for key in ("e2e_pairs", "setup_pairs", "guard_hit_replay"):
            if key in old:
                report[key] = old[key]
    path.write_text(json.dumps(report, indent=2) + "\n")
    assert speedup >= REQUIRED_SPEEDUP, (
        f"compiled engine only {speedup:.2f}x faster than interp "
        f"(need >= {REQUIRED_SPEEDUP}x); see BENCH_engine.json"
    )
