"""Multi-queue vblk grid: shared queue vs per-CPU queue pairs.

The NVMe-style claim, measured: with one shared I/O queue, four CPUs
serialize on a single device FIFO (and burn retries on queue-full
stalls); with per-CPU queue pairs the media channels drain
independently, so a device-bound workload scales.  The grid runs
queues={1, auto} x cpus={1,2,4} x engine x -O{0,2,3} on the r415 model
and checks three claims:

1. **Throughput**: at 4 CPUs, multi-queue iops >= 2x the single shared
   queue in every (engine, opt) cell.
2. **Determinism**: the functional fingerprint — op counts, byte
   counts, driver data signature, and the sha256 of the final media
   image — is identical across *all* cells.  Timing (cycles, iops,
   stalls) is excluded: changing the queue map changes the clock, never
   the data.
3. **-O3 proof rate**: the verifier proves no fewer guards on the
   multi-queue configuration than on the single-queue one (the
   per-queue ring walks stay certifiable).

Writes ``benchmarks/results/BENCH_vblk_mq.json``.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.system import CaratKopSystem, SystemConfig

MACHINE = "r415"
COUNT = 240
NSECT = 8
PATTERN = "rand"
SEED = 7
READ_FRAC = 50
FLUSH_INTERVAL = 8
OPT_LEVELS = (0, 2, 3)
ENGINES = ("interp", "compiled")
CPU_COUNTS = (1, 2, 4)
QUEUE_MODES = (1, "auto")
SPEEDUP_FLOOR = 2.0


def _cell(queues, opt_level: int, engine: str, cpus: int) -> dict:
    system = CaratKopSystem(SystemConfig(
        machine=MACHINE, driver="vblk", protect=True,
        opt_level=opt_level, engine=engine, cpus=cpus, queues=queues,
    ))
    result = system.blkblast(
        count=COUNT, nsect=NSECT, pattern=PATTERN, seed=SEED,
        read_frac=READ_FRAC, flush_interval=FLUSH_INTERVAL,
    )
    assert result.errors == 0, (
        f"healthy-device blast errored at queues={queues}/-O{opt_level}"
        f"/{engine}/cpus={cpus}"
    )
    policy = system.policy.stats
    return {
        "queues_resolved": system.blkdev.queues,
        # -- functional fingerprint (must match across the whole grid) --
        "fingerprint": {
            "ops_done": result.ops_done,
            "reads": result.reads,
            "writes": result.writes,
            "flushes": result.flushes,
            "errors": result.errors,
            "bytes_read": result.bytes_read,
            "bytes_written": result.bytes_written,
            "data_sig": system.blkdev.stats()["data_sig"],
            "store_sha256": hashlib.sha256(
                bytes(system.device.store)).hexdigest(),
            "policy_denied": policy.denied,
            "violations": dict(system.policy.violations),
        },
        # -- timing (legitimately varies with the queue map) -----------
        "total_cycles": result.total_cycles,
        "throughput_iops": result.throughput_iops,
        "stalls": result.stalls,
        # -- -O3 proof shape -------------------------------------------
        "guards_proven": system.driver_compiled.guards_proven,
        "guards_dynamic": system.driver_compiled.guards_dynamic,
        "elided_guards": len(system.driver.elided_guards),
    }


def test_vblk_multiqueue_grid(results_dir):
    grid = {}
    for queues in QUEUE_MODES:
        for opt_level in OPT_LEVELS:
            for engine in ENGINES:
                for cpus in CPU_COUNTS:
                    key = f"q{queues}/O{opt_level}/{engine}/cpus{cpus}"
                    grid[key] = _cell(queues, opt_level, engine, cpus)

    # -- claim 2: one functional fingerprint for the whole grid --------
    reference = grid["q1/O0/interp/cpus1"]["fingerprint"]
    for key, cell in grid.items():
        assert cell["fingerprint"] == reference, (
            f"{key} diverged functionally: the completion-merge contract "
            f"must make the media image queue-count independent"
        )

    # -- claim 1: >= 2x at 4 CPUs in every (engine, opt) cell ----------
    speedups = {}
    for opt_level in OPT_LEVELS:
        for engine in ENGINES:
            sq = grid[f"q1/O{opt_level}/{engine}/cpus4"]
            mq = grid[f"qauto/O{opt_level}/{engine}/cpus4"]
            assert mq["queues_resolved"] == 4
            speedup = mq["throughput_iops"] / sq["throughput_iops"]
            speedups[f"O{opt_level}/{engine}"] = speedup
            assert speedup >= SPEEDUP_FLOOR, (
                f"-O{opt_level}/{engine}: multi-queue bought only "
                f"{speedup:.2f}x at 4 CPUs (floor {SPEEDUP_FLOOR}x)"
            )
            # The shared queue is also the stall machine: per-CPU pairs
            # must not stall more than the contended single FIFO.
            assert mq["stalls"] <= sq["stalls"]

    # -- claim 3: multi-queue costs no -O3 proofs ----------------------
    for engine in ENGINES:
        sq = grid[f"q1/O3/{engine}/cpus4"]
        mq = grid[f"qauto/O3/{engine}/cpus4"]
        assert mq["guards_proven"] >= sq["guards_proven"], (
            f"{engine}: the multi-queue build proved fewer guards "
            f"({mq['guards_proven']} < {sq['guards_proven']})"
        )
        assert mq["elided_guards"] > 0

    report = {
        "workload": {
            "machine": MACHINE,
            "driver": "vblk",
            "count": COUNT,
            "nsect": NSECT,
            "pattern": PATTERN,
            "seed": SEED,
            "read_frac": READ_FRAC,
            "flush_interval": FLUSH_INTERVAL,
        },
        "queue_modes": [str(q) for q in QUEUE_MODES],
        "opt_levels": list(OPT_LEVELS),
        "engines": list(ENGINES),
        "cpu_counts": list(CPU_COUNTS),
        "fingerprint_identical": True,
        "speedup_4cpu": speedups,
        "speedup_floor": SPEEDUP_FLOOR,
        "grid": grid,
    }
    (results_dir / "BENCH_vblk_mq.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
