"""Policy write path: what a copy-on-write index update buys per ioctl.

The policy manager changes the region table at runtime over ioctl.  On
an interval-index table each ``CMD_ADD_REGION`` / ``CMD_DEL_REGION``
publishes a fresh RCU replica, and the replica carries the segment
index.  The index is updated copy-on-write from the current one, so a
write costs in proportion to the segments the region spans.  Before
that, every publish rebuilt the whole index (sort every endpoint,
re-bisect every region).

This benchmark times one add + remove ioctl pair on a live policy
module at 16 and 64 regions both ways, in the same process:

* **delta** — the shipped path;
* **rebuild** — the same ioctls with the index marked stale just
  before each one, so the publish takes the full build (exactly the
  per-mutation work of the rebuild-on-publish design).

Rounds alternate the two paths; each round times ``PAIRS`` pairs and
reports the mean pair; the report gives the median and quartiles over
rounds.  Both paths must leave a structurally identical index.  Writes
``benchmarks/results/BENCH_policy_write.json``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time

from repro import abi
from repro.kernel import Kernel
from repro.policy import (
    CaratPolicyModule,
    IntervalRegionTable,
    PolicyManager,
)
from repro.policy.interval import _IntervalLookup

SIZES = (16, 64)
ROUNDS = 15
PAIRS = 40
WARMUP_PAIRS = 10
BASE = 0x4000_0000
PAGE = 0x1000
#: The toggled region sits past the standing ones, like net-churn's
#: decoy windows.
TOGGLE_BASE = 0x3_0000_0000
# The host is shared, so the gate is far below the measured speedup.
MIN_SPEEDUP_64 = 2.0


def _live_policy(regions: int):
    """A policy module holding ``regions - 1`` standing regions, so the
    table holds ``regions`` while the toggled one is in."""
    kernel = Kernel()
    policy = CaratPolicyModule(
        kernel, index=IntervalRegionTable(), mode="audit"
    ).install()
    manager = PolicyManager(kernel)
    for i in range(regions - 1):
        manager.add_region(BASE + 2 * i * PAGE, PAGE,
                           abi.FLAG_READ | abi.FLAG_WRITE)
    return policy, manager


def _pairs_seconds(policy, manager, pairs: int, rebuild: bool) -> float:
    index = policy.index
    add, remove = manager.add_region, manager.remove_region
    rw = abi.FLAG_READ | abi.FLAG_WRITE
    t0 = time.perf_counter()
    for i in range(pairs):
        base = TOGGLE_BASE + (i % 8) * PAGE
        if rebuild:
            index._lookup_epoch = -1
        add(base, PAGE, rw)
        if rebuild:
            index._lookup_epoch = -1
        remove(base, PAGE)
    return time.perf_counter() - t0


def _fields(lookup):
    return (lookup._regions, lookup._linear, lookup._points,
            lookup._candidates)


def _quartiles(samples):
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_us": q2, "q1_us": q1, "q3_us": q3}


def test_policy_write_latency(results_dir):
    report = {
        "workload": {
            "ioctls": "CMD_ADD_REGION + CMD_DEL_REGION of one page",
            "index": "interval",
            "rounds": ROUNDS,
            "pairs_per_round": PAIRS,
            "unit": "host microseconds per add+remove pair",
        },
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "sizes": {},
    }
    gc.disable()
    try:
        for regions in SIZES:
            systems = {
                "delta": _live_policy(regions),
                "rebuild": _live_policy(regions),
            }
            for name, (policy, manager) in systems.items():
                _pairs_seconds(policy, manager, WARMUP_PAIRS,
                               name == "rebuild")
            samples = {"delta": [], "rebuild": []}
            publishes = {
                name: policy.replica_publishes
                for name, (policy, _) in systems.items()
            }
            for rnd in range(ROUNDS):
                order = ("delta", "rebuild") if rnd % 2 == 0 else (
                    "rebuild", "delta")
                for name in order:
                    policy, manager = systems[name]
                    elapsed = _pairs_seconds(
                        policy, manager, PAIRS, name == "rebuild")
                    samples[name].append(elapsed / PAIRS * 1e6)
            # Same regions, same index: the delta is a faster way to the
            # exact structure a full build produces.
            lookups = {
                name: policy.index._current_lookup()
                for name, (policy, _) in systems.items()
            }
            fresh = _IntervalLookup(tuple(systems["delta"][0].index.regions()))
            assert _fields(lookups["delta"]) == _fields(fresh)
            assert _fields(lookups["rebuild"]) == _fields(fresh)
            mutations = 2 * ROUNDS * PAIRS
            for name, (policy, _) in systems.items():
                assert (policy.replica_publishes - publishes[name]
                        == mutations), name
            row = {name: _quartiles(s) for name, s in samples.items()}
            row["speedup"] = (row["rebuild"]["median_us"]
                              / row["delta"]["median_us"])
            row["per_mutation_us"] = {
                name: row[name]["median_us"] / 2 for name in samples
            }
            row["structurally_identical"] = True
            report["sizes"][str(regions)] = row
    finally:
        gc.enable()

    (results_dir / "BENCH_policy_write.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    for regions in SIZES:
        assert report["sizes"][str(regions)]["speedup"] > 1.0, regions
    assert report["sizes"]["64"]["speedup"] >= MIN_SPEEDUP_64, report
