"""Smoke test for the end-to-end benchmark.

Every workload runs in-process at ~200 ops, passes its oracles and
reports exactly the metrics BENCHMARK.json declares; each oracle
catches a fault injected into an otherwise clean run.  Run it by path:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import workloads
from repro.kernel import layout

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
OPS = 200
WARMUP = 20


def test_workloads_and_sizes_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.CONFIGS) == list(run.WORKLOADS)
    from repro.bench import FIG6_SIZES

    assert workloads.FIG6_SIZES == tuple(FIG6_SIZES)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_reports_declared_metrics(name):
    plain = workloads.run_repeat(name, 1, ops=OPS, warmup=WARMUP)
    traced = workloads.run_repeat(name, 1, ops=OPS, warmup=WARMUP, traced=True)
    for r in (plain, traced):
        assert r["oracle_failures"] == [] and r["failed"] == 0
    # Outside-in spans must not perturb the simulation.
    assert traced["sim_ops_per_s"] == plain["sim_ops_per_s"]
    for key, value in plain["counts"].items():
        if key != "vm.translation_cache_misses":  # warm in a reused process
            assert traced["counts"][key] == value, key

    report = run.summarize([plain], traced)
    declared = {
        False: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
        True: {m["name"]: m["unit"] for m in BENCH["per_layer"]},
    }
    for trace, metrics in declared.items():
        line = run.result_line({name: report}, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= OPS
        assert {k: m["unit"] for k, m in line["metrics"].items()} == metrics
    assert all(m["median"] > 0 for m in report["end_to_end"].values())


def test_crashed_repeat_counts_its_ops_failed():
    good = workloads.run_repeat("net-verified", 1, ops=OPS, warmup=WARMUP)
    report = run.summarize([good, {"error": "repeat exited -9"}], None)
    assert not report["correct"]
    assert report["failed"] == good["attempted"]


# -- each oracle against an injected fault -------------------------------

def flip_read_byte(load):
    blkdev = load.system.blkdev
    submit_read = blkdev.submit_read

    def flipped(sector, nsect=1):
        rc, data = submit_read(sector, nsect)
        return rc, (bytes([data[0] ^ 1]) + data[1:]) if data else data

    blkdev.submit_read = flipped


def drop_sink_frame(load):
    sink = load.system.sink
    deliver = sink.deliver
    dropped = []

    def lossy(frame):
        if dropped:
            deliver(frame)
        else:
            dropped.append(frame)

    sink.deliver = lossy


def drop_policy_region(load):
    # The first of the standard policy's decoy windows.  (Leaving a
    # toggled window behind would instead fill the 64-region table.)
    load.system.policy_manager.remove_region(0x2_0000_0000, layout.PAGE_SIZE)


def corrupt_media(load):
    load.system.device.store[0] ^= 1


def demote_driver(load):
    load.system.kernel.demote_module(load.system.driver, "injected")


@pytest.mark.parametrize("name, inject, caught", [
    ("blk-mq", flip_read_byte, "returned other data than last written"),
    ("blk-mq", corrupt_media, "media image differs"),
    ("net-faithful", drop_sink_frame, "sink saw"),
    ("net-churn", drop_policy_region, "policy digest changed"),
    ("net-verified", demote_driver, "verify_state"),
])
def test_oracle_catches_injected_fault(name, inject, caught):
    load = workloads.make_load(name, 1)
    load.setup()
    load.run_ops(OPS // 2)
    assert load.failures() == []
    inject(load)
    load.run_ops(OPS // 2)
    assert any(caught in f for f in load.failures()), load.failures()


# -- runner and comparison ---------------------------------------------

def test_exits_nonzero_without_sources(tmp_path):
    bench_dir = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench_dir,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "blk-mq",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _metric(samples):
    return run.describe(samples)


@pytest.mark.parametrize("a, b, better, verdict", [
    ([100, 101, 102, 103, 104], [101, 102, 103, 104, 105], "higher", "ok"),
    ([100, 101, 102, 103, 104], [90, 91, 92, 93, 94], "higher", "worse"),
    ([100, 101, 102, 103, 104], [90, 91, 92, 93, 94], "lower", "ok"),
    ([100, 101, 102, 103, 104], [95, 99, 102, 105, 110], "higher", "ok"),
    ([100, 101, 102, 103, 104], [80, 95, 102, 110, 125], "higher", "unresolved"),
    ([100, 80, 120, 90, 110], [99, 85, 115, 95, 100], "higher", "unresolved"),
])
def test_compare_verdicts(a, b, better, verdict):
    assert compare.verdict(_metric(a), _metric(b), better, 0.05)[1] == verdict
