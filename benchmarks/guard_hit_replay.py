"""Host cost of one compiled guard on the paper's oracle build.

Builds the net-faithful system (e1000e ``-O0``, linear table, 64
regions, r415, compiled engine), sends 200 warm-up packets, records
every call of a compiled guard closure over the next 300 packets (all
of them allowed decision-cache hits), then replays the recorded calls
through the same closures :data:`ROUNDS` times.  Each round's time, less
the time of the same loop calling an empty function, divided by the
number of guards, is one ns-per-guard sample; the median and minimum
of the rounds are reported.

The recording wraps the translator's ``_guard_core`` by name, so the
script can time the trees on both sides of a change::

    PYTHONPATH=src python benchmarks/guard_hit_replay.py --label change

``--write`` stores the result under ``guard_hit_replay.<label>`` in
``benchmarks/results/BENCH_engine.json``.  Host timings are recorded,
never asserted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.core.system import CaratKopSystem, SystemConfig
from repro.vm import compiled

RESULTS = Path(__file__).resolve().parent / "results" / "BENCH_engine.json"
#: Replay rounds per run; every recorded row was measured with this.
ROUNDS = 31


def record() -> tuple[list, object]:
    """The recorded ``(closure, addr, size, flags)`` calls and the policy."""
    calls, recording = [], [False]
    translate = compiled._Translator._guard_core

    def recording_core(self, inst):
        core = translate(self, inst)

        def wrapped(a, s, f):
            if recording[0]:
                calls.append((core, a, s, f))
            return core(a, s, f)

        return wrapped

    compiled._Translator._guard_core = recording_core
    try:
        system = CaratKopSystem(SystemConfig(
            machine="r415", regions=64, opt_level=0, policy_index="linear",
            engine="compiled"))
        system.blast(size=128, count=200)
        recording[0] = True
        system.blast(size=128, count=300)
    finally:
        compiled._Translator._guard_core = translate
    return calls, system.policy


def replay(calls: list) -> list[float]:
    def empty(a, s, f):
        return None

    samples = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for core, a, s, f in calls:
            core(a, s, f)
        t1 = time.perf_counter()
        for _core, a, s, f in calls:
            empty(a, s, f)
        t2 = time.perf_counter()
        samples.append(((t1 - t0) - (t2 - t1)) / len(calls) * 1e9)
    return samples


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", default="change")
    p.add_argument("--write", action="store_true",
                   help="store under guard_hit_replay.<label>")
    args = p.parse_args()
    calls, policy = record()
    hits = policy.stats.guard_cache_hits
    samples = replay(calls)
    result = {
        "host": f"{os.cpu_count()}-vCPU {platform.machine()}, "
                f"CPython {platform.python_version()}",
        "guards": len(calls),
        "replay_hits": policy.stats.guard_cache_hits - hits,
        "rounds": ROUNDS,
        "ns_per_guard_median": round(statistics.median(samples), 1),
        "ns_per_guard_min": round(min(samples), 1),
    }
    print(json.dumps({args.label: result}, indent=2))
    if args.write:
        report = json.loads(RESULTS.read_text())
        report.setdefault("guard_hit_replay", {})[args.label] = result
        RESULTS.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
