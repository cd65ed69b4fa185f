"""Build-path timings of the -O3 tier, per driver.

For the e1000e and vblk ``-O3`` builds (64 regions, interval index;
vblk on 4 CPUs with one queue pair each) this times, as the median of
``--builds`` fresh builds:

- ``absint_compile_ms``: the compiler's ``ModuleVerifier.run()``;
- ``absint_insmod_ms``: the ``ModuleVerifier.run()`` insmod makes to
  validate the certificate;
- ``verify_module_ms``: one ``verify_module`` call on the final IR.

The two verifier runs are told apart the way the e2e spans do it: the
one made inside ``ModuleLoader.insmod`` is insmod's.  The script uses
only entry points that exist on both sides of the certificate-check
change, so it can time either tree::

    PYTHONPATH=src python benchmarks/build_path.py --label change

``--write`` stores the result under ``build_path.<label>`` in
``benchmarks/results/BENCH_static_verify.json``.  Host timings are
recorded, never asserted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

from repro.core.system import CaratKopSystem, SystemConfig
from repro.ir import verify_module
from repro.kernel.module_loader import ModuleLoader
from repro.passes.absint import ModuleVerifier

RESULTS = Path(__file__).parent / "results" / "BENCH_static_verify.json"

CONFIGS = {
    "e1000e": dict(driver="e1000e"),
    "vblk": dict(driver="vblk", cpus=4, queues="auto"),
}


def _timed_build(driver: str) -> dict[str, float]:
    """Build one system; return the verifier times of this build."""
    times = {"compile": 0.0, "insmod": 0.0}
    in_insmod = [False]
    run, insmod = ModuleVerifier.run, ModuleLoader.insmod

    def timed_run(self):
        t0 = perf_counter()
        try:
            return run(self)
        finally:
            times["insmod" if in_insmod[0] else "compile"] += \
                perf_counter() - t0

    def flagged_insmod(self, compiled):
        in_insmod[0] = True
        try:
            return insmod(self, compiled)
        finally:
            in_insmod[0] = False

    ModuleVerifier.run, ModuleLoader.insmod = timed_run, flagged_insmod
    try:
        system = CaratKopSystem(SystemConfig(
            machine="r415", opt_level=3, policy_index="interval",
            regions=64, **CONFIGS[driver],
        ))
    finally:
        ModuleVerifier.run, ModuleLoader.insmod = run, insmod
    ir = system.driver_compiled.ir
    t0 = perf_counter()
    verify_module(ir)
    return {
        "absint_compile_ms": times["compile"] * 1e3,
        "absint_insmod_ms": times["insmod"] * 1e3,
        "verify_module_ms": (perf_counter() - t0) * 1e3,
    }


def measure(builds: int) -> dict:
    out: dict = {
        "host": f"{os.cpu_count()}-vCPU {platform.machine()}, "
                f"CPython {platform.python_version()}",
        "builds": builds,
    }
    for driver in CONFIGS:
        rows = [_timed_build(driver) for _ in range(builds)]
        out[driver] = {
            key: round(statistics.median(r[key] for r in rows), 3)
            for key in rows[0]
        }
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--builds", type=int, default=7)
    p.add_argument("--label", default="change")
    p.add_argument("--write", action="store_true",
                   help="store under build_path.<label> in "
                        "BENCH_static_verify.json")
    args = p.parse_args()
    result = measure(args.builds)
    print(json.dumps({args.label: result}, indent=2))
    if args.write:
        report = json.loads(RESULTS.read_text())
        report.setdefault("build_path", {})[args.label] = result
        RESULTS.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
