"""Build-path timings, stage by stage, per driver.

For the e1000e and vblk ``-O3`` builds (64 regions, interval index;
vblk on 4 CPUs with one queue pair each) this times every stage of a
cold system build, as the median of ``--builds`` fresh builds:

- ``lex_ms``, ``parse_ms``, ``codegen_ms``: the mini-C front end
  (``tokenize``, ``Parser.parse_unit``, ``CodeGenerator.generate``);
- ``mem2reg_ms``: ``Mem2RegPass.run``;
- ``verify_entry_ms``: the whole-module ``verify_module`` where the IR
  enters the pass pipeline;
- ``verify_passes_ms``: every verifier call the pass manager makes
  after a pass (all of them together);
- ``print_sign_ms``, ``print_insmod_ms``: the canonical print the
  signer hashes, and the one insmod hashes;
- ``absint_compile_ms``, ``absint_insmod_ms``: the compiler's
  ``ModuleVerifier.run()``, and the certificate check insmod makes;
- ``verify_insmod_ms``: insmod's whole-module ``verify_module``;
- ``translate_ms``: the compiled engine's per-function translation
  during set-up, ``compile()`` of the generated source included; the
  process-global code cache is emptied before each build, so every
  build translates cold, as a fresh CLI process does;
- ``compile_module_ms`` and ``build_ms``: all of ``compile_module``,
  and the whole system build.

A call made inside ``ModuleLoader.insmod`` is insmod's, the way the e2e
spans tell the two verifier runs apart.  Entry points are wrapped by
name, and a name one tree lacks is skipped, so the script can time the
trees on both sides of a change::

    PYTHONPATH=src python benchmarks/build_path.py --label change

``--write`` stores the result under ``build_path.<label>`` in
``benchmarks/results/BENCH_static_verify.json``.  Host timings are
recorded, never asserted.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

from repro.core.system import CaratKopSystem, SystemConfig
from repro.vm import compiled as compiled_engine

RESULTS = Path(__file__).parent / "results" / "BENCH_static_verify.json"

CONFIGS = {
    "e1000e": dict(driver="e1000e"),
    "vblk": dict(driver="vblk", cpus=4, queues="auto"),
}

#: ``(module, owner or None, attribute, stage)``; a stage whose name
#: starts with ``@`` is split into ``<stage>_compile``/``<stage>_insmod``.
ENTRY_POINTS = (
    ("repro.minicc.parser", None, "tokenize", "lex"),
    ("repro.minicc.parser", "Parser", "parse_unit", "parse"),
    ("repro.minicc.codegen", "CodeGenerator", "generate", "codegen"),
    ("repro.passes.mem2reg", "Mem2RegPass", "run", "mem2reg"),
    ("repro.core.pipeline", None, "verify_module", "verify_entry"),
    ("repro.passes.manager", None, "verify_module", "verify_passes"),
    ("repro.passes.manager", None, "verify_functions", "verify_passes"),
    ("repro.signing.signer", None, "canonical_bytes", "print_sign"),
    ("repro.core.pipeline", None, "canonical_bytes", "print_sign"),
    ("repro.kernel.module_loader", None, "canonical_bytes", "print_insmod"),
    ("repro.passes.absint", "ModuleVerifier", "run", "@absint"),
    ("repro.kernel.module_loader", None, "verify_module", "verify_insmod"),
    ("repro.vm.compiled", "_Translator", "translate", "translate"),
    ("repro.core.system", None, "compile_module", "compile_module"),
    ("repro.kernel.module_loader", "ModuleLoader", "insmod", "insmod"),
)

STAGES = (
    "lex", "parse", "codegen", "mem2reg", "verify_entry", "verify_passes",
    "print_sign", "print_insmod", "absint_compile", "absint_insmod",
    "verify_insmod", "translate", "compile_module", "build",
)


def _install(times: dict[str, float], depth: dict[str, int]) -> list:
    """Wrap every entry point this tree has; return what to restore."""
    saved = []
    for modname, owner_name, attr, stage in ENTRY_POINTS:
        module = importlib.import_module(modname)
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner).get(attr)
        if original is None:
            continue

        def timed(*args, _orig=original, _stage=stage, **kwargs):
            name = _stage
            if name.startswith("@"):
                name = name[1:] + ("_insmod" if depth["insmod"] else "_compile")
            depth[name] = depth.get(name, 0) + 1
            t0 = perf_counter()
            try:
                return _orig(*args, **kwargs)
            finally:
                depth[name] -= 1
                if not depth[name]:  # count re-entrant calls once
                    times[name] = times.get(name, 0.0) + perf_counter() - t0

        setattr(owner, attr, timed)
        saved.append((owner, attr, original))
    return saved


def _timed_build(driver: str) -> dict[str, float]:
    """Build one system cold; return its stage times in ms."""
    times: dict[str, float] = {}
    depth = {"insmod": 0}
    compiled_engine.TRANSLATION_CACHE.codes.clear()
    saved = _install(times, depth)
    try:
        t0 = perf_counter()
        CaratKopSystem(SystemConfig(
            machine="r415", opt_level=3, policy_index="interval",
            regions=64, engine="compiled", **CONFIGS[driver],
        ))
        times["build"] = perf_counter() - t0
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return {f"{stage}_ms": times.get(stage, 0.0) * 1e3 for stage in STAGES}


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
