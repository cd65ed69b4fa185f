"""abl2 — guard optimization ablation (paper §3.3).

CARAT KOP ships *without* guard optimization ("every memory access
results in a guard, even if it would be redundant") for engineering
reasons.  This bench quantifies what the CARAT CAKE-style optimizer
(dominated-guard elimination + loop-invariant hoisting) would recover on
the e1000e driver — and confirms the paper's bet that it barely matters
at these overhead levels.
"""

import pytest

from repro.bench.harness import WorkloadConfig, build_system, calibrate
from repro.core.pipeline import CompileOptions, compile_module
from repro.e1000e import DRIVER_SOURCE

from conftest import save_table


def test_static_and_dynamic_guard_reduction(results_dir):
    plain = compile_module(
        DRIVER_SOURCE, CompileOptions(module_name="e1000e", protect=True)
    )
    opt = compile_module(
        DRIVER_SOURCE,
        CompileOptions(module_name="e1000e", protect=True, opt_level=1),
    )
    assert opt.guard_count <= plain.guard_count

    dynamic = {}
    cost = {}
    for label, opt_level in (("unoptimized", 0), ("hoisted", 1)):
        cfg = WorkloadConfig(machine="r350", protect=True,
                             opt_level=opt_level,
                             calibration_packets=80, warmup_packets=16)
        cal = calibrate(cfg)
        dynamic[label] = cal.guards_per_packet
        cost[label] = cal.cycles_per_packet
    assert dynamic["hoisted"] <= dynamic["unoptimized"]

    saved = dynamic["unoptimized"] - dynamic["hoisted"]
    rows = [
        "abl2: CARAT CAKE-style guard optimization on the e1000e driver",
        f"{'':<14}{'static guards':>14}{'guards/packet':>15}{'cycles/packet':>15}",
        f"{'unoptimized':<14}{plain.guard_count:>14}"
        f"{dynamic['unoptimized']:>15.1f}{cost['unoptimized']:>15.0f}",
        f"{'hoisted':<14}{opt.guard_count:>14}"
        f"{dynamic['hoisted']:>15.1f}{cost['hoisted']:>15.0f}",
        "",
        f"runtime guards saved/packet: {saved:.1f} "
        f"({saved / max(dynamic['unoptimized'], 1) * 100:.1f}%)",
        f"cycles saved/packet: {cost['unoptimized'] - cost['hoisted']:.1f} "
        f"({(cost['unoptimized'] - cost['hoisted']) / cost['unoptimized'] * 100:.3f}%)",
        "",
        "paper's call: skipping the optimizer costs <<1% end to end —",
        "the NOELLE-style analysis isn't worth it for kernel modules.",
    ]
    save_table(results_dir, "abl2_guard_hoisting", "\n".join(rows))

    # The headline assertion: even zero optimization keeps total overhead
    # tiny, so the optimizer saves a negligible share of *total* cycles.
    assert (cost["unoptimized"] - cost["hoisted"]) / cost["unoptimized"] < 0.005


def test_wire_behaviour_unchanged_by_optimizer():
    from repro.core.system import CaratKopSystem, SystemConfig
    from repro.net import make_test_frame

    outs = {}
    for opt_level in (0, 1):
        s = CaratKopSystem(
            SystemConfig(machine=None, protect=True, opt_level=opt_level)
        )
        s.sink.keep_last = 32
        for seq in range(32):
            assert s.netdev.xmit(make_test_frame(120, seq)) == 0
        outs[opt_level] = list(s.sink.recent)
    assert outs[0] == outs[1]


def test_optimizer_compile_time_benchmark(benchmark):
    """Wall-time of the optimizing build (the engineering cost §3.3 ducks)."""
    benchmark(
        compile_module,
        DRIVER_SOURCE,
        CompileOptions(module_name="e1000e", protect=True, opt_level=1),
    )
