"""The experiment harness: regenerates every figure in the paper.

Methodology (DESIGN.md §7): each configuration is **trace-calibrated** —
the driver actually executes on the VM for a few hundred packet sends,
yielding exact per-packet cycle costs including every guard, MMIO access,
and policy-table scan; trials then extend that measurement with the
machine model's stochastic terms (trial-level system noise, scheduler
stalls).  ``fidelity="interp"`` skips the extrapolation and interprets
every packet of every trial (slow; tests use it to validate agreement).

Noise uses common random numbers across techniques (same seed ⇒ same
trial factors), the standard variance-reduction for paired comparisons,
so median deltas reflect the deterministic guard cost rather than seed
luck.  The Figure 6 burst model is enabled *only* for the mean-slowdown
experiment — see EXPERIMENTS.md for why (the paper's Figure 4 medians and
Figure 6 means are in tension; we reproduce each under its own protocol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.system import CaratKopSystem, SystemConfig
from ..vm.machine import MachineModel


@dataclass
class WorkloadConfig:
    """One experimental cell: machine x technique x policy x packet size."""

    machine: str = "r350"
    protect: bool = True
    regions: int = 2
    size: int = 128
    packets_per_trial: int = 100_000
    trials: int = 41
    calibration_packets: int = 300
    warmup_packets: int = 64
    seed: int = 2023
    fidelity: str = "calibrated"  # "calibrated" | "interp"
    burst_model: bool = False
    #: Guard optimization level (the paper figures stay at the faithful
    #: -O0 default).
    opt_level: int = 0
    #: Policy index name ("linear" or "interval"); None is the paper's
    #: linear table.
    policy_index: Optional[str] = None
    engine: str = "compiled"  # "compiled" | "interp" (reference engine)

    @property
    def technique(self) -> str:
        return "carat" if self.protect else "baseline"


@dataclass
class Calibration:
    """Measured per-packet costs for one configuration."""

    cycles_per_packet: float       # sendmsg window + user-space loop
    sendmsg_cycles: float          # just the measured syscall window
    guards_per_packet: float
    entries_per_guard: float
    instructions_per_packet: float
    machine: MachineModel
    guard_count_static: int
    #: Guard-decision cache traffic during the calibration window.
    guard_cache_hits: int = 0
    guard_cache_misses: int = 0


def build_system(cfg: WorkloadConfig) -> CaratKopSystem:
    return CaratKopSystem(
        SystemConfig(
            machine=cfg.machine,
            protect=cfg.protect,
            regions=cfg.regions,
            opt_level=cfg.opt_level,
            policy_index=cfg.policy_index,
            engine=cfg.engine,
        )
    )


def calibrate(cfg: WorkloadConfig,
              system: Optional[CaratKopSystem] = None) -> Calibration:
    """Run the driver for real and extract per-packet costs."""
    sys_ = system if system is not None else build_system(cfg)
    machine = sys_.machine
    assert machine is not None, "calibration requires a machine model"
    # Warm up: ring and caches in steady state before measuring.
    sys_.blast(size=cfg.size, count=cfg.warmup_packets)
    timing = sys_.kernel.vm.timing
    assert timing is not None
    before = timing.snapshot()
    stats_before = sys_.policy.stats.as_dict()
    result = sys_.blast(
        size=cfg.size, count=cfg.calibration_packets, capture_latency=True
    )
    delta = timing.delta_since(before)
    n = cfg.calibration_packets
    stats_now = sys_.policy.stats.as_dict()
    guards = stats_now["checks"] - stats_before["checks"]
    scanned = stats_now["entries_scanned"] - stats_before["entries_scanned"]
    return Calibration(
        cycles_per_packet=result.total_cycles / n,
        sendmsg_cycles=result.mean_latency,
        guards_per_packet=guards / n,
        entries_per_guard=(scanned / guards) if guards else 0.0,
        instructions_per_packet=delta["instructions"] / n,
        machine=machine,
        guard_count_static=sys_.driver_compiled.guard_count,
        guard_cache_hits=(stats_now["guard_cache_hits"]
                          - stats_before["guard_cache_hits"]),
        guard_cache_misses=(stats_now["guard_cache_misses"]
                            - stats_before["guard_cache_misses"]),
    )


# ---------------------------------------------------------------------------
# Trial generation
# ---------------------------------------------------------------------------


def _seed_from(*parts: object) -> int:
    """Stable 64-bit seed from arbitrary parts (hash() is salted per run)."""
    import hashlib

    digest = hashlib.sha256("|".join(map(repr, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _trial_rng(cfg: WorkloadConfig) -> np.random.Generator:
    # Deliberately independent of technique AND region count: every curve
    # within one figure shares trial noise (common random numbers), so the
    # median gaps between curves are the deterministic cost differences.
    return np.random.default_rng(
        _seed_from(cfg.seed, cfg.machine, cfg.size, cfg.packets_per_trial)
    )


def throughput_samples(
    cfg: WorkloadConfig, calibration: Optional[Calibration] = None
) -> np.ndarray:
    """Per-trial throughput (packets/sec) for one configuration."""
    if cfg.fidelity == "interp":
        return _throughput_samples_interp(cfg)
    cal = calibration if calibration is not None else calibrate(cfg)
    machine = cal.machine
    n = cfg.packets_per_trial
    rng = _trial_rng(cfg)
    factors = np.exp(rng.normal(0.0, machine.trial_sigma, cfg.trials))
    cycles = n * cal.cycles_per_packet * factors
    stalls = rng.poisson(machine.base_stalls_per_100k * n / 1e5, cfg.trials)
    cycles = cycles + stalls * machine.deschedule_cycles
    if cfg.burst_model and cfg.protect:
        # Carat-only stall bursts at small packet sizes (Figure 6 model).
        q = min(
            0.5,
            machine.burst_probability_amplitude
            * math.exp(-cfg.size / machine.burst_size_scale_bytes),
        )
        burst_rng = np.random.default_rng(_seed_from(cfg.seed, "burst", cfg.size))
        hit = burst_rng.random(cfg.trials) < q
        extra = burst_rng.poisson(machine.burst_mean_stalls, cfg.trials) * hit
        cycles = cycles + extra * machine.deschedule_cycles * n / 1e5
    return n / (cycles / machine.freq_hz)


def _throughput_samples_interp(cfg: WorkloadConfig) -> np.ndarray:
    """Full-interpretation trials (small packet counts; used by tests)."""
    out = []
    sys_ = build_system(cfg)
    machine = sys_.machine
    assert machine is not None
    sys_.blast(size=cfg.size, count=cfg.warmup_packets)
    for _ in range(cfg.trials):
        result = sys_.blast(size=cfg.size, count=cfg.packets_per_trial)
        out.append(result.throughput_pps)
    return np.asarray(out)


def latency_samples(
    cfg: WorkloadConfig,
    calibration: Optional[Calibration] = None,
    packets: int = 20_000,
    latency_sigma: float = 0.14,
    outlier_probability: float = 1.2e-4,
) -> np.ndarray:
    """Per-packet sendmsg latency (cycles) for the Figure 7 histogram.

    Calibrated mode: the measured mean sendmsg window is spread with the
    machine's per-call jitter (log-normal — syscall latencies are
    right-skewed) plus rare ring-full outliers (>10M cycles) which the
    paper's figure excludes but its medians include.
    """
    if cfg.fidelity == "interp":
        sys_ = build_system(cfg)
        sys_.blast(size=cfg.size, count=cfg.warmup_packets)
        res = sys_.blast(size=cfg.size, count=packets, capture_latency=True)
        return np.asarray(res.latencies)
    cal = calibration if calibration is not None else calibrate(cfg)
    machine = cal.machine
    rng = _trial_rng(cfg)
    # Center the log-normal so its *median* equals the measured cost.
    base = cal.sendmsg_cycles
    lat = base * np.exp(rng.normal(0.0, latency_sigma, packets))
    outliers = rng.random(packets) < outlier_probability
    lat = lat + outliers * machine.deschedule_cycles
    return lat


# ---------------------------------------------------------------------------
# Figure runners
# ---------------------------------------------------------------------------


@dataclass
class FigureResult:
    """Everything needed to print/plot one paper figure."""

    figure_id: str
    title: str
    series: dict[str, np.ndarray]
    meta: dict[str, object] = field(default_factory=dict)

    def medians(self) -> dict[str, float]:
        return {k: float(np.median(v)) for k, v in self.series.items()}


def run_fig3(trials: int = 41, seed: int = 2023,
             opt_level: int = 0,
             policy_index: Optional[str] = None,
             regions: int = 2) -> FigureResult:
    """Fig. 3: throughput CDF, slow R415, 128 B packets, 2 regions.

    ``opt_level``/``policy_index``/``regions`` re-run the same protocol
    under the optimizing guard tier (BENCH_guard_opt); the defaults are
    the faithful paper configuration.
    """
    return _throughput_figure(
        "fig3", "CARAT KOP effect on packet launch throughput (R415)",
        machine="r415", trials=trials, seed=seed,
        opt_level=opt_level, policy_index=policy_index, regions=regions,
    )


def run_fig4(trials: int = 41, seed: int = 2023) -> FigureResult:
    """Fig. 4: throughput CDF, fast R350, 128 B packets, 2 regions."""
    return _throughput_figure(
        "fig4", "CARAT KOP effect on packet launch throughput (R350)",
        machine="r350", trials=trials, seed=seed,
    )


def _throughput_figure(fid: str, title: str, machine: str, trials: int,
                       seed: int,
                       opt_level: int = 0,
                       policy_index: Optional[str] = None,
                       regions: int = 2) -> FigureResult:
    series = {}
    meta: dict[str, object] = {
        "machine": machine, "size": 128, "regions": regions,
        "opt_level": opt_level, "policy_index": policy_index,
    }
    for protect in (False, True):
        cfg = WorkloadConfig(
            machine=machine, protect=protect, trials=trials, seed=seed,
            regions=regions, opt_level=opt_level if protect else 0,
            policy_index=policy_index,
        )
        cal = calibrate(cfg)
        series[cfg.technique] = throughput_samples(cfg, cal)
        meta[f"{cfg.technique}_cycles_per_packet"] = cal.cycles_per_packet
        meta[f"{cfg.technique}_guards_per_packet"] = cal.guards_per_packet
        meta[f"{cfg.technique}_guard_cache_hits"] = cal.guard_cache_hits
        meta[f"{cfg.technique}_guard_cache_misses"] = cal.guard_cache_misses
    return FigureResult(fid, title, series, meta)


def run_fig5(trials: int = 41, seed: int = 2023) -> FigureResult:
    """Fig. 5: throughput vs number of policy regions (R350, 128 B)."""
    series = {}
    meta: dict[str, object] = {"machine": "r350", "size": 128}
    base_cfg = WorkloadConfig(machine="r350", protect=False, trials=trials,
                              seed=seed)
    series["baseline"] = throughput_samples(base_cfg, calibrate(base_cfg))
    for n, label in ((2, "carat"), (16, "carat16"), (64, "carat64")):
        cfg = WorkloadConfig(machine="r350", protect=True, regions=n,
                             trials=trials, seed=seed)
        cal = calibrate(cfg)
        series[label] = throughput_samples(cfg, cal)
        meta[f"{label}_entries_per_guard"] = cal.entries_per_guard
    return FigureResult(
        "fig5", "Effect of the number of policy regions (R350)", series, meta
    )


FIG6_SIZES = (64, 128, 256, 512, 1024, 1500)


def run_fig6(trials: int = 41, seed: int = 2023) -> FigureResult:
    """Fig. 6: mean throughput slowdown vs packet size (R350, 2 regions).

    Uses the burst stall model (means, not medians — see EXPERIMENTS.md).
    """
    slowdowns = {}
    meta: dict[str, object] = {"machine": "r350", "regions": 2,
                               "sizes": list(FIG6_SIZES)}
    for size in FIG6_SIZES:
        per_technique = {}
        for protect in (False, True):
            cfg = WorkloadConfig(
                machine="r350", protect=protect, size=size, trials=trials,
                seed=seed, burst_model=True,
            )
            per_technique[cfg.technique] = throughput_samples(
                cfg, calibrate(cfg)
            )
        slowdown = float(
            np.mean(per_technique["baseline"]) / np.mean(per_technique["carat"])
        )
        slowdowns[str(size)] = np.asarray([slowdown])
    return FigureResult(
        "fig6", "Throughput slowdown vs packet size (R350)", slowdowns, meta
    )


def run_fig7(seed: int = 2023, packets: int = 20_000,
             fidelity: str = "calibrated") -> FigureResult:
    """Fig. 7: sendmsg() latency histogram (R350, 128 B, 2 regions)."""
    series = {}
    meta: dict[str, object] = {"machine": "r350", "size": 128, "regions": 2}
    for protect in (False, True):
        cfg = WorkloadConfig(machine="r350", protect=protect, seed=seed,
                             fidelity=fidelity)
        label = "Carat" if protect else "Base"
        series[label] = latency_samples(cfg, packets=packets)
        meta[f"{label}_median_cycles"] = float(np.median(series[label]))
    return FigureResult(
        "fig7", "Packet launch latency, sendmsg() cycles (R350)", series, meta
    )


def run_figblk(trials: int = 5, seed: int = 2023, queues="auto",
               engine: str = "compiled", opt_level: int = 2) -> FigureResult:
    """Extension figure: vblk multi-queue iops scaling (R415).

    Not a paper figure — the storage twin of fig3 for the NVMe-style
    multi-queue block stack.  Measures a device-bound mixed workload
    (8-sector requests, a flush barrier every 8th) with one shared
    queue ("sq") vs per-CPU queue pairs ("mq", ``queues`` config,
    default "auto" = one per CPU) across 1/2/4 CPUs, every op actually
    executed on the VM.  Alongside the iops series it digests the final
    block-store image of every cell: the completion-merge contract
    makes all six identical.
    """
    import hashlib

    count, nsect, flush_interval = 240, 8, 8
    series: dict[str, np.ndarray] = {}
    digests: dict[str, str] = {}
    for cpus in (1, 2, 4):
        for qcfg, prefix in ((1, "sq"), (queues, "mq")):
            label = f"{prefix}-c{cpus}"
            system = CaratKopSystem(SystemConfig(
                machine="r415", driver="vblk", protect=True,
                opt_level=opt_level, engine=engine,
                cpus=cpus, queues=qcfg,
            ))
            samples = []
            for t in range(trials):
                res = system.blkblast(
                    count=count, nsect=nsect, pattern="rand",
                    seed=seed + t, flush_interval=flush_interval,
                )
                samples.append(res.throughput_iops)
            series[label] = np.asarray(samples)
            digests[label] = hashlib.sha256(
                bytes(system.device.store)).hexdigest()
    meta: dict[str, object] = {
        "machine": "r415", "opt_level": opt_level, "queues": queues,
        "count": count, "nsect": nsect, "flush_interval": flush_interval,
        "store_digests": digests,
        "digest_identical": len(set(digests.values())) == 1,
        "speedup_c4": float(
            np.median(series["mq-c4"]) / np.median(series["sq-c4"])
        ),
    }
    return FigureResult(
        "figblk", "vblk multi-queue iops scaling (R415)", series, meta
    )


ALL_FIGURES = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "figblk": run_figblk,
}


__all__ = [
    "ALL_FIGURES",
    "Calibration",
    "FIG6_SIZES",
    "FigureResult",
    "WorkloadConfig",
    "build_system",
    "calibrate",
    "latency_samples",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_figblk",
    "throughput_samples",
]
