"""Process-pool pktblast: scale-out across real OS processes.

The cooperative SMP model (:mod:`repro.kernel.smp`) shards a workload
across *simulated* CPUs on one host thread — deterministic, bit-exact,
but no wall-clock speedup.  This module is the other axis: ``--workers
N`` partitions one blast across N OS processes, each running its own
complete :class:`~repro.core.system.CaratKopSystem` on the compiled
engine, and merges the results deterministically (workers are summed in
worker-index order).  Wall-clock throughput divides the total stream by
the time the workers took together.  Across parallel processes that is
the span from the first blast's start to the last blast's end (on the
system-wide monotonic clock), so a fan-out is gated by its straggler
and by any worker the host could not run at the same time; in-process
workers run one after another, so their times add up and an in-process
pool reports no speedup.

Simulated quantities (cycles, guard decisions, trace counters) are
per-worker exact and merge by summation; wall-clock speedup is a host
property and is only asserted where the host actually has the cores.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Optional


def partition(count: int, workers: int) -> list[int]:
    """Deterministic near-even split of ``count`` packets (earlier
    workers take the remainder, so the split is stable and ordered)."""
    if workers < 1:
        raise ValueError("need at least one worker")
    base, extra = divmod(count, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _run_worker(args: tuple) -> dict:
    """One worker process: build a system, blast its share, report.

    Module-level so it pickles under every multiprocessing start method.
    """
    worker_index, config_kwargs, size, count, trace = args
    from ..core.system import CaratKopSystem, SystemConfig

    system = CaratKopSystem(SystemConfig(**config_kwargs))
    if trace:
        system.kernel.trace.enable()
    wall_start = time.perf_counter()
    result = system.blast(size=size, count=count)
    wall_end = time.perf_counter()
    if trace:
        system.kernel.trace.disable()
    trace_sub = system.kernel.trace
    return {
        "worker": worker_index,
        "packets_requested": result.packets_requested,
        "packets_sent": result.packets_sent,
        "errors": result.errors,
        "stalls": result.stalls,
        "total_cycles": result.total_cycles,
        "throughput_pps": result.throughput_pps,
        "wall_start_s": wall_start,
        "wall_end_s": wall_end,
        "wall_elapsed_s": wall_end - wall_start,
        "guard_stats": system.guard_stats(),
        "trace_events": trace_sub.counters.as_dict(),
        "ring_stats": trace_sub.ring_stats(),
        "rings_per_cpu": [r.stats() for r in trace_sub.rings],
    }


@dataclass(slots=True)
class PoolResult:
    """The deterministic merge of one process-pool blast."""

    workers: int
    packets_requested: int
    packets_sent: int
    errors: int
    stalls: int
    #: Blast wall time of the whole pool: first start to last end across
    #: processes (never less than the slowest worker), the sum in-process.
    wall_elapsed_s: float
    #: Total stream / ``wall_elapsed_s``: the wall-clock scale-out number.
    wall_pps: float
    #: Summed simulated cycles across workers (each worker's own clock).
    total_cycles: float
    #: Field-wise sums of every worker's guard stats.
    guard_stats: dict[str, int] = field(default_factory=dict)
    #: Summed trace event counters (when tracing was on).
    trace_events: dict[str, int] = field(default_factory=dict)
    #: Per-worker raw reports, ordered by worker index.
    per_worker: list[dict] = field(default_factory=list)


def pool_blast(
    workers: int,
    size: int = 128,
    count: int = 1000,
    config_kwargs: Optional[dict] = None,
    trace: bool = False,
    processes: bool = True,
) -> PoolResult:
    """Partition one blast across ``workers`` processes and merge.

    ``config_kwargs`` are :class:`~repro.core.system.SystemConfig`
    fields (picklable primitives only).  ``processes=False`` runs the
    workers sequentially in-process — same merge math, no
    multiprocessing — for tests and single-core hosts; the wall time is
    then the sum of the workers' times, since nothing overlapped.
    """
    shares = partition(count, workers)
    kwargs = dict(config_kwargs or {})
    jobs = [
        (w, kwargs, size, shares[w], trace) for w in range(workers)
    ]
    parallel = processes and workers > 1
    if parallel:
        with multiprocessing.Pool(processes=workers) as pool:
            reports = pool.map(_run_worker, jobs)
    else:
        reports = [_run_worker(job) for job in jobs]
    reports.sort(key=lambda r: r["worker"])

    guard_stats: dict[str, int] = {}
    trace_events: dict[str, int] = {}
    for report in reports:
        for key, value in report["guard_stats"].items():
            guard_stats[key] = guard_stats.get(key, 0) + value
        for key, value in report["trace_events"].items():
            trace_events[key] = trace_events.get(key, 0) + value
    packets_sent = sum(r["packets_sent"] for r in reports)
    if parallel:
        wall = (max(r["wall_end_s"] for r in reports)
                - min(r["wall_start_s"] for r in reports))
    else:
        wall = sum(r["wall_elapsed_s"] for r in reports)
    return PoolResult(
        workers=workers,
        packets_requested=count,
        packets_sent=packets_sent,
        errors=sum(r["errors"] for r in reports),
        stalls=sum(r["stalls"] for r in reports),
        wall_elapsed_s=wall,
        wall_pps=packets_sent / wall if wall > 0 else 0.0,
        total_cycles=sum(r["total_cycles"] for r in reports),
        guard_stats=guard_stats,
        trace_events=trace_events,
        per_worker=reports,
    )


__all__ = ["PoolResult", "partition", "pool_blast"]
