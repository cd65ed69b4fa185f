"""Command-line entry points.

The tools mirror the paper's artifacts:

- ``caratcc``       — the compiler wrapper (§3.3, Figure 2)
- ``policy-manager``— the ioctl policy tool (§3.1, Figure 1), demo mode
- ``pktblast``      — the user-level packet test tool (§4.2)
- ``caratkop-blkblast`` — the storage twin: block I/O through repro.vblk
- ``caratkop-bench``— regenerate any paper figure
- ``caratkop-soak`` — the violation/eject/recovery fault-injection soak
- ``caratkop-trace``— the ftrace/perf-style tracing front end
"""

from __future__ import annotations

import argparse
import sys

from .core.pipeline import CompileOptions, compile_module
from .core.system import CaratKopSystem, SystemConfig
from .ir import print_module
from .signing import SigningKey


def caratcc_main(argv: list[str] | None = None) -> int:
    """Compile a mini-C file, optionally applying the CARAT KOP transform."""
    ap = argparse.ArgumentParser(
        prog="caratcc",
        description="CARAT KOP compiler: mini-C -> guarded, signed module IR",
    )
    ap.add_argument("source", help="mini-C source file")
    ap.add_argument("-o", "--output", help="write IR here (default: stdout)")
    ap.add_argument(
        "--kop", metavar="FILE",
        help="also write a signed .kop module container (the deployable)",
    )
    ap.add_argument("--name", default=None, help="module name")
    ap.add_argument(
        "--no-protect", action="store_true",
        help="build the baseline (no guard injection)",
    )
    ap.add_argument(
        "--opt-level", type=int, default=0, choices=[0, 1, 2],
        help="guard optimization level: 0 = faithful paper build "
             "(default), 1 = eliminate+hoist (the CARAT CAKE-style "
             "optimizer), 2 = adds range coalescing",
    )
    ap.add_argument(
        "--guard-intrinsics", action="store_true",
        help="also guard privileged intrinsics (paper §5 extension)",
    )
    ap.add_argument("--stats", action="store_true", help="print transform stats")
    args = ap.parse_args(argv)

    with open(args.source) as f:
        source = f.read()
    name = args.name or args.source.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    compiled = compile_module(
        source,
        CompileOptions(
            module_name=name,
            protect=not args.no_protect,
            opt_level=args.opt_level,
            guard_intrinsics=args.guard_intrinsics,
            key=SigningKey.generate(),
        ),
    )
    text = print_module(compiled.ir)
    if args.kop:
        from .core.container import save_module

        save_module(compiled, args.kop)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    elif not args.kop:
        sys.stdout.write(text)
    if args.stats:
        st = compiled.stats
        print(
            f"\n; source lines: {st.source_lines}\n"
            f"; functions: {st.functions}\n"
            f"; instructions: {st.instructions_after} "
            f"(x{st.code_growth:.2f} growth from guards)\n"
            f"; loads/stores: {st.loads}/{st.stores}\n"
            f"; guards: {st.guards}",
            file=sys.stderr,
        )
    return 0


def policy_manager_main(argv: list[str] | None = None) -> int:
    """Demonstrate the ioctl policy protocol against a live system."""
    ap = argparse.ArgumentParser(
        prog="policy-manager",
        description=(
            "Configure a CARAT KOP policy over /dev/carat (runs against a "
            "freshly booted simulated system; see examples/ for library use)"
        ),
    )
    ap.add_argument("--machine", default="r350", choices=["r350", "r415"])
    ap.add_argument("--regions", type=int, default=2)
    ap.add_argument(
        "--engine", default="compiled", choices=["interp", "compiled"],
        help="execution engine (compiled = translate-once closures)",
    )
    ap.add_argument("--show-stats", action="store_true")
    args = ap.parse_args(argv)

    system = CaratKopSystem(
        SystemConfig(machine=args.machine, regions=args.regions,
                     engine=args.engine)
    )
    print(f"booted {system.machine.name}; policy via /dev/carat:")
    print(system.policy_manager.describe())
    if args.show_stats:
        system.blast(size=128, count=100)
        print("after 100 packets:", system.policy_manager.stats())
    return 0


def _add_system_args(ap: argparse.ArgumentParser) -> None:
    """The flags every blast tool shares (see :func:`_system_config`)."""
    ap.add_argument("--machine", default="r350", choices=["r350", "r415"])
    ap.add_argument("--baseline", action="store_true", help="unguarded driver")
    ap.add_argument("--regions", type=int, default=2)
    ap.add_argument(
        "--engine", default="compiled", choices=["interp", "compiled"],
        help="execution engine (compiled = translate-once closures)",
    )
    ap.add_argument("--latency", action="store_true", help="report latencies")
    ap.add_argument(
        "--profile", action="store_true",
        help="per-function execution profile (instructions, guards, cycles)",
    )
    ap.add_argument(
        "--enforce-mode", default="panic",
        choices=["audit", "panic", "eject", "isolate"],
        help="what a guard denial does (default: panic, the paper behaviour)",
    )
    ap.add_argument(
        "--opt-level", type=int, default=2, choices=[0, 1, 2, 3],
        help="guard optimization level: 0 = faithful paper build (a guard "
             "before every load/store), 1 = eliminate+hoist, 2 = adds "
             "range coalescing, 3 = adds load-time static verification "
             "(prove guards in-policy, elide them at insmod) "
             "(default: 2, the production tier)",
    )
    ap.add_argument(
        "--verify-policy", default="demote",
        choices=["strict", "demote", "off"],
        help="what insmod does with a stale or invalid -O3 verification "
             "certificate: strict = reject the module, demote = load with "
             "full dynamic guarding (default), off = ignore certificates",
    )
    ap.add_argument(
        "--policy-index", default="interval",
        choices=["linear", "interval"],
        help="region-table structure: linear = the paper's O(n) scan, "
             "interval = overlap-aware binary search (default: interval)",
    )
    ap.add_argument(
        "--cpus", type=int, default=1,
        help="simulated CPUs (cooperative model; 1 = historic behaviour)",
    )
    ap.add_argument(
        "--smp-seed", type=int, default=0,
        help="round-robin scheduler seed (0 = unsharded global order)",
    )


def _system_config(args: argparse.Namespace, driver: str,
                   **extra) -> SystemConfig:
    return SystemConfig(
        machine=args.machine, driver=driver, protect=not args.baseline,
        regions=args.regions, engine=args.engine,
        enforce_mode=args.enforce_mode,
        cpus=args.cpus, smp_seed=args.smp_seed,
        opt_level=args.opt_level, policy_index=args.policy_index,
        verify_policy=args.verify_policy, **extra,
    )


def _blast(config: SystemConfig, args: argparse.Namespace,
           **workload) -> int:
    """Assemble a system, run one trial of its stack's load tool, and
    report it the same way for every stack."""
    system = CaratKopSystem(config)
    profiler = None
    if args.profile:
        from .vm import Profiler

        profiler = Profiler()
        system.kernel.vm.profiler = profiler
    stack = system.stack
    result = stack.workload(capture_latency=args.latency, **workload)
    first, *rest = stack.describe(result)
    print(f"{system.technique}: {first}")
    for line in rest:
        print(line)
    if args.latency and result.latencies:
        lat = sorted(result.latencies)
        mid = lat[len(lat) // 2]
        print(f"{stack.latency_label} latency: median {mid:,.0f} cycles, "
              f"min {lat[0]:,.0f}, max {lat[-1]:,.0f}")
    stats = system.guard_stats()
    print(f"guards: {stats['checks']:,} checks, {stats['denied']} denied, "
          f"decision cache {stats['guard_cache_hits']:,} hits / "
          f"{stats['guard_cache_misses']:,} misses")
    if profiler is not None:
        print()
        print(profiler.report())
    return 0


def pktblast_main(argv: list[str] | None = None) -> int:
    """The user-level raw-Ethernet test tool (paper §4.2)."""
    ap = argparse.ArgumentParser(
        prog="pktblast",
        description="send raw Ethernet packets through the simulated e1000e",
    )
    _add_system_args(ap)
    ap.add_argument("--size", type=int, default=128, help="frame bytes")
    ap.add_argument("--count", type=int, default=1000, help="packets to send")
    ap.add_argument(
        "--workers", type=int, default=0,
        help="partition the blast across N OS processes (real parallelism)",
    )
    args = ap.parse_args(argv)
    config = _system_config(args, "e1000e")

    if args.workers > 1:
        from dataclasses import asdict

        from .net.pool import pool_blast

        pool = pool_blast(args.workers, size=args.size, count=args.count,
                          config_kwargs=asdict(config))
        technique = "baseline" if args.baseline else "carat"
        print(
            f"{technique}: {pool.packets_sent}/{pool.packets_requested} "
            f"packets across {pool.workers} workers, "
            f"{pool.wall_pps:,.0f} wall pps "
            f"(slowest worker {pool.wall_elapsed_s:.3f}s), "
            f"{pool.errors} errors, {pool.stalls} stalls"
        )
        stats = pool.guard_stats
        print(
            f"guards (merged): {stats['checks']:,} checks, "
            f"{stats['denied']} denied"
        )
        return 0
    return _blast(config, args, count=args.count, size=args.size)


def blkblast_main(argv: list[str] | None = None) -> int:
    """The user-level block-I/O test tool (the storage twin of pktblast)."""
    ap = argparse.ArgumentParser(
        prog="caratkop-blkblast",
        description="drive mixed block I/O through the simulated vblk disk",
    )
    _add_system_args(ap)
    ap.add_argument("--count", type=int, default=1000,
                    help="requests to issue")
    ap.add_argument("--nsect", type=int, default=2,
                    help="sectors per request")
    ap.add_argument(
        "--pattern", default="seq", choices=["seq", "rand", "hotspot"],
        help="access pattern: sequential, uniform random, or hot-spot "
             "(90%% of requests in a 1/32-of-the-disk window)",
    )
    ap.add_argument("--seed", type=int, default=1,
                    help="stream seed (same seed = same request stream)")
    ap.add_argument("--read-frac", type=int, default=50,
                    help="percentage of non-flush requests that read")
    ap.add_argument("--flush-interval", type=int, default=16,
                    help="every Nth request is a flush barrier (0 = never)")
    ap.add_argument(
        "--queues", default="auto", choices=["1", "2", "3", "4", "auto"],
        help="vblk I/O queue pairs (NVMe-style): auto = one per CPU "
             "(default), 1 = the historic single shared queue",
    )
    args = ap.parse_args(argv)
    queues = args.queues if args.queues == "auto" else int(args.queues)
    return _blast(
        _system_config(args, "vblk", queues=queues), args,
        count=args.count, nsect=args.nsect, pattern=args.pattern,
        seed=args.seed, read_frac=args.read_frac,
        flush_interval=args.flush_interval,
    )


def soak_main(argv: list[str] | None = None) -> int:
    """Run the violation->eject->recovery soak (fault-injection harness)."""
    import json

    from .faults import FaultInjector, run_soak
    from .faults.soak import BLK_FAULTS, NET_FAULTS, SoakError

    ap = argparse.ArgumentParser(
        prog="caratkop-soak",
        description=(
            "repeatedly violate policy in eject mode under device fault "
            "injection; audit every rollback for leaks"
        ),
    )
    ap.add_argument("--cycles", type=int, default=50)
    ap.add_argument(
        "--machine", default=None, choices=["r350", "r415"],
        help="machine model (default: untimed functional run)",
    )
    ap.add_argument(
        "--engine", default="compiled", choices=["interp", "compiled"],
    )
    ap.add_argument("--size", type=int, default=128, help="frame bytes")
    ap.add_argument("--count", type=int, default=20,
                    help="packets per recovery blast")
    ap.add_argument("--no-vblk", action="store_true",
                    help="NIC-only soak (skip the vblk block stack half)")
    ap.add_argument("--blk-count", type=int, default=16,
                    help="block ops per vblk recovery blast")
    ap.add_argument("--blk-cpus", type=int, default=2,
                    help="CPUs (= I/O queues) for the vblk soak half")
    # One flag per fault schedule, e.g. --vblk-cq-stall-period 31.
    for name, period in {**NET_FAULTS, **BLK_FAULTS}.items():
        ap.add_argument("--" + name.replace("_", "-"), type=int,
                        default=period,
                        help="fault every Nth eligible event (0 = off)")
    ap.add_argument("--report", metavar="FILE",
                    help="write the JSON violation/recovery report here")
    args = ap.parse_args(argv)

    def injector(schedule: dict) -> FaultInjector:
        return FaultInjector(**{name: getattr(args, name) for name in schedule})

    failed = None
    try:
        report = run_soak(
            cycles=args.cycles, machine=args.machine, engine=args.engine,
            blast_size=args.size, blast_count=args.count,
            injector=injector(NET_FAULTS), vblk=not args.no_vblk,
            blk_count=args.blk_count, vblk_injector=injector(BLK_FAULTS),
            blk_cpus=args.blk_cpus,
        )
    except SoakError as e:
        report = e.report
        failed = report["failure"] = str(e)
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2)
    print(f"soak: {report['cycles_completed']}/{report['cycles_requested']} "
          f"cycles")
    for name, half in (("e1000e", report), ("vblk", report.get("vblk"))):
        if half is None:
            continue
        unit = next(k for k in half if k.startswith("delivered_"))
        faults = ", ".join(
            f"{n} {kind}" for kind, n in half["injector"].items() if n)
        print(f"{name}: {half['ejections']} ejections, "
              f"{half['leaked_bytes_total']} bytes leaked, {half[unit]} "
              f"{unit[len('delivered_'):]} delivered post-recovery; "
              f"faults injected: {faults or 'none'}")
    if failed is not None:
        print(f"FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


def policyd_main(argv: list[str] | None = None) -> int:
    """Run the multi-tenant control-plane service/benchmark."""
    import json

    from .policy.policyd import chaos_injector, run_policyd

    ap = argparse.ArgumentParser(
        prog="caratkop-policyd",
        description=(
            "drive N tenants of transactional batch mutations and staged "
            "canary rollouts against one simulated kernel, optionally with "
            "every control-plane fault hook armed; digests the guard-visible "
            "policy state so chaos runs can be proven identical to clean runs"
        ),
    )
    ap.add_argument("--tenants", type=int, default=4)
    ap.add_argument("--regions", type=int, default=1024,
                    help="total regions across tenants")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--batch-ops", type=int, default=16,
                    help="mutations per transactional batch")
    ap.add_argument(
        "--engine", default="compiled", choices=["interp", "compiled"],
    )
    ap.add_argument("--cpus", type=int, default=1)
    ap.add_argument(
        "--machine", default=None, choices=["r350", "r415"],
        help="machine model (default: untimed functional run)",
    )
    ap.add_argument(
        "--policy-index", default=None, choices=["linear", "interval"],
    )
    ap.add_argument("--chaos", action="store_true",
                    help="arm all five control-plane fault hooks")
    ap.add_argument(
        "--compare-clean", action="store_true",
        help="also run fault-free and assert both digests are identical "
             "(exits nonzero on divergence)",
    )
    ap.add_argument("--report", metavar="FILE",
                    help="write the JSON report here")
    args = ap.parse_args(argv)

    def one(injector):
        return run_policyd(
            tenants=args.tenants, regions=args.regions, rounds=args.rounds,
            batch_ops=args.batch_ops, engine=args.engine, cpus=args.cpus,
            machine=args.machine, policy_index=args.policy_index,
            injector=injector,
        )

    report = one(chaos_injector() if args.chaos else None)
    status = 0
    if args.compare_clean:
        clean = one(None)
        report["clean"] = {
            "settled_digest": clean["settled_digest"],
            "full_digest": clean["full_digest"],
            "generation": clean["generation"],
            "rollbacks": clean["rollbacks"],
        }
        same = (report["settled_digest"] == clean["settled_digest"]
                and report["full_digest"] == clean["full_digest"])
        report["chaos_equals_clean"] = same
        if not same:
            print("FAILED: chaos run diverged from fault-free run",
                  file=sys.stderr)
            status = 1
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2)
    print(
        f"policyd: {report['tenants']}+1 tenants, "
        f"{report['composed_regions']} composed regions, "
        f"gen {report['generation']} "
        f"({report['promotions']} promotions, "
        f"{report['rollbacks']} rollbacks)"
    )
    print(
        f"publish path: {report['publish_retries']} retries, "
        f"{report['publish_failures']} exhaustions, "
        f"{report['replica_repairs']} replica repairs, "
        f"divergence {report['replica_divergence']}"
    )
    if report.get("injector"):
        inj = report["injector"]
        print(
            f"faults injected: {inj['dropped_publishes']} dropped publishes, "
            f"{inj['stalled_publishes']} stalls, "
            f"{inj['corrupted_replicas']} corruptions, "
            f"{inj['torn_batches']} torn batches, "
            f"{inj['quota_race_storms']} quota races"
        )
    print(f"settled digest: {report['settled_digest'][:16]}…"
          + (" (chaos==clean)" if report.get("chaos_equals_clean") else ""))
    return status


def bench_main(argv: list[str] | None = None) -> int:
    """Regenerate paper figures."""
    from .bench import ALL_FIGURES, render_figure

    ap = argparse.ArgumentParser(
        prog="caratkop-bench",
        description="regenerate the paper's figures (3-7) from the simulation",
    )
    ap.add_argument(
        "figures", nargs="*", default=sorted(ALL_FIGURES),
        help="figure ids (default: all)",
    )
    ap.add_argument("--trials", type=int, default=41)
    ap.add_argument(
        "--opt-level", type=int, default=2, choices=[0, 1, 2, 3],
        help="guard optimization level for the throughput figure (fig3); "
             "0 --policy-index linear reproduces the faithful paper build, "
             "3 adds load-time static verification "
             "(default: 2, the production tier)",
    )
    ap.add_argument(
        "--policy-index", default="interval",
        choices=["linear", "interval"],
        help="region-table structure for fig3 (default: interval)",
    )
    ap.add_argument(
        "--queues", default="auto", choices=["1", "2", "3", "4", "auto"],
        help="vblk I/O queue pairs for the multi-queue cells of the "
             "block figure (figblk); auto = one per CPU (default)",
    )
    ap.add_argument(
        "--blk-trials", type=int, default=5,
        help="fully-executed trials per figblk cell (every op runs on "
             "the VM, so this is costlier than --trials)",
    )
    ap.add_argument(
        "--markdown", action="store_true",
        help="emit the EXPERIMENTS.md paper-vs-measured summary table",
    )
    ap.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="also emit per-figure trace artifacts (chrome trace, folded "
             "stacks, /proc/trace_stat dump, per-callsite guard costs)",
    )
    ap.add_argument(
        "--trace-packets", type=int, default=1000,
        help="packets per traced artifact run (default 1000)",
    )
    args = ap.parse_args(argv)

    results = {}
    for fid in args.figures:
        runner = ALL_FIGURES.get(fid)
        if runner is None:
            print(f"unknown figure {fid!r}; have {sorted(ALL_FIGURES)}")
            return 2
        if fid == "fig7":
            result = runner()
        elif fid == "figblk":
            queues = args.queues if args.queues == "auto" else int(args.queues)
            result = runner(trials=args.blk_trials, queues=queues)
        elif fid == "fig3":
            # The throughput figure is the one the guard-optimizer tier
            # parameterizes; the rest keep their paper configuration.
            result = runner(
                trials=args.trials,
                opt_level=args.opt_level, policy_index=args.policy_index,
            )
        else:
            result = runner(trials=args.trials)
        results[fid] = result
        if not args.markdown:
            print(render_figure(result))
            print()
    if args.markdown:
        from .bench import experiments_md_rows

        print(experiments_md_rows(results))
    if args.trace_dir:
        from .bench import emit_trace_artifact

        for fid in results:
            summary = emit_trace_artifact(
                args.trace_dir, fid=fid, count=args.trace_packets
            )
            print(
                f"{fid} trace: {summary['events']} events "
                f"({summary['events_lost']} lost), "
                f"{summary['guard_checks']} guard checks; hottest "
                f"{', '.join(summary['top_sites'])} -> "
                f"{summary['paths']['chrome']}"
            )
    return 0


def trace_main(argv: list[str] | None = None) -> int:
    """The tracing front end: run traced workloads, validate artifacts."""
    import json

    ap = argparse.ArgumentParser(
        prog="caratkop-trace",
        description="ftrace/perf-style tracing for the simulated kernel",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser(
        "run", help="run pktblast with tracing on and export artifacts"
    )
    run_p.add_argument("--machine", default="r350", choices=["r350", "r415"])
    run_p.add_argument("--size", type=int, default=128, help="frame bytes")
    run_p.add_argument("--count", type=int, default=1000)
    run_p.add_argument("--baseline", action="store_true")
    run_p.add_argument("--regions", type=int, default=2)
    run_p.add_argument(
        "--engine", default="compiled", choices=["interp", "compiled"]
    )
    run_p.add_argument(
        "--ring-capacity", type=int, default=65536,
        help="trace ring buffer entries",
    )
    run_p.add_argument(
        "--ring-mode", default="overwrite", choices=["overwrite", "drop"]
    )
    run_p.add_argument("--chrome", metavar="FILE",
                       help="write chrome://tracing JSON here")
    run_p.add_argument("--folded", metavar="FILE",
                       help="write folded flamegraph stacks here")
    run_p.add_argument("--perf", metavar="FILE",
                       help="write the perf-script text dump here")
    run_p.add_argument("--stat-out", metavar="FILE",
                       help="write the /proc/trace_stat dump here")

    val_p = sub.add_parser(
        "validate", help="schema-check a chrome trace JSON artifact"
    )
    val_p.add_argument("file", help="chrome trace JSON file")

    sub.add_parser("schema", help="print the tracepoint event catalog")

    args = ap.parse_args(argv)

    if args.verb == "schema":
        from .trace.events import describe_schema

        print(describe_schema())
        return 0

    if args.verb == "validate":
        from .trace import validate_chrome_trace

        with open(args.file) as f:
            doc = json.load(f)
        problems = validate_chrome_trace(doc)
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            print(f"INVALID: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        n = len(doc["traceEvents"])
        print(f"OK: {args.file} valid chrome trace, {n} events")
        return 0

    # run
    from .trace import to_chrome_trace, to_folded, to_perf_script

    system = CaratKopSystem(
        SystemConfig(
            machine=args.machine, protect=not args.baseline,
            regions=args.regions, engine=args.engine,
        )
    )
    trace = system.kernel.trace
    trace.configure(capacity=args.ring_capacity, mode=args.ring_mode)
    trace.enable()
    result = system.blast(size=args.size, count=args.count)
    trace.disable()
    events = trace.snapshot()
    ring = trace.ring_stats()
    print(
        f"{system.technique}: {result.packets_sent} packets, "
        f"{ring['total']} events ({ring['lost']} lost), "
        f"{trace.guard_hist.count} guard checks over "
        f"{len(trace.guard_sites)} sites"
    )
    if args.chrome:
        with open(args.chrome, "w") as f:
            json.dump(to_chrome_trace(events, freq_hz=trace.freq_hz), f)
        print(f"wrote {args.chrome}")
    if args.folded:
        with open(args.folded, "w") as f:
            f.write(to_folded(events, weight="cycles"))
        print(f"wrote {args.folded}")
    if args.perf:
        with open(args.perf, "w") as f:
            f.write(to_perf_script(events))
        print(f"wrote {args.perf}")
    if args.stat_out:
        with open(args.stat_out, "w") as f:
            f.write(trace.render_stat())
        print(f"wrote {args.stat_out}")
    if not (args.chrome or args.folded or args.perf or args.stat_out):
        print(trace.render_stat())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(bench_main())
