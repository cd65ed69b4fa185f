"""caratkop-policyd: the multi-tenant control-plane service + benchmark.

Drives N tenants' worth of transactional batch mutations, staged
canary rollouts, and concurrent guard traffic against one simulated
kernel — optionally with every control-plane fault hook armed — and
digests the guard-visible policy state so chaos runs can be proven
bit-identical to fault-free runs.

Two digests come out of a run:

- ``settled_digest`` covers only *settled* state: after each staged
  generation resolves (promote or rollback), the composed policy
  content, the generation number, the decisions a fixed probe set
  receives on every CPU, the violation ledger, and the tenant stats are
  folded in.  Faults never change what the system settles to, and
  canary membership is irrelevant once nothing is staged, so this
  digest is identical across interp/compiled x 1/2/4 CPUs x chaos/clean
  — the acceptance-grid invariant.
- ``full_digest`` additionally folds in the *mid-window* probe
  decisions, where canary CPUs intentionally see the staged generation
  while the rest still see the current one.  Canary membership depends
  on the CPU count, so this digest is only comparable within one
  (engine, cpus) cell — there it must still be chaos==clean, because
  injected faults are absorbed by retry/repair before any decision is
  served.

The run always includes one hostile step per round: a tenant with a
tiny violation budget stages a deny region over the probe window, the
canary CPU's denials blow the budget, and the control plane records an
auto-rollback — in the chaos run *and* the clean run, so the digests
still agree while proving the rollback path fires.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from .. import abi
from ..core.pipeline import CompileOptions, compile_module
from ..core.system import CaratKopSystem, SystemConfig
from ..faults.injector import FaultInjector
from .controlplane import ControlPlaneConfig, OP_ADD, OP_DEL, TenantQuota

#: The -O3 demonstration module: every access provably inside its own
#: globals, so all guards elide at insmod — until the first staged
#: generation eagerly demotes it back to dynamic guarding.
PROBE_MODULE = r"""
long buf[64];

int init_module(void) {
    buf[0] = 1;
    return 0;
}

__export long spin(long n) {
    long i;
    long acc;
    acc = 0;
    for (i = 0; i < n; i = i + 1) {
        acc = acc + buf[i % 64];
    }
    return acc;
}
"""

PROBE_MODULE_NAME = "policyd_probe"

#: Where tenant regions live: far from the driver's device windows and
#: the module arena, so control-plane traffic never perturbs the NIC.
TENANT_BASE = 0x7000_0000_0000
TENANT_SPAN = 0x1_0000_0000
#: The window the hostile tenant denies: the gap between tenant 0's
#: first two regions (regions sit at 0x2000 strides, 0x1000 long), so
#: no other tenant's allow region can first-match-shadow the deny.
HOSTILE_WINDOW = TENANT_BASE + 0x1100

_READ8 = (abi.FLAG_READ, 8)


def _tenant_region(tenant_idx: int, region_idx: int) -> tuple[int, int]:
    base = (TENANT_BASE + tenant_idx * TENANT_SPAN
            + region_idx * 0x2000)
    return base, 0x1000


def run_policyd(
    tenants: int = 4,
    regions: int = 1024,
    rounds: int = 3,
    batch_ops: int = 16,
    engine: str = "compiled",
    cpus: int = 1,
    machine: Optional[str] = None,
    policy_index: Optional[str] = None,
    injector: Optional[FaultInjector] = None,
    blast_count: int = 16,
    config: Optional[ControlPlaneConfig] = None,
) -> dict:
    """Run the policyd workload; returns a report with both digests.

    ``regions`` is the total target across tenants; ``rounds`` repeats
    the whole mutate/stage/settle sweep (each round also runs the
    hostile quota-blowing step).  Pass an armed :class:`FaultInjector`
    for a chaos run; ``None`` is the fault-free baseline.
    """
    if tenants < 1:
        raise ValueError("need at least one tenant")
    system = CaratKopSystem(SystemConfig(
        machine=machine, protect=True, enforce_mode="audit",
        engine=engine, cpus=cpus, policy_index=policy_index,
    ))
    kernel = system.kernel
    policy = system.policy
    cp = policy.controlplane
    cp_config = cp.config = config or ControlPlaneConfig(
        canary_window=64, canary_tick_limit=4,
        max_total_regions=max(8192, regions + 64),
    )
    if injector is not None:
        injector.attach(system)

    # The -O3 module loads while the composition equals the system
    # namespace (no tenant regions yet), so its certificate holds; the
    # first staged generation must demote it exactly once.
    probe_mod = compile_module(PROBE_MODULE, CompileOptions(
        module_name=PROBE_MODULE_NAME, key=system.signing_key,
        opt_level=3, verify_table=policy.index,
    ))
    loaded_probe = kernel.insmod(probe_mod)
    elided_at_load = len(loaded_probe.elided_guards)

    per_tenant = max(1, regions // tenants)
    names = [f"tenant{t}" for t in range(tenants)]
    for name in names:
        cp.create_tenant(name, TenantQuota(
            max_regions=per_tenant + 8,
            max_mutations_per_window=per_tenant + batch_ops,
            violation_budget=1 << 30,  # well-behaved tenants never trip
        ))
    hostile_budget = 2
    cp.create_tenant("hostile", TenantQuota(
        max_regions=8, max_mutations_per_window=64,
        violation_budget=hostile_budget,
    ))

    settled = hashlib.sha256()
    full = hashlib.sha256()
    # Half the probes land in tenant 0's first allow region, half in the
    # hostile window (default-deny until the hostile tenant stages).
    probe_addrs = (
        [TENANT_BASE + i * 0x40 for i in range(4)]
        + [HOSTILE_WINDOW + i * 0x40 for i in range(4)]
    )
    report: dict = {
        "tenants": tenants,
        "regions_requested": regions,
        "rounds": rounds,
        "engine": engine,
        "cpus": cpus,
        "batches_submitted": 0,
        "batches_retried": 0,
        "delivered_frames": 0,
        "replica_divergence": 0,
        "rollback_reasons": [],
    }
    flags, size = _READ8

    def probe(h_all, h_settled_only) -> None:
        """Fold every CPU's decision for the probe set into ``h_all``
        (and the canonical CPU-0 decision into ``h_settled_only`` when
        given).  Uses the replica read path directly: canary CPUs
        advance the staged window.  Post-settle (``h_settled_only``
        set), every CPU must agree with CPU 0 — any disagreement is
        replica divergence, which the acceptance criteria forbid."""
        for addr in probe_addrs:
            baseline = None
            for cpu in kernel.smp.cpus():
                decision = policy._replica_check(
                    policy.index, cpu, addr, size, flags
                )
                allowed, scanned = decision
                h_all.update(f"{cpu}|{addr:x}|{int(allowed)}|{scanned};"
                             .encode())
                if baseline is None:
                    baseline = decision
                elif h_settled_only is not None and decision != baseline:
                    report["replica_divergence"] += 1
            if h_settled_only is not None:
                h_settled_only.update(
                    f"{addr:x}|{int(baseline[0])}|{baseline[1]};".encode()
                )

    def settle() -> None:
        """Tick the staged generation to promote/rollback, probing each
        tick so the canary window sees traffic, then fold the settled
        state into both digests."""
        guard = cp_config.canary_tick_limit + 2
        while cp.status()["staged_generation"] and guard:
            probe(full, None)  # mid-window: canary sees the staged gen
            event = cp.tick()
            if event == 2:
                report["rollback_reasons"].append(
                    cp.rollback_records[-1]["reason"])
            guard -= 1
        for h in (settled, full):
            h.update(f"gen={cp.generation};".encode())
            h.update(cp.composed_digest().encode())
            for mod, count in sorted(policy.violations.items()):
                h.update(f"v|{mod}|{count};".encode())
        probe(full, settled)

    def submit(name: str, ops) -> None:
        """Submit with bounded retry: an injected torn batch (-EIO) or a
        publish-watchdog exhaustion (-EAGAIN) is retried — the schedule
        has advanced, so the retry takes a different fault path."""
        report["batches_submitted"] += 1
        for _attempt in range(4):
            try:
                cp.submit_batch(name, ops)
                return
            except OSError as e:
                if e.errno not in (5, 11):  # EIO, EAGAIN
                    raise
                report["batches_retried"] += 1
        raise RuntimeError(f"batch for {name} still failing after retries")

    built = [0] * tenants
    step = 0
    for _round in range(rounds):
        # Well-behaved tenants build out their namespaces batch by batch.
        while any(b < per_tenant for b in built):
            t = step % tenants
            step += 1
            if built[t] >= per_tenant:
                continue
            count = min(batch_ops, per_tenant - built[t])
            ops = [
                (OP_ADD, *_tenant_region(t, built[t] + i),
                 abi.FLAG_READ | abi.FLAG_WRITE)
                for i in range(count)
            ]
            built[t] += count
            submit(names[t], ops)
            settle()
            # Steady-state guard traffic through the driver (VM path:
            # this is what makes the engine dimension meaningful).
            sunk = system.sink.packets
            system.blast(size=128, count=blast_count)
            report["delivered_frames"] += system.sink.packets - sunk
            kernel.run_function(loaded_probe, "spin", [64])
        # The hostile step: deny the probe window, blow the violation
        # budget from the canary CPU, and let the watchdog roll back.
        submit("hostile", [(OP_DEL, HOSTILE_WINDOW, 0x200, 0)]
               if len(cp.tenant("hostile").table) else
               [(OP_ADD, HOSTILE_WINDOW, 0x200, 0)])
        if cp.status()["staged_generation"]:
            for _ in range(hostile_budget + 2):
                policy._guard(None, HOSTILE_WINDOW + 0x40, 8,
                              abi.FLAG_READ, "policyd_hostile")
            event = cp.tick()
            if event == 2:
                report["rollback_reasons"].append(
                    cp.rollback_records[-1]["reason"])
        settle()
        # Rebuild phase next round mutates via deletes + re-adds.
        if _round + 1 < rounds:
            for t in range(tenants):
                base, length = _tenant_region(t, 0)
                submit(names[t], [
                    (OP_DEL, base, length, 0),
                    (OP_ADD, base, length, abi.FLAG_READ),
                ])
                settle()

    status = cp.status()
    report.update({
        "generation": status["generation"],
        "promotions": status["promotions"],
        "rollbacks": status["rollbacks"],
        "publish_retries": status["publish_retries"],
        "publish_failures": status["publish_failures"],
        "forced_publishes": status["forced_publishes"],
        "replica_repairs": status["replica_repairs"],
        "torn_batches": status["torn_batches"],
        "quota_races": status["quota_races"],
        "backoff_us_total": status["backoff_us_total"],
        "max_backoff_us": status["max_backoff_us"],
        "composed_regions": status["regions"],
        "verify_demotions": kernel.verify_demotions,
        "probe_elided_at_load": elided_at_load,
        "probe_elided_now": len(loaded_probe.elided_guards),
        "injector": None if injector is None else injector.report(),
        "settled_digest": settled.hexdigest(),
        "full_digest": full.hexdigest(),
        "panicked": kernel.panicked,
    })
    tenant_stats = {}
    for name in (*names, "hostile"):
        tenant_stats[name] = cp.tenant(name).stats()
    report["tenant_stats"] = tenant_stats
    return report


def chaos_injector() -> FaultInjector:
    """The standard all-hooks-armed chaos schedule (periods chosen so
    the watchdog always wins within its retry budget: every hook fires
    repeatedly per run, but never so densely that a whole retry loop
    faults end to end)."""
    return FaultInjector(
        publish_drop_period=3,
        publish_stall_period=4,
        replica_corrupt_period=5,
        torn_batch_period=23,
        quota_race_period=3,
    )


__all__ = ["HOSTILE_WINDOW", "PROBE_MODULE", "PROBE_MODULE_NAME",
           "TENANT_BASE", "chaos_injector", "run_policyd"]
