"""Resilient multi-tenant policy control plane.

The paper's policy plane is one manager mutating one table over
synchronous ioctls that either succeed or panic.  This module is the
write/publish path grown a failure model:

- **Tenant namespaces with quotas.**  Each tenant owns a private region
  namespace (region-count quota via its namespace table's capacity,
  mutation-rate quota per tick window, violation budget per canary
  window).  The *effective* policy the guard sees is the composition of
  every tenant's regions (tenant-creation order, first-match priority)
  followed by the system regions in the master table, under the master's
  default: one immutable policy version of the master's type (with no
  tenant region, the master's own version).

- **Transactional batches.**  A batch of adds/deletes applies
  all-or-nothing by generalizing the PR 3 kernel transaction journal to
  policy state: every applied op is one table write (``add``, or
  ``pop`` of the matched position for a delete) and records a
  ``policy`` journal entry carrying its exact structural inverse
  (``pop`` or ``insert`` at that position), and any mid-batch failure
  (quota, overlap, injected torn-batch fault) rolls the journal back
  through the same path module ejection uses.  The master table and the
  published replicas are never touched mid-batch, so a torn batch is
  unobservable from the guard path by construction.

- **Generation-versioned staged rollout.**  A successful batch composes
  a new policy version, stamps it with generation ``G = current + 1``, and
  publishes it to a *canary* subset of the per-CPU replica slots only.
  The canary window advances on canary replica reads and on explicit
  ticks; if the deny rate stays inside the staging tenant's violation
  budget the generation is promoted (published everywhere, journal
  records dropped), otherwise it is **auto-rolled back**: journal undo
  restores the tenant namespace and the canary slots are re-published
  with the current generation.  Stage, promote and rollback each end in
  the policy module's one write hook
  (:meth:`~repro.policy.module.CaratPolicyModule.policy_written`),
  which empties the cached guard decisions and demotes every -O3
  module with elided guards.

- **One write path.**  Every write to the master table (an ioctl, or a
  direct ``policy.index`` edit) calls the same hook as it happens, and
  the hook calls :meth:`PolicyControlPlane.on_master_mutated`, which
  recomposes and republishes.  So a published slot never lags the
  master, and the read path checks only for faults.

- **Hardened publish path.**  ``_publish`` is a watchdog loop: injected
  dropped per-CPU publishes and stalled grace periods are detected
  (per-replica generation stamps) and retried with bounded exponential
  backoff; exhaustion either fails the stage (auto-rollback) or — for
  promotes and rollbacks, which must complete — force-installs the
  slots (roll-forward).  Replica corruption is caught on the read path
  by canonical-object identity (a stamp can be torn *with* the payload,
  so the stamp alone is not trusted) and repaired in place before any
  decision is served.

Rollbacks do not consume generation numbers, so a chaos run and a
fault-free run converge to identical generation sequences and identical
composed policy — the property the acceptance grid asserts.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

from ..kernel.chardev import (
    EAGAIN, EBUSY, EDQUOT, EEXIST, EINVAL, EIO, ENOENT, ENOSPC, IoctlError,
)
from .region import Region
from .table import PolicyTableFull, RegionTable

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from .module import CaratPolicyModule

#: Batch-op wire codes (CMD_BATCH_MUTATE payload entries).
OP_ADD = 0
OP_DEL = 1

#: Journal owner prefix for batch transactions; ``/proc/journal`` shows
#: in-flight batches under this name like any module's side effects.
_OWNER_PREFIX = "policy:"


class ControlPlaneError(IoctlError):
    """An errno-carrying control-plane failure (subset of IoctlError so
    the ioctl surface re-raises it unchanged)."""


class TenantQuota:
    """Per-tenant resource limits."""

    __slots__ = ("max_regions", "max_mutations_per_window",
                 "violation_budget")

    def __init__(self, max_regions: int = 256,
                 max_mutations_per_window: int = 1024,
                 violation_budget: int = 64):
        self.max_regions = max_regions
        self.max_mutations_per_window = max_mutations_per_window
        self.violation_budget = violation_budget


class Tenant:
    """One policy namespace: a private region table plus usage counters.

    The namespace table is bookkeeping only — the guard never reads it;
    its regions reach the guard via composed generation versions.  Its
    capacity *is* the region-count quota (``PolicyTableFull`` on add
    maps to ``-EDQUOT``)."""

    __slots__ = ("name", "quota", "table", "generation",
                 "batches_applied", "batches_promoted", "batches_rejected",
                 "rollbacks", "mutations_window", "quota_denials",
                 "overlap_rejections")

    def __init__(self, name: str, quota: TenantQuota):
        self.name = name
        self.quota = quota
        self.table = RegionTable(default_allow=False,
                                 max_regions=quota.max_regions)
        #: Last generation that published this tenant's state.
        self.generation = 0
        self.batches_applied = 0
        self.batches_promoted = 0
        self.batches_rejected = 0
        self.rollbacks = 0
        self.mutations_window = 0
        self.quota_denials = 0
        self.overlap_rejections = 0

    def stats(self) -> dict[str, int]:
        return {
            "generation": self.generation,
            "regions": len(self.table),
            "batches_applied": self.batches_applied,
            "batches_promoted": self.batches_promoted,
            "batches_rejected": self.batches_rejected,
            "rollbacks": self.rollbacks,
            "mutations_window": self.mutations_window,
            "quota_denials": self.quota_denials,
            "overlap_rejections": self.overlap_rejections,
        }


class ControlPlaneConfig:
    """Tunables for staging windows and the publish watchdog."""

    __slots__ = ("canary_cpus", "canary_window", "canary_tick_limit",
                 "publish_max_retries", "backoff_base_us", "backoff_cap_us",
                 "rate_window_ticks", "max_total_regions")

    def __init__(self, canary_cpus: int = 1, canary_window: int = 16,
                 canary_tick_limit: int = 4, publish_max_retries: int = 6,
                 backoff_base_us: float = 100.0,
                 backoff_cap_us: float = 10_000.0,
                 rate_window_ticks: int = 8,
                 max_total_regions: int = 8192):
        self.canary_cpus = canary_cpus
        self.canary_window = canary_window
        self.canary_tick_limit = canary_tick_limit
        self.publish_max_retries = publish_max_retries
        self.backoff_base_us = backoff_base_us
        self.backoff_cap_us = backoff_cap_us
        self.rate_window_ticks = rate_window_ticks
        self.max_total_regions = max_total_regions


class _TornReplica:
    """What a corrupted per-CPU slot holds.  Its generation stamp still
    matches (a torn write can tear the payload without tearing the
    stamp), so detection must not trust the stamp — the read path
    compares canonical-object identity instead.  ``check`` raising is
    the tripwire: if repair ever misses, the guard path fails loudly
    rather than silently diverging."""

    __slots__ = ()

    def check(self, addr: int, size: int, flags: int):
        raise RuntimeError(
            "torn policy replica observed on the guard path "
            "(control-plane repair failed)"
        )


class _Staged:
    """One canary generation in flight."""

    __slots__ = ("gen", "tenant", "snapshot", "canary", "window",
                 "tick_limit", "reads", "ticks", "violations_base", "owner")

    def __init__(self, gen: int, tenant: Tenant, snapshot, canary: tuple,
                 window: int, tick_limit: int, violations_base: int,
                 owner: str):
        self.gen = gen
        self.tenant = tenant
        self.snapshot = snapshot
        self.canary = canary
        self.window = window
        self.tick_limit = tick_limit
        self.reads = 0
        self.ticks = 0
        self.violations_base = violations_base
        self.owner = owner


class PolicyControlPlane:
    """The write/publish side of the policy plane, made crash-consistent.

    Every :class:`CaratPolicyModule` builds one and owns it as
    ``policy.controlplane``: it is the only replica surface the guard
    reads, and the only publisher.  Legacy global-table ioctls are
    changes to the system namespace (the master table); the
    batch/stage/promote/rollback surface is reachable both directly and
    through the ``CMD_TENANT_*``/``CMD_BATCH_MUTATE``/``CMD_CP_*``
    ioctls.  Set :attr:`config` before the first tenant exists to tune
    the plane; ``FaultInjector.attach`` faults it.
    """

    def __init__(self, kernel: "Kernel", policy: "CaratPolicyModule"):
        self.kernel = kernel
        self.policy = policy
        self.config = ControlPlaneConfig()
        #: Fault injector (see :mod:`repro.faults`) whose control-plane
        #: schedules (``publish_drop``, ``publish_stall``,
        #: ``replica_corrupt``, ``torn_batch``, ``quota_race``) this
        #: plane consults; ``None`` = fault-free.
        self.fault_injector = None
        self.tenants: dict[str, Tenant] = {}
        #: Per-CPU ``(generation_stamp, snapshot)`` slots — the replica
        #: surface the guard reads through :meth:`replica_for`.
        ncpus = kernel.smp.ncpus
        self._slots: list = [None] * ncpus
        self._staged: Optional[_Staged] = None
        self._ticks = 0
        # -- counters (all operator-visible via /proc/carat) --
        self.batches = 0
        self.batch_ops = 0
        self.torn_batches = 0
        self.quota_races = 0
        self.promotions = 0
        self.rollback_records: list[dict] = []
        self.publishes = 0
        self.publish_retries = 0
        self.publish_failures = 0
        self.forced_publishes = 0
        self.replica_repairs = 0
        self.backoff_us_total = 0.0
        self.max_backoff_us = 0.0
        points = kernel.trace.points
        self._tp_batch = points["cp:batch"]
        self._tp_stage = points["cp:stage"]
        self._tp_promote = points["cp:promote"]
        self._tp_rollback = points["cp:rollback"]
        self._tp_retry = points["cp:publish_retry"]
        self._tp_repair = points["cp:replica_repair"]
        #: Current (fully promoted) generation.  Generation 1 is the
        #: master table alone; publishing it sets ``_current`` (its
        #: composed snapshot).
        self.generation = 1
        self._republish(new_generation=False)

    # -- tenants ------------------------------------------------------------

    def create_tenant(self, name: str,
                      quota: Optional[TenantQuota] = None) -> Tenant:
        if not name or len(name.encode()) > 32:
            raise ControlPlaneError(
                EINVAL, "tenant name must be 1..32 bytes")
        if name in self.tenants:
            raise ControlPlaneError(EEXIST, f"tenant {name!r} exists")
        tenant = Tenant(name, quota or TenantQuota())
        self.tenants[name] = tenant
        self.kernel.dmesg(
            f"carat_cp: tenant {name} created "
            f"(max_regions={tenant.quota.max_regions})"
        )
        return tenant

    def _refuse_while_staged(self) -> None:
        """``EBUSY`` while any tenant's canary generation is in flight."""
        if self._staged is not None:
            raise ControlPlaneError(
                EBUSY,
                f"generation {self._staged.gen} is staged by tenant "
                f"{self._staged.tenant.name!r}; tick to completion first",
            )

    def delete_tenant(self, name: str) -> None:
        tenant = self.tenants.get(name)
        if tenant is None:
            raise ControlPlaneError(ENOENT, f"no tenant {name!r}")
        # Republishing from the live namespaces would hand every CPU the
        # unpromoted batch, whichever tenant staged it.
        self._refuse_while_staged()
        had_regions = len(tenant.table) > 0
        del self.tenants[name]
        self.kernel.dmesg(f"carat_cp: tenant {name} deleted")
        if had_regions:
            # The composition changed; publish a new generation now.
            self._republish(new_generation=True)

    def tenant(self, name: str) -> Tenant:
        tenant = self.tenants.get(name)
        if tenant is None:
            raise ControlPlaneError(ENOENT, f"no tenant {name!r}")
        return tenant

    # -- transactional batches ----------------------------------------------

    def submit_batch(self, name: str, ops: list[tuple]) -> int:
        """Apply ``ops`` (``(OP_ADD, base, length, prot)`` /
        ``(OP_DEL, base, length, 0)``) to ``name``'s namespace
        all-or-nothing, then stage the composed result as a canary
        generation.  Returns the staged generation number.

        Any failure mid-apply rolls the journal back and raises with the
        op's errno; the namespace, the master table, and every published
        replica are exactly as before the call.
        """
        tenant = self.tenant(name)
        self._refuse_while_staged()
        if not ops:
            raise ControlPlaneError(EINVAL, "empty batch")
        if (tenant.mutations_window + len(ops)
                > tenant.quota.max_mutations_per_window):
            tenant.quota_denials += 1
            raise ControlPlaneError(
                EDQUOT,
                f"tenant {name!r} mutation-rate quota exceeded "
                f"({tenant.mutations_window}+{len(ops)} > "
                f"{tenant.quota.max_mutations_per_window} per window)",
            )
        owner = _OWNER_PREFIX + name
        self.batches += 1
        try:
            self._apply_ops(tenant, owner, ops)
        except IoctlError:
            self.kernel.journal.rollback(owner, self.kernel)
            tenant.batches_rejected += 1
            raise
        tenant.mutations_window += len(ops)
        tenant.batches_applied += 1
        self.batch_ops += len(ops)
        if self._tp_batch.enabled:
            self._tp_batch.emit(tenant=name, ops=len(ops),
                                regions=len(tenant.table))
        inj = self.fault_injector
        if inj is not None and inj.fires("quota_race"):
            # Quota-race storm: a racing duplicate of the same batch must
            # fail cleanly against the state the batch just created and
            # leave nothing behind.
            self.quota_races += 1
            race_owner = _OWNER_PREFIX + "#race"
            try:
                self._apply_ops(tenant, race_owner, ops)
            except IoctlError:
                self.kernel.journal.drop(race_owner)
            else:  # pragma: no cover - defensive (dup adds always EEXIST)
                self.kernel.journal.rollback(race_owner, self.kernel)
        return self._stage(tenant, owner)

    def _apply_ops(self, tenant: Tenant, owner: str, ops: list[tuple]) -> None:
        """Apply ops to the namespace table, journaling an exact
        structural inverse per op.  Raises on the first bad op (caller
        rolls back)."""
        journal = self.kernel.journal
        table = tenant.table
        inj = self.fault_injector
        for seq, op in enumerate(ops):
            try:
                kind, base, length, prot = op
            except (TypeError, ValueError) as e:
                raise ControlPlaneError(EINVAL, f"malformed op {seq}") from e
            if inj is not None and inj.fires("torn_batch"):
                self.torn_batches += 1
                raise ControlPlaneError(
                    EIO, f"batch torn at op {seq} (injected fault)")
            if kind == OP_ADD:
                if table.overlapping(base, length) is not None:
                    tenant.overlap_rejections += 1
                    raise ControlPlaneError(
                        EEXIST,
                        f"op {seq}: [{base:#x}, +{length:#x}) overlaps an "
                        f"existing region in tenant {tenant.name!r}",
                    )
                try:
                    region = Region(base, length, prot)
                    idx = table.add(region)
                except PolicyTableFull as e:
                    tenant.quota_denials += 1
                    raise ControlPlaneError(EDQUOT, str(e)) from e
                except ValueError as e:
                    raise ControlPlaneError(EINVAL, str(e)) from e
                journal.record(
                    owner, "policy", (tenant.name, seq), op="add",
                    undo=self._undo_add(table, idx, region),
                )
            elif kind == OP_DEL:
                idx = table.index_of(base, length)
                if idx is None:
                    raise ControlPlaneError(
                        ENOENT,
                        f"op {seq}: no region [{base:#x}, +{length:#x}) "
                        f"in tenant {tenant.name!r}",
                    )
                region = table.pop(idx)
                journal.record(
                    owner, "policy", (tenant.name, seq), op="del",
                    undo=partial(table.insert, idx, region),
                )
            else:
                raise ControlPlaneError(EINVAL, f"op {seq}: unknown kind {kind}")

    @staticmethod
    def _undo_add(table: RegionTable, idx: int, region: Region):
        """Exact inverse of an append.  Rollback is LIFO, so at undo time
        ``idx`` is again the region's live position; removing by position
        (not by (base, length) match) restores the precise table order —
        order is first-match priority, so it is part of policy state."""
        def undo() -> None:
            regions = table.regions()
            if idx < len(regions) and regions[idx] is region:
                table.pop(idx)
        return undo

    # -- composition ----------------------------------------------------------

    def _tenant_regions(self) -> tuple:
        """Every tenant's regions, in tenant-creation order."""
        return tuple(r for tenant in self.tenants.values()
                     for r in tenant.table.regions())

    def _compose(self, tenant_regions: tuple):
        """The effective policy version: ``tenant_regions`` then the
        system regions, under the master's default and in a version of
        the master's own type, so interval-index deployments get
        interval-index composed checks.  With no tenant region the
        composition *is* the master, so its own version is returned."""
        master = self.policy.index.version
        total = len(tenant_regions) + len(master)
        if total > self.config.max_total_regions:
            raise ControlPlaneError(
                ENOSPC,
                f"composed policy would hold {total} regions "
                f"(cap {self.config.max_total_regions})",
            )
        if not tenant_regions:
            return master
        return type(master)(tenant_regions + tuple(master.regions()),
                            master.default_allow, master.epoch)

    def composed_digest(self) -> str:
        """Content digest of the current generation (guard-visible
        policy), structure-independent like ``RegionTable.digest``."""
        return self._current.digest(f"gen={self.generation};")

    # -- staged rollout -------------------------------------------------------

    def _canary_cpus(self) -> tuple:
        n = max(1, min(self.config.canary_cpus, self.kernel.smp.ncpus))
        return tuple(range(n))

    def _stage(self, tenant: Tenant, owner: str) -> int:
        gen = self.generation + 1
        try:
            snapshot = self._compose(self._tenant_regions())
        except IoctlError:
            self.kernel.journal.rollback(owner, self.kernel)
            tenant.batches_rejected += 1
            raise
        canary = self._canary_cpus()
        if not self._publish(snapshot, gen, canary):
            # Canary publish exhausted its retries: auto-rollback.
            self._rollback(tenant, owner, gen, "canary publish failed")
            raise ControlPlaneError(
                EAGAIN,
                f"generation {gen} canary publish failed after "
                f"{self.config.publish_max_retries} attempts; rolled back",
            )
        self._staged = _Staged(
            gen, tenant, snapshot, canary,
            window=self.config.canary_window,
            tick_limit=self.config.canary_tick_limit,
            violations_base=self.policy.stats.violations,
            owner=owner,
        )
        # Canary CPUs now read gen.
        self.policy.policy_written()
        if self._tp_stage.enabled:
            self._tp_stage.emit(generation=gen, tenant=tenant.name,
                                canary_cpus=len(canary),
                                regions=len(snapshot))
        self.kernel.dmesg(
            f"carat_cp: generation {gen} staged by {tenant.name} "
            f"(canary cpus {list(canary)}, {len(snapshot)} regions)"
        )
        return gen

    def tick(self) -> int:
        """Advance control-plane time: close rate windows and drive the
        staged generation's canary window.  Returns 0 (no transition),
        1 (promoted), or 2 (auto-rolled back)."""
        self._ticks += 1
        if self._ticks % self.config.rate_window_ticks == 0:
            for tenant in self.tenants.values():
                tenant.mutations_window = 0
        staged = self._staged
        if staged is None:
            return 0
        staged.ticks += 1
        denies = self.policy.stats.violations - staged.violations_base
        if denies > staged.tenant.quota.violation_budget:
            self._staged = None
            self._rollback(
                staged.tenant, staged.owner, staged.gen,
                f"violation budget exceeded ({denies} denies > "
                f"{staged.tenant.quota.violation_budget} in canary window)",
            )
            return 2
        if (staged.reads >= staged.window
                or staged.ticks >= staged.tick_limit):
            self._promote(staged)
            return 1
        return 0

    def _promote(self, staged: _Staged) -> None:
        self._staged = None
        # Promotes must complete: after retries, roll forward by force so
        # no CPU is left on the old generation.
        self._publish(staged.snapshot, staged.gen, self.kernel.smp.cpus(),
                      force_on_exhaust=True)
        self._current = staged.snapshot
        self.generation = staged.gen
        tenant = staged.tenant
        tenant.generation = staged.gen
        tenant.batches_promoted += 1
        self.kernel.journal.drop(staged.owner)
        self.promotions += 1
        self.policy.policy_written()
        if self._tp_promote.enabled:
            self._tp_promote.emit(generation=staged.gen, tenant=tenant.name,
                                  canary_reads=staged.reads,
                                  canary_ticks=staged.ticks)
        self.kernel.dmesg(
            f"carat_cp: generation {staged.gen} promoted "
            f"(tenant {tenant.name}, {staged.reads} canary reads, "
            f"{staged.ticks} ticks)"
        )

    def _rollback(self, tenant: Tenant, owner: str, gen: int,
                  reason: str) -> None:
        """Withdraw a staged generation: journal-undo the namespace ops,
        restore the canary slots to the current generation, and eagerly
        re-demote every -O3 module verified against the staged policy."""
        summary = self.kernel.journal.rollback(owner, self.kernel)
        # Rollbacks must complete; force the restore if faults persist.
        self._publish(self._current, self.generation, self._canary_cpus(),
                      force_on_exhaust=True)
        tenant.rollbacks += 1
        record = {
            "generation": gen,
            "tenant": tenant.name,
            "reason": reason,
            "policy_ops": summary["policy_ops"],
        }
        self.rollback_records.append(record)
        self.policy.policy_written()
        if self._tp_rollback.enabled:
            self._tp_rollback.emit(generation=gen, tenant=tenant.name,
                                   reason=reason,
                                   policy_ops=summary["policy_ops"])
        self.kernel.dmesg(
            f"carat_cp: generation {gen} ROLLED BACK (tenant {tenant.name}: "
            f"{reason}; {summary['policy_ops']} op(s) undone)"
        )

    # -- publish watchdog -----------------------------------------------------

    def _publish(self, snapshot, gen: int, cpus, *,
                 force_on_exhaust: bool = False) -> bool:
        """Install ``(gen, snapshot)`` in the given per-CPU slots behind a
        grace period, retrying dropped installs and stalled grace periods
        with bounded exponential backoff.  Backoff is modeled in the
        counters (total/max simulated µs) rather than the kernel clock so
        a watchdog wait never fires unrelated timers."""
        inj = self.fault_injector
        cpus = list(cpus)
        backoff = self.config.backoff_base_us
        for attempt in range(1, self.config.publish_max_retries + 1):
            dropped = []
            for cpu in cpus:
                if inj is not None and inj.fires("publish_drop", cpu=cpu):
                    dropped.append(cpu)
                    continue
                self._slots[cpu] = (gen, snapshot)
            stalled = inj is not None and inj.fires("publish_stall")
            if not stalled:
                self.kernel.rcu.synchronize()
            if not dropped and not stalled:
                self.publishes += 1
                if inj is not None:
                    for cpu in cpus:
                        if inj.fires("replica_corrupt", cpu=cpu):
                            # Torn write: the stamp lands, the payload
                            # doesn't.  The read path repairs it.
                            self._slots[cpu] = (gen, _TornReplica())
                return True
            # Watchdog: the publish is partial (per-replica stamps show
            # which CPUs missed it) or the grace period stalled.  Back
            # off and retry the whole install.
            self.publish_retries += 1
            self.backoff_us_total += backoff
            self.max_backoff_us = max(self.max_backoff_us, backoff)
            if self._tp_retry.enabled:
                self._tp_retry.emit(generation=gen, attempt=attempt,
                                    backoff_us=backoff,
                                    dropped=len(dropped),
                                    stalled=int(stalled))
            backoff = min(backoff * 2.0, self.config.backoff_cap_us)
        if force_on_exhaust:
            for cpu in cpus:
                self._slots[cpu] = (gen, snapshot)
            self.kernel.rcu.synchronize()
            self.forced_publishes += 1
            self.publishes += 1
            return True
        self.publish_failures += 1
        return False

    def on_master_mutated(self) -> None:
        """A master write changes the system namespace: a staged canary
        is preempted (auto-rolled back) and the recomposed policy is
        published synchronously everywhere, so the legacy ioctls keep
        their immediate-visibility semantics.  Only a composition with
        tenants takes a new generation; the master alone republishes
        under the current one.  Called only by the policy module's write
        hook, which has already emptied the guard decisions that read
        the master."""
        staged = self._staged
        if staged is not None:
            self._staged = None
            self._rollback(staged.tenant, staged.owner, staged.gen,
                           "preempted by system policy mutation")
        self._republish(new_generation=bool(self.tenants))

    def _republish(self, new_generation: bool) -> None:
        """Compose from the live namespaces and publish everywhere, as
        a new generation (a promotion) or under the current one."""
        snapshot = self._compose(self._tenant_regions())
        gen = self.generation + 1 if new_generation else self.generation
        self._publish(snapshot, gen, self.kernel.smp.cpus(),
                      force_on_exhaust=True)
        self._current = snapshot
        if new_generation:
            self.generation = gen
            self.promotions += 1
            self.policy.invalidate_decisions()

    # -- the guard-facing read path -------------------------------------------

    def replica_for(self, cpu: int):
        """The snapshot ``cpu`` must read this instant (caller holds the
        RCU read lock).  Canary CPUs read the staged generation (and
        advance its window); everyone else reads the current one.  A slot
        whose stamp or payload identity disagrees with the canonical
        snapshot is a detected partial publish or torn write — repaired
        here, before any decision is served, so a torn generation is
        never observable from the guard path."""
        staged = self._staged
        if staged is not None and cpu in staged.canary:
            staged.reads += 1
            want_gen, want_snap = staged.gen, staged.snapshot
        else:
            want_gen, want_snap = self.generation, self._current
        slot = self._slots[cpu]
        if slot is None or slot[0] != want_gen or slot[1] is not want_snap:
            self._slots[cpu] = (want_gen, want_snap)
            self.replica_repairs += 1
            if self._tp_repair.enabled:
                self._tp_repair.emit(
                    cpu=cpu, generation=want_gen,
                    stale_generation=-1 if slot is None else slot[0],
                )
        return want_snap

    # -- introspection --------------------------------------------------------

    def status(self) -> dict:
        staged = self._staged
        return {
            "generation": self.generation,
            "staged_generation": 0 if staged is None else staged.gen,
            "staged_tenant": None if staged is None else staged.tenant.name,
            "tenants": len(self.tenants),
            "regions": len(self._current),
            "batches": self.batches,
            "batch_ops": self.batch_ops,
            "promotions": self.promotions,
            "rollbacks": len(self.rollback_records),
            "publishes": self.publishes,
            "publish_retries": self.publish_retries,
            "publish_failures": self.publish_failures,
            "forced_publishes": self.forced_publishes,
            "replica_repairs": self.replica_repairs,
            "torn_batches": self.torn_batches,
            "quota_races": self.quota_races,
            "backoff_us_total": self.backoff_us_total,
            "max_backoff_us": self.max_backoff_us,
        }

    def describe(self) -> str:
        """The /proc/carat control-plane section."""
        s = self.status()
        lines = [
            f"controlplane: generation {s['generation']}, "
            f"{s['tenants']} tenant(s), {s['regions']} composed region(s)",
            f"  staged:    "
            + (f"gen {s['staged_generation']} by {s['staged_tenant']} "
               f"(reads {self._staged.reads}/{self._staged.window}, "
               f"ticks {self._staged.ticks}/{self._staged.tick_limit})"
               if self._staged is not None else "none"),
            f"  batches:   {s['batches']} ({s['batch_ops']} ops, "
            f"{s['torn_batches']} torn, {s['quota_races']} quota races)",
            f"  rollout:   {s['promotions']} promoted, "
            f"{s['rollbacks']} rolled back",
            f"  publish:   {s['publishes']} ok, {s['publish_retries']} "
            f"retries, {s['publish_failures']} failed, "
            f"{s['forced_publishes']} forced, "
            f"backoff {s['backoff_us_total']:.0f}us total "
            f"(max {s['max_backoff_us']:.0f}us)",
            f"  repairs:   {s['replica_repairs']} replica slot(s)",
        ]
        for name, tenant in self.tenants.items():
            t = tenant.stats()
            lines.append(
                f"  tenant {name}: gen {t['generation']}, "
                f"{t['regions']}/{tenant.quota.max_regions} regions, "
                f"{t['batches_promoted']}/{t['batches_applied']} batches "
                f"promoted, {t['rollbacks']} rollbacks, "
                f"{t['quota_denials']} quota denials, "
                f"{t['overlap_rejections']} overlap rejections"
            )
        for record in self.rollback_records[-3:]:
            lines.append(
                f"  rollback gen {record['generation']} "
                f"({record['tenant']}): {record['reason']}"
            )
        return "\n".join(lines)


__all__ = [
    "ControlPlaneConfig",
    "ControlPlaneError",
    "OP_ADD",
    "OP_DEL",
    "PolicyControlPlane",
    "Tenant",
    "TenantQuota",
]
