"""RCU-replicated region table: the replica may never diverge from the
master, and per-CPU guard-decision caches must invalidate whenever the
enforcement epoch moves.

The replica is the SMP read-scaling mechanism (each CPU's ``carat_guard``
reads an immutable CPU-local snapshot lock-free; ioctl mutations publish
a fresh snapshot and wait a grace period) — so the property that matters
is byte-identical decisions: same ``(allowed, entries_scanned)`` from the
replica as from the master, for every query, after every mutation.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import abi
from repro.kernel import Kernel
from repro.policy import (
    CaratPolicyModule,
    PolicyManager,
    Region,
    RegionTable,
    RegionTableReplica,
)

PROTS = (abi.FLAG_READ, abi.FLAG_WRITE, abi.FLAG_READ | abi.FLAG_WRITE)

# Hypothesis op tape: mutations and checks against a live policy module.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, 120),           # slot on a 0x1000 lattice
            st.integers(1, 0x1000),        # length
            st.sampled_from(PROTS),
        ),
        st.tuples(st.just("remove"), st.integers(0, 120)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("default"), st.booleans()),
        st.tuples(
            st.just("check"),
            st.integers(0, 121 * 0x1000),  # offset into the lattice
            st.sampled_from((1, 4, 8, 64)),
            st.sampled_from(PROTS),
        ),
    ),
    min_size=1,
    max_size=40,
)

_BASE = 0x4000_0000


def _slot_region(slot, length=0x1000, prot=abi.FLAG_READ | abi.FLAG_WRITE):
    return _BASE + slot * 0x1000, length, prot


class TestSnapshotSemantics:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 60), st.integers(1, 0x1000),
                      st.sampled_from(PROTS)),
            max_size=20, unique_by=lambda t: t[0],
        ),
        st.lists(
            st.tuples(st.integers(0, 61 * 0x1000), st.sampled_from((1, 8)),
                      st.sampled_from(PROTS)),
            min_size=1, max_size=20,
        ),
        st.booleans(),
    )
    def test_snapshot_decides_exactly_like_master(self, regions, queries,
                                                  default_allow):
        master = RegionTable(default_allow=default_allow)
        for slot, length, prot in regions:
            master.add(Region(_BASE + slot * 0x1000, length, prot))
        replica = master.snapshot()
        assert isinstance(replica, RegionTableReplica)
        assert replica.epoch == master.epoch
        assert replica.default_allow == master.default_allow
        assert len(replica) == len(master)
        for off, size, flags in queries:
            addr = _BASE + off
            assert replica.check(addr, size, flags) == \
                master.check(addr, size, flags)

    def test_snapshot_is_immutable_under_master_mutation(self):
        master = RegionTable()
        master.add(Region(_BASE, 0x1000, abi.FLAG_READ))
        replica = master.snapshot()
        master.add(Region(_BASE + 0x1000, 0x1000, abi.FLAG_WRITE))
        master.remove(_BASE, 0x1000)
        # The replica still answers from the state it snapshotted.
        assert replica.check(_BASE, 8, abi.FLAG_READ)[0] is True
        assert replica.check(_BASE + 0x1000, 8, abi.FLAG_WRITE)[0] is False
        assert replica.epoch != master.epoch  # staleness is detectable


def _audit_policy(ncpus):
    kernel = Kernel(ncpus=ncpus)
    policy = CaratPolicyModule(kernel, mode="audit").install()
    return kernel, policy, PolicyManager(kernel)


class TestReplicaNeverDiverges:
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops, ncpus=st.sampled_from((1, 2, 4)))
    def test_randomized_ops(self, ops, ncpus):
        """Drive mutations through the ioctl write path (RCU publish)
        and checks through ``carat_guard`` on rotating CPUs; the guard's
        answer must always equal a direct master check."""
        kernel, policy, manager = _audit_policy(ncpus)
        master = policy.index
        cpu = 0
        for op in ops:
            kind = op[0]
            if kind == "add":
                _, slot, length, prot = op
                base, length, prot = _slot_region(slot, length, prot)
                manager.add_region(base, length, prot)
            elif kind == "remove":
                base, length, _ = _slot_region(op[1])
                manager.remove_region(base, length)
            elif kind == "clear":
                manager.clear()
            elif kind == "default":
                manager.set_default(op[1])
            else:
                _, off, size, flags = op
                addr = _BASE + off
                expect_allowed, expect_scanned = master.check(
                    addr, size, flags)
                with kernel.smp.on(cpu):
                    scanned = policy._guard(None, addr, size, flags, "t")
                assert scanned == expect_scanned
                # Audit mode returns the scan count for allow and deny
                # alike; the decision itself shows up in the counters.
                cpu = (cpu + 1) % ncpus
        # Every ioctl mutation re-published, so the only lazy rebuilds
        # are each CPU's very first guard before any publish happened.
        assert policy.replica_refreshes <= ncpus
        if ncpus > 1:
            merged = policy.stats.as_dict()
            per_cpu = policy.stats_per_cpu()
            for key in merged:
                assert merged[key] == sum(row[key] for row in per_cpu)

    @pytest.mark.parametrize("ncpus", [1, 2, 4])
    def test_direct_master_mutation_rebuilds_lazily(self, ncpus):
        """A mutation that bypasses the ioctl path (tests poking the
        index directly) must be caught by the staleness token and
        rebuilt CPU-locally — never answered from the stale replica."""
        kernel, policy, _ = _audit_policy(ncpus)
        base, length, prot = _slot_region(3)
        # Warm every CPU's replica on an empty table.
        for cpu in range(ncpus):
            with kernel.smp.on(cpu):
                policy._guard(None, base, 8, abi.FLAG_READ, "t")
        policy.index.add(Region(base, length, prot))  # no publish
        refreshes_before = policy.replica_refreshes
        for cpu in range(ncpus):
            with kernel.smp.on(cpu):
                scanned = policy._guard(None, base, 8, abi.FLAG_READ, "t")
            assert scanned == policy.index.check(base, 8, abi.FLAG_READ)[1]
        assert policy.replica_refreshes == refreshes_before + ncpus

    @pytest.mark.parametrize("ncpus", [1, 4])
    def test_publish_waits_a_grace_period(self, ncpus):
        kernel, policy, manager = _audit_policy(ncpus)
        gps_before = kernel.rcu.grace_periods
        base, length, prot = _slot_region(0)
        manager.add_region(base, length, prot)
        assert policy.replica_publishes > 0
        assert kernel.rcu.grace_periods > gps_before


class TestGuardCacheInvalidation:
    @pytest.mark.parametrize("ncpus", [1, 2, 4])
    def test_enforce_epoch_bump_invalidates_every_cpu(self, ncpus):
        kernel, policy, manager = _audit_policy(ncpus)
        base, length, prot = _slot_region(0)
        manager.add_region(base, length, prot)
        query = (base, 8, abi.FLAG_READ)

        def miss_hit_counts():
            rows = policy.stats_per_cpu()
            return [(r["guard_cache_misses"], r["guard_cache_hits"])
                    for r in rows]

        # Warm each CPU's decision cache: one miss then one hit apiece.
        for cpu in range(ncpus):
            with kernel.smp.on(cpu):
                policy._guard(None, *query, "t")
                policy._guard(None, *query, "t")
        assert miss_hit_counts() == [(1, 1)] * ncpus

        # A mode change bumps the enforcement epoch: every CPU's cached
        # decisions are stale and the next guard must miss.
        policy.set_mode("panic")
        policy.set_mode("audit")  # back to audit so denials don't raise
        for cpu in range(ncpus):
            with kernel.smp.on(cpu):
                policy._guard(None, *query, "t")
        assert miss_hit_counts() == [(2, 1)] * ncpus

    @pytest.mark.parametrize("ncpus", [1, 2])
    def test_region_epoch_bump_invalidates_too(self, ncpus):
        kernel, policy, manager = _audit_policy(ncpus)
        base, length, prot = _slot_region(0)
        manager.add_region(base, length, prot)
        query = (base, 8, abi.FLAG_READ)
        for cpu in range(ncpus):
            with kernel.smp.on(cpu):
                policy._guard(None, *query, "t")
                policy._guard(None, *query, "t")
        manager.add_region(*_slot_region(1))  # index epoch moves
        for cpu in range(ncpus):
            with kernel.smp.on(cpu):
                policy._guard(None, *query, "t")
        for misses, hits in (
            (r["guard_cache_misses"], r["guard_cache_hits"])
            for r in policy.stats_per_cpu()
        ):
            assert (misses, hits) == (2, 1)


@pytest.mark.parametrize("engine", ["interp", "compiled"])
class TestLiveSystemBothEngines:
    def test_replicated_reads_survive_live_mutation(self, engine):
        """Full-system check under both engines: blast, mutate the policy
        through the ioctl path mid-run, blast again — replicated guards
        must keep deciding exactly like the master (no denials, counters
        coherent, publishes recorded)."""
        from repro.core.system import CaratKopSystem, SystemConfig

        system = CaratKopSystem(SystemConfig(
            machine="r415", protect=True, engine=engine, cpus=2,
        ))
        r1 = system.blast(size=128, count=30)
        assert r1.errors == 0
        publishes_before = system.policy.replica_publishes
        system.policy_manager.add_region(
            0x7000_0000, 0x1000, abi.FLAG_READ | abi.FLAG_WRITE)
        assert system.policy.replica_publishes == publishes_before + 1
        r2 = system.blast(size=128, count=30)
        assert r2.errors == 0
        stats = system.guard_stats()
        assert stats["denied"] == 0
        assert stats["checks"] == stats["allowed"]
        assert system.policy.replica_refreshes == 0


class TestVerifyEpochDemotion:
    """PR-7 regression: every policy-mutation ioctl must also demote
    loaded -O3 modules whose verification certificates the mutation
    invalidated — a stale elision set is a policy bypass, exactly like
    a stale guard-decision cache (the two tests above)."""

    SOURCE = """
    long cells[4];
    __export long run(long seed) {
        cells[0] = seed;
        cells[1] = cells[0] + 1;
        return cells[1];
    }
    """

    def _loaded_o3(self, ncpus=1):
        from repro.core.pipeline import CompileOptions, compile_module
        from repro.passes.absint import AREAS

        kernel, policy, manager = _audit_policy(ncpus)
        lo, hi = AREAS["module"]
        manager.allow(lo, hi - lo + 1)
        manager.set_default(False)
        compiled = compile_module(
            self.SOURCE,
            CompileOptions(module_name="prog", protect=True, opt_level=3,
                           verify_table=policy.index),
        )
        loaded = kernel.insmod(compiled)
        assert loaded.elided_guards, "setup: nothing was elided"
        return kernel, policy, manager, loaded

    @pytest.mark.parametrize("mutate", [
        lambda m: m.add_region(0x3000_0000, 0x1000,
                               abi.FLAG_READ | abi.FLAG_WRITE),
        lambda m: m.set_default(True),
        lambda m: m.clear(),
        lambda m: m.add_region_for("prog", 0x3000_0000, 0x1000,
                                   abi.FLAG_READ | abi.FLAG_WRITE),
    ], ids=["add_region", "set_default", "clear", "add_region_for"])
    def test_every_mutating_ioctl_demotes(self, mutate):
        kernel, policy, manager, loaded = self._loaded_o3()
        mutate(manager)
        assert not loaded.elided_guards
        assert loaded.verify_state.startswith("demoted")
        assert kernel.verify_demotions >= 1

    def test_remove_region_demotes(self):
        from repro.passes.absint import AREAS

        kernel, policy, manager, loaded = self._loaded_o3()
        lo, hi = AREAS["module"]
        assert manager.remove_region(lo, hi - lo + 1)
        assert not loaded.elided_guards

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_deny_visibility_restored_after_demotion(self, engine):
        """The whole point: after the allow region is removed, the
        previously-elided guards run dynamically again and the deny
        is observed — on both engines (the compiled engine must also
        drop its translated bodies)."""
        from repro.core.pipeline import CompileOptions, compile_module
        from repro.passes.absint import AREAS

        kernel = Kernel(engine=engine)
        policy = CaratPolicyModule(kernel, mode="audit").install()
        manager = PolicyManager(kernel)
        lo, hi = AREAS["module"]
        manager.allow(lo, hi - lo + 1)
        manager.set_default(False)
        compiled = compile_module(
            self.SOURCE,
            CompileOptions(module_name="prog", protect=True, opt_level=3,
                           verify_table=policy.index),
        )
        loaded = kernel.insmod(compiled)
        kernel.run_function(loaded, "run", [1])
        checks_elided = policy.stats.checks
        manager.remove_region(lo, hi - lo + 1)  # now everything denies
        assert not loaded.elided_guards
        kernel.run_function(loaded, "run", [2])
        assert policy.stats.checks > checks_elided
        assert policy.stats.denied > 0, "deny stayed hidden after demotion"

    def test_run_function_catches_direct_index_mutation(self):
        """A mutation that bypasses the ioctl path entirely is still
        caught by the staleness token before any elided site runs."""
        kernel, policy, manager, loaded = self._loaded_o3()
        policy.index.clear()  # no publish, no on_policy_mutated()
        kernel.run_function(loaded, "run", [3])
        assert not loaded.elided_guards
        assert loaded.verify_state.startswith("demoted")


class TestVerifyPolicyUnderMutationStorm:
    """S3: ``--verify-policy strict|demote|off`` under a concurrent
    mutation storm.  Three -O3 modules run while three interleaved
    mutators hammer the policy plane (global adds/removes, default
    flips, per-module adds).  The invariants:

    - every loaded -O3 module is demoted **exactly once** per policy
      generation bump that invalidates it — no double demotion, no
      demotion of an already-dynamic module;
    - a module **never executes** with stale elided guards: by the time
      ``run_function`` dispatches, any mutation has already cleared the
      elision set (eager hook) or the staleness token catches it first.
    """

    SOURCE = """
    long cells[4];
    __export long run(long seed) {
        cells[0] = seed;
        cells[1] = cells[0] + 1;
        return cells[1];
    }
    """

    def _storm_kernel(self, verify_policy, ncpus=2):
        from repro.core.pipeline import CompileOptions, compile_module
        from repro.passes.absint import AREAS

        kernel = Kernel(ncpus=ncpus, verify_policy=verify_policy)
        policy = CaratPolicyModule(kernel, mode="audit").install()
        manager = PolicyManager(kernel)
        lo, hi = AREAS["module"]
        manager.allow(lo, hi - lo + 1)
        manager.set_default(False)
        loaded = []
        for i in range(3):
            compiled = compile_module(
                self.SOURCE.replace("run", f"run{i}"),
                CompileOptions(module_name=f"m{i}", protect=True,
                               opt_level=3, verify_table=policy.index),
            )
            loaded.append(kernel.insmod(compiled))
        return kernel, policy, manager, loaded

    def _mutators(self, manager):
        """Three interleaved mutation streams (the 'concurrent' storm:
        round-robin interleaving is the simulator's concurrency model)."""
        base = 0x6000_0000
        step = {"n": 0}

        def global_adds():
            n = step["n"] = step["n"] + 1
            manager.add_region(base + n * 0x2000, 0x1000,
                               abi.FLAG_READ | abi.FLAG_WRITE)

        def default_flips():
            manager.set_default(step["n"] % 2 == 0)

        def per_module_adds():
            n = step["n"]
            manager.add_region_for("bystander", base + 0x100_0000
                                   + n * 0x2000, 0x1000, abi.FLAG_READ)

        return [global_adds, default_flips, per_module_adds]

    @pytest.mark.parametrize("verify_policy", ["strict", "demote", "off"])
    def test_storm_demotes_exactly_once_never_runs_stale(self,
                                                         verify_policy):
        kernel, policy, manager, loaded = self._storm_kernel(verify_policy)
        if verify_policy == "off":
            assert all(not m.elided_guards for m in loaded)
        else:
            assert all(m.elided_guards for m in loaded)
        mutators = self._mutators(manager)
        for round_no in range(12):
            mutators[round_no % len(mutators)]()
            # The eager hook must already have cleared every elision set:
            # an elided module whose token went stale at this point would
            # be a stale-guard execution window.
            for i, m in enumerate(loaded):
                assert not (m.elided_guards
                            and kernel._verify_token_stale(m))
                assert kernel.run_function(m, f"run{i}", [round_no]) \
                    == round_no + 1
        # Exactly one generation-bump demotion per elided module, no
        # matter how many mutations followed (re-demoting an
        # already-dynamic module would double-count).
        expected = 0 if verify_policy == "off" else len(loaded)
        assert kernel.verify_demotions == expected
        assert all(not m.elided_guards for m in loaded)

    def test_strict_rejects_stale_certificate_at_insmod(self):
        """strict refuses to load a module whose certificate no longer
        proves the live table — demote-at-insmod is not available."""
        from repro.core.pipeline import CompileOptions, compile_module
        from repro.kernel.module_loader import LoadError
        from repro.passes.absint import AREAS

        kernel = Kernel(verify_policy="strict")
        policy = CaratPolicyModule(kernel, mode="audit").install()
        manager = PolicyManager(kernel)
        lo, hi = AREAS["module"]
        manager.allow(lo, hi - lo + 1)
        manager.set_default(False)
        compiled = compile_module(
            self.SOURCE,
            CompileOptions(module_name="late", protect=True, opt_level=3,
                           verify_table=policy.index),
        )
        manager.add_region(0x6000_0000, 0x1000, abi.FLAG_READ)  # staler now
        with pytest.raises(LoadError):
            kernel.insmod(compiled)

    def test_storm_through_staged_generations(self):
        """The control-plane flavour: every staged canary generation is
        itself a bump — an elided module must be demoted at *stage* time
        (the canary CPU would otherwise run it against a policy its
        certificate never saw)."""
        from repro.core.pipeline import CompileOptions, compile_module
        from repro.passes.absint import AREAS
        from repro.policy import (
            ControlPlaneConfig, OP_ADD, PolicyControlPlane, TenantQuota,
        )

        kernel = Kernel(ncpus=2, verify_policy="demote")
        policy = CaratPolicyModule(kernel, mode="audit").install()
        manager = PolicyManager(kernel)
        cp = PolicyControlPlane(
            kernel, policy, ControlPlaneConfig(canary_tick_limit=1),
        ).attach()
        lo, hi = AREAS["module"]
        manager.allow(lo, hi - lo + 1)
        manager.set_default(False)
        loaded = kernel.insmod(compile_module(
            self.SOURCE,
            CompileOptions(module_name="prog", protect=True, opt_level=3,
                           verify_table=policy.index),
        ))
        assert loaded.elided_guards
        cp.create_tenant("storm", TenantQuota(max_regions=64))
        for n in range(6):
            cp.submit_batch("storm", [
                (OP_ADD, 0x7000_0000 + n * 0x2000, 0x1000, abi.FLAG_READ),
            ])
            assert not loaded.elided_guards  # demoted at stage, not promote
            assert kernel.run_function(loaded, "run", [n]) == n + 1
            cp.tick()
        assert kernel.verify_demotions == 1
