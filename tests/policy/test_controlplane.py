"""Multi-tenant policy control plane: transactional batches, staged
canary rollout with auto-rollback, and the chaos-hardened publish path.

The contract under test is crash consistency as seen from the guard:

- a batch either lands whole or leaves the namespace bit-identical
  (including region *order* — first-match priority makes order policy);
- a staged generation is visible only to canary CPUs until promoted,
  and an auto-rollback restores exactly the pre-batch state;
- injected publish faults (drops, stalls, torn replicas, quota races)
  are absorbed by the watchdog/repair machinery before any guard
  decision is served — a torn generation is never observable.
"""

import pytest

from repro import abi
from repro.faults import FaultInjector
from repro.kernel import Kernel
from repro.kernel.chardev import (
    EAGAIN, EBUSY, EDQUOT, EEXIST, EINVAL, EIO, ENOENT, ENOTTY,
)
from repro.policy import (
    CaratPolicyModule,
    ControlPlaneConfig,
    OP_ADD,
    OP_DEL,
    PolicyControlPlane,
    PolicyManager,
    TenantQuota,
)
from repro.policy import module as pm
from repro.policy.controlplane import _TornReplica

RW = abi.FLAG_READ | abi.FLAG_WRITE
BASE = 0x5000_0000


def _plane(ncpus=1, injector=None, **cfg):
    kernel = Kernel(ncpus=ncpus)
    policy = CaratPolicyModule(kernel, mode="audit").install()
    manager = PolicyManager(kernel)
    cp = PolicyControlPlane(
        kernel, policy, ControlPlaneConfig(**cfg), injector=injector
    ).attach()
    return kernel, policy, manager, cp


def _region(slot, length=0x1000):
    return BASE + slot * 0x2000, length


def _adds(*slots, prot=RW):
    return [(OP_ADD, *_region(s), prot) for s in slots]


def _layout(tenant):
    """The namespace's exact ordered content — the atomicity witness."""
    return [(r.base, r.length, r.prot) for r in tenant.table._regions]


class TestTenantLifecycle:
    def test_create_duplicate_and_bad_names(self):
        _, _, _, cp = _plane()
        cp.create_tenant("a")
        with pytest.raises(OSError) as e:
            cp.create_tenant("a")
        assert e.value.errno == EEXIST
        for bad in ("", "x" * 33):
            with pytest.raises(OSError) as e:
                cp.create_tenant(bad)
            assert e.value.errno == EINVAL

    def test_delete_missing_is_enoent(self):
        _, _, _, cp = _plane()
        with pytest.raises(OSError) as e:
            cp.delete_tenant("ghost")
        assert e.value.errno == ENOENT

    def test_delete_with_regions_republishes(self):
        kernel, policy, _, cp = _plane(canary_tick_limit=1)
        cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))
        assert cp.tick() == 1  # promote
        base, _ = _region(0)
        assert policy._replica_check(policy.index, 0, base, 8,
                                     abi.FLAG_READ)[0]
        gen = cp.generation
        cp.delete_tenant("a")
        assert cp.generation == gen + 1
        assert not policy._replica_check(policy.index, 0, base, 8,
                                         abi.FLAG_READ)[0]

    def test_delete_staged_tenant_is_ebusy(self):
        _, _, _, cp = _plane(canary_tick_limit=100, canary_window=100)
        cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))
        with pytest.raises(OSError) as e:
            cp.delete_tenant("a")
        assert e.value.errno == EBUSY

    def test_second_attach_rejected_reattach_idempotent(self):
        kernel, policy, _, cp = _plane()
        assert cp.attach() is cp  # idempotent
        with pytest.raises(RuntimeError):
            PolicyControlPlane(kernel, policy).attach()


class TestQuotas:
    def test_region_quota_is_atomic_edquot(self):
        _, _, _, cp = _plane()
        t = cp.create_tenant("a", TenantQuota(max_regions=2))
        with pytest.raises(OSError) as e:
            cp.submit_batch("a", _adds(0, 1, 2))
        assert e.value.errno == EDQUOT
        assert _layout(t) == []  # nothing from the batch survived
        assert t.quota_denials == 1 and t.batches_rejected == 1

    def test_rate_quota_resets_with_the_window(self):
        _, _, _, cp = _plane(rate_window_ticks=2, canary_tick_limit=1)
        t = cp.create_tenant(
            "a", TenantQuota(max_mutations_per_window=2))
        cp.submit_batch("a", _adds(0, 1))
        cp.tick()  # promote; also tick 1 of the rate window
        with pytest.raises(OSError) as e:
            cp.submit_batch("a", _adds(2))
        assert e.value.errno == EDQUOT
        cp.tick()  # closes the rate window
        assert t.mutations_window == 0
        cp.submit_batch("a", _adds(2))  # now admitted


class TestBatchAtomicity:
    def _promoted(self, cp, name, ops):
        cp.submit_batch(name, ops)
        while cp.status()["staged_generation"]:
            cp.tick()

    def test_overlap_mid_batch_rejects_whole_batch(self):
        kernel, _, _, cp = _plane(canary_tick_limit=1)
        t = cp.create_tenant("a")
        self._promoted(cp, "a", _adds(0, 1))
        before = _layout(t)
        gen = cp.generation
        base0, _ = _region(0)
        with pytest.raises(OSError) as e:
            cp.submit_batch("a", _adds(2) + [(OP_ADD, base0 + 8, 8, RW)])
        assert e.value.errno == EEXIST
        assert _layout(t) == before
        assert cp.generation == gen  # nothing staged, nothing published
        assert t.overlap_rejections == 1
        assert "policy:a" not in kernel.journal.modules()  # no residue

    def test_del_of_missing_region_is_enoent(self):
        _, _, _, cp = _plane()
        t = cp.create_tenant("a")
        with pytest.raises(OSError) as e:
            cp.submit_batch("a", _adds(0) + [(OP_DEL, *_region(9), 0)])
        assert e.value.errno == ENOENT
        assert _layout(t) == []

    def test_empty_batch_is_einval(self):
        _, _, _, cp = _plane()
        cp.create_tenant("a")
        with pytest.raises(OSError) as e:
            cp.submit_batch("a", [])
        assert e.value.errno == EINVAL

    def test_rollback_restores_exact_region_order(self):
        """Order is first-match priority: undo must restore position,
        not merely membership."""
        _, _, _, cp = _plane(canary_tick_limit=1)
        t = cp.create_tenant("a")
        self._promoted(cp, "a", _adds(0, 1, 2))
        before = _layout(t)
        with pytest.raises(OSError):
            cp.submit_batch("a", [
                (OP_DEL, *_region(1), 0),     # applied, must be undone
                (OP_ADD, *_region(3), RW),    # applied, must be undone
                (OP_DEL, *_region(7), 0),     # ENOENT: tears the batch
            ])
        assert _layout(t) == before

    def test_torn_batch_fault_is_unobservable(self):
        inj = FaultInjector(torn_batch_period=1)
        kernel, policy, _, cp = _plane(injector=inj)
        t = cp.create_tenant("a")
        with pytest.raises(OSError) as e:
            cp.submit_batch("a", _adds(0, 1))
        assert e.value.errno == EIO
        assert cp.torn_batches == 1
        assert _layout(t) == []
        assert cp.status()["staged_generation"] == 0
        base, _ = _region(0)
        assert not policy._replica_check(policy.index, 0, base, 8,
                                         abi.FLAG_READ)[0]


class TestStagedRollout:
    def test_stage_then_second_batch_is_ebusy(self):
        _, _, _, cp = _plane(canary_tick_limit=100, canary_window=100)
        cp.create_tenant("a")
        gen = cp.submit_batch("a", _adds(0))
        assert gen == cp.generation + 1
        assert cp.status()["staged_generation"] == gen
        with pytest.raises(OSError) as e:
            cp.submit_batch("a", _adds(1))
        assert e.value.errno == EBUSY

    def test_canary_sees_staged_others_see_current(self):
        _, policy, _, cp = _plane(ncpus=4, canary_cpus=2,
                                  canary_tick_limit=100, canary_window=100)
        cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))
        base, _ = _region(0)
        check = lambda cpu: policy._replica_check(
            policy.index, cpu, base, 8, abi.FLAG_READ)[0]
        assert check(0) and check(1)          # canary: staged allow
        assert not check(2) and not check(3)  # rest: current deny
        while cp.status()["staged_generation"]:
            cp.tick()
        assert all(check(cpu) for cpu in range(4))  # promoted everywhere

    def test_promote_by_tick_limit(self):
        _, _, _, cp = _plane(canary_tick_limit=3, canary_window=10_000)
        t = cp.create_tenant("a")
        gen = cp.submit_batch("a", _adds(0))
        assert cp.tick() == 0 and cp.tick() == 0
        assert cp.tick() == 1
        assert cp.generation == gen == t.generation
        assert t.batches_promoted == 1
        assert cp.status()["staged_generation"] == 0

    def test_promote_by_canary_reads(self):
        kernel, policy, _, cp = _plane(canary_window=2,
                                       canary_tick_limit=10_000)
        cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))
        base, _ = _region(0)
        for _ in range(2):
            policy._replica_check(policy.index, 0, base, 8, abi.FLAG_READ)
        assert cp.tick() == 1

    def test_violation_budget_triggers_auto_rollback(self):
        kernel, policy, _, cp = _plane(canary_tick_limit=100,
                                       canary_window=100)
        t = cp.create_tenant("bad", TenantQuota(violation_budget=1))
        layout_before = _layout(t)
        gen_before = cp.generation
        cp.submit_batch("bad", [(OP_ADD, *_region(0), 0)])  # deny region
        base, _ = _region(0)
        for _ in range(3):  # canary CPU trips the deny past the budget
            policy._guard(None, base + 8, 8, abi.FLAG_READ, "victim")
        assert cp.tick() == 2
        assert _layout(t) == layout_before
        assert cp.generation == gen_before
        assert t.rollbacks == 1
        record = cp.rollback_records[-1]
        assert "violation budget exceeded" in record["reason"]
        assert record["policy_ops"] == 1
        assert "policy:bad" not in kernel.journal.modules()

    def test_rollbacks_do_not_consume_generations(self):
        """The chaos==clean keystone: a rolled-back stage leaves the
        generation sequence exactly as if it never happened."""
        kernel, policy, _, cp = _plane(canary_tick_limit=100,
                                       canary_window=100)
        cp.create_tenant("bad", TenantQuota(violation_budget=0))
        gen_a = cp.submit_batch("bad", [(OP_ADD, *_region(0), 0)])
        base, _ = _region(0)
        policy._guard(None, base + 8, 8, abi.FLAG_READ, "victim")
        assert cp.tick() == 2
        gen_b = cp.submit_batch("bad", _adds(1))
        assert gen_b == gen_a  # the number was returned to the pool


class TestPublishWatchdog:
    def test_canary_exhaustion_rolls_back_with_eagain(self):
        inj = FaultInjector(publish_drop_period=1)  # every install drops
        kernel, _, _, cp = _plane(injector=inj, publish_max_retries=3)
        t = cp.create_tenant("a")
        with pytest.raises(OSError) as e:
            cp.submit_batch("a", _adds(0))
        assert e.value.errno == EAGAIN
        assert cp.publish_failures == 1
        assert cp.publish_retries >= 3
        assert cp.backoff_us_total > 0
        assert _layout(t) == []
        assert cp.rollback_records[-1]["reason"] == "canary publish failed"
        assert cp.status()["staged_generation"] == 0

    def test_stalled_grace_periods_also_exhaust(self):
        inj = FaultInjector(publish_stall_period=1)
        _, _, _, cp = _plane(injector=inj, publish_max_retries=2)
        cp.create_tenant("a")
        with pytest.raises(OSError) as e:
            cp.submit_batch("a", _adds(0))
        assert e.value.errno == EAGAIN

    def test_transient_drop_is_retried_to_success(self):
        inj = FaultInjector(publish_drop_period=2)
        _, _, _, cp = _plane(injector=inj, canary_tick_limit=1)
        cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))
        assert cp.tick() == 1  # promoted despite the dropped installs
        assert cp.publish_retries >= 1
        assert cp.publish_failures == 0

    def test_backoff_is_exponential_and_capped(self):
        _, _, _, cp = _plane(
            publish_max_retries=6,
            backoff_base_us=100.0, backoff_cap_us=400.0,
        )
        cp.create_tenant("a")
        cp.injector = FaultInjector(publish_drop_period=1)
        with pytest.raises(OSError):
            cp.submit_batch("a", _adds(0))
        # Each exhausted loop backs off 100 + 200 + 400 + 400 + 400 + 400
        # (doubling, capped at 400us); the failed stage runs one loop and
        # its rollback's forced restore runs another.
        assert cp.backoff_us_total == pytest.approx(2 * 1900.0)
        assert cp.max_backoff_us == pytest.approx(400.0)

    def test_promotes_roll_forward_by_force(self):
        """Once the canary window closes, promotion must complete even
        if the publish path faults persistently — no CPU may be left on
        the old generation (that would be a torn promote)."""
        inj = FaultInjector(publish_stall_period=1)
        kernel, _, _, cp = _plane(
            ncpus=2, injector=inj, publish_max_retries=2,
            canary_tick_limit=1,
        )
        # Staging needs one clean canary publish; arm the injector after.
        cp.injector = None
        cp.create_tenant("a")
        gen = cp.submit_batch("a", _adds(0))
        cp.injector = inj
        assert cp.tick() == 1
        assert cp.forced_publishes >= 1
        assert [slot[0] for slot in cp._slots] == [gen, gen]


class TestReplicaRepair:
    def test_torn_slot_with_valid_stamp_is_repaired(self):
        """The stamp tears *with* the payload: detection must use
        canonical-object identity, never trust the stamp."""
        _, policy, _, cp = _plane(canary_tick_limit=1)
        cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))
        cp.tick()
        cp._slots[0] = (cp.generation, _TornReplica())  # stamp matches!
        base, _ = _region(0)
        repairs = cp.replica_repairs
        allowed, _ = policy._replica_check(policy.index, 0, base, 8,
                                           abi.FLAG_READ)
        assert allowed  # served from the repaired canonical snapshot
        assert cp.replica_repairs == repairs + 1
        assert cp._slots[0][1] is cp._current

    def test_injected_corruption_never_reaches_the_guard(self):
        inj = FaultInjector(replica_corrupt_period=1)
        kernel, policy, _, cp = _plane(ncpus=2, injector=inj,
                                       canary_tick_limit=1)
        cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))
        cp.tick()
        base, _ = _region(0)
        for cpu in kernel.smp.cpus():  # _TornReplica.check would raise
            assert policy._replica_check(policy.index, cpu, base, 8,
                                         abi.FLAG_READ)[0]
        assert cp.replica_repairs >= 1

    def test_partial_publish_detected_by_stale_stamp(self):
        _, policy, _, cp = _plane(ncpus=2, canary_cpus=2,
                                  canary_tick_limit=1)
        cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))
        cp.tick()  # promoted
        stale = cp._slots[1]
        cp._slots[1] = (cp.generation - 1, stale[1])  # missed install
        base, _ = _region(0)
        assert policy._replica_check(policy.index, 1, base, 8,
                                     abi.FLAG_READ)[0]
        assert cp._slots[1][0] == cp.generation


class TestQuotaRaceStorm:
    def test_racing_duplicate_batch_leaves_no_residue(self):
        inj = FaultInjector(quota_race_period=1)
        kernel, _, _, cp = _plane(injector=inj, canary_tick_limit=1)
        t = cp.create_tenant("a")
        cp.submit_batch("a", _adds(0, 1))
        assert cp.quota_races == 1
        assert len(t.table) == 2  # the race's duplicate adds all EEXISTed
        assert "policy:#race" not in kernel.journal.modules()


class TestLegacyWritePathPreemption:
    def test_system_mutation_preempts_staged_canary(self):
        kernel, policy, manager, cp = _plane(canary_tick_limit=100,
                                             canary_window=100)
        t = cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))
        gen = cp.generation
        manager.add_region(0x9000_0000, 0x1000, RW)  # legacy ioctl
        assert cp.status()["staged_generation"] == 0
        assert (cp.rollback_records[-1]["reason"]
                == "preempted by system policy mutation")
        assert _layout(t) == []  # the staged batch was undone
        assert cp.generation == gen + 1  # but the system change published
        assert policy._replica_check(policy.index, 0, 0x9000_0000, 8,
                                     abi.FLAG_READ)[0]

    def test_composition_puts_tenants_before_system(self):
        """First-match priority: a tenant deny carved inside a system
        allow wins for that window."""
        kernel, policy, manager, cp = _plane(canary_tick_limit=1)
        manager.add_region(BASE, 0x10_0000, RW)  # broad system allow
        cp.create_tenant("a")
        cp.submit_batch("a", [(OP_ADD, BASE + 0x2000, 0x1000, 0)])
        while cp.status()["staged_generation"]:
            cp.tick()
        check = lambda addr: policy._replica_check(
            policy.index, 0, addr, 8, abi.FLAG_READ)[0]
        assert check(BASE)  # system allow still rules outside the carve
        assert not check(BASE + 0x2000)  # tenant deny wins inside it


class TestIoctlSurface:
    def test_no_control_plane_is_enotty(self):
        kernel = Kernel()
        CaratPolicyModule(kernel, mode="audit").install()
        manager = PolicyManager(kernel)
        with pytest.raises(OSError) as e:
            manager.create_tenant("a")
        assert e.value.errno == ENOTTY

    def test_full_surface_through_the_chardev(self):
        kernel, _, manager, cp = _plane(canary_tick_limit=2)
        manager.create_tenant("a", max_regions=8,
                              max_mutations_per_window=32,
                              violation_budget=4)
        gen = manager.batch_mutate("a", [
            (OP_ADD, *_region(0), RW),
            (OP_ADD, *_region(1), abi.FLAG_READ),
        ])
        assert gen == 2
        status = manager.cp_status()
        assert status["staged_generation"] == gen
        assert status["tenants"] == 1
        while manager.cp_status()["staged_generation"]:
            manager.cp_tick()
        stats = manager.tenant_stats("a")
        assert stats["generation"] == gen
        assert stats["regions"] == 2
        assert stats["batches_promoted"] == 1
        manager.delete_tenant("a")
        assert manager.cp_status()["tenants"] == 0

    def test_batch_count_length_mismatch_is_einval(self):
        import struct

        kernel, _, manager, cp = _plane()
        cp.create_tenant("a")
        payload = b"a".ljust(32, b"\x00") + struct.pack("<I", 3)
        payload += struct.pack("<IQQI", OP_ADD, BASE, 0x1000, RW)  # only 1
        with pytest.raises(OSError) as e:
            kernel.devices.ioctl(pm.DEVICE_PATH, pm.CMD_BATCH_MUTATE,
                                 payload, uid=0)
        assert e.value.errno == EINVAL

    def test_proc_carat_grows_a_controlplane_section(self):
        kernel, _, manager, cp = _plane(canary_tick_limit=1)
        manager.create_tenant("a")
        manager.batch_mutate("a", [(OP_ADD, *_region(0), RW)])
        manager.cp_tick()
        text = kernel.proc.read("/proc/carat")
        assert "controlplane: generation 2, 1 tenant(s)" in text
        assert "tenant a: gen 2, 1/256 regions" in text


class TestOverlapRejection:
    """S1: mutation ioctls reject overlapping/duplicate adds."""

    def test_add_region_for_duplicate_is_eexist(self):
        kernel = Kernel()
        CaratPolicyModule(kernel, mode="audit").install()
        manager = PolicyManager(kernel)
        manager.add_region_for("mod", BASE, 0x1000, RW)
        with pytest.raises(OSError) as e:
            manager.add_region_for("mod", BASE, 0x1000, RW)
        assert e.value.errno == EEXIST

    def test_add_region_for_partial_overlap_is_eexist(self):
        kernel = Kernel()
        CaratPolicyModule(kernel, mode="audit").install()
        manager = PolicyManager(kernel)
        manager.add_region_for("mod", BASE, 0x1000, RW)
        with pytest.raises(OSError) as e:
            manager.add_region_for("mod", BASE + 0xF00, 0x1000, RW)
        assert e.value.errno == EEXIST
        # Disjoint neighbours are fine, for the same and other modules.
        manager.add_region_for("mod", BASE + 0x1000, 0x1000, RW)
        manager.add_region_for("other", BASE, 0x1000, RW)

    def test_tenant_batch_duplicate_within_batch_is_eexist(self):
        _, _, _, cp = _plane()
        t = cp.create_tenant("a")
        base, length = _region(0)
        with pytest.raises(OSError) as e:
            cp.submit_batch("a", [
                (OP_ADD, base, length, RW),
                (OP_ADD, base, length, RW),  # self-collision
            ])
        assert e.value.errno == EEXIST
        assert _layout(t) == []


class TestStaticVerificationSoundness:
    """-O3 elision certificates prove the *system* namespace; the
    control plane composes tenant regions in front of it, so the
    certificate must be refused or revoked the moment tenants matter."""

    SOURCE = """
    long cells[4];
    __export long run(long seed) {
        cells[0] = seed;
        cells[1] = cells[0] + 1;
        return cells[1];
    }
    """

    def _o3(self, kernel, policy):
        from repro.core.pipeline import CompileOptions, compile_module

        return compile_module(
            self.SOURCE,
            CompileOptions(module_name="prog", protect=True, opt_level=3,
                           verify_table=policy.index),
        )

    def _allow_modules(self, manager):
        from repro.passes.absint import AREAS

        lo, hi = AREAS["module"]
        manager.allow(lo, hi - lo + 1)
        manager.set_default(False)

    def test_insmod_refuses_elision_under_tenant_regions(self):
        kernel, policy, manager, cp = _plane(canary_tick_limit=1)
        self._allow_modules(manager)
        cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))
        cp.tick()
        loaded = kernel.insmod(self._o3(kernel, policy))
        assert not loaded.elided_guards
        assert "tenant-composed" in loaded.verify_state

    def test_stage_demotes_elided_module_exactly_once(self):
        kernel, policy, manager, cp = _plane(canary_tick_limit=1)
        self._allow_modules(manager)
        loaded = kernel.insmod(self._o3(kernel, policy))
        assert loaded.elided_guards  # tenant-free composition: cert holds
        cp.create_tenant("a")
        cp.submit_batch("a", _adds(0))  # staging demotes eagerly
        assert not loaded.elided_guards
        assert kernel.verify_demotions == 1
        cp.tick()  # promote: nothing left to demote
        assert kernel.verify_demotions == 1
