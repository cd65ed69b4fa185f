"""Every policy write reaches its three dependents through one hook.

``CaratPolicyModule.policy_written`` is the ``on_change`` of the global
table and of each per-module table, and the one call the other write
paths make (bind, drop, uninstall, and the control plane's stage,
promote and rollback).  This file drives every write entry point, under
both engines on 1 and 4 CPUs, and checks after each write, before the
next guard:

- no decision dict holds an answer cached before the write for the
  table it wrote (for every table when the composed policy changed),
  every cached answer equals a fresh check, and every module is bound
  (or unbound) to the table it now reads;
- every CPU's replica slot equals a composition made fresh from the
  namespaces;
- no ``-O3`` module keeps its elisions, and ``verify_demotions`` has
  risen exactly once per module over the whole case.
"""

import functools

import pytest

from repro import abi
from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import Kernel
from repro.kernel.module_loader import LoadError
from repro.passes.absint import AREAS
from repro.policy import (
    CaratPolicyModule,
    ControlPlaneConfig,
    IntervalRegionTable,
    OP_ADD,
    PolicyManager,
    Region,
    RegionTable,
)
from repro.policy import interval

RW = abi.FLAG_READ | abi.FLAG_WRITE
LO, HI = AREAS["module"]
#: A system region every case starts with, so removals have a target.
SPARE = Region(0x9000_0000, 0x1000, RW)
#: A window the staged tenant batch denies.
TENANT = Region(0x9100_0000, 0x1000, 0)
#: Guard keys probed on every CPU for the global reader "t" and the
#: per-module reader "p": the module area, the spare region, the tenant
#: window and an address no region covers.
PROBES = ((LO + 0x40, 8, RW), (SPARE.base, 8, abi.FLAG_READ),
          (TENANT.base, 4, abi.FLAG_READ), (0x5000_0000, 8, abi.FLAG_READ))
READERS = ("t", "p")
SOURCE = """
long cells[4];
__export long run{i}(long seed) {{
    cells[0] = seed;
    cells[1] = cells[0] + 1;
    return cells[1];
}}
"""
MODULES = 2


@functools.cache
def _compiled(i):
    """The ``-O3`` module ``m{i}``, certified against the table every
    case starts from (the same regions, epoch and default)."""
    table = RegionTable(default_allow=False)
    table.add(Region(LO, HI - LO + 1, RW))
    table.add(SPARE)
    return compile_module(
        SOURCE.format(i=i),
        CompileOptions(module_name=f"m{i}", protect=True, opt_level=3,
                       verify_table=table),
    )


class Env:
    def __init__(self, engine, ncpus, verify_policy="demote"):
        self.kernel = Kernel(engine=engine, ncpus=ncpus,
                             verify_policy=verify_policy)
        self.policy = CaratPolicyModule(self.kernel, mode="audit").install()
        self.cp = self.policy.controlplane
        self.cp.config = ControlPlaneConfig(canary_tick_limit=1)
        self.manager = PolicyManager(self.kernel)
        self.manager.allow(LO, HI - LO + 1)
        self.manager.add_region(SPARE.base, SPARE.length, SPARE.prot)
        self.manager.set_default(False)
        #: Tenant regions submitted but not yet promoted.
        self.staged = []
        self.modules = []

    def arm(self):
        """Load the ``-O3`` modules (verified) and run each once, so the
        compiled engine holds a translation with the guards elided."""
        for i in range(MODULES):
            loaded = self.kernel.insmod(_compiled(i))
            assert loaded.elided_guards, loaded.verify_state
            assert self.kernel.run_function(loaded, f"run{i}", [i]) == i + 1
            self.modules.append(loaded)

    def warm(self):
        """Guard traffic: every probe, for both readers, on every CPU."""
        for cpu in self.kernel.smp.cpus():
            with self.kernel.smp.on(cpu):
                for name in READERS:
                    for key in PROBES:
                        self.policy._guard(None, *key, name)

    def stage(self, budget=64):
        self.cp.tenant("a").quota.violation_budget = budget
        self.cp.submit_batch("a", [(OP_ADD, TENANT.base, TENANT.length,
                                    TENANT.prot)])
        self.staged = [TENANT]


# -- the write entry points --------------------------------------------------
#
# Each case is (prep, writes, scope): ``prep`` runs before the modules are
# armed, and each write is followed by the checks and then by guard
# traffic.  ``scope`` names the decisions the writes must empty: "all",
# or "p" for a write that changes only the per-module table of "p".


def _bind_p(env):
    env.manager.add_region_for("p", LO, HI - LO + 1, RW)


def _tenant(env):
    env.manager.create_tenant("a")


def _promote(env):
    assert env.cp.tick() == 1
    env.staged = []


def _rollback(env):
    # The canary CPU denied the tenant window during the last warm-up.
    assert env.cp.tick() == 2
    env.staged = []


CASES = {
    "ioctl_add": (None, [lambda e: e.manager.add_region(
        0x9200_0000, 0x1000, RW)], "all"),
    "ioctl_del": (None, [lambda e: e.manager.remove_region(
        SPARE.base, SPARE.length)], "all"),
    "ioctl_clear": (None, [lambda e: e.manager.clear()], "all"),
    "ioctl_set_default": (None, [lambda e: e.manager.set_default(True)],
                          "all"),
    "ioctl_add_for": (None, [_bind_p], "p"),
    "ioctl_clear_for": (_bind_p, [lambda e: e.manager.clear_module_policy(
        "p")], "p"),
    "index_add": (None, [lambda e: e.policy.index.add(
        Region(0x9200_0000, 0x1000, RW))], "all"),
    "index_remove": (None, [lambda e: e.policy.index.remove(
        SPARE.base, SPARE.length)], "all"),
    "index_clear": (None, [lambda e: e.policy.index.clear()], "all"),
    "default_allow": (None, [lambda e: setattr(
        e.policy.index, "default_allow", True)], "all"),
    "bind": (None, [lambda e: e.policy.bind_module_table(
        "p", RegionTable(default_allow=True))], "p"),
    "drop": (_bind_p, [lambda e: e.policy.drop_module_table("p")], "p"),
    "module_table_add": (_bind_p, [lambda e: e.policy.module_indexes[
        "p"].add(Region(0x9200_0000, 0x1000, RW))], "p"),
    "stage": (_tenant, [Env.stage], "all"),
    "promote": (_tenant, [Env.stage, _promote], "all"),
    "rollback": (_tenant, [lambda e: e.stage(budget=0), _rollback], "all"),
    "uninstall": (None, [lambda e: e.policy.uninstall()], "all"),
}


def _fresh_views(env):
    """Per CPU, the regions and default a fresh composition gives it:
    the tenants' regions (unpromoted ones on canary CPUs only), then the
    system regions."""
    tenant = [r for t in env.cp.tenants.values() for r in t.table.regions()]
    settled = [r for r in tenant if r not in env.staged]
    canary = range(env.cp.config.canary_cpus) if env.staged else ()
    system = env.policy.index.regions()
    return {cpu: ((tenant if cpu in canary else settled) + system,
                  env.policy.index.default_allow)
            for cpu in env.kernel.smp.cpus()}


def _check(env, demotions_before, scope):
    policy = env.policy
    views = _fresh_views(env)
    # No answer cached before the write survives in the written scope,
    # and every answer left elsewhere is what a fresh check gives.
    for cpu, tables in enumerate(policy._decisions):
        for index, decisions in tables.items():
            if scope == "all" or index is policy.module_indexes.get("p"):
                assert not decisions, (cpu, index.name, decisions)
            fresh = index
            if index is policy.index:
                regions, default = views[cpu]
                fresh = RegionTable(default_allow=default)
                for r in regions:
                    fresh.add(r)
            for key, answer in decisions.items():
                assert answer == fresh.check(*key), (cpu, key)
    # Every binding names the table its module reads now.
    for name, slots in policy._bindings.items():
        reads = policy.module_indexes.get(name, policy.index)
        for cache in slots:
            assert cache is None or cache.index is reads, name
    # Every CPU's replica is a fresh composition.
    for cpu, (regions, default) in views.items():
        gen, snapshot = env.cp._slots[cpu]
        assert snapshot.regions() == regions, cpu
        assert snapshot.default_allow == default, cpu
    # Demoted, exactly once per module, however many writes came first.
    assert not any(m.elided_guards for m in env.modules)
    assert env.kernel.verify_demotions == demotions_before + MODULES


@pytest.mark.parametrize("ncpus", [1, 4])
@pytest.mark.parametrize("engine", ["interp", "compiled"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_write_reaches_every_dependent(case, engine, ncpus):
    prep, writes, scope = CASES[case]
    env = Env(engine, ncpus)
    if prep is not None:
        prep(env)
    env.arm()
    demotions = env.kernel.verify_demotions
    env.warm()
    for write in writes:
        write(env)
        _check(env, demotions, scope)
        if env.kernel.carat_policy is not None:
            env.warm()
    if env.kernel.carat_policy is not None:
        # The demoted bodies guard their accesses again.
        checks = env.policy.stats.checks
        for i, loaded in enumerate(env.modules):
            assert env.kernel.run_function(loaded, f"run{i}", [7]) == 8
        assert env.policy.stats.checks > checks


@pytest.mark.parametrize("verify_policy", ["demote", "strict"])
@pytest.mark.parametrize("engine", ["interp", "compiled"])
def test_insmod_during_a_staged_canary_arms_nothing(engine, verify_policy):
    """The one state no write announces to a module loaded later: a
    canary generation in flight.  Insmod refuses to arm elisions then."""
    env = Env(engine, 2, verify_policy)
    _tenant(env)
    # Promote an add, then stage its delete: no tenant holds a region,
    # so only the staged canary can refuse the certificate.
    env.cp.submit_batch("a", [(OP_ADD, TENANT.base, TENANT.length, RW)])
    assert env.cp.tick() == 1
    env.cp.submit_batch("a", [(1, TENANT.base, TENANT.length, 0)])
    assert env.cp.status()["staged_generation"]
    assert not any(len(t.table) for t in env.cp.tenants.values())
    if verify_policy == "strict":
        with pytest.raises(LoadError, match="canary generation is staged"):
            env.kernel.insmod(_compiled(0))
        return
    loaded = env.kernel.insmod(_compiled(0))
    assert not loaded.elided_guards
    assert loaded.verify_state == "demoted:a canary generation is staged"


def test_interval_master_write_builds_no_full_index(monkeypatch):
    """An ioctl add or remove on an interval master republishes from the
    copy-on-write index: the hook runs after the table has carried its
    index forward, so the publish's snapshot never rebuilds it."""
    kernel = Kernel(ncpus=2)
    policy = CaratPolicyModule(kernel, index=IntervalRegionTable(),
                               mode="audit").install()
    manager = PolicyManager(kernel)
    for i in range(4 * interval.LINEAR_CUTOFF):
        manager.add_region(0x4000_0000 + 2 * i * 0x1000, 0x1000, RW)
    builds = []
    init = interval._IntervalLookup.__init__

    def counting(self, regions):
        builds.append(len(regions))
        init(self, regions)

    monkeypatch.setattr(interval._IntervalLookup, "__init__", counting)
    publishes = policy.replica_publishes
    manager.add_region(0x8000_0000, 0x1000, RW)
    manager.remove_region(0x8000_0000, 0x1000)
    assert policy.replica_publishes == publishes + 2
    assert builds == []
