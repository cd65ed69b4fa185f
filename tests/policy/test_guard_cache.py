"""The guard-decision cache: memoized policy checks, emptied on write.

Every policy index is a region table whose ``check`` is pure, so the
policy module memoizes every guard decision, per CPU and per index.
Readers never check whether a decision is current: every write a
decision depends on must empty the affected decision dicts on every CPU
before the next guard, and a cache hit must report the same ``(allowed,
scanned)`` pair — and therefore the same stats and guard cycle costs —
as the index walk it replaces.  Dropping a per-module table drops its
decisions too.
"""

from __future__ import annotations

import struct

import pytest

from repro import abi
from repro.kernel import Kernel
from repro.policy import OP_ADD, CaratPolicyModule, PolicyManager
from repro.policy import module as pm
from repro.policy.interval import IntervalRegionTable
from repro.policy.region import Region
from repro.policy.table import RegionTable
from repro.vm import GuardViolation

RW = abi.FLAG_READ | abi.FLAG_WRITE


def _policy(mode="audit"):
    return CaratPolicyModule(Kernel(), mode=mode).install()


def test_repeat_checks_hit_the_cache():
    policy = _policy()
    policy.index.add(Region(0x1000, 0x1000, RW))
    for _ in range(5):
        policy._guard(None, 0x1800, 8, abi.FLAG_READ)
    stats = policy.stats.as_dict()
    assert stats["guard_cache_misses"] == 1
    assert stats["guard_cache_hits"] == 4
    assert stats["checks"] == 5
    # Every check reports the real scan depth, cached or not.
    assert stats["entries_scanned"] == 5


def test_mutation_invalidates_via_epoch():
    policy = _policy()
    table = policy.index
    table.add(Region(0x1000, 0x1000, RW))
    assert policy._guard(None, 0x1800, 8, abi.FLAG_READ) == 1
    # Adding a second region bumps the epoch: the next guard re-checks.
    table.add(Region(0x8000, 0x1000, RW))
    assert policy._guard(None, 0x1800, 8, abi.FLAG_READ) == 1
    assert policy.stats.guard_cache_misses == 2
    assert policy.stats.guard_cache_hits == 0
    # Removal invalidates too — and the decision actually changes.
    table.remove(0x1000, 0x1000)
    allowed_before = policy.stats.allowed
    policy._guard(None, 0x1800, 8, abi.FLAG_READ)
    assert policy.stats.allowed == allowed_before  # now denied (audit mode)
    assert policy.stats.denied == 1
    table.clear()
    policy._guard(None, 0x9999, 1, abi.FLAG_READ)
    assert policy.stats.guard_cache_misses == 4


def test_default_allow_flip_invalidates():
    policy = _policy()
    table = policy.index
    policy._guard(None, 0x4000, 8, abi.FLAG_READ)
    assert policy.stats.denied == 1
    # Flipping the default does not move the epoch; CMD_SET_DEFAULT
    # empties the table's decisions itself.
    PolicyManager(policy.kernel).set_default(True)
    assert table.default_allow
    policy._guard(None, 0x4000, 8, abi.FLAG_READ)
    assert policy.stats.allowed == 1
    assert policy.stats.guard_cache_misses == 2


def test_cached_denial_still_panics_when_enforcing():
    policy = _policy(mode="panic")
    policy.index.add(Region(0x1000, 0x1000, RW))
    with pytest.raises(GuardViolation):
        policy._guard(None, 0xDEAD0000, 8, abi.FLAG_WRITE)
    with pytest.raises(GuardViolation):
        policy._guard(None, 0xDEAD0000, 8, abi.FLAG_WRITE)
    # The second denial came from the cache but panics identically.
    assert policy.stats.guard_cache_hits == 1
    assert policy.stats.denied == 2
    assert len([m for m in policy.kernel.dmesg_log if "DENY" in m]) == 2


def test_per_module_indexes_get_separate_caches():
    policy = _policy()
    policy.index.add(Region(0x1000, 0x1000, RW))
    other = RegionTable(default_allow=True)
    policy.bind_module_table("special", other)
    policy._guard(None, 0x1800, 8, abi.FLAG_READ, "e1000e")
    policy._guard(None, 0x1800, 8, abi.FLAG_READ, "special")
    policy._guard(None, 0x1800, 8, abi.FLAG_READ, "e1000e")
    policy._guard(None, 0x1800, 8, abi.FLAG_READ, "special")
    stats = policy.stats.as_dict()
    # One miss per index, then hits — alternating indexes re-binds the
    # one-entry memo but must not cross-contaminate the caches.
    assert stats["guard_cache_misses"] == 2
    assert stats["guard_cache_hits"] == 2


def test_stats_dict_exposes_cache_counters():
    policy = _policy()
    d = policy.stats.as_dict()
    assert "guard_cache_hits" in d and "guard_cache_misses" in d


def test_enforcement_mode_change_invalidates():
    """Satellite regression: switching the enforcement mode bumps the
    enforce epoch, so cached decisions never outlive a mode change."""
    from repro.policy import MODE_EJECT

    policy = _policy()
    policy.index.add(Region(0x1000, 0x1000, RW))
    for _ in range(3):
        policy._guard(None, 0x1800, 8, abi.FLAG_READ)
    assert policy.stats.guard_cache_hits == 2
    policy.set_mode(MODE_EJECT)
    policy._guard(None, 0x1800, 8, abi.FLAG_READ)
    # The first guard after the switch re-checks (miss), not a stale hit.
    assert policy.stats.guard_cache_misses == 2
    assert policy.stats.guard_cache_hits == 2
    # ...and subsequent guards cache again under the new epoch.
    policy._guard(None, 0x1800, 8, abi.FLAG_READ)
    assert policy.stats.guard_cache_hits == 3


def test_per_module_mode_override_invalidates():
    from repro.policy import MODE_ISOLATE

    policy = _policy()
    policy.index.add(Region(0x1000, 0x1000, RW))
    policy._guard(None, 0x1800, 8, abi.FLAG_READ, "e1000e")
    policy._guard(None, 0x1800, 8, abi.FLAG_READ, "e1000e")
    assert policy.stats.guard_cache_hits == 1
    policy.set_module_mode("e1000e", MODE_ISOLATE)
    policy._guard(None, 0x1800, 8, abi.FLAG_READ, "e1000e")
    assert policy.stats.guard_cache_misses == 2
    # Clearing the override is a change too.
    policy.set_module_mode("e1000e", None)
    policy._guard(None, 0x1800, 8, abi.FLAG_READ, "e1000e")
    assert policy.stats.guard_cache_misses == 3


def test_noop_mode_set_does_not_invalidate():
    policy = _policy()
    policy.index.add(Region(0x1000, 0x1000, RW))
    policy._guard(None, 0x1800, 8, abi.FLAG_READ)
    policy.set_mode(policy.mode)  # same mode: no epoch bump
    policy._guard(None, 0x1800, 8, abi.FLAG_READ)
    assert policy.stats.guard_cache_misses == 1
    assert policy.stats.guard_cache_hits == 1


def test_cached_denial_faults_in_eject_mode():
    """A cache-hit denial raises the catchable fault, not the panic."""
    from repro.kernel import ViolationFault
    from repro.policy import MODE_EJECT

    policy = _policy()
    policy.set_mode(MODE_EJECT)
    policy.index.add(Region(0x1000, 0x1000, RW))
    for _ in range(2):
        with pytest.raises(ViolationFault) as ei:
            policy._guard(None, 0xDEAD0000, 8, abi.FLAG_WRITE, "mod")
        assert ei.value.action == MODE_EJECT
        assert ei.value.module_name == "mod"
    assert policy.stats.guard_cache_hits == 1
    assert policy.kernel.panicked is None
    assert policy.violations["mod"] == 2


def test_cleared_module_tables_release_their_caches():
    """CMD_CLEAR_FOR drops a per-module table; every CPU's decision
    dict and module binding for it must go too, or repeated add/guard/
    clear cycles pile up one cache per dropped table."""
    kernel = Kernel(ncpus=2)
    policy = CaratPolicyModule(kernel, mode="audit").install()
    policy.index.add(Region(0x1000, 0x1000, RW))
    name = b"churny".ljust(32, b"\0")
    base = 0x10_0000
    for _ in range(200):
        policy.ioctl(
            pm.CMD_ADD_REGION_FOR,
            name + struct.pack("<QQI", base, 0x1000, RW),
            uid=0,
        )
        for cpu in kernel.smp.cpus():
            with kernel.smp.on(cpu):
                policy._guard(None, 0x1800, 8, abi.FLAG_READ, "e1000e")
                for i in range(50):
                    policy._guard(
                        None, base + 8 * i, 8, abi.FLAG_READ, "churny"
                    )
        policy.ioctl(pm.CMD_CLEAR_FOR, name, uid=0)
    assert policy.stats.denied == 0
    for cpu in kernel.smp.cpus():
        assert list(policy._decisions[cpu]) == [policy.index]
        for name in ("e1000e", "churny"):
            cache = policy._bindings[name][cpu]
            assert cache is None or cache.index is policy.index


# -- the write-side invariant -------------------------------------------------
# After each kind of write, every CPU's decision dict for each table the
# write affects is empty, and a table it does not affect keeps its
# decisions.  ``g`` reads the global table, ``m`` its own table.

_G, _M = 0x1000, 0x20_0000


def _warmed(index_cls):
    kernel = Kernel(ncpus=2)
    policy = CaratPolicyModule(kernel, index=index_cls(), mode="audit").install()
    manager = PolicyManager(kernel)
    manager.add_region(_G, 0x1000, RW)
    manager.add_region_for("m", _M, 0x1000, RW)
    _guard_everywhere(policy)
    return policy, manager


def _guard_everywhere(policy):
    for cpu in policy.kernel.smp.cpus():
        with policy.kernel.smp.on(cpu):
            policy._guard(None, _G + 8, 8, abi.FLAG_READ, "g")
            policy._guard(None, _M + 8, 8, abi.FLAG_READ, "m")


def _decisions(policy, table):
    """Each CPU's decision dict for ``table`` (None where it has none)."""
    return [tables.get(table) for tables in policy._decisions]


def _tenant(manager, base=_G + 8):
    """Stage a tenant region; the default one denies ``g`` on the canary
    CPU, and the tenant's violation budget is zero."""
    manager.create_tenant("t", violation_budget=0)
    manager.batch_mutate("t", [(OP_ADD, base, 8, 0)])


def _promote(policy, manager):
    _tenant(manager, base=0x50_0000)
    _guard_everywhere(policy)
    while manager.cp_tick() != 1:
        pass


def _rollback(policy, manager):
    _tenant(manager)
    _guard_everywhere(policy)  # the canary CPU denies: over budget
    assert manager.cp_tick() == 2


def _republish(policy, manager):
    _promote(policy, manager)
    _guard_everywhere(policy)
    manager.add_region(0x9000, 0x1000, RW)  # a new generation


#: write -> (what it does, which tables it empties: "global", "m" or "all").
_WRITES = {
    "add": (lambda p, mg: p.index.add(Region(0x9000, 0x1000, RW)), "global"),
    "remove": (lambda p, mg: p.index.remove(_G, 0x1000), "global"),
    "clear": (lambda p, mg: p.index.clear(), "global"),
    "regions_edit": (lambda p, mg: p.index.pop(0), "global"),
    "default_allow": (lambda p, mg: mg.set_default(True), "global"),
    "module_table_add": (
        lambda p, mg: mg.add_region_for("m", 0x30_0000, 0x1000, RW), "m"),
    "set_mode": (lambda p, mg: p.set_mode("eject"), "all"),
    "set_module_mode": (lambda p, mg: p.set_module_mode("g", "eject"), "all"),
    "stage": (lambda p, mg: _tenant(mg), "all"),
    "promote": (_promote, "all"),
    "rollback": (_rollback, "all"),
    "republish": (_republish, "all"),
}


@pytest.mark.parametrize("index_cls", [RegionTable, IntervalRegionTable])
@pytest.mark.parametrize("write", sorted(_WRITES))
def test_write_empties_every_cpus_decisions(write, index_cls):
    policy, manager = _warmed(index_cls)
    module_table = policy.module_indexes["m"]
    do, affected = _WRITES[write]
    do(policy, manager)
    for table, name in ((policy.index, "global"), (module_table, "m")):
        dicts = _decisions(policy, table)
        if affected in (name, "all"):
            assert dicts == [{}, {}], (write, name)
        else:
            assert all(dicts), (write, name)  # untouched: still warm


def test_binding_a_module_table_rebinds_the_module():
    policy, manager = _warmed(RegionTable)
    table = RegionTable(default_allow=True)
    table.add(Region(_G, 0x1000, 0))
    policy.bind_module_table("g", table)
    assert policy._bindings["g"] == [None, None]
    assert all(_decisions(policy, policy.index))  # the global table kept
    _guard_everywhere(policy)
    assert [c.index for c in policy._bindings["g"]] == [table, table]
    assert policy.driver_stats()["g"]["denied"] == 2  # read via its table


def test_dropping_a_module_table_frees_its_decisions():
    policy, manager = _warmed(RegionTable)
    table = policy.module_indexes["m"]
    manager.clear_module_policy("m")
    assert _decisions(policy, table) == [None, None]
    assert policy._bindings["m"] == [None, None]
    _guard_everywhere(policy)
    assert [c.index for c in policy._bindings["m"]] == [policy.index] * 2


def test_module_indexes_is_read_only():
    policy = _policy()
    with pytest.raises(TypeError):
        policy.module_indexes["x"] = RegionTable()
