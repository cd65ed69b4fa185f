"""The guard-decision cache: epoch-keyed memoization of policy checks.

Every policy index is a region table whose ``check`` is pure, so the
policy module memoizes every guard decision, per CPU and per index.  Any
region mutation bumps the index ``epoch`` and must invalidate every
cached decision, and a cache hit must report the same ``(allowed,
scanned)`` pair — and therefore the same stats and guard cycle costs —
as the index walk it replaces.  Dropping a per-module table drops its
caches too.
"""

from __future__ import annotations

import struct

import pytest

from repro import abi
from repro.kernel import Kernel
from repro.policy import CaratPolicyModule
from repro.policy import module as pm
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
    # Flipping the default does not move the epoch, but the cache keys on
    # (epoch, default_allow) and must still notice.
    table.default_allow = True
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
    policy.module_indexes["special"] = other
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
    cache and binding memo for it must go too, or repeated add/guard/
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
        caches = policy._guard_caches[cpu]
        assert len(caches) <= 1
        assert all(c.index is policy.index for c in caches.values())
        assert policy._fast_index[cpu] in (None, policy.index)
