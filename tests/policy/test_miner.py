"""Policy-miner tests: audit -> coalesce -> enforce."""

import pytest

from repro import abi
from repro.core.system import CaratKopSystem, SystemConfig
from repro.kernel import KernelPanic
from repro.policy import PolicyMiner
from repro.policy.miner import AccessRecord, MinedPolicy
from repro.policy.region import Region


class TestCoalescing:
    def _mine(self, records, max_regions=64, page_align=False):
        class _FakePolicy:
            pass

        miner = PolicyMiner.__new__(PolicyMiner)
        miner.max_regions = max_regions
        miner.records = [AccessRecord(*r) for r in records]
        return PolicyMiner.mine(miner, page_align=page_align)

    def test_single_access(self):
        mined = self._mine([(0x1000, 8, abi.FLAG_READ)])
        assert mined.regions == [Region(0x1000, 8, abi.FLAG_READ)]
        assert mined.observed_bytes == 8

    def test_adjacent_accesses_merge(self):
        mined = self._mine([
            (0x1000, 8, abi.FLAG_READ),
            (0x1008, 8, abi.FLAG_WRITE),
        ])
        assert len(mined.regions) == 1
        r = mined.regions[0]
        assert r.base == 0x1000 and r.length == 16
        assert r.prot == abi.FLAG_READ | abi.FLAG_WRITE

    def test_overlapping_accesses_merge(self):
        mined = self._mine([
            (0x1000, 16, abi.FLAG_READ),
            (0x1008, 16, abi.FLAG_READ),
        ])
        assert mined.regions[0].length == 24

    def test_distant_accesses_stay_separate(self):
        mined = self._mine([
            (0x1000, 8, abi.FLAG_READ),
            (0x9000, 8, abi.FLAG_READ),
        ])
        assert len(mined.regions) == 2
        assert mined.slack_bytes == 0

    def test_budget_merges_smallest_gaps_first(self):
        records = [
            (0x1000, 8, abi.FLAG_READ),
            (0x1020, 8, abi.FLAG_READ),   # 24-byte gap to the first
            (0x900000, 8, abi.FLAG_READ),  # huge gap
        ]
        mined = self._mine(records, max_regions=2)
        assert len(mined.regions) == 2
        assert mined.regions[0].base == 0x1000
        assert mined.regions[0].length == 0x28  # spans the small gap
        assert mined.slack_bytes == 0x18

    def test_budget_of_one(self):
        mined = self._mine(
            [(0x1000, 8, abi.FLAG_READ), (0x2000, 8, abi.FLAG_WRITE)],
            max_regions=1,
        )
        assert len(mined.regions) == 1
        assert mined.regions[0].prot == abi.FLAG_READ | abi.FLAG_WRITE

    def test_page_align_rounds_out(self):
        mined = self._mine([(0x1ffc, 8, abi.FLAG_READ)], page_align=True)
        r = mined.regions[0]
        assert r.base == 0x1000 and r.length == 0x2000

    def test_empty_records(self):
        mined = self._mine([])
        assert mined.regions == [] and mined.observed_accesses == 0

    def test_mined_policy_always_covers_observations(self):
        records = [
            (0x1000 + i * 24, 8, abi.FLAG_READ if i % 2 else abi.FLAG_WRITE)
            for i in range(40)
        ]
        mined = self._mine(records, max_regions=4)
        for addr, size, flags in records:
            assert mined.covers(addr, size, flags)

    def test_describe(self):
        mined = self._mine([(0x1000, 8, abi.FLAG_READ)])
        assert "1 regions" in mined.describe()


class TestEndToEnd:
    def test_audit_mine_enforce_cycle(self):
        """The full workflow on the real driver: audit a workload, mine a
        policy, replay under enforcement with zero violations, and verify
        untouched memory is now firewalled."""
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        miner = PolicyMiner(system.policy, max_regions=16)
        with miner:
            system.blast(size=128, count=40)
        assert miner.records, "audit saw no guard traffic"
        mined = miner.mine(page_align=True)
        assert 1 <= len(mined.regions) <= 16

        mined.install(system.policy_manager)
        # Replay: zero violations under default-deny enforcement.
        denied_before = system.guard_stats()["denied"]
        result = system.blast(size=128, count=40)
        assert result.errors == 0
        assert system.guard_stats()["denied"] == denied_before

        # Memory the driver never touches is firewalled now.
        from repro.core.pipeline import CompileOptions, compile_module

        rogue = compile_module(
            "__export long peek(long a) { return *(long *)a; }",
            CompileOptions(module_name="peeker", key=system.signing_key),
        )
        loaded = system.kernel.insmod(rogue)
        untouched = system.kernel.kmalloc_allocator.kmalloc(4096)
        # (kmalloc may land inside a mined page; pick a far direct-map spot)
        far = untouched + (64 << 20) - (64 << 20) // 2
        from repro.kernel import layout

        probe = layout.direct_map_address(48 << 20)
        if not mined.covers(probe, 8, abi.FLAG_READ):
            with pytest.raises(KernelPanic):
                system.kernel.run_function(loaded, "peek", [probe])

    def test_miner_restores_enforcement(self):
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        assert system.policy.mode == "panic"
        with PolicyMiner(system.policy) as miner:
            assert system.policy.mode == "audit"
            system.blast(size=128, count=2)
        assert system.policy.mode == "panic"

    def test_miner_restores_eject_mode_exactly(self):
        # Restoring "enforcing" as panic would turn a recoverable eject
        # into a kernel panic after the audit window.
        system = CaratKopSystem(SystemConfig(machine=None,
                                             enforce_mode="eject"))
        with PolicyMiner(system.policy):
            system.blast(size=128, count=2)
        assert system.policy.mode == "eject"

    def test_double_start_rejected(self):
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        miner = PolicyMiner(system.policy)
        miner.start()
        with pytest.raises(RuntimeError):
            miner.start()
        miner.stop()
        miner.stop()  # idempotent

    def test_reset(self):
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        with PolicyMiner(system.policy) as miner:
            system.blast(size=128, count=2)
        miner.reset()
        assert miner.records == []

    def test_bad_budget(self):
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        with pytest.raises(ValueError):
            PolicyMiner(system.policy, max_regions=0)
