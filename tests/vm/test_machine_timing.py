"""Machine models and cycle accounting."""

import pytest

from repro.vm import CycleCounter, MachineModel, get_machine, r350, r415


class TestMachineModels:
    def test_registry(self):
        assert get_machine("r350").freq_hz == 2.8e9
        assert get_machine("R415").freq_hz == 2.2e9
        with pytest.raises(ValueError):
            get_machine("cray1")

    def test_r415_is_slower_per_op(self):
        old, new = r415(), r350()
        assert old.op_cost("binop") > new.op_cost("binop")
        assert old.guard_base_cycles > new.guard_base_cycles
        assert old.guard_entry_cycles > new.guard_entry_cycles

    def test_guard_cost_scales_with_entries(self):
        m = r350()
        assert m.guard_cost(64) > m.guard_cost(1) > 0

    def test_seconds_conversion(self):
        m = r350()
        assert m.seconds(2.8e9) == pytest.approx(1.0)
        assert m.cycles_for_us(1.0) == pytest.approx(2800.0)

    def test_unknown_opcode_costs_default(self):
        assert r350().op_cost("mystery") == 1.0

    def test_paper_machine_identities(self):
        assert "R415" in r415().name and "AMD" in r415().name
        assert "R350" in r350().name and "Xeon" in r350().name


class TestCycleCounter:
    def test_accumulates_ops(self):
        c = CycleCounter(r350())
        c.add_op("binop")
        c.add_op("load")
        assert c.instructions == 2
        assert c.cycles == pytest.approx(
            r350().op_cost("binop") + r350().op_cost("load")
        )

    def test_guard_accounting(self):
        m = r350()
        c = CycleCounter(m)
        c.add_guard(2)
        c.add_guard(64)
        assert c.cycles == pytest.approx(m.guard_cost(2) + m.guard_cost(64))

    def test_mmio_accounting(self):
        m = r350()
        c = CycleCounter(m)
        c.add_mmio_read()
        c.add_mmio_write()
        assert c.mmio_reads == 1 and c.mmio_writes == 1
        assert c.cycles == m.mmio_read_cycles + m.mmio_write_cycles

    def test_delay(self):
        m = r350()
        c = CycleCounter(m)
        c.add_delay_us(10)
        assert c.cycles == pytest.approx(m.cycles_for_us(10))

    def test_snapshot_delta(self):
        c = CycleCounter(r350())
        c.add_op("binop")
        snap = c.snapshot()
        c.add_op("binop")
        c.add_guard(1)
        d = c.delta_since(snap)
        assert d["instructions"] == 1
        assert d["cycles"] == pytest.approx(
            r350().op_cost("binop") + r350().guard_cost(1))

    def test_reset(self):
        c = CycleCounter(r350())
        c.add_op("load")
        c.reset()
        assert c.cycles == 0 and c.instructions == 0


class TestTimedExecution:
    def test_guard_cycles_charged_per_policy_scan(self):
        """End to end: with n regions, guard cost reflects entries scanned."""
        from repro.core.system import CaratKopSystem, SystemConfig

        costs = {}
        for n in (2, 64):
            sys_ = CaratKopSystem(SystemConfig(machine="r350", regions=n))
            before = sys_.policy.stats
            sys_.blast(size=128, count=30)
            after = sys_.policy.stats
            costs[n] = ((after.entries_scanned - before.entries_scanned)
                        / (after.checks - before.checks))
        assert costs[64] > costs[2] * 10

    def test_untimed_kernel_has_no_counter(self):
        from repro.core.system import CaratKopSystem, SystemConfig

        sys_ = CaratKopSystem(SystemConfig(machine=None))
        assert sys_.kernel.vm.timing is None
        result = sys_.blast(size=128, count=5)
        assert result.throughput_pps == 0.0  # no clock, no rate
        assert sys_.sink.packets == 5
