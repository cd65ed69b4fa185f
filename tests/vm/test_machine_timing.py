"""Machine models and cycle accounting."""

from dataclasses import fields

import pytest

from repro.vm import (
    MACHINES,
    CycleCounter,
    MachineModel,
    get_machine,
    make_engine,
    r350,
    r415,
)
from repro.vm.timing import centicycles_at


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


class TestCentiClock:
    """The clock is an integer count of centicycles: every cost converts
    once, when its model is built, and each float input rounds once
    where it enters."""

    @pytest.mark.parametrize("override", [
        {"guard_entry_cycles": 0.125},
        {"mmio_read_cycles": 300.005},
        {"op_cycles": {"load": 0.125}},
    ])
    def test_fractional_cost_refused_when_built(self, override):
        with pytest.raises(ValueError, match="centicycles"):
            MachineModel(name="odd", freq_hz=1e9, **override)

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_shipped_tables_are_rounded_costs(self, name):
        m = get_machine(name)
        assert m.centi.ops == {op: round(100 * c)
                               for op, c in m.op_cycles.items()}
        for f in fields(m):
            if f.name.endswith("_cycles") and f.name != "op_cycles":
                key = f.name[:-len("_cycles")]
                assert getattr(m.centi, key) == round(
                    100 * getattr(m, f.name)), f.name
        # r415 scales every op by 1.6: 0.15 * 1.6 is 24 centicycles.
        assert r415().centi.op("cast") == 24
        assert m.centi.op("mystery") == 100

    def test_advance_time_rounds_each_call_once(self):
        from repro.kernel import Kernel

        kernel = Kernel(machine=r415(), engine="interp")
        timing = kernel.vm.timing
        for _ in range(3):
            kernel.advance_time(1 / 3)  # 733.33... cycles at 2.2 GHz
        assert timing.cc == 3 * 73333
        assert type(timing.cc) is int

    def test_drain_rounds_the_completion_stamp_once(self):
        from repro.core.system import CaratKopSystem, SystemConfig

        system = CaratKopSystem(SystemConfig(machine="r415", driver="vblk"))
        timing = system.kernel.vm.timing
        assert system.blkqueue.pwrite(0, b"\x5a" * 512).rc == 0
        stamps = [e[0] for q in system.device.queues for e in q.in_flight]
        assert stamps and any(s != int(s) for s in stamps)
        system.stack._drain()
        assert timing.cc == centicycles_at(max(stamps))
        assert not any(q.in_flight for q in system.device.queues)

    def test_centicycles_at_reaches_the_stamp(self):
        assert centicycles_at(58805.2) == 5880520
        assert centicycles_at(0.125) == 13  # 12 would read 0.12
        for stamp in (1e10 + 0.3, 7.004, 123456.789):
            cc = centicycles_at(stamp)
            assert cc / 100 >= stamp > (cc - 1) / 100

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_cycles_view_after_a_mixed_run(self, engine):
        from repro.core.system import CaratKopSystem, SystemConfig

        system = CaratKopSystem(SystemConfig(
            machine="r415", driver=("e1000e", "vblk"), engine=engine))
        system.blast(size=128, count=20)
        system.blkblast(20, nsect=2, pattern="rand", seed=3)
        system.kernel.advance_time(2.5)
        timing = system.kernel.vm.timing
        assert type(timing.cc) is int
        assert timing.cycles == timing.cc / 100
        assert timing.snapshot()["cycles"] == timing.cc / 100

    def test_get_cycles_is_whole_cycles(self):
        from repro.kernel import Kernel

        kernel = Kernel(machine=r350(), engine="interp")
        native = kernel.symbols.lookup("get_cycles").native
        kernel.vm.timing.cc = 123_456_789
        assert native(kernel.vm) == 1_234_567
        untimed = make_engine("interp", Kernel(), machine=None)
        assert native(untimed) == 0
