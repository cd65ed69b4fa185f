"""Per-function execution profile built by the trace subsystem's VM tracer."""

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.kernel import Kernel, layout
from repro.passes.absint import AREAS
from repro.policy import CaratPolicyModule, PolicyManager
from repro.vm import get_machine


@pytest.fixture()
def profiled_system():
    system = CaratKopSystem(SystemConfig(machine="r350", protect=True))
    system.kernel.trace.enable()
    return system, system.kernel.trace.functions


class TestProfiler:
    def test_per_function_attribution(self, profiled_system):
        system, table = profiled_system
        system.blast(size=128, count=20)
        assert "e1000e_xmit_frame" in table.rows
        assert "tx_fill_desc" in table.rows
        xmit = table.rows["e1000e_xmit_frame"]
        assert xmit.calls == 20
        assert xmit.instructions > 0

    def test_guard_attribution(self, profiled_system):
        system, table = profiled_system
        system.blast(size=128, count=10)
        fill = table.rows["tx_fill_desc"]
        assert fill.guards >= 70  # 7 descriptor stores x 10 packets
        assert fill.stores >= 70

    def test_totals_match_policy_stats_delta(self, profiled_system):
        system, table = profiled_system
        before = system.guard_stats()["checks"]  # probe-time checks
        system.blast(size=128, count=10)
        guards = sum(r.guards for r in table.rows.values())
        assert guards == system.guard_stats()["checks"] - before

    def test_cycles_accumulate_with_machine(self, profiled_system):
        system, table = profiled_system
        system.blast(size=128, count=5)
        assert all(r.cycles > 0 for r in table.rows.values() if r.instructions)

    def test_self_cycles_include_mmio(self, profiled_system):
        # ew32 is one MMIO write per call: its self time is the write's
        # device cost plus its own handful of instructions.
        system, table = profiled_system
        system.blast(size=128, count=5)
        ew32 = table.rows["ew32"]
        mmio = system.kernel.machine.mmio_write_cycles
        assert ew32.cycles > ew32.calls * mmio

    def test_guard_page_histogram(self, profiled_system):
        system, table = profiled_system
        system.blast(size=128, count=10)
        pages = dict(table.hottest_pages(20))
        # The TX descriptor ring page must be among the hottest.
        ring_stat = system.netdev.read_reg(0x3800)  # TDBAL
        ring_page = (layout.direct_map_address(ring_stat)) >> layout.PAGE_SHIFT
        assert any(abs(p - ring_page) <= 1 for p in pages)

    def test_hottest_ordering(self, profiled_system):
        system, table = profiled_system
        system.blast(size=128, count=10)
        hot = table.hottest(top=3)
        assert hot[0].instructions >= hot[-1].instructions

    def test_report_renders(self, profiled_system):
        system, table = profiled_system
        system.blast(size=128, count=5)
        text = table.render()
        assert "e1000e_xmit_frame" in text
        assert "guard-hot pages:" in text

    def test_reset(self, profiled_system):
        system, table = profiled_system
        system.blast(size=128, count=2)
        system.kernel.trace.reset()
        assert table.rows == {} and table.pages == {}

    def test_profiler_without_machine_model(self):
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        system.kernel.trace.enable()
        system.blast(size=128, count=3)
        xmit = system.kernel.trace.functions.rows["e1000e_xmit_frame"]
        assert xmit.instructions > 0 and xmit.guards > 0
        # No machine model: no timing counters to read.
        assert (xmit.loads, xmit.stores, xmit.cycles) == (0, 0, 0.0)

    def test_profiler_off_by_default(self):
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        system.blast(size=128, count=2)
        assert system.kernel.vm.tracer is None
        assert system.kernel.trace.functions.rows == {}


_CALL_TREE = """
long g_buf[8];
static long leaf(long i) { g_buf[i & 7] = i; return g_buf[(i + 1) & 7]; }
static long mid(long i) { long s = 0; for (long k = 0; k < 3; k++) s += leaf(i + k); return s; }
__export long top(long n) {
    long s = 0;
    for (long i = 0; i < n; i++) { s += mid(i); s += leaf(i); }
    return s;
}
"""


@pytest.mark.parametrize("engine", ["interp", "compiled"])
def test_self_cycles_sum_to_call_delta(engine):
    """One run_function: the rows' self cycles (and self loads/stores)
    add up to that call's timing delta, callees and guards included."""
    kernel = Kernel(machine=get_machine("r350"), engine=engine)
    CaratPolicyModule(kernel).install()
    lo, hi = AREAS["module"]
    PolicyManager(kernel).allow(lo, hi - lo + 1)
    loaded = kernel.insmod(
        compile_module(_CALL_TREE, CompileOptions(module_name="calltree"))
    )
    kernel.trace.enable()
    vm = kernel.vm
    timing = vm.timing
    before, executed = timing.snapshot(), vm.instructions_executed
    guards = vm.guard_checks
    kernel.run_function(loaded, "top", [6])
    delta = timing.delta_since(before)
    rows = kernel.trace.functions.rows.values()
    assert {r.name for r in rows} == {"top", "mid", "leaf"}
    assert sum(r.cycles for r in rows) == pytest.approx(delta["cycles"],
                                                        rel=1e-12)
    assert sum(r.loads for r in rows) == delta["loads"]
    assert sum(r.stores for r in rows) == delta["stores"]
    assert sum(r.guards for r in rows) == vm.guard_checks - guards > 0
    assert (sum(r.instructions + r.guards for r in rows)
            == vm.instructions_executed - executed)
    assert all(r.cycles > 0 for r in rows)
