"""Trace-subsystem behavior: static keys, the event sink, operator
surfaces (/proc/trace, /proc/trace_stat, the TRACE_* ioctls), and the
guard:deny path through the policy module's violation recorder."""

import struct

import pytest

from repro.core.system import CaratKopSystem, SystemConfig
from repro.kernel import Kernel
from repro.policy import CaratPolicyModule, PolicyManager
from repro.policy import module as pm
from repro.trace.events import EVENT_SCHEMA


@pytest.fixture()
def system():
    return CaratKopSystem(SystemConfig(machine="r415", protect=True))


class TestStaticKeys:
    def test_points_preseeded_from_schema(self, kernel):
        assert set(EVENT_SCHEMA) <= set(kernel.trace.points)

    def test_disabled_by_default_and_records_nothing(self, system):
        trace = system.kernel.trace
        assert trace.enabled is False
        assert all(not tp.enabled for tp in trace.points.values())
        system.blast(size=128, count=10)
        assert trace.ring.total == 0
        assert len(trace.counters) == 0

    def test_enable_flips_every_key_and_attaches_tracer(self, system):
        trace = system.kernel.trace
        trace.enable()
        assert all(tp.enabled for tp in trace.points.values())
        assert system.kernel.vm.tracer is trace.vm_tracer
        trace.disable()
        assert all(not tp.enabled for tp in trace.points.values())
        assert system.kernel.vm.tracer is None

    def test_suppress_survives_enable(self, kernel):
        trace = kernel.trace
        trace.suppress("mem:kmalloc")
        trace.enable()
        assert trace.points["mem:kmalloc"].enabled is False
        assert trace.points["mem:kfree"].enabled is True
        trace.suppress("mem:kmalloc", suppressed=False)
        assert trace.points["mem:kmalloc"].enabled is True

    def test_adhoc_point_inherits_enable_state(self, kernel):
        trace = kernel.trace
        trace.enable()
        tp = trace.point("custom:thing")
        assert tp.enabled is True
        assert tp.category == "custom"
        assert trace.point("custom:thing") is tp  # get-or-create


class TestEventSink:
    def test_blast_emits_every_hot_category(self, system):
        trace = system.kernel.trace
        trace.enable()
        system.blast(size=128, count=20)
        trace.disable()
        counts = trace.counters.as_dict()
        for name in ("guard:check", "syscall:enter", "syscall:exit",
                     "dma:fetch", "dma:writeback"):
            assert counts.get(name, 0) > 0, f"no {name} events"
        # syscalls pair up
        assert counts["syscall:enter"] == counts["syscall:exit"]

    def test_events_are_sequenced_and_timestamped(self, system):
        trace = system.kernel.trace
        trace.enable()
        system.blast(size=128, count=5)
        events = trace.snapshot()
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        ts = [e.ts_us for e in events]
        assert ts == sorted(ts)  # simulated time is monotonic

    def test_snapshot_while_enabled_is_consistent(self, system):
        trace = system.kernel.trace
        trace.enable()
        system.blast(size=128, count=5)
        snap = trace.snapshot()
        n = len(snap)
        system.blast(size=128, count=5)  # tracing still on
        assert len(snap) == n  # detached from later traffic
        assert len(trace.snapshot()) > n

    def test_reset_restarts_sequence(self, system):
        trace = system.kernel.trace
        trace.enable()
        system.blast(size=128, count=5)
        trace.reset()
        assert trace.ring.total == 0
        assert trace.guard_hist.count == 0
        assert len(trace.guard_sites) == 0
        system.blast(size=128, count=1)
        assert trace.snapshot()[0].seq == 0

    def test_module_lifecycle_events(self, key):
        kernel = Kernel(signing_key=key, require_protected_modules=True)
        CaratPolicyModule(kernel).install()
        PolicyManager(kernel).install_two_region_policy()
        trace = kernel.trace
        trace.enable()
        from repro import CompileOptions, compile_module

        compiled = compile_module(
            "long x; __export long f(void){ x = 7; return x; }",
            CompileOptions(module_name="lifemod", protect=True, key=key))
        kernel.insmod(compiled)
        names = {e.name for e in trace.snapshot()}
        assert {"module:verify", "module:link", "module:load"} <= names


class TestGuardDeny:
    def test_violation_emits_guard_deny(self, policy_kernel):
        kernel, policy, manager = policy_kernel
        manager.install_two_region_policy()
        trace = kernel.trace
        trace.enable()
        before = policy.violations.get("x", 0)
        policy._record_violation("x", kind="memory", addr=0x10, size=8,
                                 flags=2)
        assert policy.violations["x"] == before + 1
        denies = [e for e in trace.snapshot() if e.name == "guard:deny"]
        assert len(denies) == 1
        assert denies[0].args["module"] == "x"
        assert denies[0].args["kind"] == "memory"

    def test_violation_counted_but_silent_when_disabled(self, policy_kernel):
        kernel, policy, _ = policy_kernel
        policy._record_violation("y", kind="call", detail="evil")
        assert policy.violations["y"] == 1
        assert kernel.trace.ring.total == 0


_DENIED = {
    "memory": ("__export long f(void) { return *(long *)0xdead0000; }",
               {}, "f"),
    "intrinsic": ("extern void cli(void); __export void f(void) { cli(); }",
                  {"guard_intrinsics": True}, "f"),
    "call": ("extern int printk(char *fmt, ...); "
             "__export void f(void) { printk(\"hi\"); }",
             {"guard_calls": True}, "f"),
}


class TestGuardPanic:
    @pytest.mark.parametrize("kind", sorted(_DENIED))
    def test_guard_panic_goes_through_kernel_panic(self, kind):
        """A guard denial in panic mode halts through ``Kernel.panic``:
        the ring holds ``kernel:panic`` after the ``guard:deny``, with
        the raised violation's reason."""
        from repro import CompileOptions, compile_module
        from repro.vm.interp import GuardViolation

        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        kernel = system.kernel
        source, opts, fn = _DENIED[kind]
        loaded = kernel.insmod(compile_module(source, CompileOptions(
            module_name="rogue", key=system.signing_key, **opts)))
        if kind == "call":
            system.policy_manager.set_call_allowlist(True)
        kernel.trace.enable()
        with pytest.raises(GuardViolation) as info:
            kernel.run_function(loaded, fn, [])
        reason = info.value.reason
        events = kernel.trace.snapshot()
        names = [e.name for e in events]
        assert "guard:deny" in names
        panics = [e for e in events if e.name == "kernel:panic"]
        assert [e.args["reason"] for e in panics] == [reason]
        assert names.index("guard:deny") < names.index("kernel:panic")
        assert kernel.panicked == reason
        assert kernel.dmesg_log[-1] == f"Kernel panic - not syncing: {reason}"
        assert sum("Kernel panic" in line for line in kernel.dmesg_log) == 1


class TestOperatorSurfaces:
    def test_proc_trace_stat_renders(self, system):
        trace = system.kernel.trace
        trace.enable()
        system.blast(size=128, count=20)
        text = system.kernel.proc.read("/proc/trace_stat")
        assert "tracing: on" in text
        assert "[guard cycle cost]" in text
        assert "@" in text  # the histogram bars
        assert "[guard sites]" in text
        assert "e1000e:@" in text  # per-callsite attribution
        assert "[irq]" in text

    def test_proc_trace_renders_perf_script(self, system):
        trace = system.kernel.trace
        trace.enable()
        system.blast(size=128, count=3)
        text = system.kernel.proc.read("/proc/trace")
        assert text.startswith("# tracer: caratkop")
        assert "guard:check" in text

    def test_proc_interrupts_uses_public_accessor(self, kernel):
        from repro import CompileOptions, compile_module

        compiled = compile_module(
            "__export int my_isr(int line) { return 1; }",
            CompileOptions(module_name="isr_mod", protect=False))
        loaded = kernel.insmod(compiled)
        line = kernel.irq.allocate_line()
        kernel.irq.request_irq(line, loaded, "my_isr")
        kernel.irq.raise_irq(line)
        actions = kernel.irq.actions()
        assert actions[line].fired == 1
        # the snapshot is detached: mutating it can't corrupt the kernel
        actions.clear()
        assert kernel.irq.actions()
        assert "isr_mod" in kernel.proc.read("/proc/interrupts")

    def test_irq_events_traced(self, kernel):
        from repro import CompileOptions, compile_module

        compiled = compile_module(
            "__export int my_isr(int line) { return 1; }",
            CompileOptions(module_name="isr_mod", protect=False))
        loaded = kernel.insmod(compiled)
        line = kernel.irq.allocate_line()
        kernel.irq.request_irq(line, loaded, "my_isr")
        trace = kernel.trace
        trace.enable()
        kernel.irq.raise_irq(line)
        names = [e.name for e in trace.snapshot()]
        assert "irq:raise" in names
        assert "irq:dispatch" in names

    def test_trace_ioctls(self, system):
        kernel = system.kernel
        trace = kernel.trace

        def ioctl(cmd):
            return kernel.devices.ioctl(pm.DEVICE_PATH, cmd, b"", uid=0)

        ioctl(pm.CMD_TRACE_ENABLE)
        assert trace.enabled is True
        system.blast(size=128, count=5)
        stored, lost, total = struct.unpack(
            pm._TRACE_STAT_FMT, ioctl(pm.CMD_TRACE_SNAPSHOT))
        assert stored == len(trace.ring)
        assert lost == trace.ring.lost
        assert total == trace.ring.total
        assert total > 0
        ioctl(pm.CMD_TRACE_DISABLE)
        assert trace.enabled is False
        ioctl(pm.CMD_TRACE_RESET)
        assert trace.ring.total == 0

    def test_trace_ioctls_root_only(self, system):
        from repro.kernel import IoctlError
        from repro.kernel.chardev import EPERM

        with pytest.raises(IoctlError) as e:
            system.kernel.devices.ioctl(
                pm.DEVICE_PATH, pm.CMD_TRACE_ENABLE, b"", uid=1000)
        assert e.value.errno == EPERM
        assert system.kernel.trace.enabled is False

    def test_ring_overflow_visible_to_operator(self, system):
        trace = system.kernel.trace
        trace.configure(capacity=16, mode="overwrite")
        trace.enable()
        system.blast(size=128, count=20)
        assert trace.ring.lost > 0
        assert len(trace.ring) == 16
        # aggregates saw everything the ring lost
        assert sum(trace.counters.as_dict().values()) == trace.ring.total
