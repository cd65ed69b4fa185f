"""Kernel-call guard tests (paper §5 control-flow extension)."""

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.ir import verify_module
from repro.ir.instructions import Call, Cast
from repro.ir.values import ConstantString, GlobalVariable
from repro.kernel import KernelPanic
from repro.minicc import compile_source
from repro.passes import AttestationPass, CallGuardPass, Mem2RegPass, PassManager
from repro.passes.intrinsic_guard import CALL_GUARD_SYMBOL, META_CALL_GUARDED

SRC = """
extern void *kmalloc(long size, int flags);
extern void kfree(void *p);
extern int printk(char *fmt, ...);

static long helper(long x) { return x + 1; }

__export long f(void) {
    void *p = kmalloc(64, 0);
    long r = helper((long)p);
    printk("got %lx", r);
    kfree(p);
    return r;
}
"""


def build(prepare=None):
    m = compile_source(SRC, "cg")
    PassManager([Mem2RegPass(), AttestationPass()]).run(m)
    if prepare is not None:
        prepare(m)
    p = CallGuardPass()
    p.run(m)
    verify_module(m)
    return m, p


class TestPass:
    def test_external_calls_guarded(self):
        m, p = build()
        assert p.guards_inserted == 3  # kmalloc, printk, kfree
        fn = m.get_function("f")
        insts = list(fn.instructions())
        for i, inst in enumerate(insts):
            if isinstance(inst, Call) and inst.callee.name in (
                "kmalloc", "kfree", "printk"
            ):
                prev = insts[i - 1]
                assert (
                    isinstance(prev, Call)
                    and prev.callee.name == CALL_GUARD_SYMBOL
                )

    def test_internal_calls_not_guarded(self):
        m, _ = build()
        fn = m.get_function("f")
        insts = list(fn.instructions())
        for i, inst in enumerate(insts):
            if isinstance(inst, Call) and inst.callee.name == "helper":
                prev = insts[i - 1]
                assert not (
                    isinstance(prev, Call)
                    and prev.callee.name == CALL_GUARD_SYMBOL
                )

    def test_idempotent_and_metadata(self):
        m, _ = build()
        assert m.metadata[META_CALL_GUARDED] is True
        again = CallGuardPass()
        assert again.run(m) is False

    def test_guard_reads_its_callee_name_global(self):
        m, _ = build()
        assert {g for g in m.globals if g.startswith(".callee.")} == {
            ".callee.kmalloc", ".callee.printk", ".callee.kfree"
        }
        assert m.functions[CALL_GUARD_SYMBOL].is_declaration
        insts = list(m.get_function("f").instructions())
        for i, inst in enumerate(insts):
            if isinstance(inst, Call) and inst.callee.name in (
                "kmalloc", "kfree", "printk"
            ):
                cast, guard = insts[i - 2], insts[i - 1]
                assert isinstance(cast, Cast) and cast.name.startswith("cname.")
                assert guard.args == [cast]
                assert cast.value is m.globals[f".callee.{inst.callee.name}"]

    def test_existing_callee_global_reused(self):
        existing = []

        def prepare(m):
            data = ConstantString(b"kfree\x00")
            g = GlobalVariable(data.type, ".callee.kfree", data, "internal", True)
            existing.append(m.add_global(g))

        m, p = build(prepare)
        assert p.guards_inserted == 3
        assert m.globals[".callee.kfree"] is existing[0]
        casts = [
            i for i in m.get_function("f").instructions()
            if isinstance(i, Cast) and i.value is existing[0]
        ]
        assert len(casts) == 1

    def test_no_sites_declares_nothing_but_marks_module(self):
        m = compile_source("__export long f(long a) { return a + 1; }", "ns")
        p = CallGuardPass()
        assert p.run(m) is False
        assert CALL_GUARD_SYMBOL not in m.functions
        assert not any(g.startswith(".callee.") for g in m.globals)
        assert m.metadata[META_CALL_GUARDED] is True

    def test_memory_guards_exempt(self):
        src = "long g; __export void f(void) { g = 1; }"
        compiled = compile_module(
            src, CompileOptions(module_name="mg", guard_calls=True)
        )
        # No external call sites besides carat_guard itself.
        names = [
            i.callee.name
            for fn in compiled.ir.defined_functions()
            for i in fn.instructions()
            if isinstance(i, Call)
        ]
        assert CALL_GUARD_SYMBOL not in names


class TestEnforcement:
    def _system_with_module(self, allowlist):
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        compiled = compile_module(
            SRC,
            CompileOptions(module_name="caller", key=system.signing_key,
                           guard_calls=True),
        )
        loaded = system.kernel.insmod(compiled)
        mgr = system.policy_manager
        mgr.set_call_allowlist(True)
        for name in allowlist:
            mgr.allow_call(name)
        return system, loaded

    def test_allowed_calls_pass(self):
        system, loaded = self._system_with_module(
            ["kmalloc", "kfree", "printk"]
        )
        r = system.kernel.run_function(loaded, "f", [])
        assert r != 0

    def test_unlisted_call_panics(self):
        system, loaded = self._system_with_module(["kmalloc", "printk"])
        with pytest.raises(KernelPanic, match="call to kfree"):
            system.kernel.run_function(loaded, "f", [])
        assert any("DENY-CALL" in l for l in system.kernel.dmesg_log)

    def test_allow_all_mode_default(self):
        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        compiled = compile_module(
            SRC,
            CompileOptions(module_name="caller", key=system.signing_key,
                           guard_calls=True),
        )
        loaded = system.kernel.insmod(compiled)
        system.kernel.run_function(loaded, "f", [])  # no allowlist: fine

    def test_deny_call_revokes(self):
        system, loaded = self._system_with_module(
            ["kmalloc", "kfree", "printk"]
        )
        system.kernel.run_function(loaded, "f", [])
        system.policy_manager.deny_call("printk")
        with pytest.raises(KernelPanic, match="call to printk"):
            system.kernel.run_function(loaded, "f", [])

    def test_driver_runs_under_full_guarding(self):
        """The e1000e driver with memory + intrinsic + call guards all on."""
        from repro.e1000e import DRIVER_NAME, DRIVER_SOURCE, E1000ENetDev

        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        system.kernel.rmmod(DRIVER_NAME)
        compiled = compile_module(
            DRIVER_SOURCE,
            CompileOptions(module_name=DRIVER_NAME, key=system.signing_key,
                           guard_calls=True, guard_intrinsics=True),
        )
        loaded = system.kernel.insmod(compiled)
        mgr = system.policy_manager
        mgr.set_call_allowlist(True)
        for name in ("kmalloc", "kfree", "printk", "ioremap",
                     "virt_to_phys", "udelay"):
            mgr.allow_call(name)
        netdev = E1000ENetDev(system.kernel, loaded, system.device)
        netdev.probe()
        from repro.net import make_test_frame

        for seq in range(20):
            assert netdev.xmit(make_test_frame(128, seq)) == 0
        assert system.sink.packets == 20
