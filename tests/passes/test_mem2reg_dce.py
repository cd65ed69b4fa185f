"""mem2reg + DCE + peephole tests: structure and semantics preservation."""

import signal

import pytest

from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import Kernel
from repro.ir import Module, verify_module
from repro.ir.instructions import Alloca, Load, Phi, Store
from repro.minicc import compile_source
from repro.passes import DCEPass, Mem2RegPass, PassManager, PeepholePass


def counts(module: Module):
    allocas = loads = stores = phis = 0
    for fn in module.defined_functions():
        for inst in fn.instructions():
            if isinstance(inst, Alloca):
                allocas += 1
            elif isinstance(inst, Load):
                loads += 1
            elif isinstance(inst, Store):
                stores += 1
            elif isinstance(inst, Phi):
                phis += 1
    return allocas, loads, stores, phis


SCALAR_HEAVY = """
__export long f(long n) {
    long a = 1;
    long b = 2;
    long c = a + b;
    for (long i = 0; i < n; i++) {
        c = c + a;
        a = b;
        b = c;
    }
    return c;
}
"""


class TestMem2Reg:
    def test_promotes_scalar_locals(self):
        m = compile_source(SCALAR_HEAVY, "m")
        before = counts(m)
        assert before[0] > 0
        changed = Mem2RegPass().run(m)
        assert changed
        verify_module(m)
        after = counts(m)
        assert after[0] == 0, "all scalar allocas should be promoted"
        assert after[1] == 0 and after[2] == 0
        assert after[3] > 0, "loop-carried values need phis"

    def test_keeps_escaping_allocas(self):
        src = """
        static void mutate(long *p) { *p = 42; }
        __export long f(void) {
            long x = 0;
            mutate(&x);
            return x;
        }
        """
        m = compile_source(src, "m")
        Mem2RegPass().run(m)
        verify_module(m)
        allocas, loads, stores, _ = counts(m)
        assert allocas == 1, "address-taken local must stay in memory"
        assert loads >= 1

    def test_keeps_aggregate_allocas(self):
        src = """
        __export int f(void) {
            int xs[4];
            xs[0] = 5;
            return xs[0];
        }
        """
        m = compile_source(src, "m")
        Mem2RegPass().run(m)
        allocas, *_ = counts(m)
        assert allocas == 1

    def test_idempotent(self):
        m = compile_source(SCALAR_HEAVY, "m")
        Mem2RegPass().run(m)
        assert Mem2RegPass().run(m) is False

    def test_semantics_preserved(self):
        def run(optimize):
            kernel = Kernel()
            compiled = compile_module(
                SCALAR_HEAVY,
                CompileOptions(
                    module_name=f"m{int(optimize)}", protect=False,
                    optimize=optimize,
                ),
            )
            loaded = kernel.insmod(compiled)
            return [kernel.run_function(loaded, "f", [n]) for n in range(8)]

        assert run(False) == run(True)

    def test_conditional_phi_values(self, run_c):
        # After mem2reg `x` is a phi of 1 and 2; result must match C.
        src = """
        __export int f(int c) {
            int x;
            if (c) x = 1; else x = 2;
            return x;
        }
        """
        assert run_c(src, "f", 1) == 1
        assert run_c(src, "f", 0) == 2

    def test_uninitialized_variable_reads_do_not_crash(self, run_c):
        src = """
        __export int f(int c) {
            int x;
            if (c) x = 7;
            if (c) return x;
            return 0;
        }
        """
        assert run_c(src, "f", 1) == 7
        assert run_c(src, "f", 0) == 0

    def test_undef_edge_phi_is_not_folded_past_its_definition(self, run_c):
        # ``b`` shadows nothing and reads itself: its loop-header phi is
        # [undef, entry], [b * d, body].  Folding that phi into ``b * d``
        # (which does not dominate the header) made the multiply use
        # itself, and the peephole pass then spun forever.
        src = """
        __export long f(long a) { long d = 1; long e = 2;
            while (a < 20) { if (3) { { long b = (b * d); e = b + 1; }
                a = a + 1; } }
            return e; }
        """

        def timeout(signum, frame):
            raise TimeoutError("compile_module did not finish in 10 s")

        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            compiled = compile_module(
                src, CompileOptions(module_name="selfinit", protect=False)
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        verify_module(compiled.ir)
        assert run_c(src, "f", 25) == 2
        assert run_c(src, "f", 0) == 1  # undef reads as 0: b = 0, e = 1


class TestDCE:
    def test_removes_dead_arithmetic(self):
        src = """
        __export int f(int a) {
            int dead = a * 12345;
            int dead2 = dead + 1;
            return a;
        }
        """
        m = compile_source(src, "m")
        Mem2RegPass().run(m)
        dce = DCEPass()
        dce.run(m)
        assert dce.removed >= 2

    def test_keeps_loads(self):
        # Loads may hit MMIO; DCE must not delete them.
        src = """
        __export int f(int *p) {
            int unused = *p;
            return 0;
        }
        """
        m = compile_source(src, "m")
        Mem2RegPass().run(m)
        DCEPass().run(m)
        _, loads, _, _ = counts(m)
        assert loads == 1

    def test_keeps_calls(self):
        src = """
        extern int printk(char *fmt, ...);
        __export int f(void) {
            printk("side effect");
            return 0;
        }
        """
        m = compile_source(src, "m")
        Mem2RegPass().run(m)
        DCEPass().run(m)
        assert any(
            i.opcode == "call" for i in m.get_function("f").instructions()
        )


class TestPeephole:
    def test_folds_constant_arithmetic(self):
        src = "__export int f(void) { return (3 + 4) * 2; }"
        m = compile_source(src, "m")
        pm = PassManager([Mem2RegPass(), PeepholePass(), DCEPass()])
        pm.run(m)
        fn = m.get_function("f")
        ret = fn.entry.terminator
        from repro.ir.values import ConstantInt

        assert isinstance(ret.value, ConstantInt)
        assert ret.value.signed == 14

    def test_collapses_bool_recheck_pattern(self, run_c):
        # if (a < b) emits icmp;zext;icmp ne 0 before peephole; after,
        # a single icmp should remain — and semantics must hold.
        src = "__export int f(int a, int b) { if (a < b) return 1; return 0; }"
        m = compile_source(src, "m")
        pm = PassManager([Mem2RegPass(), PeepholePass(), DCEPass()])
        pm.run(m)
        icmps = [
            i for i in m.get_function("f").instructions() if i.opcode == "icmp"
        ]
        assert len(icmps) == 1
        assert run_c(src, "f", 1, 2) == 1
        assert run_c(src, "f", 2, 1) == 0

    def test_division_by_zero_not_folded(self):
        src = "__export int f(void) { return 1 / 0; }"
        m = compile_source(src, "m")
        PeepholePass().run(m)
        # The sdiv must survive so the runtime fault fires.
        assert any(
            i.opcode == "binop" and i.op == "sdiv"
            for i in m.get_function("f").instructions()
        )

    def test_algebraic_identities(self):
        src = "__export long f(long x) { return (x + 0) * 1 | 0; }"
        m = compile_source(src, "m")
        pm = PassManager([Mem2RegPass(), PeepholePass(), DCEPass()])
        pm.run(m)
        binops = [
            i for i in m.get_function("f").instructions() if i.opcode == "binop"
        ]
        assert binops == []

    def test_semantics_preserved_random_inputs(self, run_c):
        src = """
        __export long f(long a, long b) {
            long x = (a + 0) * 1;
            long y = (b | 0) ^ 0;
            return (x << 1) + (y >> 1) + (3 * 4);
        }
        """
        for a, b in ((1, 2), (100, 7), (0, 0)):
            expected = (a << 1) + (b >> 1) + 12
            assert run_c(src, "f", a, b) == expected
