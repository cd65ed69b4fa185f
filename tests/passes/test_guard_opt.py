"""Guard optimization (abl2) tests: elimination and loop hoisting."""

from repro.ir import Module, verify_module
from repro.ir.instructions import Call
from repro.minicc import compile_source
from repro.passes import (
    AttestationPass,
    DCEPass,
    GuardInjectionPass,
    GuardOptPass,
    Mem2RegPass,
    PassManager,
    PeepholePass,
)


def build(src: str, hoist=True):
    m = compile_source(src, "go")
    PassManager(
        [Mem2RegPass(), PeepholePass(), DCEPass(), AttestationPass(),
         GuardInjectionPass()]
    ).run(m)
    opt = GuardOptPass(hoist_loops=hoist)
    opt.run(m)
    DCEPass().run(m)
    verify_module(m)
    return m, opt


def guard_count(m: Module) -> int:
    return sum(
        1
        for fn in m.defined_functions()
        for i in fn.instructions()
        if isinstance(i, Call) and i.is_guard
    )


class TestDominatedElimination:
    def test_repeated_access_same_pointer_dedups(self):
        src = """
        __export long f(long *p) {
            long a = *p;
            long b = *p;
            long c = *p;
            return a + b + c;
        }
        """
        m, opt = build(src, hoist=False)
        assert opt.guards_removed == 2
        assert guard_count(m) == 1

    def test_different_flags_not_merged(self):
        src = """
        __export void f(long *p) {
            long a = *p;   /* read  */
            *p = a + 1;    /* write: different flags, guard kept */
        }
        """
        m, opt = build(src, hoist=False)
        assert guard_count(m) == 2

    def test_different_pointers_not_merged(self):
        src = """
        __export long f(long *p, long *q) {
            return *p + *q;
        }
        """
        m, opt = build(src, hoist=False)
        assert guard_count(m) == 2

    def test_cross_block_domination(self):
        src = """
        __export long f(long *p, int c) {
            long a = *p;          /* dominates both branches */
            if (c) return a + *p; /* redundant */
            return *p;            /* redundant */
        }
        """
        m, opt = build(src, hoist=False)
        assert guard_count(m) == 1

    def test_branch_guards_not_merged_across_siblings(self):
        src = """
        __export long f(long *p, int c) {
            if (c) return *p;
            return *p;   /* neither branch dominates the other */
        }
        """
        m, opt = build(src, hoist=False)
        assert guard_count(m) == 2


class TestLoopHoisting:
    LOOP = """
    __export long f(long *p, long n) {
        long s = 0;
        for (long i = 0; i < n; i++) {
            s += *p;      /* loop-invariant address */
        }
        return s;
    }
    """

    def test_invariant_guard_hoisted(self):
        m, opt = build(self.LOOP, hoist=True)
        assert opt.guards_hoisted >= 1
        # After hoist + dedup, the loop body holds no guards.
        fn = m.get_function("f")
        from repro.passes import find_loops

        for loop in find_loops(fn):
            for block in loop.blocks:
                assert not any(
                    isinstance(i, Call) and i.is_guard
                    for i in block.instructions
                ), "guard left inside loop"

    def test_variant_address_not_hoisted(self):
        src = """
        __export long f(long *p, long n) {
            long s = 0;
            for (long i = 0; i < n; i++) {
                s += p[i];   /* address depends on i */
            }
            return s;
        }
        """
        m, opt = build(src, hoist=True)
        assert opt.guards_hoisted == 0

    def test_semantics_preserved_after_hoisting(self):
        from repro.core.pipeline import CompileOptions, compile_module
        from repro.kernel import Kernel

        kernel = Kernel()
        results = {}
        for label, opt_level in (("plain", 0), ("opt", 1)):
            compiled = compile_module(
                """
                long data[8];
                __export long f(long n) {
                    long s = 0;
                    data[3] = 7;
                    for (long i = 0; i < n; i++) { s += data[3]; }
                    return s;
                }
                """,
                CompileOptions(
                    module_name=f"hm_{label}", protect=True,
                    opt_level=opt_level,
                ),
            )
            # No policy module: run unenforced by loading into a kernel with
            # a permissive guard stub.
            k = Kernel()
            k.export_native("carat_guard", lambda ctx, a, s, f, m="": 1)
            loaded = k.insmod(compiled)
            results[label] = [k.run_function(loaded, "f", [n]) for n in range(6)]
        assert results["plain"] == results["opt"]

    def test_guard_count_metadata_updated(self):
        from repro import abi

        m, opt = build(self.LOOP, hoist=True)
        assert m.metadata[abi.META_GUARD_COUNT] == guard_count(m)

    def test_optimized_has_fewer_runtime_guards(self):
        """The abl2 headline: hoisting reduces executed guards per call."""
        from repro.core.pipeline import CompileOptions, compile_module
        from repro.kernel import Kernel

        counts = {}
        for opt_level in (0, 1):
            k = Kernel()
            executed = [0]

            def guard(ctx, a, s, f, m="", _e=executed):
                _e[0] += 1
                return 1

            k.export_native("carat_guard", guard)
            compiled = compile_module(
                self.LOOP,
                CompileOptions(
                    module_name="lm", protect=True, opt_level=opt_level,
                ),
            )
            loaded = k.insmod(compiled)
            buf = k.kmalloc_allocator.kmalloc(8)
            k.run_function(loaded, "f", [buf, 50])
            counts[opt_level] = executed[0]
        assert counts[1] < counts[0]
        assert counts[0] >= 50  # one guard per iteration unoptimized
        assert counts[1] <= 3   # hoisted: constant per call
