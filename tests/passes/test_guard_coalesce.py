"""-O2 range coalescing and the value-numbering guard key.

Covers the two new GuardOptPass behaviours: merging same-block guards at
constant offsets off one root, and replacing ``base + i*stride`` loop
sweeps with a single preheader-wide range guard — plus the regression
for the old ``id(root)``-based guard key, which both missed structurally
identical recreated address chains and could alias recycled ids.
"""

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
from repro.passes.guard_opt import _ValueNumber


def build(src: str, level: int = 1):
    m = compile_source(src, "cm")
    PassManager(
        [Mem2RegPass(), PeepholePass(), DCEPass(), AttestationPass(),
         GuardInjectionPass()]
    ).run(m)
    opt = GuardOptPass(level)
    opt.run(m)
    DCEPass().run(m)
    verify_module(m)
    return m, opt


def guards(m: Module) -> list[Call]:
    return [
        i
        for fn in m.defined_functions()
        for i in fn.instructions()
        if isinstance(i, Call) and i.is_guard
    ]


class TestBlockCoalescing:
    RING = """
    long ring[8];
    __export void fill() {
        ring[0] = 1;
        ring[1] = 2;
        ring[2] = 3;
        ring[3] = 4;
    }
    """

    def test_consecutive_stores_merge_to_one_wide_guard(self):
        m, opt = build(self.RING, level=2)
        assert opt.guards_coalesced == 3
        gs = guards(m)
        assert len(gs) == 1
        # The wide guard spans all four 8-byte slots.
        assert gs[0].args[1].value == 32

    def test_coalescing_off_by_default(self):
        m, opt = build(self.RING)
        assert opt.guards_coalesced == 0
        assert len(guards(m)) == 4

    def test_mixed_flags_not_merged(self):
        src = """
        long ring[8];
        __export long f() {
            ring[0] = 1;          /* write */
            return ring[1];       /* read: different flags */
        }
        """
        m, opt = build(src, level=2)
        assert opt.guards_coalesced == 0
        assert len(guards(m)) == 2

    def test_different_roots_not_merged(self):
        src = """
        long a[4];
        long b[4];
        __export void f() {
            a[0] = 1;
            b[0] = 2;
        }
        """
        m, opt = build(src, level=2)
        assert opt.guards_coalesced == 0
        assert len(guards(m)) == 2

    def test_semantics_preserved(self):
        from repro.core.pipeline import CompileOptions, compile_module
        from repro.kernel import Kernel

        src = """
        long ring[8];
        __export long f(long x) {
            ring[0] = x;
            ring[1] = x + 1;
            ring[2] = x + 2;
            long s = 0;
            for (long i = 0; i < 3; i++) { s += ring[i]; }
            return s;
        }
        """
        results = {}
        for level in (0, 2):
            k = Kernel()
            k.export_native("carat_guard", lambda ctx, a, s, f, m="": 1)
            compiled = compile_module(
                src,
                CompileOptions(module_name=f"cm{level}", protect=True,
                               opt_level=level),
            )
            loaded = k.insmod(compiled)
            results[level] = [k.run_function(loaded, "f", [x]) for x in range(5)]
        assert results[2] == results[0]


class TestSweepCoalescing:
    SWEEP = """
    long buf[16];
    __export void fill() {
        for (long i = 0; i < 16; i++) {
            buf[i] = i;
        }
    }
    """

    def test_counted_sweep_becomes_one_range_guard(self):
        m, opt = build(self.SWEEP, level=2)
        assert opt.guards_coalesced >= 1
        gs = guards(m)
        assert len(gs) == 1
        # One wide guard over the whole 16 * 8-byte sweep.
        assert gs[0].args[1].value == 16 * 8

    def test_runtime_guard_count_drops_to_constant(self):
        from repro.core.pipeline import CompileOptions, compile_module
        from repro.kernel import Kernel

        counts = {}
        for level in (0, 2):
            k = Kernel()
            executed = [0]

            def guard(ctx, a, s, f, m="", _e=executed):
                _e[0] += 1
                return 1

            k.export_native("carat_guard", guard)
            compiled = compile_module(
                self.SWEEP,
                CompileOptions(module_name=f"sw{level}", protect=True,
                               opt_level=level),
            )
            loaded = k.insmod(compiled)
            k.run_function(loaded, "fill", [])
            counts[level] = executed[0]
        assert counts[0] >= 16   # one guard per iteration, faithful build
        assert counts[2] <= 2    # one wide preheader guard

    def test_unknown_bound_not_coalesced(self):
        src = """
        long buf[16];
        __export void fill(long n) {
            for (long i = 0; i < n; i++) {
                buf[i] = i;
            }
        }
        """
        m, opt = build(src, level=2)
        assert opt.guards_coalesced == 0


class TestValueNumberKey:
    def test_recreated_address_chains_dedup(self):
        """Two separately materialized ``data[5]`` chains guard once.

        The old ``id(root)`` key treated the recreated GEP objects as
        distinct roots and kept both guards.
        """
        src = """
        long data[16];
        __export long f() {
            long a = data[5];
            long b = data[5];
            return a + b;
        }
        """
        m, opt = build(src, level=1)
        assert opt.guards_removed >= 1
        assert len(guards(m)) == 1

    def test_opaque_roots_stay_distinct(self):
        """Loads produce fresh values: ``**pp`` twice must keep both
        inner guards (the outer load may return different pointers)."""
        src = """
        __export long f(long **pp) {
            long a = **pp;
            long b = **pp;
            return a + b;
        }
        """
        m, opt = build(src, level=1)
        # Outer *pp guards dedup (same argument root); inner guards on
        # the two loaded pointers must not.
        inner = [
            g for g in guards(m)
            if not any(
                getattr(arg, "index", None) == 0 for arg in g.args
            )
        ]
        assert len(guards(m)) >= 2

    def test_memo_rejects_recycled_id(self):
        """Regression for the id-reuse hazard: a memo slot whose id was
        recycled by a different object must recompute, never return the
        stale key."""
        from repro.ir.types import I64
        from repro.ir.values import ConstantInt

        vn = _ValueNumber()
        a = ConstantInt(I64, 1)
        b = ConstantInt(I64, 2)
        # Simulate id(a) being recycled: plant a's slot with b's entry.
        vn._memo[id(a)] = (b, ("const", "i64", 2))
        assert vn.key(a) == ("const", "i64", 1)

    def test_structural_keys_equal_for_equal_chains(self):
        from repro.ir.types import I64, PointerType
        from repro.ir.values import ConstantInt, GlobalValue

        vn = _ValueNumber()
        ptr = PointerType(I64)
        g = GlobalValue(ptr, "data")
        from repro.ir.instructions import Gep

        g1 = Gep(ptr, g, ConstantInt(I64, 5), 8, 0, "g1")
        g2 = Gep(ptr, g, ConstantInt(I64, 5), 8, 0, "g2")
        assert vn.key(g1) == vn.key(g2)
        g3 = Gep(ptr, g, ConstantInt(I64, 6), 8, 0, "g3")
        assert vn.key(g3) != vn.key(g1)
