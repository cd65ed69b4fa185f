"""Intrinsic-guard pass tests (paper §5 extension)."""

from repro.ir import verify_module
from repro.ir.instructions import Call, Cast
from repro.minicc import compile_source
from repro.passes import AttestationPass, GuardInjectionPass, Mem2RegPass, PassManager
from repro.passes.intrinsic_guard import (
    INTRINSIC_GUARD_SYMBOL,
    IntrinsicGuardPass,
    META_INTRINSIC_GUARDED,
    PRIVILEGED_INTRINSICS,
)

SRC = """
extern void wrmsr(int msr, long value);
extern long rdmsr(int msr);
extern void cli(void);
extern int printk(char *fmt, ...);

__export void poke_msrs(void) {
    long old = rdmsr(0x1A4);
    wrmsr(0x1A4, old | 1);
    wrmsr(0x1A5, 0);
    cli();
    printk("done");
}
"""


def build(src=SRC):
    m = compile_source(src, "im")
    PassManager([Mem2RegPass(), AttestationPass()]).run(m)
    p = IntrinsicGuardPass()
    p.run(m)
    verify_module(m)
    return m, p


def test_each_intrinsic_call_site_guarded():
    m, p = build()
    assert p.guards_inserted == 4  # rdmsr + 2x wrmsr + cli
    fn = m.get_function("poke_msrs")
    insts = list(fn.instructions())
    for i, inst in enumerate(insts):
        if isinstance(inst, Call) and inst.callee.name in PRIVILEGED_INTRINSICS:
            prev = insts[i - 1]
            assert isinstance(prev, Call)
            assert prev.callee.name == INTRINSIC_GUARD_SYMBOL


def test_non_privileged_calls_untouched():
    m, _ = build()
    fn = m.get_function("poke_msrs")
    insts = list(fn.instructions())
    for i, inst in enumerate(insts):
        if isinstance(inst, Call) and inst.callee.name == "printk":
            prev = insts[i - 1]
            assert not (
                isinstance(prev, Call)
                and prev.callee.name == INTRINSIC_GUARD_SYMBOL
            )


def test_name_strings_deduplicated():
    m, _ = build()
    wrmsr_strings = [g for g in m.globals if g.startswith(".intr.wrmsr")]
    assert len(wrmsr_strings) == 1


def test_guard_reads_its_intr_name_global():
    m, _ = build()
    assert {g for g in m.globals if g.startswith(".intr.")} == {
        ".intr.rdmsr", ".intr.wrmsr", ".intr.cli"
    }
    assert m.functions[INTRINSIC_GUARD_SYMBOL].is_declaration
    insts = list(m.get_function("poke_msrs").instructions())
    for i, inst in enumerate(insts):
        if isinstance(inst, Call) and inst.callee.name in PRIVILEGED_INTRINSICS:
            cast, guard = insts[i - 2], insts[i - 1]
            assert isinstance(cast, Cast) and cast.name.startswith("iname.")
            assert guard.args == [cast]
            assert cast.value is m.globals[f".intr.{inst.callee.name}"]
            assert cast.value.initializer.data == inst.callee.name.encode() + b"\x00"


def test_metadata_and_idempotence():
    m, _ = build()
    assert m.metadata[META_INTRINSIC_GUARDED] is True
    again = IntrinsicGuardPass()
    assert again.run(m) is False
    assert again.guards_inserted == 0


def test_module_without_intrinsics_unchanged():
    src = "__export long f(long a) { return a + 1; }"
    m = compile_source(src, "clean")
    PassManager([AttestationPass()]).run(m)
    p = IntrinsicGuardPass()
    changed = p.run(m)
    assert changed is False
    assert INTRINSIC_GUARD_SYMBOL not in m.functions
    assert m.metadata[META_INTRINSIC_GUARDED] is True


def test_composes_with_memory_guards():
    m = compile_source(SRC, "both")
    PassManager(
        [Mem2RegPass(), AttestationPass(), GuardInjectionPass()]
    ).run(m)
    IntrinsicGuardPass().run(m)
    verify_module(m)
    guards = [
        i for fn in m.defined_functions() for i in fn.instructions()
        if isinstance(i, Call) and i.callee.name == INTRINSIC_GUARD_SYMBOL
    ]
    assert len(guards) == 4
