"""The compiled engine's frame-local counters agree with the interpreter.

A compiled frame keeps ``T.instructions``, ``T.loads``, ``T.stores``, IR
``T.calls`` and ``instructions_executed`` in locals, summed per block and
added to the engine when the frame exits (its ``finally``); the cycle
charge is flushed before every observable step, as the interpreter makes
it.  So after any unwind the counters must equal the interpreter's, and
anything that reads ``timing.cycles`` in the middle of a frame must see
the interpreter's value.  Each scenario runs under both engines, with and
without the tracer (whose per-function rows are deltas between a frame's
own enter and exit), and compares ``timing.snapshot()``,
``instructions_executed`` and ``guard_checks``.
"""

from __future__ import annotations

import pytest

from repro import abi
from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.ir import (
    I8PTR, I32, I64, Function, FunctionType, IRBuilder, Module, PointerType)
from repro.ir.values import ConstantInt
from repro.kernel import Kernel, MemoryFault, layout
from repro.kernel.module_loader import CompiledModule
from repro.kernel.panic import KernelPanic
from repro.passes import AttestationPass, PassManager
from repro.policy import CaratPolicyModule
from repro.net import make_test_frame
from repro.vm import compiled, get_machine

ENGINES = ("interp", "compiled")
#: The first page of RAM through the direct map; the page below it is
#: unmapped.
RAM = layout.DIRECT_MAP_BASE


def counters(kernel, traced: bool) -> dict:
    vm = kernel.vm
    state = {
        "timing": vm.timing.snapshot(),
        "instructions_executed": vm.instructions_executed,
        "guard_checks": vm.guard_checks,
    }
    if traced:
        state["profile"] = kernel.trace.functions.render(top=50)
    return state


def both(scenario, traced: bool) -> dict:
    """Run ``scenario(engine, traced)`` under both engines; they must
    agree, and the agreed state is returned."""
    a, b = (scenario(engine, traced) for engine in ENGINES)
    assert a == b
    return a


# A fault several charged steps into a block, two frames deep: each frame
# holds pending instructions, loads, stores and calls when it unwinds.
FAULT_SOURCE = """
long acc;
long table[8];
long leaf(long i, long addr) {
    long x = table[i & 7] * 3 + i;
    table[(i + 1) & 7] = x ^ acc;
    acc = acc + x;
    return x + *(long *)addr;
}
long middle(long i, long addr) {
    long y = leaf(i, addr + 4096);
    table[2] = y;
    return y + leaf(i + 1, addr);
}
__export long outer(long i, long addr) {
    acc = acc + table[i & 7];
    long r = middle(i, addr);
    return r + table[3];
}
"""


def fault_mid_block(engine: str, traced: bool) -> dict:
    kernel = Kernel(machine=get_machine("r415"), engine=engine)
    if traced:
        kernel.trace.enable()
    loaded = kernel.insmod(compile_module(
        FAULT_SOURCE, CompileOptions(module_name="faulty", protect=False)))
    ok = kernel.run_function(loaded, "outer", [5, RAM])
    faults = []
    for addr in (0x1000, RAM - layout.PAGE_SIZE):
        # The first faults in the first leaf; the second after ``middle``
        # stored and the first leaf returned.
        try:
            kernel.run_function(loaded, "outer", [3, addr])
        except MemoryFault as e:
            faults.append(str(e))
    return {"ok": ok, "faults": faults, **counters(kernel, traced)}


@pytest.mark.parametrize("traced", [False, True])
def test_memory_fault_mid_block(traced):
    state = both(fault_mid_block, traced)
    assert len(state["faults"]) == 2
    assert state["timing"]["loads"] and state["timing"]["stores"]
    assert state["timing"]["calls"]


def isr_inside_frame(engine: str, traced: bool) -> dict:
    system = CaratKopSystem(SystemConfig(machine="r415", engine=engine))
    kernel = system.kernel
    if traced:
        kernel.trace.enable()
    assert system.netdev.enable_interrupts() == 0
    # Each xmit's TX doorbell raises the IRQ, whose handler (module code)
    # runs while the xmit frame is live; the injected frames raise it
    # from outside any frame.
    rcs = [system.netdev.xmit(make_test_frame(128, seq)) for seq in range(16)]
    delivered = [system.netdev.inject_rx(make_test_frame(64, seq))
                 for seq in range(3)]
    stats = system.netdev.stats()
    return {"rcs": rcs, "delivered": delivered,
            "irq_count": stats["irq_count"], **counters(kernel, traced)}


@pytest.mark.parametrize("traced", [False, True])
def test_isr_runs_inside_a_live_frame(traced):
    state = both(isr_inside_frame, traced)
    assert state["rcs"] == [0] * 16
    assert state["delivered"] == [True] * 3
    assert state["irq_count"] > 3  # TX completions, not only the RX ones


@pytest.fixture
def hot(monkeypatch):
    """Inline leaves from a function's first call (not its 17th)."""
    monkeypatch.setattr(compiled, "_TIER_UP_CALLS", 0)


def inlined_leaves(engine, loaded, caller: str) -> set:
    t = compiled._Translator(engine, loaded, loaded.ir.functions[caller],
                             inline=True)
    t.translate(loaded.ir.generation)
    src = "\n".join(t.lines)
    return {leaf for leaf in loaded.ir.functions
            if f"kernel stack overflow in @{leaf}'" in src} - {caller}


def isr_in_inlined_doorbell(driver: str):
    """The doorbell store of the -O3 driver's submit path sits in the
    inlined ``ew32``/``vw32``; the device raises the IRQ inside that
    store, so the handler's kernel entry must see the depth the
    interpreter's ``ew32``/``vw32`` frame has, and the clock and counters
    it has there."""
    def scenario(engine: str, traced: bool) -> dict:
        system = CaratKopSystem(SystemConfig(
            machine="r415", engine=engine, opt_level=3, driver=driver,
            cpus=1))
        kernel = system.kernel
        vm = kernel.vm
        entries = []
        run = kernel.run_function

        def spy(module, name, args):
            entries.append((name, vm._depth, vm.timing.cc))
            return run(module, name, args)

        kernel.run_function = spy
        if driver == "e1000e":
            assert system.netdev.enable_interrupts() == 0
            caller, leaf = "e1000e_xmit_frame", "ew32"
            rcs = [system.netdev.xmit(make_test_frame(128, seq))
                   for seq in range(40)]
        else:
            assert system.blkdev.enable_interrupts() == 0
            caller, leaf = "vblk_submit_io", "vw32"
            rcs = []
            for seq in range(8):
                # The next doorbell store lands after this completion.
                rcs.append(system.blkqueue.pwrite(seq * 8,
                                                  bytes([seq]) * 512).rc)
                kernel.advance_time(40)
        if engine == "compiled":
            assert leaf in inlined_leaves(vm, system.driver, caller)
        # A handler entered inside the submit frame, from the inlined
        # leaf's store: two frames deep in the interpreter.
        nested = [e for e in entries if e[1] == 2]
        return {"rcs": rcs, "entries": entries, "nested": len(nested),
                **counters(kernel, traced)}

    return scenario


@pytest.mark.parametrize("driver", ["e1000e", "vblk"])
def test_isr_inside_an_inlined_mmio_store(driver, hot):
    state = both(isr_in_inlined_doorbell(driver), False)
    assert not any(state["rcs"])
    assert state["nested"] >= 3  # handlers entered inside a live frame


FAULT_IN_LEAF = """
long table[8];
long leaf(long addr, long i) {
    table[i & 7] = i * 3;
    long x = *(long *)addr;
    return x + table[(i + 1) & 7];
}
__export long outer(long i, long addr) {
    table[2] = i;
    long r = leaf(addr, i) + table[2];
    return r + leaf(addr + 8, i + 1);
}
"""


def fault_in_inlined_leaf(engine: str, traced: bool) -> dict:
    kernel = Kernel(machine=get_machine("r415"), engine=engine)
    loaded = kernel.insmod(compile_module(
        FAULT_IN_LEAF, CompileOptions(module_name="leafy", protect=False)))
    if engine == "compiled":
        assert inlined_leaves(kernel.vm, loaded, "outer") == {"leaf"}
    ok = kernel.run_function(loaded, "outer", [5, RAM])
    faults = []
    # The first faults in the first inlined body, the second in the
    # second, after the first returned.
    for addr in (0x1000, RAM - 8):
        try:
            kernel.run_function(loaded, "outer", [3, addr])
        except MemoryFault as e:
            faults.append(str(e))
    return {"ok": ok, "faults": faults, **counters(kernel, traced)}


def test_memory_fault_in_an_inlined_leaf(hot):
    state = both(fault_in_inlined_leaf, False)
    assert len(state["faults"]) == 2


PEEK_SOURCE = """
extern long peek(long tag);
long shared[4];
long inner(long a) {
    shared[1] = a * 7;
    long t = peek(2);
    return shared[1] + t + shared[0];
}
__export long run(long a) {
    shared[0] = a + 1;
    long b = (a << 3) ^ shared[0];
    peek(1);
    long c = inner(b) + b;
    shared[2] = c;
    peek(3);
    return c + shared[2];
}
"""


def native_reads_cycles(engine: str, traced: bool) -> dict:
    kernel = Kernel(machine=get_machine("r415"), engine=engine)
    if traced:
        kernel.trace.enable()
    seen = []

    def peek(vm, tag):
        t = vm.timing
        seen.append((tag, t.cycles, t.mmio_reads, t.mmio_writes))
        return 0

    kernel.export_native("peek", peek)
    loaded = kernel.insmod(compile_module(
        PEEK_SOURCE, CompileOptions(module_name="peeker", protect=False)))
    results = [kernel.run_function(loaded, "run", [a]) for a in (1, 9)]
    return {"results": results, "seen": seen, **counters(kernel, traced)}


@pytest.mark.parametrize("traced", [False, True])
def test_native_sees_the_interpreters_cycles_mid_function(traced):
    state = both(native_reads_cycles, traced)
    cycles = [c for _, c, _, _ in state["seen"]]
    assert len(cycles) == 6 and cycles == sorted(set(cycles))


OFFENDER = """
long work[4];
long hit(long addr, long v) {
    work[v & 3] = v;
    long s = work[0] + work[1] * 2;
    *(long *)addr = s;
    return s;
}
__export long poke(long addr) {
    long v = work[2] + 5;
    work[3] = v;
    return hit(addr, v) + work[3];
}
"""


def guard_denial(mode: str):
    def scenario(engine: str, traced: bool) -> dict:
        system = CaratKopSystem(SystemConfig(
            machine="r415", engine=engine, enforce_mode=mode))
        kernel = system.kernel
        if traced:
            kernel.trace.enable()
        loaded = kernel.insmod(compile_module(OFFENDER, CompileOptions(
            module_name="offender", key=system.signing_key)))
        try:
            out = kernel.run_function(loaded, "poke", [0x2000])
        except KernelPanic as e:
            out = str(e)
        return {"out": out, "panicked": kernel.panicked,
                **counters(kernel, traced)}

    return scenario


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("mode", ["panic", "eject"])
def test_guard_denial(mode, traced):
    state = both(guard_denial(mode), traced)
    if mode == "panic":
        assert state["panicked"] is not None
    else:
        assert state["out"] == -14
        assert state["panicked"] is None


def undefined_operand_module(use: str) -> CompiledModule:
    """``f(a, p)``: the join block loads and stores through ``p``, calls
    ``g``, then uses ``%x``, which only the ``then`` block defines, as
    ``use``: a load's pointer, a store's value or pointer, or a call's
    argument.  With ``a = 0`` the read of ``%x`` fails."""
    m = Module("undef")
    g = Function("g", FunctionType(I64, [I64]), ["v"])
    m.add_function(g)
    b = IRBuilder(g.add_block("entry"))
    b.ret(b.add(g.args[0], b.const_i64(1)))
    fn = Function("f", FunctionType(I64, [I64, I64]), ["a", "p"])
    m.add_function(fn)
    entry, then, join = (fn.add_block(n) for n in ("entry", "then", "join"))
    a, p = fn.args
    ptr = PointerType(I64)
    b = IRBuilder(entry)
    b.cond_br(b.icmp("ne", a, b.const_i64(0)), then, join)
    b.position_at_end(then)
    x = b.add(p, b.const_i64(8), "x")
    b.br(join)
    b.position_at_end(join)
    q = b.inttoptr(p, ptr)
    b.store(b.add(b.load(q), a), q)
    r = b.call(g, [a])
    if use == "load":
        r = b.add(r, b.load(b.inttoptr(x, ptr)))
    elif use == "store value":
        b.store(x, q)
    elif use == "store pointer":
        b.store(a, b.inttoptr(x, ptr))
    else:
        r = b.call(g, [x])
    b.ret(r)
    PassManager([AttestationPass()]).run(m)
    return CompiledModule(ir=m)


@pytest.mark.parametrize("use", ["load", "store value", "store pointer",
                                 "call"])
def test_undefined_operand_leaves_its_access_uncounted(use):
    """The interpreter reads an access's operands before it counts the
    load, store or call, so a failed read counts the instruction only."""
    def scenario(engine, traced):
        kernel = Kernel(machine=get_machine("r415"), engine=engine)
        loaded = kernel.insmod(undefined_operand_module(use))
        outcomes = []
        for a in (3, 0):
            try:
                outcomes.append(kernel.run_function(loaded, "f", [a, RAM]))
            except Exception as e:  # noqa: BLE001 - the error is observed
                outcomes.append((type(e).__name__, str(e)))
        return {"outcomes": outcomes, **counters(kernel, traced)}

    state = both(scenario, False)
    assert state["outcomes"][1] == (
        "InterpreterError", "use of undefined value %x (i64)")


def guard_site_module() -> CompiledModule:
    """``f(a, p)``: the join block loads and adds through ``p`` (charges
    left pending in the guard's segment), then guards ``%x`` (a pointer
    to ``p + 8`` that only the ``then`` block defines) and loads it.
    With ``a = 0`` the guard's own operand read fails; otherwise the
    guard decides on ``p + 8``."""
    m = Module("guardsite")
    guard = Function(abi.GUARD_SYMBOL, abi.guard_function_type(),
                     ["addr", "size", "flags"])
    m.add_function(guard)
    fn = Function("f", FunctionType(I64, [I64, I64]), ["a", "p"])
    m.add_function(fn)
    entry, then, join = (fn.add_block(n) for n in ("entry", "then", "join"))
    a, p = fn.args
    b = IRBuilder(entry)
    b.cond_br(b.icmp("ne", a, b.const_i64(0)), then, join)
    b.position_at_end(then)
    x = b.inttoptr(b.add(p, b.const_i64(8)), I8PTR, "x")
    b.br(join)
    b.position_at_end(join)
    q = b.inttoptr(p, PointerType(I64))
    s = b.add(b.load(q), a)
    call = b.call(guard, [x, b.const_i64(8), ConstantInt(I32, abi.FLAG_READ)])
    call.is_guard = True
    b.ret(b.add(s, b.load(b.bitcast(x, PointerType(I64)))))
    PassManager([AttestationPass()]).run(m)
    return CompiledModule(ir=m)


@pytest.mark.parametrize("traced", [False, True])
def test_guard_site_charges_on_undefined_operand_and_deny(traced):
    """A guard closure adds its segment's pending centicycles itself,
    first: an undefined operand at the site (raised by the line) and a
    panic-mode deny (raised inside the closure, after it added them)
    must each leave the interpreter's clock and counters."""
    def scenario(engine, traced):
        kernel = Kernel(machine=get_machine("r415"), engine=engine)
        CaratPolicyModule(kernel).install()  # default deny, panic mode
        if traced:
            kernel.trace.enable()
        loaded = kernel.insmod(guard_site_module())
        outcomes = []
        for a in (0, 3):
            try:
                outcomes.append(kernel.run_function(loaded, "f", [a, RAM]))
            except Exception as e:  # noqa: BLE001 - the error is observed
                outcomes.append((type(e).__name__, str(e)))
            outcomes.append(counters(kernel, traced))
        return {"outcomes": outcomes, "panicked": kernel.panicked is not None}

    state = both(scenario, traced)
    assert state["outcomes"][0] == (
        "InterpreterError", "use of undefined value %x (i8*)")
    assert state["outcomes"][2][0] == "GuardViolation"  # a KernelPanic
    assert state["panicked"]
    assert state["outcomes"][3]["timing"]["cycles"] > \
        state["outcomes"][1]["timing"]["cycles"] > 0
