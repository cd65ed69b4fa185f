"""Differential tests: the compiled engine against the reference interpreter.

The compiled engine's contract is *bit-identical* observable behaviour:
return values, memory, cycle accounting (an integer centicycle clock, so
the compiled engine may sum a segment's charges at translate time),
guard statistics, per-function profiles, and dmesg — across normal
execution and panics.  Every test here runs the same workload
under both engines and compares the full observable state.
"""

from __future__ import annotations

import re

import pytest

from repro import abi
from repro.core.pipeline import CompileOptions, compile_module
from repro.core.system import CaratKopSystem, SystemConfig
from repro.ir import I64, Function, FunctionType, IRBuilder, Module
from repro.ir.values import ConstantInt
from repro.kernel import Kernel
from repro.kernel.module_loader import CompiledModule
from repro.kernel.panic import KernelPanic
from repro.passes import AttestationPass, PassManager
from repro.passes.absint import AREAS
from repro.policy import (
    OP_ADD,
    CaratPolicyModule,
    PolicyManager,
    PolicyMiner,
    Region,
)
from repro.policy.module import MODE_EJECT
from repro.vm import compiled, get_machine

# ---------------------------------------------------------------------------
# mini-C program bank: each entry is (source, [(fn, args), ...]) and is run
# identically under both engines.

U64 = (1 << 64) - 1

PROGRAMS = [
    # arithmetic breadth: wrap, signed/unsigned div/rem, shifts, compares
    (
        """
        __export long mix(long a, long b) {
            long s = a + b * 3 - (a ^ b);
            s = s | (a & b);
            return (s << 2) >> 1;
        }
        __export long sdivrem(long a, long b) { return a / b + a % b; }
        __export unsigned long udivrem(unsigned long a, unsigned long b) {
            return a / b + a % b;
        }
        __export int cmps(int a, int b) {
            return (a < b) + (a <= b) * 2 + (a > b) * 4 + (a >= b) * 8
                 + (a == b) * 16 + (a != b) * 32;
        }
        __export unsigned int ucmp(unsigned int a, unsigned int b) {
            return (a < b) + (a > b) * 2;
        }
        __export int narrow(int a) { return a + 1; }
        __export int sar(int a) { return a >> 3; }
        """,
        [
            ("mix", (7, 3)),
            ("mix", ((-9) % (1 << 64), 1234567)),
            ("sdivrem", ((-7) % (1 << 64), 2)),
            ("sdivrem", (7, (-2) % (1 << 64))),
            ("udivrem", ((1 << 64) - 8, 3)),
            ("cmps", ((-1) % (1 << 32), 1)),
            ("cmps", (5, 5)),
            ("ucmp", (0xFFFFFFFF, 1)),
            ("narrow", (0x7FFFFFFF,)),
            ("sar", ((-64) % (1 << 32),)),
        ],
    ),
    # control flow: loops (phis), nested ifs, switch, early return
    (
        """
        __export long fib(long n) {
            long a = 0; long b = 1;
            for (long i = 0; i < n; i = i + 1) {
                long t = a + b; a = b; b = t;
            }
            return a;
        }
        __export long collatz(long n) {
            long steps = 0;
            while (n != 1) {
                if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                steps = steps + 1;
            }
            return steps;
        }
        __export int dispatch(int k) {
            switch (k) {
                case 0: return 10;
                case 1: return 20;
                case 7: return 70;
                default: return -1;
            }
        }
        """,
        [
            ("fib", (30,)),
            ("collatz", (27,)),
            ("dispatch", (0,)),
            ("dispatch", (7,)),
            ("dispatch", (42,)),
        ],
    ),
    # memory: globals, arrays, pointer arithmetic, mixed widths
    (
        """
        int counter;
        long table[16];
        __export long fill(long n) {
            for (long i = 0; i < n; i = i + 1) {
                table[i] = i * i + counter;
                counter = counter + 1;
            }
            long sum = 0;
            for (long i = 0; i < n; i = i + 1) { sum = sum + table[i]; }
            return sum;
        }
        __export int bytes(void) {
            char buf[8];
            for (int i = 0; i < 8; i = i + 1) { buf[i] = i * 31; }
            int acc = 0;
            for (int i = 0; i < 8; i = i + 1) { acc = acc + buf[i]; }
            return acc;
        }
        """,
        [("fill", (16,)), ("fill", (4,)), ("bytes", ())],
    ),
    # calls: recursion, helpers, void returns
    (
        """
        long helper(long x) { return x * 2 + 1; }
        __export long ack(long m, long n) {
            if (m == 0) { return n + 1; }
            if (n == 0) { return ack(m - 1, 1); }
            return ack(m - 1, ack(m, n - 1));
        }
        __export long chain(long x) {
            return helper(helper(helper(x)));
        }
        """,
        [("ack", (2, 3)), ("chain", (5,))],
    ),
    # floats: arithmetic, compares, conversions, f32 narrowing
    (
        """
        __export double fma(double a, double b, double c) {
            return a * b + c;
        }
        __export int fcmp(double a, double b) {
            return (a < b) + (a > b) * 2 + (a == b) * 4;
        }
        __export long roundtrip(long x) {
            double d = x;
            float f = d;
            double back = f;
            return back;
        }
        """,
        [
            ("fma", (1.5, 2.25, -0.75)),
            ("fcmp", (1.0, 2.0)),
            ("fcmp", (2.0, 2.0)),
            ("roundtrip", (123456789,)),
        ],
    ),
]


def _compile(source, *, protect=False, name="difftest"):
    return compile_module(
        source, CompileOptions(module_name=name, protect=protect)
    )


def _guard_stats(system):
    """Guard stats without the process-global translation-cache traffic
    (cache warmth differs between the engines by construction: the
    interpreter never compiles, and the second compiled system in a
    process hits what the first one missed)."""
    return {
        k: v for k, v in system.guard_stats().items()
        if not k.startswith("translation_")
    }


def _observe(kernel, extra=None):
    vm = kernel.vm
    state = {
        "instructions_executed": vm.instructions_executed,
        "guard_checks": vm.guard_checks,
        "timing": vm.timing.snapshot() if vm.timing is not None else None,
        "dmesg": kernel.dmesg_log,
        "panicked": kernel.panicked,
    }
    if extra:
        state.update(extra)
    return state


def _run_bank(engine, source, calls, *, machine=None, profile=False):
    kernel = Kernel(machine=machine, engine=engine)
    if profile:
        kernel.trace.enable()
    compiled = _compile(source)
    loaded = kernel.insmod(compiled)
    results = []
    for fn, args in calls:
        results.append(kernel.run_function(loaded, fn, list(args)))
    return _observe(
        kernel,
        {
            "results": results,
            "profile": kernel.trace.functions.render(top=50)
            if profile else None,
        },
    )


@pytest.mark.parametrize("machine", [None, "r350", "r415"])
@pytest.mark.parametrize("bank", range(len(PROGRAMS)))
def test_program_bank_identical(bank, machine):
    source, calls = PROGRAMS[bank]
    model = get_machine(machine) if machine else None
    a = _run_bank("interp", source, calls, machine=model)
    b = _run_bank("compiled", source, calls, machine=model)
    assert a == b


def test_profiler_traces_identical():
    source, calls = PROGRAMS[1]
    model = get_machine("r415")
    a = _run_bank("interp", source, calls, machine=model, profile=True)
    b = _run_bank("compiled", source, calls, machine=model, profile=True)
    assert a == b
    # The table is non-empty, not trivially equal.
    assert len(a["profile"].splitlines()) > 1


# ---------------------------------------------------------------------------
# panic parity: the engines must agree on everything observable *after* an
# execution error too — message, dmesg, and instruction counts.


def _run_panicking(engine, source, fn, args):
    kernel = Kernel(machine=get_machine("r350"), engine=engine)
    loaded = kernel.insmod(_compile(source))
    try:
        kernel.run_function(loaded, fn, list(args))
        raised = None
    except KernelPanic as e:
        raised = str(e)
    return _observe(kernel, {"raised": raised})


@pytest.mark.parametrize(
    "source,fn,args",
    [
        ("__export long f(long a) { return a / 0; }", "f", (7,)),
        (
            "__export long f(long n) { return n == 0 ? 1 : f(n - 1); }",
            "f",
            (1 << 30,),  # kernel stack overflow via unbounded recursion
        ),
    ],
)
def test_panic_parity(source, fn, args):
    a = _run_panicking("interp", source, fn, args)
    b = _run_panicking("compiled", source, fn, args)
    assert a == b
    assert a["raised"] is not None


# ---------------------------------------------------------------------------
# the paper workload: the guarded e1000e driver moving real frames.  This is
# the Figure 3 hot path — RX/TX rings, MMIO, guards, the policy module.


def _blast_state(engine, *, machine, protect, count=250, size=128):
    system = CaratKopSystem(
        SystemConfig(machine=machine, protect=protect, engine=engine)
    )
    result = system.blast(size=size, count=count)
    vm = system.kernel.vm
    return _observe(
        system.kernel,
        {
            "sent": result.packets_sent,
            "errors": result.errors,
            "stalls": result.stalls,
            "total_cycles": result.total_cycles,
            "pps": result.throughput_pps,
            "guard_stats": _guard_stats(system),
        },
    )


@pytest.mark.parametrize("protect", [True, False])
@pytest.mark.parametrize("machine", ["r350", "r415"])
def test_e1000e_blast_identical(machine, protect):
    a = _blast_state("interp", machine=machine, protect=protect)
    b = _blast_state("compiled", machine=machine, protect=protect)
    assert a == b
    assert a["sent"] > 0


# ---------------------------------------------------------------------------
# eject-mode parity: a guard denial in eject mode unwinds, rolls back the
# offender, and quarantines it — the engines must agree on every observable
# *after* the ejection too: RAM contents, cycles, dmesg, guard stats, the
# module table, the quarantine list, and the journal.


def _ram_digest(kernel):
    import hashlib

    h = hashlib.sha256()
    for pfn in sorted(kernel.ram._pages):
        h.update(pfn.to_bytes(8, "little"))
        h.update(bytes(kernel.ram._pages[pfn]))
    return h.hexdigest()


EJECT_PROGRAMS = [
    # state-heavy offender: kmalloc + globals live when the guard trips
    (
        """
        extern void *kmalloc(long size, int flags);
        long *buf;
        long acc;
        int init_module(void) {
            buf = (long *)kmalloc(512, 0);
            if (buf == null) { return -1; }
            buf[0] = 99;
            acc = 7;
            return 0;
        }
        __export long poke(long addr) {
            acc = acc + 1;
            *(long *)addr = acc;
            return acc;
        }
        """,
        [("poke", (0x2000,))],
    ),
    # violation from a nested helper call: the fault unwinds two frames
    (
        """
        long depth;
        long smash(long addr) { depth = depth + 1; *(long *)addr = 1; return depth; }
        __export long outer(long addr) { depth = 10; return smash(addr); }
        """,
        [("outer", (0x3000,))],
    ),
    # a clean call after the ejection: entry refusal parity (-EACCES)
    (
        """
        __export long ok(void) { return 5; }
        __export long bad(long addr) { return *(long *)addr; }
        """,
        [("ok", ()), ("bad", (0x4000,)), ("ok", ())],
    ),
]


def _run_eject(engine, source, calls, *, machine="r350"):
    system = CaratKopSystem(SystemConfig(
        machine=machine, protect=True, engine=engine, enforce_mode="eject",
    ))
    kernel = system.kernel
    compiled = compile_module(source, CompileOptions(
        module_name="offender", key=system.signing_key))
    loaded = kernel.insmod(compiled)
    results = [kernel.run_function(loaded, fn, list(args))
               for fn, args in calls]
    return _observe(
        kernel,
        {
            "results": results,
            "ram": _ram_digest(kernel),
            "lsmod": kernel.lsmod(),
            "ejected": loaded.ejected,
            "quarantined": kernel.quarantined(),
            "journal_depth": kernel.journal.depth("offender"),
            "rollbacks": kernel.journal.rollbacks,
            "violation_faults": kernel.violation_faults,
            "entry_refusals": kernel.entry_refusals,
            "guard_stats": _guard_stats(system),
        },
    )


@pytest.mark.parametrize("machine", [None, "r350"])
@pytest.mark.parametrize("bank", range(len(EJECT_PROGRAMS)))
def test_eject_mode_identical(bank, machine):
    source, calls = EJECT_PROGRAMS[bank]
    a = _run_eject("interp", source, calls, machine=machine)
    b = _run_eject("compiled", source, calls, machine=machine)
    assert a == b
    assert a["ejected"]
    assert a["lsmod"] == ["e1000e"]
    assert a["panicked"] is None
    assert a["journal_depth"] == 0


def test_isolate_mode_identical():
    a = _run_isolate("interp")
    b = _run_isolate("compiled")
    assert a == b
    assert a["isolated"] == ["offender"]


def _run_isolate(engine):
    system = CaratKopSystem(SystemConfig(
        machine="r415", protect=True, engine=engine, enforce_mode="isolate",
    ))
    kernel = system.kernel
    compiled = compile_module(
        "__export long bad(long a) { *(long *)a = 1; return 0; }",
        CompileOptions(module_name="offender", key=system.signing_key))
    loaded = kernel.insmod(compiled)
    results = [
        kernel.run_function(loaded, "bad", [0x5000]),
        kernel.run_function(loaded, "bad", [0x5000]),  # refused: isolated
    ]
    return _observe(
        kernel,
        {
            "results": results,
            "ram": _ram_digest(kernel),
            "lsmod": kernel.lsmod(),
            "isolated": kernel.isolated_modules(),
            "entry_refusals": kernel.entry_refusals,
            "guard_stats": _guard_stats(system),
        },
    )


# ---------------------------------------------------------------------------
# translation cache behaviour


def test_translations_cached_and_invalidated():
    source, calls = PROGRAMS[0]
    kernel = Kernel(engine="compiled")
    loaded = kernel.insmod(_compile(source))
    fn, args = calls[0]
    first = kernel.run_function(loaded, fn, list(args))
    store = loaded.translations[kernel.vm]
    cached = dict(store)
    assert cached  # populated by the first run
    assert kernel.run_function(loaded, fn, list(args)) == first
    assert dict(store) == cached  # reused, not retranslated
    loaded.invalidate_translations()
    assert not loaded.translations.get(kernel.vm)
    assert kernel.run_function(loaded, fn, list(args)) == first


def test_same_ir_reinsmod_uses_fresh_addresses():
    # Re-inserting the same CompiledModule yields the same IR function
    # objects at new global addresses; the L1 memo must not serve stale
    # translations for the old module instance.
    source = """
    long seed;
    __export long bump(long d) { seed = seed + d; return seed; }
    """
    compiled = _compile(source)
    kernel = Kernel(engine="compiled")
    first = kernel.insmod(compiled)
    assert kernel.run_function(first, "bump", [5]) == 5
    assert kernel.run_function(first, "bump", [2]) == 7
    kernel.rmmod(first.name)
    second = kernel.insmod(compiled)
    assert kernel.run_function(second, "bump", [3]) == 3


# ---------------------------------------------------------------------------
# whole-function translation edge cases: batched charges, SSA locals,
# direct-bound calls, and the validity prologue.  Each case runs under
# both engines and compares every observable, the raised error included.


def _ir_module(name, build):
    m = Module(name)
    build(m)
    PassManager([AttestationPass()]).run(m)
    return CompiledModule(ir=m)


def _run_ir(engine, compiled, calls, *, mutate=None, max_depth=None):
    kernel = Kernel(machine=get_machine("r415"), engine=engine)
    if max_depth is not None:
        kernel.vm.max_call_depth = max_depth
    loaded = kernel.insmod(compiled)
    if mutate is not None:
        mutate(loaded)
        loaded.invalidate_translations()
    outcomes = []
    for fn, args in calls:
        try:
            outcomes.append(("ok", kernel.run_function(loaded, fn, list(args))))
        except Exception as e:  # noqa: BLE001 - the error is the observable
            outcomes.append((type(e).__name__, str(e)))
    return _observe(kernel, {"outcomes": outcomes})


def _both(make, calls, **kw):
    """Run ``calls`` on a fresh module from ``make()`` under each engine
    (``mutate`` edits the loaded IR, so the engines never share it)."""
    a = _run_ir("interp", make(), calls, **kw)
    b = _run_ir("compiled", make(), calls, **kw)
    assert a == b
    return a


def _diamond(m, *, phi):
    """entry -> (then | join), then -> join; ``join`` reads the value
    defined in ``then`` either through a phi or (phi=False) directly,
    a use its definition does not dominate."""
    fn = Function("f", FunctionType(I64, [I64]), ["a"])
    m.add_function(fn)
    entry, then, join = (fn.add_block(n) for n in ("entry", "then", "join"))
    a = fn.args[0]
    b = IRBuilder(entry)
    b.cond_br(b.icmp("ne", a, b.const_i64(0), "c"), then, join)
    b.position_at_end(then)
    x = b.add(a, b.const_i64(1), "x")
    b.br(join)
    b.position_at_end(join)
    if phi:
        p = b.phi(I64, "p")
        p.add_incoming(x, then)
        p.add_incoming(a, entry)
        x = p
    y = b.mul(a, b.const_i64(3), "y")
    z = b.add(y, x, "z")
    w = b.xor(z, b.shl(a, b.const_i64(2), "s"), "w")
    b.ret(w)


def test_undominated_ssa_read_matches_interp():
    # a=0 skips the definition of %x; the read faults in the middle of a
    # run of batched inline steps, so the handler must replay the
    # pending charges of %y exactly.
    state = _both(lambda: _ir_module("undom", lambda m: _diamond(m, phi=False)),
                  [("f", (5,)), ("f", (0,)), ("f", (7,))])
    assert state["outcomes"][1] == (
        "InterpreterError", "use of undefined value %x (i64)")
    assert state["outcomes"][2][0] == "ok"


def test_phi_edge_not_covered_matches_interp():
    def drop_entry_edge(loaded):
        phi = loaded.ir.functions["f"].blocks[2].instructions[0]
        phi.incoming = [(v, b) for v, b in phi.incoming
                        if b.name != "entry"]

    state = _both(lambda: _ir_module("phiedge", lambda m: _diamond(m, phi=True)),
                  [("f", (5,)), ("f", (0,))],
                  mutate=drop_entry_edge)
    assert state["outcomes"][0][0] == "ok"
    assert state["outcomes"][1][0] == "KeyError"


def test_direct_call_wrong_arity_matches_interp():
    src = """
    long g(long x) { return x + 1; }
    __export long f(long a) { long t = a * 2; return g(t) + t; }
    """

    def extra_arg(loaded):
        call = next(i for blk in loaded.ir.functions["f"].blocks
                    for i in blk.instructions if i.opcode == "call")
        call.operands.append(ConstantInt(I64, 9))

    state = _both(lambda: compile_module(src, CompileOptions(
                      module_name="arity", protect=False)),
                   [("f", (4,))], mutate=extra_arg)
    assert state["outcomes"] == [
        ("InterpreterError", "@g: expected 1 args, got 2")]
    assert state["timing"]["calls"] == 1


@pytest.mark.parametrize("depth", [3, 10])
def test_recursion_past_max_call_depth_matches_interp(depth):
    # Mutual recursion through direct-bound slots, with memory traffic
    # in every frame; the depth limit is read live from the engine.
    src = """
    long cells[2];
    long odd(long n);
    long even(long n) { cells[0] = cells[0] + 1; return n == 0 ? 1 : odd(n - 1); }
    long odd(long n) { cells[1] = cells[1] + 1; return n == 0 ? 0 : even(n - 1); }
    __export long run(long n) { return even(n); }
    """
    state = _both(lambda: compile_module(src, CompileOptions(
                      module_name="mutrec", protect=False)),
                   [("run", (depth - 2,)), ("run", (depth + 5,)),
                             ("run", (1,))], max_depth=depth)
    assert state["outcomes"][0][0] == "ok"
    kind, msg = state["outcomes"][1]
    assert kind == "KernelPanic"
    assert msg.endswith(
        f"kernel stack overflow in @{'even' if depth % 2 else 'odd'}")
    assert state["outcomes"][2][0] == "ok"  # depth fully unwound


def test_divide_fault_after_inline_steps_matches_interp():
    src = """
    __export long f(long a, long b) {
        long x = a + 1; long y = x * 3; long z = y ^ b; long w = z << 2;
        return w / (b - b);
    }
    """
    state = _both(lambda: compile_module(src, CompileOptions(
                      module_name="div", protect=False)),
                   [("f", (6, 9))])
    assert state["outcomes"][0][0] == "KernelPanic"
    assert state["instructions_executed"] > 5


def _demote_mid_call(engine, *, demote, probe=None):
    kernel = Kernel(machine=get_machine("r415"), engine=engine)
    policy = CaratPolicyModule(kernel, mode="audit").install()
    manager = PolicyManager(kernel)
    lo, hi = AREAS["module"]
    manager.allow(lo, hi - lo + 1)
    manager.set_default(False)
    box = {}

    def hook(vm):
        if demote:
            kernel.demote_module(box["loaded"], "mid-call test")
        return 0

    kernel.export_native("demote_hook", hook)
    src = """
    extern long demote_hook(void);
    long cells[4];
    long inner(long s) { cells[1] = s; cells[2] = cells[1] + 1; return cells[2]; }
    __export long run(long seed) {
        cells[0] = seed;
        long r = inner(seed);
        demote_hook();
        return r + inner(seed + 1) + inner(seed + 2);
    }
    """
    compiled = compile_module(src, CompileOptions(
        module_name="midcall", protect=True, opt_level=3,
        verify_table=policy.index))
    loaded = box["loaded"] = kernel.insmod(compiled)
    assert loaded.elided_guards, "setup: nothing was elided"
    if probe is not None:
        probe(kernel, loaded)
    result = kernel.run_function(loaded, "run", [5])
    return _observe(kernel, {
        "result": result,
        "checks": policy.stats.checks,
        "verify_state": loaded.verify_state,
    })


def test_demotion_mid_call_reemits_guards_in_later_calls():
    """A certificate demotion while a module frame is on the stack: the
    calls the stale frame makes afterwards reach their callee through a
    slot bound to the elided body, whose prologue must notice the
    generation change and run the guarded body instead."""
    a = _demote_mid_call("interp", demote=True)
    b = _demote_mid_call("compiled", demote=True)
    assert a == b
    assert a["verify_state"].startswith("demoted")
    clean = _demote_mid_call("compiled", demote=False)
    assert clean["checks"] == 0
    assert b["checks"] > 0  # the two later inner() calls ran their guards


# ---------------------------------------------------------------------------
# leaf inlining: a function's second translation inlines its small leaf
# callees.  ``hot`` makes that the first one, so every run below executes
# the inlined bodies; each test checks that the leaf really is inlined.


@pytest.fixture
def hot(monkeypatch):
    monkeypatch.setattr(compiled, "_TIER_UP_CALLS", 0)


def inlined_leaves(engine, loaded, caller: str) -> set:
    """The leaves a hot translation of ``caller`` inlines (each inlined
    site checks the depth its callee's frame would have)."""
    t = compiled._Translator(engine, loaded, loaded.ir.functions[caller],
                             inline=True)
    t.translate(loaded.ir.generation)
    return set(re.findall(r"kernel stack overflow in @(\w+)",
                          "\n".join(t.lines))) - {caller}


@pytest.mark.parametrize("bank", range(len(PROGRAMS)))
def test_program_bank_identical_hot(bank, hot):
    source, calls = PROGRAMS[bank]
    a = _run_bank("interp", source, calls, machine=get_machine("r415"))
    b = _run_bank("compiled", source, calls, machine=get_machine("r415"))
    assert a == b


def test_demotion_mid_caller_of_an_inlined_leaf(hot):
    """``inner`` (its guards elided at -O3) is inlined into ``run``; a
    demotion after the first call makes the later sites of the live frame
    fall back to the re-translated callee, which runs its guards."""
    seen = {}

    def probe(kernel, loaded):
        if kernel.vm.name == "compiled":
            seen["inlined"] = inlined_leaves(kernel.vm, loaded, "run")

    a = _demote_mid_call("interp", demote=True)
    b = _demote_mid_call("compiled", demote=True, probe=probe)
    assert seen["inlined"] == {"inner"}
    assert a == b
    assert b["checks"] > 0
    assert _demote_mid_call("compiled", demote=False)["checks"] == 0


_LEAF_RECURSION = {
    1: """
    long cells[2];
    long leaf(long n) { cells[0] = cells[0] + n; return cells[0] & 255; }
    long walk(long n) {
        long t = leaf(n);
        if (n == 0) { return t; }
        return walk(n - 1) + t;
    }
    __export long run(long n) { return walk(n); }
    """,
    2: """
    long cells[2];
    long leaf2(long n) { cells[1] = cells[1] ^ n; return cells[1]; }
    long leaf(long n) { cells[0] = cells[0] + n; return leaf2(n) & 255; }
    long walk(long n) {
        long t = leaf(n);
        if (n == 0) { return t; }
        return walk(n - 1) + t;
    }
    __export long run(long n) { return walk(n); }
    """,
}


@pytest.mark.parametrize("nesting", [1, 2])
def test_recursion_reaches_max_call_depth_in_an_inlined_leaf(nesting, hot):
    """``walk`` recurses; its first step calls an inlined leaf (which, at
    nesting 2, calls another), one or two frames deeper, so the overflow
    fires inside the inlined body with the innermost leaf's message."""
    src = _LEAF_RECURSION[nesting]
    make = lambda: compile_module(src, CompileOptions(  # noqa: E731
        module_name="leafrec", protect=False))
    kernel = Kernel(machine=get_machine("r415"), engine="compiled")
    loaded = kernel.insmod(make())
    assert inlined_leaves(kernel.vm, loaded, "walk") == (
        {"leaf"} if nesting == 1 else {"leaf", "leaf2"})
    state = _both(make, [("run", (3,)), ("run", (40,)), ("run", (2,))],
                  max_depth=12)
    assert state["outcomes"][0][0] == "ok"
    kind, msg = state["outcomes"][1]
    assert kind == "KernelPanic"
    assert msg.endswith(
        f"kernel stack overflow in @{'leaf' if nesting == 1 else 'leaf2'}")
    assert state["outcomes"][2][0] == "ok"  # depth fully unwound


def _looped_caller(m):
    """``f(a)`` calls the leaf ``g`` (``_diamond`` without a phi) in a
    loop for ``a``, ``a - 1``, ..., 0: ``g(0)`` reads ``%x``, which only
    ``g``'s ``then`` block defines, so it fails even though an earlier
    call on the same site defined it."""
    _diamond(m, phi=False)
    g = m.functions["f"]
    g.name = "g"
    m.functions = {"g": g}
    fn = Function("f", FunctionType(I64, [I64]), ["a"])
    m.add_function(fn)
    entry, loop, done = (fn.add_block(n) for n in ("entry", "loop", "done"))
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(I64, "i")
    r = b.call(g, [i], "r")
    j = b.sub(i, b.const_i64(1), "j")
    i.add_incoming(fn.args[0], entry)
    i.add_incoming(j, loop)
    b.cond_br(b.icmp("ne", i, b.const_i64(0), "more"), loop, done)
    b.position_at_end(done)
    b.ret(r)


def test_undefined_read_in_an_inlined_leaf(hot):
    make = lambda: _ir_module("undefleaf", _looped_caller)  # noqa: E731
    kernel = Kernel(machine=get_machine("r415"), engine="compiled")
    loaded = kernel.insmod(make())
    assert inlined_leaves(kernel.vm, loaded, "f") == {"g"}
    state = _both(make, [("f", (2,)), ("g", (4,)), ("f", (0,))])
    assert state["outcomes"][0] == (
        "InterpreterError", "use of undefined value %x (i64)")
    assert state["outcomes"][1][0] == "ok"
    assert state["outcomes"][2] == state["outcomes"][0]


# ---------------------------------------------------------------------------
# the guard fast path: the compiled engine serves allowed decision-cache hits
# inside its guard closure, and nothing on the read side checks whether a
# cached decision is current.  Each event below is a write a cached decision
# depends on (or a swap of the guard native) between calls; both engines must
# agree on every counter afterwards, and both must decide exactly what a run
# that empties every cache before each guard decides, so a stale decision
# served by either path shows up.

_HOT_SRC = """
long cells[4];
__export long run(long seed) {
    long prev = cells[0];
    cells[0] = seed;
    cells[1] = prev + 1;
    return cells[1] + cells[0];
}
"""
_PEER_SRC = "__export long peek(long addr) { return *(long *)addr; }"
_DUMMY = 0x7000_0000
_RW = abi.FLAG_READ | abi.FLAG_WRITE


def _fast_path_events():
    """Each event is a list of steps ``step(env)``; the hot function runs
    on every CPU after each step."""

    def index_add(env):
        env["policy"].index.add(Region(env["hot"], 8, 0))

    def default_flip(env):
        env["manager"].set_default(False)

    def set_mode(env):
        env["policy"].set_mode(MODE_EJECT)

    def table_for(env):
        env["manager"].add_region_for("hot", env["hot"], 16, _RW)

    def clear_for(env):
        env["manager"].clear_module_policy("hot")

    def stage(env):
        env["manager"].create_tenant("t")
        env["manager"].batch_mutate("t", [(OP_ADD, env["hot"], 8, 0)])

    def promote(env):
        for _ in range(8):
            if env["manager"].cp_tick() == 1:
                break
        assert env["manager"].cp_status()["promotions"] > 0

    def stage_on_zero_budget(env):
        env["manager"].create_tenant("t", violation_budget=0)
        env["manager"].batch_mutate("t", [(OP_ADD, env["hot"], 8, 0)])

    def rollback(env):
        # The canary CPU denied in the phase after staging: over budget.
        assert env["manager"].cp_tick() == 2

    def regions_edit(env):
        table = env["policy"].index
        table._regions.insert(0, Region(env["hot"], 8, 0))
        table.changed()

    def reinstall(env):
        env["policy"].uninstall()
        env["policy"].install()

    def miner_start(env):
        env["miner"] = PolicyMiner(env["policy"])
        env["miner"].start()

    def miner_stop(env):
        env["miner"].stop()
        env["extra"]["mined"] = len(env["miner"].records)

    def wrap(env):
        sym = env["kernel"].symbols.lookup("carat_guard")
        native, seen = sym.native, env["extra"]
        seen["wrapped"] = 0
        seen["base"] = env["kernel"].vm.guard_checks

        def counting(*args):
            seen["wrapped"] += 1
            return native(*args)

        sym.native = counting

    def peer_first_guard(env):
        # The peer's first guard on each CPU hits the global cache the
        # hot module filled, before the peer has a per-CPU stats row.
        _peer_peek(env)

    def peer_table(env):
        # A peer table bound on each CPU, its (epoch, default_allow)
        # token equal to the global one: only the cache's index
        # identity tells the two caches apart.
        manager, policy = env["manager"], env["policy"]
        manager.add_region_for("peer", env["hot"], 8, abi.FLAG_READ)
        peer = policy.module_indexes["peer"]
        k = 0
        while peer.epoch < policy.index.epoch:
            k += 1
            manager.add_region_for("peer", _DUMMY + k * 0x1000, 0x100, _RW)
        peer.default_allow = policy.index.default_allow
        _peer_peek(env)

    return {
        "index_add": [index_add],
        "default_allow": [default_flip],
        "set_mode": [set_mode],
        "module_table": [table_for, clear_for],
        "staged_canary": [stage],
        "promote": [stage, promote],
        "rollback": [stage_on_zero_budget, rollback],
        "regions_edit": [regions_edit],
        "reinstall": [reinstall, index_add],
        "miner_window": [miner_start, miner_stop],
        "native_wrapper": [wrap],
        "peer_module": [peer_first_guard, peer_table],
    }


def _peer_peek(env):
    kernel = env["kernel"]
    for cpu in kernel.smp.cpus():
        with kernel.smp.on(cpu):
            env["extra"].setdefault("peeks", []).append(
                kernel.run_function(env["peer"], "peek", [env["hot"]]))


def _fast_path_run(engine, event, ncpus=2, uncached=False):
    """Run ``event``'s steps with the hot function on every CPU after
    each; ``uncached`` empties every decision cache before each guard."""
    kernel = Kernel(machine=get_machine("r415"), engine=engine, ncpus=ncpus)
    policy = CaratPolicyModule(kernel, mode="audit")
    if uncached:
        def guard(*args):
            policy.invalidate_decisions()
            return CaratPolicyModule._guard(policy, *args)

        policy._guard = guard
    policy.install()
    manager = PolicyManager(kernel)
    manager.set_default(True)
    for k in range(3):  # hot accesses scan past these, then default
        manager.add_region(_DUMMY + k * 0x1000, 0x100, _RW)
    hot = kernel.insmod(_compile(_HOT_SRC, protect=True, name="hot"))
    peer = kernel.insmod(_compile(_PEER_SRC, protect=True, name="peer"))
    env = {"kernel": kernel, "policy": policy, "manager": manager,
           "hot": hot.address_of("cells"), "peer": peer, "extra": {}}
    vm = kernel.vm
    snapshots = []

    def phase(seed):
        results = []
        for _ in range(2):  # the second call of each pair hits the cache
            for cpu in kernel.smp.cpus():
                with kernel.smp.on(cpu):
                    results.append(kernel.run_function(hot, "run", [seed]))
        snapshots.append({
            "results": results,
            "denied": policy.stats.denied,
            "violations": dict(policy.violations),
            "per_cpu": policy.stats_per_cpu(),
            "drivers": policy.driver_stats(),
            "guard_checks": vm.guard_checks,
            "entries": policy.stats.entries_scanned,
            "cycles": vm.timing.cycles,
            "dmesg": kernel.dmesg_log,
            "extra": dict(env["extra"]),
        })

    phase(1)
    for i, step in enumerate(_fast_path_events()[event]):
        step(env)
        phase(i + 2)
    return snapshots


#: The per-CPU ledger fields a decision cache may move (a hit skips the
#: index walk); every other observed value is the same with or without it,
#: except the canary-read count (index walks) a promotion logs.
_CACHE_FIELDS = ("guard_cache_hits", "guard_cache_misses", "comparisons",
                 "structure_checks")
_CANARY_READS = re.compile(r"\d+ canary reads")


def _decided(snapshots):
    """``snapshots`` without the values the decision cache may move."""
    return [{**snap, "per_cpu": [
        {k: v for k, v in row.items() if k not in _CACHE_FIELDS}
        for row in snap["per_cpu"]],
        "dmesg": [_CANARY_READS.sub("canary reads", line)
                  for line in snap["dmesg"]]} for snap in snapshots]


def _check_fast_path_event(event, ncpus):
    a = _fast_path_run("interp", event, ncpus)
    b = _fast_path_run("compiled", event, ncpus)
    assert a == b
    assert _decided(a) == _decided(
        _fast_path_run("interp", event, ncpus, uncached=True))
    last = b[-1]
    if event == "native_wrapper":
        # The wrapper saw every guard after it was installed.
        extra = last["extra"]
        assert extra["wrapped"] == last["guard_checks"] - extra["base"] > 0
    if event in ("index_add", "default_allow", "regions_edit", "reinstall",
                 "promote"):
        assert all(row["denied"] > 0 for row in last["per_cpu"])
    if event == "staged_canary":
        cpu0, *others = last["per_cpu"]
        assert cpu0["denied"] > 0
        assert all(row["denied"] == 0 for row in others)
    if event == "rollback":
        assert last["denied"] == b[-2]["denied"] > 0


@pytest.mark.parametrize("event", sorted(_fast_path_events()))
def test_guard_fast_path_invalidation_matches_interp(event):
    _check_fast_path_event(event, 2)


@pytest.mark.parametrize("ncpus", [1, 4])
@pytest.mark.parametrize("event", sorted(_fast_path_events()))
def test_guard_fast_path_invalidation_on_1_and_4_cpus(event, ncpus):
    _check_fast_path_event(event, ncpus)
