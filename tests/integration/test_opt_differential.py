"""Differential property: the -O grid never changes what a module does.

Random mini-C modules run at every optimization level, under both
execution engines, on 1/2/4 simulated CPUs.  Every cell of the grid
must produce bit-identical simulated state — return values and final
global memory — and an identical deny set vs the faithful
-O0/interp/1-CPU baseline.  Guard-check *counts* are the quantity the
optimizer exists to shrink, so they may only depend on the opt level,
never on the engine or CPU count.

A second targeted grid crosses tracing on/off with every enforcement
mode (audit/panic/eject/isolate): what a deny *does* must be identical
at every opt level — -O3's static elision in particular may never hide
a violation or change which enforcement action fires.

Seeds the ROADMAP roundtrip-harness item: the grid is the oracle any
future backend must also satisfy.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import Kernel
from repro.vm.interp import GuardViolation

from repro.policy import CaratPolicyModule, PolicyManager

_M64 = (1 << 64) - 1

OPT_LEVELS = (0, 1, 2, 3)
ENGINES = ("interp", "compiled")
CPUS = (1, 2, 4)
MODES = ("audit", "panic", "eject", "isolate")


@st.composite
def traffic_program(draw):
    """Memory-heavy programs biased toward the shapes the optimizer
    rewrites: repeated same-address accesses (elimination), invariant
    addresses in loops (hoisting), constant-index runs and counted
    ``cells[i]`` sweeps (both coalescers)."""
    n_slots = draw(st.integers(min_value=4, max_value=12))
    n_steps = draw(st.integers(min_value=1, max_value=8))
    lines = [f"long cells[{n_slots}];"]
    body = []
    for _ in range(n_steps):
        kind = draw(st.sampled_from(
            ["store", "combine", "repeat", "run", "sweep", "invariant"]
        ))
        a = draw(st.integers(0, n_slots - 1))
        b = draw(st.integers(0, n_slots - 1))
        if kind == "store":
            v = draw(st.integers(-(2**31), 2**31))
            body.append(f"cells[{a}] = seed + {v};")
        elif kind == "combine":
            op = draw(st.sampled_from(["+", "^", "|", "&", "*"]))
            body.append(f"cells[{a}] = cells[{a}] {op} cells[{b}];")
        elif kind == "repeat":
            # Same address twice in one block: dominated-guard food.
            body.append(f"cells[{a}] = cells[{a}] + cells[{a}];")
        elif kind == "run":
            # A run of consecutive constant indices: block coalescing.
            lo = draw(st.integers(0, n_slots - 3))
            body.append(f"cells[{lo}] = seed;")
            body.append(f"cells[{lo + 1}] = seed + 1;")
            body.append(f"cells[{lo + 2}] = seed + 2;")
        elif kind == "sweep":
            # Counted stride-1 sweep: loop range coalescing.
            hi = draw(st.integers(2, n_slots))
            body.append(
                f"for (long i = 0; i < {hi}; i++) "
                f"{{ cells[i] = cells[i] + i + seed; }}"
            )
        else:
            # Loop-invariant address: hoisting.
            body.append(
                f"for (long i = 0; i < {draw(st.integers(1, 5))}; i++) "
                f"{{ cells[{a}] += cells[{b}] + i; }}"
            )
    body.append("long acc = 0;")
    body.append(
        f"for (long i = 0; i < {n_slots}; i++) {{ acc += cells[i] * (i + 1); }}"
    )
    body.append("return acc;")
    lines.append("__export long run(long seed) {")
    lines.extend("    " + l for l in body)
    lines.append("}")
    lines.append("__export long peek(long i) { return cells[i]; }")
    return "\n".join(lines), n_slots


def _run_cell(source, n_slots, seeds, opt_level, engine, cpus):
    """One grid cell: returns (results, memory, denied_set, checks)."""
    kernel = Kernel(engine=engine, ncpus=cpus)
    policy = CaratPolicyModule(kernel).install()
    PolicyManager(kernel).set_default(True)  # allow-everything
    compiled = compile_module(
        source,
        CompileOptions(
            module_name="prog", protect=True, opt_level=opt_level,
            # -O3 proves against the live (default-allow) table.
            verify_table=policy.index if opt_level >= 3 else None,
        ),
    )
    loaded = kernel.insmod(compiled)
    results = [kernel.run_function(loaded, "run", [s & _M64]) for s in seeds]
    memory = [kernel.run_function(loaded, "peek", [i]) for i in range(n_slots)]
    return results, memory, policy.stats.denied, policy.stats.checks


#: Block coalescing widens the entry's ``cells[0]`` write guard to 16
#: bytes; the loop's 8-byte guard inside it must still be eliminated, or
#: -O2 runs more checks than -O1.
_WIDENED_DOMINATOR = "\n".join([
    "long cells[4];",
    "__export long run(long seed) {",
    "    cells[0] = seed + 0;",
    "    cells[1] = cells[1] + cells[1];",
    "    for (long i = 0; i < 5; i++) { cells[0] += cells[0] + i; }",
    "    long acc = 0;",
    "    for (long i = 0; i < 4; i++) { acc += cells[i] * (i + 1); }",
    "    return acc;",
    "}",
    "__export long peek(long i) { return cells[i]; }",
])


@settings(max_examples=8, deadline=None)
@given(
    traffic_program(),
    st.lists(st.integers(0, _M64), min_size=1, max_size=2),
)
@example((_WIDENED_DOMINATOR, 4), [0])
def test_grid_state_identical(program, seeds):
    source, n_slots = program
    baseline = _run_cell(source, n_slots, seeds, 0, "interp", 1)
    checks_by_level = {}
    for opt_level in OPT_LEVELS:
        for engine in ENGINES:
            for cpus in CPUS:
                cell = _run_cell(source, n_slots, seeds, opt_level, engine, cpus)
                label = f"-O{opt_level}/{engine}/cpu{cpus}"
                assert cell[0] == baseline[0], f"{label}: return values differ"
                assert cell[1] == baseline[1], f"{label}: memory differs"
                assert cell[2] == 0 == baseline[2], f"{label}: denies differ"
                # Check counts depend on the opt level alone.
                want = checks_by_level.setdefault(opt_level, cell[3])
                assert cell[3] == want, f"{label}: guard-check count differs"
    # The optimizer must never ADD runtime guard work.
    assert checks_by_level[1] <= checks_by_level[0]
    assert checks_by_level[2] <= checks_by_level[1]
    assert checks_by_level[3] <= checks_by_level[2]


@settings(max_examples=10, deadline=None)
@given(traffic_program(), st.integers(0, _M64))
def test_deny_visibility_is_preserved(program, seed):
    """Under default-deny (audit mode) a module that trips the policy
    faithfully must still trip it at every -O level: optimization may
    merge denials but can never hide one."""
    source, n_slots = program
    denied = {}
    for opt_level in OPT_LEVELS:
        kernel = Kernel()
        policy = CaratPolicyModule(kernel, mode="audit").install()  # deny all
        compiled = compile_module(
            source,
            CompileOptions(
                module_name="prog", protect=True, opt_level=opt_level,
                verify_table=policy.index if opt_level >= 3 else None,
            ),
        )
        loaded = kernel.insmod(compiled)
        kernel.run_function(loaded, "run", [seed])
        denied[opt_level] = policy.stats.denied
    assert denied[0] > 0  # the generated programs always touch memory
    assert denied[1] > 0
    assert denied[2] > 0
    # Under deny-all the -O3 verifier can prove nothing: every guard
    # stays dynamic and the deny set stays visible.
    assert denied[3] > 0


# A fixed program for the mode/trace grid: a few stores and loads, all
# of which trip an empty default-deny policy at the first guard.
_TRIP_SOURCE = """
long state[4];
__export long poke(long seed) {
    state[0] = seed;
    state[1] = state[0] + 7;
    state[2] = state[1] * 3;
    state[3] = state[0] ^ state[2];
    return state[3];
}
"""


def _run_mode_cell(opt_level, mode, trace_on, engine="compiled"):
    """Run the tripwire program under one enforcement mode; returns
    (outcome, denied, violation_faults, entry_refusals)."""
    kernel = Kernel(engine=engine)
    policy = CaratPolicyModule(kernel, mode=mode).install()  # deny all
    if trace_on:
        kernel.trace.enable()
    else:
        kernel.trace.disable()
    compiled = compile_module(
        _TRIP_SOURCE,
        CompileOptions(
            module_name="trip", protect=True, opt_level=opt_level,
            verify_table=policy.index if opt_level >= 3 else None,
        ),
    )
    loaded = kernel.insmod(compiled)
    try:
        rc = kernel.run_function(loaded, "poke", [41])
        outcome = ("returned", rc)
    except GuardViolation:
        outcome = ("panic", None)
    return (
        outcome, policy.stats.denied, kernel.violation_faults,
        kernel.entry_refusals,
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("trace_on", (False, True))
def test_mode_trace_grid(mode, trace_on):
    """Deny *behaviour* — the enforcement action taken, the number of
    violation faults, and whether the module answers afterwards — is a
    function of the enforcement mode alone: identical at every opt
    level (including -O3 elision) and with tracing on or off."""
    baseline = _run_mode_cell(0, mode, trace_on, engine="interp")
    for opt_level, engine in itertools.product(OPT_LEVELS, ENGINES):
        cell = _run_mode_cell(opt_level, mode, trace_on, engine)
        label = f"-O{opt_level}/{engine}/{mode}/trace={trace_on}"
        assert cell[0] == baseline[0], f"{label}: outcome differs"
        assert cell[2] == baseline[2], f"{label}: fault count differs"
        assert cell[1] > 0, f"{label}: deny was hidden"
    # Sanity: the mode dispatch actually differs where it should.
    if mode == "audit":
        assert baseline[0][0] == "returned" and baseline[0][1] not in (None,)
    elif mode == "panic":
        assert baseline[0] == ("panic", None)
    else:  # eject / isolate return -EFAULT through the graceful path
        assert baseline[0][0] == "returned"
        assert baseline[2] == 1
