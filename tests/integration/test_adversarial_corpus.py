"""Adversarial corpus for the -O3 static verifier.

Each module here is built to defeat static certification: wild
integer-to-pointer casts, DMA-style writes outside every policy
region, and address chains whose offsets can overflow.  The property
under test is soundness — the verifier must *refuse* to certify the
hostile access (no false "proven" verdicts), so the guard stays
dynamic and the deny is still taken at runtime.  A verifier bug that
certified any of these would let the module skip its guard entirely,
which is exactly the escape CARAT KOP exists to prevent.

Also covers the certificate trust chain itself: a tampered or
stale-epoch certificate is rejected under ``--verify-policy strict``
and demoted to full dynamic guarding under ``demote`` (the default).
"""

import dataclasses

import pytest

from repro import abi
from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import Kernel, layout
from repro.kernel.module_loader import LoadError
from repro.kernel.panic import MemoryFault
from repro.passes.absint import AREAS
from repro.policy import CaratPolicyModule, PolicyManager, RegionTable
from repro.policy.region import Region

RW = abi.FLAG_READ | abi.FLAG_WRITE

# A policy that allows the module's own globals — generous, but every
# corpus module reaches *outside* it.
def _module_window_table():
    table = RegionTable(default_allow=False)
    lo, hi = AREAS["module"]
    table.add(Region(lo, hi - lo + 1, RW))
    return table


WILD_POINTER = """
long scratch[4];
__export long run(long seed) {
    scratch[0] = seed;
    long *wild = (long *)1094795585;   /* 0x41414141: user space */
    *wild = seed;
    return scratch[0];
}
"""

OUT_OF_POLICY_DMA = """
long ring[8];
__export long run(long seed) {
    ring[0] = seed;
    /* A fixed "device doorbell" the policy never granted. */
    unsigned int *db = (unsigned int *)8589934592;  /* 0x2_0000_0000 */
    *db = (unsigned int)seed;
    return ring[0];
}
"""

OFFSET_OVERFLOW_CHAIN = """
long cells[8];
__export long run(long seed) {
    /* The index is attacker-controlled: the address chain
       base + seed*8 can land anywhere in the 64-bit space. */
    cells[seed] = seed;
    return cells[0];
}
"""

WRAPPING_CHAIN = """
long cells[8];
__export long run(long seed) {
    long base = (long)cells;
    /* Adding an unbounded value can wrap past 2^64 — the abstract
       adder must refuse, leaving the guard dynamic. */
    long *p = (long *)(base + seed * 65536);
    *p = seed;
    return cells[0];
}
"""

CORPUS = {
    "wild_pointer": WILD_POINTER,
    "out_of_policy_dma": OUT_OF_POLICY_DMA,
    "offset_overflow_chain": OFFSET_OVERFLOW_CHAIN,
    "wrapping_chain": WRAPPING_CHAIN,
}

# The hostile seed each module is driven with (in range for the benign
# accesses, out of policy for the hostile one).
HOSTILE_SEED = {
    "wild_pointer": 7,
    "out_of_policy_dma": 7,
    "offset_overflow_chain": (1 << 40) + 3,
    "wrapping_chain": (1 << 44) + 9,
}


def _compile_o3(source, table, name="adv"):
    return compile_module(
        source,
        CompileOptions(module_name=name, protect=True, opt_level=3,
                       verify_table=table),
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_hostile_guard_is_never_certified(name):
    """At least one guard in every corpus module stays dynamic, and the
    runtime deny is taken — statically eliding it would be the escape."""
    kernel = Kernel()
    policy = CaratPolicyModule(kernel, mode="audit").install()
    manager = PolicyManager(kernel)
    lo, hi = AREAS["module"]
    manager.allow(lo, hi - lo + 1)
    manager.set_default(False)

    compiled = _compile_o3(CORPUS[name], policy.index, name)
    assert compiled.certificate is not None
    assert compiled.guards_dynamic > 0, (
        f"{name}: verifier certified every guard — the hostile access "
        f"was falsely proven"
    )

    loaded = kernel.insmod(compiled)
    assert loaded.verify_state == "verified"
    try:
        kernel.run_function(loaded, "run", [HOSTILE_SEED[name]])
    except MemoryFault:
        # Audit mode records the deny, then lets the wild store hit the
        # simulated MMU, which may fault on an unmapped page.  The
        # guard has already fired by then, which is what we assert.
        pass
    assert policy.stats.denied > 0, f"{name}: the deny was hidden"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_hostile_guard_stays_dynamic_under_strict_check(name):
    """insmod's proof check accepts the corpus certificates under
    ``strict`` (they are honest about what they prove) and arms exactly
    the proven elisions: the hostile guard stays live and denies."""
    kernel, policy = _fresh_kernel("strict")
    compiled = _compile_o3(CORPUS[name], policy.index, name)
    loaded = kernel.insmod(compiled)
    assert loaded.verify_state == "verified"
    assert len(loaded.elided_guards) == compiled.guards_proven
    assert compiled.guards_dynamic > 0
    try:
        kernel.run_function(loaded, "run", [HOSTILE_SEED[name]])
    except MemoryFault:
        pass  # see test_hostile_guard_is_never_certified
    assert policy.stats.denied > 0, f"{name}: the deny was hidden"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_deny_visibility_matches_faithful_build(name):
    """The -O3 build takes a deny on the same run the -O0 build does."""
    for opt_level in (0, 3):
        kernel = Kernel()
        policy = CaratPolicyModule(kernel, mode="audit").install()
        manager = PolicyManager(kernel)
        lo, hi = AREAS["module"]
        manager.allow(lo, hi - lo + 1)
        manager.set_default(False)
        compiled = compile_module(
            CORPUS[name],
            CompileOptions(
                module_name=name, protect=True, opt_level=opt_level,
                verify_table=policy.index if opt_level >= 3 else None,
            ),
        )
        loaded = kernel.insmod(compiled)
        try:
            kernel.run_function(loaded, "run", [HOSTILE_SEED[name]])
        except MemoryFault:
            pass  # see test_hostile_guard_is_never_certified
        assert policy.stats.denied > 0, f"-O{opt_level} {name}"


# -- the certificate trust chain --------------------------------------------


def _fresh_kernel(verify_policy):
    kernel = Kernel(verify_policy=verify_policy)
    policy = CaratPolicyModule(kernel, mode="audit").install()
    manager = PolicyManager(kernel)
    lo, hi = AREAS["module"]
    manager.allow(lo, hi - lo + 1)
    manager.set_default(False)
    return kernel, policy


BENIGN = """
long cells[4];
__export long run(long seed) {
    cells[0] = seed;
    cells[1] = cells[0] + 1;
    return cells[1];
}
"""


def test_tampered_certificate_rejected_under_strict():
    kernel, policy = _fresh_kernel("strict")
    compiled = _compile_o3(BENIGN, policy.index, "benign")
    assert compiled.guards_proven > 0
    compiled.certificate = dataclasses.replace(
        compiled.certificate, ir_digest="0" * 64,
    )
    with pytest.raises(LoadError):
        kernel.insmod(compiled)
    assert "benign" not in kernel.loader.loaded


def test_tampered_certificate_demoted_by_default():
    kernel, policy = _fresh_kernel("demote")
    compiled = _compile_o3(BENIGN, policy.index, "benign")
    compiled.certificate = dataclasses.replace(
        compiled.certificate, policy_digest="f" * 64,
    )
    loaded = kernel.insmod(compiled)
    assert loaded.verify_state.startswith("demoted")
    assert not loaded.elided_guards
    kernel.run_function(loaded, "run", [5])
    assert policy.stats.checks > 0  # fully dynamic guarding is live


def test_stale_policy_epoch_rejected_or_demoted():
    """A certificate minted before a policy mutation no longer matches
    the table: strict refuses the module, demote loads it dynamic."""
    for verify_policy, expect_load in (("strict", False), ("demote", True)):
        kernel, policy = _fresh_kernel(verify_policy)
        compiled = _compile_o3(BENIGN, policy.index, "benign")
        PolicyManager(kernel).allow(0x3000_0000, 4096)  # epoch bump
        if expect_load:
            loaded = kernel.insmod(compiled)
            assert loaded.verify_state.startswith("demoted")
            assert not loaded.elided_guards
        else:
            with pytest.raises(LoadError):
                kernel.insmod(compiled)


def test_forged_verdicts_caught_by_revalidation():
    """insmod checks the proof: a certificate claiming MORE proven
    guards than its summaries support is caught bit-for-bit."""
    kernel, policy = _fresh_kernel("strict")
    compiled = _compile_o3(WILD_POINTER, policy.index, "forged")
    cert = compiled.certificate
    # Flip every verdict to "proven".
    forged = tuple(
        (fn, tuple(1 for _ in bits)) for fn, bits in cert.verdicts
    )
    compiled.certificate = dataclasses.replace(cert, verdicts=forged)
    with pytest.raises(LoadError):
        kernel.insmod(compiled)


def test_verify_policy_off_ignores_certificates():
    kernel, policy = _fresh_kernel("off")
    compiled = _compile_o3(BENIGN, policy.index, "benign")
    loaded = kernel.insmod(compiled)
    assert loaded.verify_state == ""
    assert not loaded.elided_guards  # no elision without validation
    kernel.run_function(loaded, "run", [5])
    assert policy.stats.checks > 0
