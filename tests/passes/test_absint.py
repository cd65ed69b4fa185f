"""Unit tests for the -O3 abstract-interpretation verifier.

Covers the interval domain's arithmetic (wrap refusal, atom capping,
sign extension), the contract set's canonical digest and resolution,
``RegionTable.check_range``'s exactness under first-match semantics,
and the ``ModuleVerifier`` itself on small hand-compiled modules — in
particular that it never certifies a guard the dynamic table would
deny (soundness is the whole point of the tier).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import abi
from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import layout
from repro.passes.absint import (
    AREAS,
    TOP,
    U64_MAX,
    ArgContract,
    ContractSet,
    FieldContract,
    ModuleVerifier,
    av_add,
    av_const,
    av_join,
    av_mul,
    av_sext,
    av_sub,
    elidable_guard_ids,
)
from repro.policy import IntervalRegionTable, RegionTable
from repro.policy.region import Region

RW = abi.FLAG_READ | abi.FLAG_WRITE


# -- interval-domain arithmetic ---------------------------------------------


def test_av_const_and_join():
    a = av_const(5)
    assert a == ((5, 5),)
    j = av_join(av_const(3), av_const(9))
    assert j == ((3, 3), (9, 9))
    # Adjacent atoms merge.
    assert av_join(av_const(4), av_const(5)) == ((4, 5),)


def test_av_join_caps_atom_count():
    vals = av_const(0)
    for x in (100, 200, 300, 400, 500):
        vals = av_join(vals, av_const(x))
    assert len(vals) <= 4
    # Capping merges gaps — the result over-approximates, never drops.
    lo, hi = vals[0][0], vals[-1][1]
    assert lo == 0 and hi == 500


def test_av_add_refuses_wrap():
    near_top = ((U64_MAX - 1, U64_MAX - 1),)
    assert av_add(near_top, av_const(10), U64_MAX) == TOP
    assert av_add(av_const(7), av_const(8), U64_MAX) == ((15, 15),)


def test_av_add_refuses_wrap_at_instruction_width():
    # An 8-bit add that could wrap at *its own* width is refused even
    # though it fits comfortably in 64 bits (the caller then clamps
    # TOP to the instruction's width).
    m8 = (1 << 8) - 1
    assert av_add(av_const(250), av_const(10), m8) == TOP


def test_av_sub_refuses_below_zero():
    assert av_sub(av_const(3), av_const(5)) == TOP
    assert av_sub(av_const(9), av_const(4)) == ((5, 5),)


def test_av_mul():
    assert av_mul(av_const(6), av_const(7), U64_MAX) == ((42, 42),)
    big = ((1 << 63, 1 << 63),)
    assert av_mul(big, av_const(4), U64_MAX) == TOP


def test_av_sext_splits_at_sign_boundary():
    # i32 -> i64: 0xFFFFFFFF is -1, which sign-extends to U64_MAX.
    m32 = (1 << 32) - 1
    out = av_sext(((m32, m32),), 32, 64)
    assert out == ((U64_MAX, U64_MAX),)
    # Non-negative values pass through.
    assert av_sext(av_const(41), 32, 64) == ((41, 41),)


# -- contracts --------------------------------------------------------------


def test_contract_digest_is_order_independent():
    a = ContractSet([ArgContract("f", 0, lo=1, hi=2),
                     FieldContract("g", "x", lo=0, hi=7)])
    b = ContractSet([FieldContract("g", "x", lo=0, hi=7),
                     ArgContract("f", 0, lo=1, hi=2)])
    assert a.digest() == b.digest()
    assert a.digest() != ContractSet([]).digest()


def test_area_contract_reserve_shrinks_window():
    lo, hi = AREAS["heap"]
    c = ArgContract("f", 0, area="heap", reserve=64)
    clo, chi = c.interval()
    assert clo == lo
    assert chi == hi - 63


# -- check_range exactness --------------------------------------------------


def test_check_range_matches_pointwise_check():
    table = RegionTable(default_allow=False)
    table.add(Region(0x1000, 0x100, RW))
    table.add(Region(0x1080, 0x200, abi.FLAG_READ))  # shadowed then deciding
    for lo, hi in [(0x1000, 0x10F8), (0x1000, 0x1279), (0x10F0, 0x1120),
                   (0xF00, 0x1000), (0x1270, 0x1290)]:
        want = all(table.check(a, 8, RW)[0] for a in range(lo, hi + 1))
        got = table.check_range(lo, hi, 8, RW)
        assert got == want, (hex(lo), hex(hi), got, want)


# Small tables over a 512-byte window: bases and lengths collide often,
# so draws hold overlaps, regions shadowed by earlier ones, and deny
# holes (prot 0 or a missing flag) inside larger allowances.
_regions = st.lists(
    st.builds(
        Region,
        base=st.integers(0x100, 0x2FF),
        length=st.integers(1, 0x80),
        prot=st.sampled_from([0, abi.FLAG_READ, abi.FLAG_WRITE, RW]),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(
    regions=_regions,
    default_allow=st.booleans(),
    interval=st.booleans(),
    lo=st.integers(0xF0, 0x310),
    span=st.integers(0, 0x60),
    size=st.sampled_from([1, 2, 4, 8]),
    flags=st.sampled_from([abi.FLAG_READ, abi.FLAG_WRITE, RW]),
)
def test_check_range_matches_pointwise_check_property(
    regions, default_allow, interval, lo, span, size, flags
):
    """``check_range`` equals a brute-force pointwise ``check`` over every
    start address, on random tables of either index structure."""
    table = (IntervalRegionTable if interval else RegionTable)(
        default_allow=default_allow
    )
    for r in regions:
        table.add(r)
    hi = lo + span
    want = all(table.check(a, size, flags)[0] for a in range(lo, hi + 1))
    assert table.check_range(lo, hi, size, flags) == want


def test_check_range_first_match_deny_counterexample():
    """A small early DENY region inside a big later ALLOW region: the
    range is NOT uniformly allowed even though an interval-only view of
    the allow region would say it is."""
    table = RegionTable(default_allow=False)
    table.add(Region(0x2010, 0x10, 0))  # deny hole, matched first
    table.add(Region(0x2000, 0x100, RW))
    assert table.check_range(0x2000, 0x2008, 8, RW)
    assert not table.check_range(0x2000, 0x2040, 8, RW)  # spans the hole
    assert not table.check_range(0x2010, 0x2010, 8, RW)


def test_check_range_default_decides_leftovers():
    empty = RegionTable(default_allow=True)
    assert empty.check_range(0, U64_MAX - 8, 8, RW)
    empty_deny = RegionTable(default_allow=False)
    assert not empty_deny.check_range(0x5000, 0x5010, 8, RW)


def test_digest_tracks_regions_and_default():
    t = RegionTable(default_allow=False)
    d0 = t.digest()
    t.add(Region(0x1000, 0x100, RW))
    d1 = t.digest()
    assert d0 != d1
    t.default_allow = True
    assert t.digest() not in (d0, d1)


# -- the verifier on real modules -------------------------------------------

_SIMPLE = """
long cells[8];
__export long run(long seed) {
    cells[0] = seed;
    cells[1] = cells[0] + 1;
    long acc = 0;
    for (long i = 0; i < 8; i++) { acc += cells[i]; }
    return acc;
}
"""


def _verify(source, table, contracts=None, opt_level=2):
    compiled = compile_module(
        source,
        CompileOptions(module_name="m", protect=True, opt_level=opt_level),
    )
    verifier = ModuleVerifier(compiled.ir, table, contracts)
    return compiled, verifier.run()


def test_verifier_proves_globals_under_module_window():
    table = RegionTable(default_allow=False)
    lo, hi = AREAS["module"]
    table.add(Region(lo, hi - lo + 1, RW))
    _, report = _verify(_SIMPLE, table)
    assert report.guards_dynamic == 0
    assert report.guards_proven > 0


def test_verifier_proves_nothing_under_deny_all():
    table = RegionTable(default_allow=False)
    _, report = _verify(_SIMPLE, table)
    assert report.guards_proven == 0
    assert report.guards_dynamic > 0


def test_verifier_counts_match_guard_sites():
    table = RegionTable(default_allow=True)
    compiled, report = _verify(_SIMPLE, table)
    total = report.guards_proven + report.guards_dynamic
    assert total == compiled.guard_count
    elided = elidable_guard_ids(compiled.ir, report.proven_map())
    assert len(elided) == report.guards_proven


def test_verifier_respects_exact_size_against_window_edge():
    """A guard whose object could start at the last byte of the allow
    window must stay dynamic unless provenance reserves the object's
    size — the size-aware window is what makes edges provable."""
    table = RegionTable(default_allow=False)
    lo, _ = AREAS["module"]
    # Window ends mid-array: the sweep's tail cannot be proven.
    table.add(Region(lo, 4 * 8, RW))  # only cells[0..3]
    _, report = _verify(_SIMPLE, table)
    assert report.guards_dynamic > 0


def test_verifier_is_deterministic():
    table = RegionTable(default_allow=True)
    _, r1 = _verify(_SIMPLE, table)
    _, r2 = _verify(_SIMPLE, table)
    assert r1.verdicts == r2.verdicts
    assert r1.contracts_digest == r2.contracts_digest


_ALLOC = """
extern void *kmalloc(long size, int flags);
long mk(long n) {
    long *p = (long *)kmalloc(n, 0);
    return p[500];
}
__export long run(long seed) {
    return mk(64) + mk(8192);
}
"""


def test_kmalloc_reserve_uses_smallest_size():
    """An allocation of 64 or 8192 bytes may sit in the heap window's
    last 64 bytes, so ``p[500]`` (4000 bytes in) cannot be proven inside
    the window: the reserved size is the smallest one, not the largest."""
    table = RegionTable(default_allow=False)
    lo, hi = AREAS["heap"]
    table.add(Region(lo, hi - lo + 1, RW))
    compiled, report = _verify(_ALLOC, table)
    assert dict(report.verdicts)["mk"] == (0,)
    # Sizes that are all at least the access's reach still prove.
    compiled, report = _verify(_ALLOC.replace("mk(64)", "mk(4096)"), table)
    assert dict(report.verdicts)["mk"] == (1,)
