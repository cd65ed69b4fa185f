"""Decision-identity of the interval index on OVERLAPPED policies.

The interval index's reason to exist is that it keeps the linear
table's first-match-wins semantics under arbitrary overlap — quarantine
rules shadowing broad allow rules — where a plain sorted array cannot
hold overlapped regions at all.  This file is its proof obligation: for
ANY region list (any overlap, any add order) and ANY query,
``IntervalRegionTable.check`` and its RCU replica decide exactly like
``RegionTable.check``.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import abi
from repro.policy import IntervalRegionTable, Region, RegionTable
from repro.policy.interval import LINEAR_CUTOFF, _IntervalLookup

PROTS = (0, abi.FLAG_READ, abi.FLAG_WRITE, abi.FLAG_READ | abi.FLAG_WRITE)
BASE = 0x40000000


@st.composite
def overlapped_policy(draw):
    """Regions drawn WITHOUT a disjointness constraint: duplicates,
    nestings, and partial overlaps are all fair game, and order matters
    (first match wins)."""
    n = draw(st.integers(min_value=0, max_value=48))
    regions = []
    for _ in range(n):
        base = BASE + draw(st.integers(0, 4096))
        length = draw(st.integers(1, 512))
        prot = draw(st.sampled_from(PROTS))
        regions.append(Region(base, length, prot))
    return regions


@st.composite
def probes(draw, regions):
    """Queries biased toward region boundaries, where segment math can
    go wrong, plus uniform background noise."""
    out = []
    edges = []
    for r in regions:
        edges += [r.base, r.base + r.length - 1, r.base + r.length]
    for _ in range(draw(st.integers(1, 24))):
        if edges and draw(st.booleans()):
            addr = draw(st.sampled_from(edges)) + draw(st.integers(-2, 2))
        else:
            addr = BASE + draw(st.integers(-64, 4096 + 640))
        size = draw(st.sampled_from((1, 2, 4, 8, 16)))
        flags = draw(st.sampled_from(PROTS[1:]))
        out.append((addr, size, flags))
    return out


def _build_pair(regions, default_allow):
    linear = RegionTable(default_allow=default_allow)
    interval = IntervalRegionTable(default_allow=default_allow)
    for r in regions:
        linear.add(r)
        interval.add(r)
    return linear, interval


@settings(max_examples=120, deadline=None)
@given(st.data(), overlapped_policy(), st.booleans())
def test_decision_identical_to_linear_table(data, regions, default_allow):
    linear, interval = _build_pair(regions, default_allow)
    replica = interval.snapshot()
    for addr, size, flags in data.draw(probes(regions)):
        want, _ = linear.check(addr, size, flags)
        got, steps = interval.check(addr, size, flags)
        assert got == want, (
            f"interval disagrees at {addr:#x}+{size}: got {got}, want {want}"
        )
        assert steps >= 1
        assert replica.check(addr, size, flags)[0] == want


@settings(max_examples=60, deadline=None)
@given(st.data(), overlapped_policy(), st.booleans())
def test_replica_tracks_mutations(data, regions, default_allow):
    """Every epoch's snapshot is decision-identical to the master at
    snapshot time (the RCU publish invariant), including after removes
    that expose previously shadowed overlapping regions."""
    linear, interval = _build_pair(regions, default_allow)
    qs = data.draw(probes(regions))
    for _ in range(min(3, len(regions))):
        victim = regions[data.draw(st.integers(0, len(regions) - 1))]
        linear.remove(victim.base, victim.length)
        interval.remove(victim.base, victim.length)
        replica = interval.snapshot()
        assert replica.epoch == interval.epoch
        fresh = _IntervalLookup(tuple(interval.regions()))
        for addr, size, flags in qs:
            want, _ = linear.check(addr, size, flags)
            got = interval.check(addr, size, flags)
            assert got[0] == want
            # Scan counts drive the simulated cycles: the replica must
            # charge exactly what the master and a fresh build charge.
            assert replica.check(addr, size, flags) == got
            assert fresh.check(addr, size, flags,
                               interval.default_allow) == got


@settings(max_examples=60, deadline=None)
@given(overlapped_policy(), st.booleans())
def test_small_tables_charge_identical_scan_counts(regions, default_allow):
    """At or below LINEAR_CUTOFF regions the index degrades to the exact
    paper walk — byte-identical decisions AND entries-scanned counts, so
    fig3-style timing at small n cannot regress."""
    regions = regions[:LINEAR_CUTOFF]
    linear, interval = _build_pair(regions, default_allow)
    for r in regions:
        for addr in (r.base, r.base + r.length - 1):
            for flags in PROTS[1:]:
                assert (
                    interval.check(addr, 1, flags)
                    == linear.check(addr, 1, flags)
                )


class TestFirstMatchWins:
    def test_shadowing_deny_beats_later_allow(self):
        """A narrow prot-0 rule listed first shadows a broad RW rule —
        the overlap shape a plain sorted array cannot express."""
        for cls in (RegionTable, IntervalRegionTable):
            table = cls()
            table.add(Region(BASE + 0x100, 0x10, 0))                 # deny
            table.add(Region(BASE, 0x1000, abi.FLAG_READ | abi.FLAG_WRITE))
            allowed, _ = table.check(BASE + 0x100, 8, abi.FLAG_READ)
            assert allowed is False, cls.name
            allowed, _ = table.check(BASE + 0x200, 8, abi.FLAG_READ)
            assert allowed is True, cls.name

    def test_reversed_order_flips_the_decision_in_both(self):
        for cls in (RegionTable, IntervalRegionTable):
            table = cls()
            table.add(Region(BASE, 0x1000, abi.FLAG_READ | abi.FLAG_WRITE))
            table.add(Region(BASE + 0x100, 0x10, 0))
            allowed, _ = table.check(BASE + 0x100, 8, abi.FLAG_READ)
            assert allowed is True, cls.name

    def test_no_overlap_error_on_add(self):
        table = IntervalRegionTable()
        for i in range(32):
            table.add(Region(BASE + i * 8, 64, abi.FLAG_READ))
        assert len(table) == 32

    def test_sublinear_scan_counts_at_64_disjoint_regions(self):
        """The headline operator observable: mean comparisons/guard
        drop from ~n/2 to ~log2(n) + overlap depth."""
        linear = RegionTable()
        interval = IntervalRegionTable()
        for i in range(64):
            r = Region(BASE + i * 0x1000, 0x1000, abi.FLAG_READ)
            linear.add(r)
            interval.add(r)
        lin_total = int_total = 0
        for i in range(64):
            addr = BASE + i * 0x1000 + 8
            lin_total += linear.check(addr, 8, abi.FLAG_READ)[1]
            int_total += interval.check(addr, 8, abi.FLAG_READ)[1]
        assert int_total < lin_total / 3


# -- copy-on-write writes ----------------------------------------------------
#
# ``add``/``remove`` on a table whose index is current derive the new
# index from the old one instead of rebuilding it.  The contract is
# structural: the derived index must equal a full build over the new
# region tuple field by field, so every (allowed, scanned) and every
# simulated cycle is unchanged, and a published index is never mutated.


def _assert_matches_full_build(table):
    fresh = _IntervalLookup(tuple(table.regions()))
    live = table._fresh_lookup()
    lookups = [table._current_lookup()]
    if live is not None:
        lookups.append(live)
    for lookup in lookups:
        assert lookup._regions == fresh._regions
        assert lookup._linear == fresh._linear
        assert lookup._points == fresh._points
        assert lookup._candidates == fresh._candidates
    return fresh


def _boundary_probes(regions):
    seen = set()
    for r in regions:
        for edge in (r.base, r.base + r.length):
            for delta in (-2, -1, 0, 1):
                for size in (1, 2, 8):
                    seen.add((edge + delta, size))
    seen.add((BASE - 8, 4))
    seen.add((BASE + 8192, 1))
    return sorted(seen)


_region = st.builds(
    Region,
    st.integers(0, 256).map(lambda o: BASE + o * 8),
    st.integers(1, 64).map(lambda n: n * 8),
    st.sampled_from(PROTS),
)

_step = st.one_of(
    st.tuples(st.just("add"), _region),
    st.tuples(st.just("add"), _region),
    st.tuples(st.just("dup"), st.integers(0, 63), st.sampled_from(PROTS)),
    st.tuples(st.just("nest"), st.integers(0, 63)),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("remove_missing"), _region),
    st.tuples(st.just("clear")),
    st.tuples(st.just("default"), st.booleans()),
    st.tuples(st.just("journal_insert"), st.integers(0, 63), _region),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_region, max_size=20), st.lists(_step, min_size=1,
                                                 max_size=60))
def test_delta_index_equals_full_build(preload, steps):
    """Random add/remove/clear/default sequences, with duplicates,
    nested and partial overlaps, removal of one of two equal regions,
    LINEAR_CUTOFF crossings both ways, and a journal-style direct
    ``_regions.insert`` + epoch bump (``PolicyControlPlane._undo_del``)
    that leaves the index stale for the next delta."""
    table = IntervalRegionTable(max_regions=64)
    oracle = RegionTable(max_regions=64)
    for r in preload:
        table.add(r)
        oracle.add(r)
    table.snapshot()
    for step in steps:
        kind = step[0]
        regions = table.regions()
        if kind in ("add", "dup", "nest"):
            if len(regions) >= 64:
                continue
            if kind == "add":
                region = step[1]
            elif not regions:
                continue
            elif kind == "dup":
                # Same (base, length) as an existing entry: a second
                # equal region, or the same window with another prot.
                src = regions[step[1] % len(regions)]
                region = Region(src.base, src.length, step[2])
            else:
                src = regions[step[1] % len(regions)]
                if src.length < 3:
                    continue
                region = Region(src.base + 1, src.length - 2, 0)
            table.add(region)
            oracle.add(region)
        elif kind == "remove":
            if not regions:
                continue
            victim = regions[step[1] % len(regions)]
            assert table.remove(victim.base, victim.length)
            assert oracle.remove(victim.base, victim.length)
        elif kind == "remove_missing":
            r = step[1]
            assert table.remove(r.base, r.length) == oracle.remove(
                r.base, r.length)
        elif kind == "clear":
            table.clear()
            oracle.clear()
        elif kind == "default":
            table.default_allow = oracle.default_allow = step[1]
        else:
            if len(regions) >= 64:
                continue
            idx = step[1] % (len(regions) + 1)
            table._regions.insert(idx, step[2])
            table.epoch += 1
            oracle._regions.insert(idx, step[2])
            oracle.epoch += 1
            # Mutate again before anything rebuilds the stale index.
            if regions:
                victim = regions[0]
                table.remove(victim.base, victim.length)
                oracle.remove(victim.base, victim.length)
        assert table.regions() == oracle.regions()
        fresh = _assert_matches_full_build(table)
        for addr, size in _boundary_probes(table.regions()):
            for flags in PROTS[1:]:
                got = table.check(addr, size, flags)
                assert got == fresh.check(addr, size, flags,
                                          table.default_allow)
                assert got[0] == oracle.check(addr, size, flags)[0]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.lists(_region, min_size=LINEAR_CUTOFF + 1,
                           max_size=40))
def test_replica_is_immutable_under_delta_writes(data, preload):
    """A replica published before a delta add or remove keeps answering
    from its own epoch, decision and scan count alike: the writer copies
    every list and tuple it changes.  Checked for the replica of a full
    build and for the replica of every delta after it."""
    table = IntervalRegionTable(max_regions=64)
    for r in preload:
        table.add(r)
    probes_ = [(a, s, f) for a, s in _boundary_probes(preload)
               for f in PROTS[1:]]

    def publish():
        replica = table.snapshot()
        lookup = replica._lookup
        return (replica, replica.regions(), lookup._points,
                lookup._candidates, [replica.check(*q) for q in probes_])

    published = [publish()]
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()) and len(table) < 64:
            table.add(data.draw(_region))
        elif len(table):
            regions = table.regions()
            victim = regions[data.draw(st.integers(0, len(regions) - 1))]
            table.remove(victim.base, victim.length)
        assert table._fresh_lookup() is not None
        published.append(publish())
    for replica, regions, points, candidates, answers in published:
        assert replica.regions() == regions
        assert replica._lookup._points == points
        assert replica._lookup._candidates == candidates
        assert type(points) is tuple and type(candidates) is tuple
        assert [replica.check(*q) for q in probes_] == answers


def test_delta_touches_only_the_spanned_segments():
    """An add or remove on a current index shares every untouched
    segment's candidate tuple with the old index (a rebuild would not),
    and snapshots share the index's region tuple."""
    table = IntervalRegionTable()
    for i in range(32):
        table.add(Region(BASE + i * 0x100, 0x100, abi.FLAG_READ))
    old = table._current_lookup()
    table.add(Region(BASE + 0x400, 0x80, 0))
    new = table._fresh_lookup()
    assert new is not None and new is not old
    assert new._regions[:-1] is not old._regions  # a new tuple...
    assert new._regions[:-1] == old._regions      # ...of the same regions
    shared = sum(
        any(c is o for o in old._candidates) for c in new._candidates
    )
    assert shared >= len(new._candidates) - 3
    table.remove(BASE + 0x400, 0x80)
    again = table._fresh_lookup()
    assert again is not None
    assert again._points == old._points
    assert again._candidates == old._candidates
    snap = table.snapshot()
    assert snap._regions is again._regions
    assert snap._lookup is again


def test_stale_index_is_rebuilt_not_patched():
    """After a direct ``_regions`` edit plus an epoch bump the index is
    stale; the next add must not derive from it."""
    table = IntervalRegionTable()
    for i in range(16):
        table.add(Region(BASE + i * 0x100, 0x100, abi.FLAG_READ))
    table.snapshot()
    table._regions.insert(0, Region(BASE, 0x1000, 0))
    table.epoch += 1
    assert table._fresh_lookup() is None
    table.add(Region(BASE + 0x2000, 0x100, abi.FLAG_WRITE))
    assert table._fresh_lookup() is None
    _assert_matches_full_build(table)
    assert table.check(BASE + 0x10, 4, abi.FLAG_READ)[0] is False
