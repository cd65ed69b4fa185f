"""Decision-identity of the interval index on OVERLAPPED policies.

The interval index's reason to exist is that it keeps the linear
table's first-match-wins semantics under arbitrary overlap — quarantine
rules shadowing broad allow rules — where a plain sorted array cannot
hold overlapped regions at all.  This file is its proof obligation: for
ANY region list (any overlap, any add order) and ANY query,
``IntervalRegionTable.check`` and every version it publishes decide
exactly like ``RegionTable.check``.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import abi
from repro.policy import IntervalRegionTable, Region, RegionTable
from repro.policy.interval import LINEAR_CUTOFF, IntervalVersion
from repro.policy.table import TableVersion

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
        fresh = IntervalVersion(tuple(interval.regions()),
                                interval.default_allow, interval.epoch)
        for addr, size, flags in qs:
            want, _ = linear.check(addr, size, flags)
            got = interval.check(addr, size, flags)
            assert got[0] == want
            # Scan counts drive the simulated cycles: the replica must
            # charge exactly what the master and a fresh build charge.
            assert replica.check(addr, size, flags) == got
            assert fresh.check(addr, size, flags) == got


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


# -- one immutable version per write -----------------------------------------
#
# Every write builds the table's next version.  ``add`` and ``pop`` (so
# ``remove``) on an interval table derive its index from the current one
# instead of rebuilding it.  The contract is structural: the derived
# version must equal a full build over its region tuple field by field,
# so every (allowed, scanned) and every simulated cycle is unchanged, and
# a published version is never mutated.


def _fields(version):
    """Everything a version's answers depend on."""
    fields = (type(version), version.regions(), version.default_allow,
              version.epoch)
    if isinstance(version, IntervalVersion):
        fields += (version._linear, version._points, version._candidates)
    return fields


def _assert_matches_full_build(table):
    version = table.snapshot()
    assert version is table.version
    fresh = type(version)(tuple(version.regions()), version.default_allow,
                          version.epoch)
    assert _fields(version) == _fields(fresh)
    return fresh


def _linear_oracle(regions, default_allow, addr, size, flags):
    """The paper's first-match walk over a plain list."""
    for r in regions:
        if r.covers(addr, size):
            return r.permits(flags)
    return default_allow


def _model_remove(model, region):
    """Drop the first entry with ``region``'s (base, length)."""
    for i, m in enumerate(model):
        if (m.base, m.length) == (region.base, region.length):
            del model[i]
            return True
    return False


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
    st.tuples(st.just("insert"), st.integers(0, 63), _region),
    st.tuples(st.just("pop"), st.integers(0, 63)),
)

#: Fixed probes for re-asking every published version: both sides of
#: lattice points spread over the regions' span.
_HISTORY_PROBES = [
    (BASE + 8 * k + d, size, flags)
    for k, d, size, flags in zip(
        range(-1, 330, 11), (-1, 0, 1) * 11, (1, 8, 4) * 11, PROTS[1:] * 11)
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((RegionTable, IntervalRegionTable)),
       st.lists(_region, max_size=20),
       st.lists(_step, min_size=1, max_size=60))
def test_delta_index_equals_full_build(kind, preload, steps):
    """Random add/remove/clear/insert/pop/default sequences on linear
    and interval tables, with duplicates, nested and partial overlaps,
    removal of one of two equal regions and LINEAR_CUTOFF crossings both
    ways.  After every step: the new version equals a full build of its
    regions; every version published earlier still gives its old
    (allowed, scanned) answers; decisions equal the linear oracle."""
    table = kind(max_regions=64)
    model, default_allow = [], False
    for r in preload:
        table.add(r)
        model.append(r)
    published = []
    for step in steps:
        kind_ = step[0]
        regions = table.regions()
        epoch, before = table.epoch, table.version
        if kind_ in ("add", "dup", "nest", "insert"):
            if len(regions) >= 64:
                continue
            if kind_ in ("add", "insert"):
                region = step[-1]
            elif not regions:
                continue
            elif kind_ == "dup":
                # Same (base, length) as an existing entry: a second
                # equal region, or the same window with another prot.
                src = regions[step[1] % len(regions)]
                region = Region(src.base, src.length, step[2])
            else:
                src = regions[step[1] % len(regions)]
                if src.length < 3:
                    continue
                region = Region(src.base + 1, src.length - 2, 0)
            if kind_ == "insert":
                idx = step[1] % (len(regions) + 1)
                table.insert(idx, region)
                model.insert(idx, region)
            else:
                assert table.add(region) == len(model)
                model.append(region)
        elif kind_ in ("remove", "pop"):
            if not regions:
                continue
            idx = step[1] % len(regions)
            if kind_ == "pop":
                assert table.pop(idx) is model.pop(idx)
            else:
                victim = regions[idx]
                assert table.remove(victim.base, victim.length)
                _model_remove(model, victim)
        elif kind_ == "remove_missing":
            r = step[1]
            assert table.remove(r.base, r.length) == _model_remove(model, r)
        elif kind_ == "clear":
            table.clear()
            model.clear()
        else:
            table.default_allow = default_allow = step[1]
        assert table.regions() == model
        assert table.default_allow == default_allow
        # Only region changes move the epoch.
        assert table.epoch - epoch == (kind_ != "default"
                                       and table.version is not before)
        for version, answers in published:
            assert [version.check(*q) for q in _HISTORY_PROBES] == answers
        fresh = _assert_matches_full_build(table)
        version = table.snapshot()
        published.append(
            (version, [version.check(*q) for q in _HISTORY_PROBES]))
        for addr, size in _boundary_probes(model):
            for flags in PROTS[1:]:
                got = table.check(addr, size, flags)
                assert got == fresh.check(addr, size, flags)
                assert got[0] == _linear_oracle(model, default_allow,
                                                addr, size, flags)


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
        return (replica, replica.regions(), replica._points,
                replica._candidates, [replica.check(*q) for q in probes_])

    published = [publish()]
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()) and len(table) < 64:
            table.add(data.draw(_region))
        elif len(table):
            regions = table.regions()
            victim = regions[data.draw(st.integers(0, len(regions) - 1))]
            table.remove(victim.base, victim.length)
        published.append(publish())
    for replica, regions, points, candidates, answers in published:
        assert replica.regions() == regions
        assert replica._points == points
        assert replica._candidates == candidates
        assert type(points) is tuple and type(candidates) is tuple
        assert [replica.check(*q) for q in probes_] == answers


def test_delta_touches_only_the_spanned_segments():
    """An add or remove on an interval table shares every untouched
    segment's candidate tuple with the previous version (a rebuild would
    not), and a snapshot is the table's version itself."""
    table = IntervalRegionTable()
    for i in range(32):
        table.add(Region(BASE + i * 0x100, 0x100, abi.FLAG_READ))
    old = table.version
    table.add(Region(BASE + 0x400, 0x80, 0))
    new = table.version
    assert new is not old
    assert new._regions[:-1] is not old._regions  # a new tuple...
    assert new._regions[:-1] == old._regions      # ...of the same regions
    shared = sum(
        any(c is o for o in old._candidates) for c in new._candidates
    )
    assert shared >= len(new._candidates) - 3
    table.remove(BASE + 0x400, 0x80)
    again = table.version
    assert again._points == old._points
    assert again._candidates == old._candidates
    assert table.snapshot() is again
