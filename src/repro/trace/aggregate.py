"""The aggregation layer: counters, log2 histograms, guard-site and
per-function profiles.

Aggregates are cheap enough to update on every event even when the ring
is tiny, so ``/proc/trace_stat`` stays truthful after the ring has
wrapped — the counters saw everything the ring lost.
"""

from __future__ import annotations

from ..kernel import layout


class CounterSet:
    """Named monotonic counters (one per event name, plus ad-hoc ones)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def incr(self, name: str, n: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + n

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts)

    def render(self) -> str:
        width = max((len(n) for n in self._counts), default=0)
        return "\n".join(
            f"{name:<{width}}  {count}"
            for name, count in sorted(self._counts.items())
        )


class Log2Histogram:
    """Power-of-two bucketed value distribution, BPF-histogram style.

    Bucket ``b`` holds values in ``[2^(b-1), 2^b)``; bucket 0 holds
    zero.  Values are truncated to ints (guard costs are fractional
    cycles; sub-cycle precision is meaningless in a distribution).
    """

    __slots__ = ("name", "buckets", "count", "total")

    def __init__(self, name: str = ""):
        self.name = name
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0

    def record(self, value: float) -> None:
        b = int(value).bit_length()
        self.buckets[b] = self.buckets.get(b, 0) + 1
        self.count += 1
        self.total += value

    def reset(self) -> None:
        self.buckets.clear()
        self.count = 0
        self.total = 0.0

    def render(self, width: int = 40) -> str:
        """The classic bpftrace bar chart."""
        if not self.buckets:
            return "(empty)"
        peak = max(self.buckets.values())
        lines = []
        for b in range(min(self.buckets), max(self.buckets) + 1):
            n = self.buckets.get(b, 0)
            lo = 0 if b == 0 else 1 << (b - 1)
            hi = 1 if b == 0 else (1 << b) - 1
            bar = "@" * max(1 if n else 0, round(n * width / peak))
            lines.append(f"[{lo:>10}, {hi:>10}]  {n:>8} |{bar:<{width}}|")
        mean = self.total / self.count if self.count else 0.0
        lines.append(f"count {self.count}, mean {mean:.1f}")
        return "\n".join(lines)


class GuardSiteStats:
    """Per-guard-callsite profile, keyed by IR callsite id.

    Site ids come from :func:`repro.trace.vmhook.guard_site_id` —
    ``module:@function:g<ordinal>`` — and are identical between the
    interpreter and the compiled engine, so profiles can be compared
    across engines.  ``cycles`` is the machine model's simulated guard
    cost attributed to the site, the figure-level "what do guards cost,
    and where" answer.
    """

    __slots__ = ("_sites",)

    def __init__(self) -> None:
        # site -> [hits, cycles, entries_scanned]
        self._sites: dict[str, list] = {}

    def record(self, site: str, entries: int, cycles: float) -> None:
        rec = self._sites.get(site)
        if rec is None:
            self._sites[site] = [1, cycles, entries]
        else:
            rec[0] += 1
            rec[1] += cycles
            rec[2] += entries

    def reset(self) -> None:
        self._sites.clear()

    def __len__(self) -> int:
        return len(self._sites)

    def total_cycles(self) -> float:
        return sum(rec[1] for rec in self._sites.values())

    def top(self, n: int = 10) -> list[dict]:
        """Hottest sites by attributed cycles (hits break ties)."""
        total = self.total_cycles()
        out = []
        ranked = sorted(
            self._sites.items(), key=lambda kv: (-kv[1][1], -kv[1][0], kv[0])
        )
        for site, (hits, cycles, entries) in ranked[:n]:
            out.append({
                "site": site,
                "hits": hits,
                "cycles": cycles,
                "entries_scanned": entries,
                "share": (cycles / total) if total else 0.0,
            })
        return out

    def as_dict(self) -> dict[str, dict]:
        return {
            site: {"hits": h, "cycles": c, "entries_scanned": e}
            for site, (h, c, e) in self._sites.items()
        }

    def render(self, n: int = 10) -> str:
        rows = self.top(n)
        if not rows:
            return "(no guard sites)"
        lines = [f"{'site':<40} {'hits':>10} {'cycles':>14} {'share':>7}"]
        for r in rows:
            lines.append(
                f"{r['site']:<40} {r['hits']:>10} {r['cycles']:>14.0f} "
                f"{r['share']:>6.1%}"
            )
        return "\n".join(lines)


class FunctionRow:
    """One IR function's accumulated *self* profile."""

    __slots__ = ("name", "calls", "instructions", "guards", "loads",
                 "stores", "cycles")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.instructions = 0
        self.guards = 0
        self.loads = 0
        self.stores = 0
        self.cycles = 0.0


class FunctionStats:
    """Per-function execution profile plus the guard-hot-page histogram:
    where do a module's cycles and guards go?

    :class:`repro.trace.vmhook.VMTracer` fills the rows from counters
    the engines already keep (``instructions_executed`` and the timing
    ``loads``/``stores``/``cycles``), snapshotted at frame entry and
    exit.  Every column is *self*: a frame's delta minus its callees',
    so ``cycles`` includes the MMIO and native work the frame caused
    and the rows of one call sum to its ``timing.cycles`` delta.
    ``instructions`` excludes the guard calls that ran, which are
    counted in ``guards`` (a guard site elided at ``-O3`` still counts
    as an instruction, as in ``instructions_executed``).  Untimed runs
    read 0 loads, stores and cycles.
    """

    __slots__ = ("rows", "pages")

    def __init__(self) -> None:
        self.rows: dict[str, FunctionRow] = {}
        #: page number -> guard checks that targeted it
        self.pages: dict[int, int] = {}

    def row(self, name: str) -> FunctionRow:
        row = self.rows.get(name)
        if row is None:
            row = self.rows[name] = FunctionRow(name)
        return row

    def record_page(self, addr: int) -> None:
        page = addr >> layout.PAGE_SHIFT
        self.pages[page] = self.pages.get(page, 0) + 1

    def reset(self) -> None:
        self.rows.clear()
        self.pages.clear()

    def hottest(self, top: int = 10) -> list[FunctionRow]:
        """Rows with the most self instructions first."""
        return sorted(
            self.rows.values(), key=lambda r: r.instructions, reverse=True
        )[:top]

    def hottest_pages(self, top: int = 10) -> list[tuple[int, int]]:
        """(page number, guard count) pairs, most-guarded first."""
        return sorted(
            self.pages.items(), key=lambda kv: kv[1], reverse=True
        )[:top]

    def render(self, top: int = 10) -> str:
        lines = [
            f"{'function':<28}{'calls':>8}{'instrs':>10}{'guards':>8}"
            f"{'loads':>7}{'stores':>7}{'cycles':>14}"
        ]
        for r in self.hottest(top=top):
            lines.append(
                f"{r.name:<28}{r.calls:>8}{r.instructions:>10}{r.guards:>8}"
                f"{r.loads:>7}{r.stores:>7}{r.cycles:>14.1f}"
            )
        if self.pages:
            lines.append("")
            lines.append("guard-hot pages:")
            for page, count in self.hottest_pages(5):
                lines.append(
                    f"  {page << layout.PAGE_SHIFT:#018x}  {count:>8} checks"
                )
        return "\n".join(lines)


__all__ = ["CounterSet", "FunctionRow", "FunctionStats", "GuardSiteStats",
           "Log2Histogram"]
