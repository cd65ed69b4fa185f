"""The trace subsystem: tracepoint registry, ring, aggregates, control.

One :class:`TraceSubsystem` hangs off every kernel (``kernel.trace``),
created before the traced subsystems so they can bind their tracepoints
at construction time.  It owns:

- the :class:`~repro.trace.tracepoint.Tracepoint` registry, pre-seeded
  from :data:`~repro.trace.events.EVENT_SCHEMA`;
- the per-CPU-model event :class:`~repro.trace.ring.RingBuffer`;
- the aggregation layer (named counters, the guard cycle-cost log2
  histogram, per-guard-callsite profiles, the per-function table);
- the :class:`~repro.trace.vmhook.VMTracer` both execution engines
  attach while tracing is enabled.

Control flows through :meth:`enable` / :meth:`disable` /
:meth:`snapshot` / :meth:`reset` — reachable from the ``/dev/carat``
TRACE_* ioctls, the ``caratkop-trace`` CLI, and ``repro.bench``.

Tracing is observability only: nothing here ever writes ``timing``
counters (the VM tracer only reads them), so simulated results are
bit-identical with tracing enabled, disabled, or absent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .aggregate import CounterSet, FunctionStats, GuardSiteStats, Log2Histogram
from .events import EVENT_SCHEMA, TraceEvent
from .ring import RingBuffer
from .tracepoint import Tracepoint
from .vmhook import VMTracer

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel


class TraceSubsystem:
    """Kernel-wide tracing control plane and event store."""

    def __init__(self, kernel: "Kernel", capacity: int = 65536,
                 mode: str = "overwrite"):
        self.kernel = kernel
        self.enabled = False
        # One ring per simulated CPU (ftrace's per_cpu/cpuN/trace): an
        # event lands in the ring of the CPU it was recorded on, so CPUs
        # never contend on a shared buffer.  Single-CPU kernels keep the
        # historic shape: ``self.ring`` is CPU 0's ring.
        ncpus = getattr(kernel, "smp", None)
        self._ncpus = ncpus.ncpus if ncpus is not None else 1
        self.rings: list[RingBuffer] = [
            RingBuffer(capacity, mode) for _ in range(self._ncpus)
        ]
        self.counters = CounterSet()
        self.guard_hist = Log2Histogram("guard cycles")
        self.guard_sites = GuardSiteStats()
        #: Per-function self profile and guard-hot pages (``--profile``).
        self.functions = FunctionStats()
        #: The persistent VM hook object.  Persistent on purpose: the
        #: compiled engine keys translations on tracer *identity*, so an
        #: enable -> disable -> enable cycle re-attaches the same object
        #: and rehydrates the traced translations from cache.
        self.vm_tracer = VMTracer(self)
        self._seq = 0
        self.points: dict[str, Tracepoint] = {}
        for name, (category, _fields) in EVENT_SCHEMA.items():
            self.points[name] = Tracepoint(name, category, self)
        #: Fast path for the hottest point (bound once, read per guard).
        self.tp_guard_check = self.points["guard:check"]

    # -- registry -------------------------------------------------------------------

    def point(self, name: str, category: Optional[str] = None) -> Tracepoint:
        """Get-or-create the tracepoint for ``name``.

        Subsystems call this once at construction and cache the result;
        unknown names register ad-hoc points (category defaults to the
        ``cat:`` prefix of the name).
        """
        tp = self.points.get(name)
        if tp is None:
            if category is None:
                category = name.split(":", 1)[0]
            tp = Tracepoint(name, category, self)
            tp.enabled = self.enabled and not tp.suppressed
            self.points[name] = tp
        return tp

    # -- the event sink -------------------------------------------------------------

    @property
    def ring(self) -> RingBuffer:
        """CPU 0's ring — the whole story on single-CPU kernels.  Code
        that must see every CPU uses :meth:`rings`, :meth:`snapshot`, or
        :meth:`ring_stats` (the merged view)."""
        return self.rings[0]

    def record(self, name: str, args: dict,
               stack: Optional[tuple] = None) -> None:
        """Append one event to the recording CPU's ring."""
        cpu = self.kernel.smp.current
        event = TraceEvent(
            self._seq, self.kernel.time_us(), name, args, stack, cpu
        )
        self._seq += 1
        self.counters.incr(name)
        self.rings[cpu].push(event)

    # -- control --------------------------------------------------------------------

    def enable(self) -> None:
        """Flip every non-suppressed static key on and attach the VM hook."""
        self.enabled = True
        for tp in self.points.values():
            tp.enabled = not tp.suppressed
        # Attaching the tracer changes the compiled engine's translation
        # key, so guard closures retranslate into their traced variants.
        self.kernel.vm.tracer = self.vm_tracer

    def disable(self) -> None:
        """Flip every static key off and detach the VM hook."""
        self.enabled = False
        for tp in self.points.values():
            tp.enabled = False
        vm = getattr(self.kernel, "_vm", None)
        if vm is not None:
            vm.tracer = None

    def suppress(self, name: str, suppressed: bool = True) -> None:
        """Per-point operator override (like echo 0 > events/.../enable)."""
        tp = self.point(name)
        tp.suppressed = suppressed
        tp.enabled = self.enabled and not suppressed

    def configure(self, capacity: Optional[int] = None,
                  mode: Optional[str] = None) -> None:
        """Rebuild every per-CPU ring with a new capacity and/or mode."""
        capacity = capacity if capacity is not None else self.rings[0].capacity
        mode = mode if mode is not None else self.rings[0].mode
        self.rings = [
            RingBuffer(capacity, mode) for _ in range(self._ncpus)
        ]

    def snapshot(self) -> list:
        """A detached, consistent copy of every CPU's ring, merged in
        global event order (``seq`` is kernel-wide, so the merge is
        total and deterministic).  Safe while enabled."""
        if self._ncpus == 1:
            return self.rings[0].snapshot()
        events: list = []
        for ring in self.rings:
            events.extend(ring.snapshot())
        events.sort(key=lambda e: e.seq)
        return events

    def reset(self) -> None:
        """Clear every ring and aggregate; sequence restarts at 0."""
        for ring in self.rings:
            ring.reset()
        self.counters.reset()
        self.guard_hist.reset()
        self.guard_sites.reset()
        self.functions.reset()
        self._seq = 0

    def ring_stats(self) -> dict[str, object]:
        """Merged ring accounting across CPUs (plus the shared config)."""
        return {
            "capacity": self.rings[0].capacity,
            "mode": self.rings[0].mode,
            "stored": sum(len(r) for r in self.rings),
            "lost": sum(r.lost for r in self.rings),
            "total": sum(r.total for r in self.rings),
        }

    @property
    def freq_hz(self) -> Optional[float]:
        machine = self.kernel.machine
        return machine.freq_hz if machine is not None else None

    # -- operator surfaces (/proc/trace, /proc/trace_stat) --------------------------

    def render_trace(self) -> str:
        """The ``/proc/trace`` view: a perf-script dump of the ring."""
        from .exporters import to_perf_script

        merged = self.ring_stats()
        header = (
            f"# tracer: caratkop  enabled={int(self.enabled)}  "
            f"entries={merged['stored']}  lost={merged['lost']}\n"
        )
        return header + to_perf_script(self.snapshot())

    def render_stat(self) -> str:
        """The ``/proc/trace_stat`` view: counters, histogram, hot sites."""
        lines = [
            f"tracing: {'on' if self.enabled else 'off'}",
            "",
            "[ring]",
        ]
        for key, value in self.ring_stats().items():
            lines.append(f"{key:<10} {value}")
        if self._ncpus > 1:
            for cpu, ring in enumerate(self.rings):
                st = ring.stats()
                lines.append(
                    f"cpu{cpu:<7} stored={st['stored']} lost={st['lost']} "
                    f"total={st['total']}"
                )
        lines += ["", "[events]"]
        counters = self.counters.render()
        lines.append(counters if counters else "(none)")
        lines += ["", "[guard cycle cost]", self.guard_hist.render()]
        lines += ["", "[guard sites]", self.guard_sites.render()]
        policy = self.kernel.carat_policy
        if policy is not None:
            rows = policy.driver_stats()
            if rows:
                # Runtime guard traffic attributed to each module (the
                # per-driver split of the site counts above).
                lines += ["", "[guard drivers]"]
                for name, row in rows.items():
                    lines.append(
                        f"{name:<12} checks={row['checks']} "
                        f"denied={row['denied']}"
                    )
        if self.kernel.blk_queue_stats is not None:
            rows = self.kernel.blk_queue_stats()
            if rows:
                # Per-queue device-side accounting (NVMe-style multi
                # queue): one row per queue block, admin queue first.
                # Pure host-side state — rendering never runs module
                # code or moves the simulated clock.
                lines += ["", "[blk queues]"]
                for row in rows:
                    kind = "admin" if row["queue"] == 0 else "io"
                    state = "created" if row["created"] else "absent"
                    lines.append(
                        f"q{row['queue']:<3} {kind:<6} {state:<8} "
                        f"doorbells={row['doorbells']} "
                        f"fetched={row['fetched']} "
                        f"completed={row['completed']} "
                        f"errors={row['errors']} "
                        f"in_flight={row['in_flight']}"
                    )
        loaded = self.kernel.loader.loaded
        if loaded:
            # Compile-time guard-optimizer work per module: how many
            # static guard sites each -O level eliminated/hoisted/merged
            # (context for the runtime site counts above).
            lines += ["", "[guard opt]"]
            for name, mod in sorted(loaded.items()):
                if mod.compiled.is_protected:
                    lines.append(f"{name:<12} {mod.guard_opt_summary()}")
                else:
                    lines.append(f"{name:<12} unprotected")
        lines += ["", "[irq]"]
        actions = self.kernel.irq.actions()
        if actions:
            for line, action in sorted(actions.items()):
                lines.append(
                    f"irq{line:<4} fired={action.fired} "
                    f"coalesced={action.coalesced} "
                    f"handler={action.module.name}:{action.handler_name}"
                )
        else:
            lines.append("(no handlers)")
        return "\n".join(lines) + "\n"


__all__ = ["TraceSubsystem"]
