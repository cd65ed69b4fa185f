"""Trace event objects and the static event schema.

Every tracepoint in the tree is declared here, with its category and the
argument fields it emits — the analogue of the format files under
``/sys/kernel/debug/tracing/events/``.  The schema is what
``caratkop-trace schema`` prints and what DESIGN.md documents; emitting
an event whose name is not in the schema is allowed (subsystems may grow
ad-hoc points), but every in-tree site should register here.
"""

from __future__ import annotations

from typing import Optional


class TraceEvent:
    """One recorded event: sequence number, timestamp, name, arguments.

    ``ts_us`` is the kernel's monotonic microsecond clock (the VM cycle
    counter scaled by the machine frequency, or the logical clock on
    untimed runs).  ``stack`` is the VM function-name stack at emission
    time for events recorded through the VM tracer (guard checks), else
    ``None``.  ``cpu`` is the simulated CPU the event was recorded on
    (always 0 on single-CPU kernels); the merged multi-ring snapshot is
    ordered by ``seq``, which is global across CPUs.  Events are
    immutable once recorded: ring-buffer snapshots stay consistent
    however much tracing continues afterwards.
    """

    __slots__ = ("seq", "ts_us", "name", "args", "stack", "cpu")

    def __init__(self, seq: int, ts_us: float, name: str, args: dict,
                 stack: Optional[tuple] = None, cpu: int = 0):
        self.seq = seq
        self.ts_us = ts_us
        self.name = name
        self.args = args
        self.stack = stack
        self.cpu = cpu

    @property
    def category(self) -> str:
        return self.name.split(":", 1)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.seq}, {self.ts_us:.3f}, {self.name!r}, {self.args!r})"


#: name -> (category, argument fields).  The in-tree tracepoint catalog.
EVENT_SCHEMA: dict[str, tuple[str, tuple[str, ...]]] = {
    # VM guard hot path (both engines).
    "guard:check": ("guard", ("site", "addr", "size", "flags", "entries", "cycles")),
    # Policy-module denial (any guard flavour, any enforcement mode).
    "guard:deny": ("guard", ("module", "kind", "addr", "size", "flags", "index", "detail")),
    # Module lifecycle.
    "module:verify": ("module", ("module", "signed", "verified")),
    "module:link": ("module", ("module", "symbol", "owner")),
    "module:load": ("module", ("module", "base", "size", "protected", "guards")),
    "module:eject": ("module", ("module", "reason")),
    "journal:rollback": ("journal", ("module", "kind", "key")),
    # Interrupts and timers.
    "irq:raise": ("irq", ("line",)),
    "irq:dispatch": ("irq", ("line", "handler", "module")),
    "irq:coalesce": ("irq", ("line",)),
    "timer:fire": ("timer", ("timer_id", "handler", "module")),
    # Core-kernel memory natives.
    "mem:kmalloc": ("mem", ("addr", "size", "module")),
    "mem:kfree": ("mem", ("addr",)),
    # NIC DMA engine (TX descriptor fetch, DD write-back, RX DMA).
    "dma:fetch": ("dma", ("index", "addr", "len")),
    "dma:writeback": ("dma", ("index",)),
    "dma:rx": ("dma", ("index", "len")),
    # Block device queue engine (doorbell ring, descriptor fetch,
    # completion write-back) — every event carries its queue id.
    "vblk:doorbell": ("vblk", ("queue", "tail")),
    "vblk:fetch": ("vblk", ("queue", "index", "sector", "len", "op")),
    "vblk:complete": ("vblk", ("queue", "index", "status")),
    # The user/kernel boundary.
    "syscall:enter": ("syscall", ("name", "bytes")),
    "syscall:exit": ("syscall", ("name", "rc", "cycles", "stalled")),
    # Catastrophes and injected faults.
    "kernel:panic": ("kernel", ("reason",)),
    "fault:inject": ("fault", ("kind", "line", "offset", "cycles", "cpu")),
    # Policy control plane (multi-tenant staged rollout).
    "cp:batch": ("cp", ("tenant", "ops", "regions")),
    "cp:stage": ("cp", ("generation", "tenant", "canary_cpus", "regions")),
    "cp:promote": ("cp", ("generation", "tenant", "canary_reads", "canary_ticks")),
    "cp:rollback": ("cp", ("generation", "tenant", "reason", "policy_ops")),
    "cp:publish_retry": ("cp", ("generation", "attempt", "backoff_us", "dropped", "stalled")),
    "cp:replica_repair": ("cp", ("cpu", "generation", "stale_generation")),
}


def describe_schema() -> str:
    """Human-readable schema dump (the ``caratkop-trace schema`` verb)."""
    lines = []
    current = None
    for name in sorted(EVENT_SCHEMA, key=lambda n: (EVENT_SCHEMA[n][0], n)):
        category, fields = EVENT_SCHEMA[name]
        if category != current:
            lines.append(f"[{category}]")
            current = category
        lines.append(f"  {name}({', '.join(fields)})")
    return "\n".join(lines) + "\n"


__all__ = ["EVENT_SCHEMA", "TraceEvent", "describe_schema"]
