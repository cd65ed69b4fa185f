"""The VM-side tracer: function stacks, per-function profile, and
guard-site attribution.

Both execution engines carry an optional ``tracer`` (``None`` while
tracing is off).  When attached, the engines call:

- :meth:`VMTracer.enter_function` / :meth:`VMTracer.exit_function`
  around every IR function frame, maintaining the call stack that guard
  events capture (the substrate for folded flamegraph stacks) and
  snapshotting the engine's own counters for the per-function table
  (:class:`~repro.trace.aggregate.FunctionStats`);
- :meth:`VMTracer.on_guard` after every allowed guard check, with the
  stable callsite id, the checked access, the entries scanned, and the
  simulated guard cost.

The snapshots are exact without per-instruction hooks because both
engines flush every pending charge before a call, at every terminator,
and in the exception replay before ``finally``.  ``on_guard`` feeds the
guard-cost histogram, the per-callsite profile, the frame's guard count
and the guard-hot-page histogram unconditionally, and pushes a
``guard:check`` ring event when that tracepoint is enabled.  Nothing
here writes ``timing``: the tracer observes costs the engines already
charged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import abi

if TYPE_CHECKING:  # pragma: no cover
    from .subsystem import TraceSubsystem


def guard_site_id(module_name: str, fn_name: str, ordinal: int) -> str:
    """The stable callsite key: module, function, guard ordinal.

    The ordinal counts guard call sites in block order within the
    function (guard calls are void, so they carry no SSA name); both
    engines derive it from the same walk, so interp and compiled runs
    attribute costs to identical keys.
    """
    return f"{module_name}:@{fn_name}:g{ordinal}"


def _counters(vm) -> tuple:
    """The engine counters a frame's profile is the delta of."""
    t = vm.timing
    if t is None:
        return vm.instructions_executed, 0, 0, 0.0
    return vm.instructions_executed, t.loads, t.stores, t.cycles


class VMTracer:
    """Engine hooks feeding one :class:`TraceSubsystem`."""

    __slots__ = ("subsystem", "stack", "_frames", "_site_ids")

    def __init__(self, subsystem: "TraceSubsystem"):
        self.subsystem = subsystem
        self.stack: list[str] = []
        # Parallel to ``stack``: [row, instructions, loads, stores,
        # cycles at entry, then the callees' inclusive deltas of each].
        self._frames: list[list] = []
        # Guard instruction -> site id.  Keyed by the instruction object
        # itself (held strongly, so ids are never reused under us); the
        # interpreter resolves sites through this, the compiled engine
        # bakes the id into the closure at translate time.
        self._site_ids: dict = {}

    # -- function frames ----------------------------------------------------

    def enter_function(self, vm, name: str) -> None:
        self.stack.append(name)
        row = self.subsystem.functions.row(name)
        row.calls += 1
        self._frames.append([row, *_counters(vm), 0, 0, 0, 0.0])

    def exit_function(self, vm, name: str) -> None:
        stack = self.stack
        if not stack or stack[-1] != name:
            return
        stack.pop()
        row, i0, l0, s0, c0, ci, cl, cs, cc = self._frames.pop()
        i, l, s, c = _counters(vm)
        i, l, s, c = i - i0, l - l0, s - s0, c - c0
        row.instructions += i - ci
        row.loads += l - cl
        row.stores += s - cs
        row.cycles += c - cc
        if self._frames:
            parent = self._frames[-1]
            parent[5] += i
            parent[6] += l
            parent[7] += s
            parent[8] += c

    # -- guard checks -------------------------------------------------------

    def site_for(self, module_name: str, inst) -> str:
        """Resolve (and memoize) the callsite id for a guard instruction.

        The ordinal is the instruction's place in
        :func:`repro.abi.guard_sites`, which the compiled engine's
        translator counts too, so ids agree across engines.
        """
        site = self._site_ids.get(inst)
        if site is not None:
            return site
        fn = inst.function
        if fn is None:  # detached instruction (hand-built IR in tests)
            return guard_site_id(module_name, "?", 0)
        sites = list(abi.guard_sites(fn))
        ordinal = next((i for i, site in enumerate(sites) if site is inst),
                       len(sites))
        site = guard_site_id(module_name, fn.name, ordinal)
        self._site_ids[inst] = site
        return site

    def on_guard(self, site: str, addr: int, size: int, flags: int,
                 entries: int, cycles: float) -> None:
        sub = self.subsystem
        sub.guard_hist.record(cycles)
        sub.guard_sites.record(site, entries, cycles)
        if self._frames:
            # A guard call is counted as a guard, not an instruction.
            row = self._frames[-1][0]
            row.guards += 1
            row.instructions -= 1
        sub.functions.record_page(addr)
        tp = sub.tp_guard_check
        if tp.enabled:
            tp.emit_with_stack(
                {
                    "site": site,
                    "addr": addr,
                    "size": size,
                    "flags": flags,
                    "entries": entries,
                    "cycles": cycles,
                },
                tuple(self.stack),
            )


__all__ = ["VMTracer", "guard_site_id"]
