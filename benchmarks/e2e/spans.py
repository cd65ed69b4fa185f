"""Outside-in layer spans for the traced repeat.

The benchmark does not change ``repro``: it times layers by replacing
public entry points (class methods, module functions, the ``carat_guard``
symbol's native) with wrappers for the life of one traced repeat, then
restores them.  A wrapper pushes a span on a stack, so every span knows
its parent, and a layer's self time is its duration minus the time of
the spans it called.  Spans are aggregated by call path rather than
stored one by one: a traced repeat issues millions of them.

Spans inside the program (static-key tracepoints that cost nothing when
off) are a later change; these wrappers cost ~0.5 us per span, which is
why end-to-end metrics come from untraced repeats only and the traced
repeat reports its own slowdown as ``trace.overhead_pct``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

#: Spans that make up set-up (``CaratKopSystem(...)`` to the first
#: completed op).  Run-path spans that fire during set-up (init_module
#: and probe run module code) are folded into the nearest enclosing one
#: of these, so the build metrics partition ``setup_s`` exactly.
BUILD_LAYERS = (
    "core.boot",
    "minicc.compile",
    "passes.run",
    "absint.compile",
    "absint.insmod",
    "signing.sign",
    "kernel.insmod",
    "e1000e.probe",
    "vblk.probe",
    "vm.first_op",
)

#: Spans of the timed phase, reported as self time per op.
RUN_LAYERS = (
    "tool.blast",
    "net.sendmsg",
    "vblk.syscall",
    "e1000e.xmit",
    "vblk.blkdev",
    "vm.run_function",
    "policy.guard",
    "e1000e.mmio",
    "vblk.mmio",
    "policy.ioctl",
    "kernel.rcu_sync",
)


class SpanRecorder:
    """Nested spans aggregated by call path.

    ``nodes`` maps a path (tuple of span names, root first) to
    ``[count, total_s, self_s]``.
    """

    def __init__(self) -> None:
        self.nodes: dict[tuple, list] = {}
        self._stack: list[list] = []  # [path, seconds spent in children]

    def wrap(self, name, fn):
        """Return ``fn`` wrapped in a span.  ``name`` is a string, or a
        callable that picks the name from the parent's path."""
        stack = self._stack

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else ()
            label = name if isinstance(name, str) else name(parent)
            frame = [parent + (label,), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                node = self.nodes.get(frame[0])
                if node is None:
                    node = self.nodes[frame[0]] = [0, 0.0, 0.0]
                node[0] += 1
                node[1] += dt
                node[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return span

    def take(self) -> dict[tuple, list]:
        """Hand over the spans recorded so far and start afresh."""
        nodes, self.nodes = self.nodes, {}
        return nodes


def _absint_name(parent: tuple) -> str:
    # One verifier class serves both the compiler (-O3 proof) and insmod
    # (the kernel re-deriving the proof); the caller tells them apart.
    return "absint.insmod" if "kernel.insmod" in parent else "absint.compile"


def _entry_points() -> list[tuple[object, str, object]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro.core import pipeline
    from repro.core.system import CaratKopSystem
    from repro.e1000e.device import E1000EDevice
    from repro.e1000e.netdev import E1000ENetDev
    from repro.kernel.kernel import Kernel
    from repro.kernel.module_loader import ModuleLoader
    from repro.kernel.smp import RcuDomain
    from repro.net.syscalls import RawPacketSocket
    from repro.passes import PassManager
    from repro.passes.absint import ModuleVerifier
    from repro.policy import PolicyManager
    from repro.vblk.blkdev import BlockRequestQueue, VblkBlockDev
    from repro.vblk.device import VblkDevice

    return [
        (pipeline, "compile_source", "minicc.compile"),
        (PassManager, "run", "passes.run"),
        (ModuleVerifier, "run", _absint_name),
        (pipeline, "sign_module", "signing.sign"),
        (ModuleLoader, "insmod", "kernel.insmod"),
        (E1000ENetDev, "probe", "e1000e.probe"),
        (VblkBlockDev, "probe", "vblk.probe"),
        (CaratKopSystem, "blast", "tool.blast"),
        (CaratKopSystem, "blkblast", "tool.blast"),
        (RawPacketSocket, "sendmsg", "net.sendmsg"),
        (BlockRequestQueue, "pread", "vblk.syscall"),
        (BlockRequestQueue, "pwrite", "vblk.syscall"),
        (BlockRequestQueue, "fsync", "vblk.syscall"),
        (E1000ENetDev, "xmit", "e1000e.xmit"),
        (VblkBlockDev, "submit_read", "vblk.blkdev"),
        (VblkBlockDev, "submit_write", "vblk.blkdev"),
        (VblkBlockDev, "flush", "vblk.blkdev"),
        (Kernel, "run_function", "vm.run_function"),
        (E1000EDevice, "mmio_read", "e1000e.mmio"),
        (E1000EDevice, "mmio_write", "e1000e.mmio"),
        (VblkDevice, "mmio_read", "vblk.mmio"),
        (VblkDevice, "mmio_write", "vblk.mmio"),
        (PolicyManager, "add_region", "policy.ioctl"),
        (PolicyManager, "remove_region", "policy.ioctl"),
        (RcuDomain, "synchronize", "kernel.rcu_sync"),
    ]


@contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every entry point in ``recorder``'s spans; restore on exit.

    Must be entered before the system is built, so objects that bind
    methods at construction bind the wrappers."""
    saved = []
    try:
        for owner, attr, name in _entry_points():
            original = vars(owner)[attr]
            setattr(owner, attr, recorder.wrap(name, original))
            saved.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def build_ms(nodes: dict[tuple, list]) -> dict[str, float]:
    """Set-up time per build layer, in ms; other spans fold into their
    nearest build-layer ancestor."""
    out = dict.fromkeys(BUILD_LAYERS, 0.0)
    for path, (_, _, self_s) in nodes.items():
        owner = next((n for n in reversed(path) if n in out), None)
        if owner is not None:
            out[owner] += self_s * 1e3
    return out


def run_per_op(nodes: dict[tuple, list], ops: int) -> tuple[dict[str, float], dict[str, float]]:
    """``(self us per op, calls per op)`` per run layer."""
    self_us = dict.fromkeys(RUN_LAYERS, 0.0)
    calls = dict.fromkeys(RUN_LAYERS, 0.0)
    for path, (count, _, self_s) in nodes.items():
        if path[-1] in self_us:
            self_us[path[-1]] += self_s * 1e6 / ops
            calls[path[-1]] += count / ops
    return self_us, calls


def tree(nodes: dict[tuple, list]) -> list[dict]:
    """The span tree as JSON rows, parents before children."""
    return [
        {"path": "/".join(path), "count": count,
         "total_ms": round(total * 1e3, 4), "self_ms": round(self_s * 1e3, 4)}
        for path, (count, total, self_s) in sorted(nodes.items())
    ]
