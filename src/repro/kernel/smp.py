"""SMP primitives: per-CPU data, a cooperative CPU scheduler, and RCU.

The paper's evaluation (§4) is one CPU hammering one e1000e; real
deployments scale out the way the Linux kernel does — per-CPU data that
is never shared, read-mostly structures replicated and read lock-free
under RCU, and writers paying for a grace period instead of readers
paying for a lock.  This module provides those three primitives for the
simulated kernel:

- :class:`PerCpu` — one slot per simulated CPU, like ``DEFINE_PER_CPU``.
- :class:`SmpTopology` — the CPU set plus a **deterministic, cooperative
  round-robin scheduler**.  There is exactly one host thread; "running on
  CPU k" means attribution (per-CPU stats, caches, trace rings), never a
  second interpreter racing the first — the model QEMU calls round-robin
  TCG.  With the default seed the interleave of a sharded workload is
  byte-identical to the single-CPU ordering, which is what lets the CI
  smoke job diff simulated state across ``--cpus 1/2/4``.
  :meth:`SmpTopology.run_sharded` is the one sharding loop both load
  tools run their streams through.
- :class:`RcuDomain` — ``rcu_read()`` read-side critical sections,
  ``synchronize()`` grace periods, and ``call_rcu()`` epoch-based
  reclamation, the read-path pattern the eBPF runtime uses for map
  access and the policy module uses here for its region-table replicas.

Nothing here spawns a thread or a process: the model buys determinism,
not host parallelism.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional, TypeVar

T = TypeVar("T")


class PerCpu(list):
    """One value per CPU — ``DEFINE_PER_CPU`` for the simulated kernel.

    Slots are built eagerly from ``factory`` (called once per CPU with
    the CPU id) so per-CPU state never aliases between CPUs.  A plain
    ``list`` underneath, so a hot-path ``slots[cpu]`` is a C-level
    subscript rather than a Python ``__getitem__`` call.
    """

    __slots__ = ()

    def __init__(self, ncpus: int, factory: Callable[[int], T]):
        if ncpus < 1:
            raise ValueError("need at least one CPU")
        super().__init__(factory(cpu) for cpu in range(ncpus))

    def items(self) -> Iterator[tuple[int, T]]:
        return enumerate(self)


class SmpTopology:
    """The simulated CPU set and its cooperative round-robin scheduler.

    ``current`` is the CPU the (single) host thread is notionally
    executing on; per-CPU consumers (policy stats, guard caches, trace
    rings) read it at their hot sites.  ``seed`` rotates the round-robin
    starting CPU — deterministic for any fixed seed; the default (0)
    makes a sharded run's global ordering identical to ``ncpus=1``.
    """

    __slots__ = ("ncpus", "seed", "current", "switches", "_rr_next")

    def __init__(self, ncpus: int = 1, seed: int = 0):
        if ncpus < 1:
            raise ValueError("need at least one CPU")
        self.ncpus = ncpus
        self.seed = seed
        self.current = seed % ncpus
        #: Context-switch count (attribution changes), for /proc and tests.
        self.switches = 0
        self._rr_next = seed % ncpus

    def cpus(self) -> range:
        return range(self.ncpus)

    def switch_to(self, cpu: int) -> int:
        """Move execution attribution to ``cpu``; returns the previous CPU."""
        if not 0 <= cpu < self.ncpus:
            raise ValueError(f"no such CPU {cpu} (ncpus={self.ncpus})")
        previous = self.current
        if cpu != previous:
            self.switches += 1
        self.current = cpu
        return previous

    @contextmanager
    def on(self, cpu: int):
        """Run a block "on" ``cpu`` (scoped :meth:`switch_to`)."""
        previous = self.switch_to(cpu)
        try:
            yield cpu
        finally:
            self.switch_to(previous)

    def next_cpu(self) -> int:
        """The scheduler's round-robin pick (advances the rotor)."""
        cpu = self._rr_next
        self._rr_next = (cpu + 1) % self.ncpus
        return cpu

    def run_sharded(self, count: int, step: Callable[[int], object]) -> None:
        """Run ``step(seq)`` for every ``seq`` in ``range(count)``.

        Seqs run in order, ``seq`` on CPU ``(seed + seq) % ncpus``: the
        stream is sharded round-robin across the CPUs starting at the
        seed CPU, and the global order is the unsharded one for any CPU
        count, the property the ``--cpus 1/2/4`` bit-identity check
        rests on.  ``current`` is restored after every step, also when
        ``step`` raises.
        """
        ncpus, seed = self.ncpus, self.seed
        for seq in range(count):
            previous = self.switch_to((seed + seq) % ncpus)
            try:
                step(seq)
            finally:
                self.switch_to(previous)


class RcuError(RuntimeError):
    """Illegal RCU usage (e.g. synchronize inside a read-side section)."""


class RcuDomain:
    """Epoch-based RCU for the cooperative SMP model.

    Readers enter cheap nestable read-side critical sections
    (:meth:`read`); writers publish a new version of the protected data,
    then call :meth:`synchronize` — which completes a **grace period** —
    before reclaiming the old version.  Reclamation can also be deferred
    with :meth:`call_rcu`: the callback runs once every CPU has passed a
    quiescent state after enqueue.

    Cooperative model: there is one host thread, so "waiting for every
    CPU to quiesce" cannot block; instead each CPU carries a quiescent
    epoch, bumped whenever it is outside any read-side section, and a
    grace period completes once every CPU's epoch has advanced past the
    grace period's start.  A ``synchronize`` issued while the *current*
    CPU holds a read lock is the classic self-deadlock and raises
    :class:`RcuError` (the real kernel would hang — we can do better).
    """

    __slots__ = ("smp", "_nesting", "_cpu_epoch", "gp_seq", "grace_periods",
                 "read_sections", "callbacks_invoked", "_callbacks")

    def __init__(self, smp: SmpTopology):
        self.smp = smp
        self._nesting = PerCpu(smp.ncpus, lambda cpu: 0)
        #: Per-CPU quiescent epoch: last grace-period sequence this CPU
        #: was observed quiescent in.
        self._cpu_epoch = PerCpu(smp.ncpus, lambda cpu: 0)
        #: Completed grace-period sequence number.
        self.gp_seq = 0
        self.grace_periods = 0
        self.read_sections = 0
        self.callbacks_invoked = 0
        #: (gp_seq_required, callback) pairs awaiting a grace period.
        self._callbacks: list[tuple[int, Callable[[], None]]] = []

    @property
    def callbacks_pending(self) -> int:  # type: ignore[override]
        return len(self._callbacks)

    # -- read side ---------------------------------------------------------

    def read_lock(self, cpu: Optional[int] = None) -> int:
        cpu = self.smp.current if cpu is None else cpu
        self._nesting[cpu] += 1
        self.read_sections += 1
        return cpu

    def read_unlock(self, cpu: Optional[int] = None) -> None:
        cpu = self.smp.current if cpu is None else cpu
        nesting = self._nesting[cpu]
        if nesting <= 0:
            raise RcuError(f"rcu_read_unlock on CPU {cpu} without a lock")
        self._nesting[cpu] = nesting - 1

    @contextmanager
    def read(self, cpu: Optional[int] = None):
        """``rcu_read_lock()`` / ``rcu_read_unlock()`` as a context."""
        cpu = self.read_lock(cpu)
        try:
            yield cpu
        finally:
            self.read_unlock(cpu)

    def in_read_section(self, cpu: Optional[int] = None) -> bool:
        cpu = self.smp.current if cpu is None else cpu
        return self._nesting[cpu] > 0

    # -- write side --------------------------------------------------------

    def synchronize(self) -> int:
        """Complete a grace period; returns the new ``gp_seq``.

        Every CPU not inside a read-side critical section quiesces
        immediately (cooperative model: an off-CPU vCPU holds no locks);
        a CPU still inside one would make the grace period unbounded —
        on the current CPU that is a guaranteed self-deadlock and raises.
        """
        if self.in_read_section():
            raise RcuError(
                "synchronize_rcu() inside an RCU read-side critical "
                "section would deadlock"
            )
        blocked = [
            cpu for cpu, n in self._nesting.items() if n > 0
        ]
        if blocked:
            raise RcuError(
                f"grace period cannot complete: CPUs {blocked} hold "
                f"read-side critical sections"
            )
        self.gp_seq += 1
        self.grace_periods += 1
        for cpu in self.smp.cpus():
            self._cpu_epoch[cpu] = self.gp_seq
        self._run_ready_callbacks()
        return self.gp_seq

    def call_rcu(self, callback: Callable[[], None]) -> None:
        """Defer ``callback`` until one full grace period has elapsed."""
        self._callbacks.append((self.gp_seq + 1, callback))

    def barrier(self) -> None:
        """``rcu_barrier()``: force a grace period and drain callbacks."""
        self.synchronize()

    def _run_ready_callbacks(self) -> None:
        ready = [cb for need, cb in self._callbacks if need <= self.gp_seq]
        if not ready:
            return
        self._callbacks = [
            (need, cb) for need, cb in self._callbacks if need > self.gp_seq
        ]
        for cb in ready:
            cb()
            self.callbacks_invoked += 1

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "grace_periods": self.grace_periods,
            "read_sections": self.read_sections,
            "callbacks_pending": len(self._callbacks),
            "callbacks_invoked": self.callbacks_invoked,
        }


__all__ = ["PerCpu", "RcuDomain", "RcuError", "SmpTopology"]
