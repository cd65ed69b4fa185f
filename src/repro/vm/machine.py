"""Machine cost models for the two testbeds (paper §4.2).

The paper's two machines:

- **R415** — "outdated Dell R415, dual 2.2 GHz AMD 4122 (4 cores, 256 KB
  L1, 2 MB L2, 6 MB L3), 16 GB DRAM".
- **R350** — "current Dell R350, 2.8 GHz Intel Xeon E-2378G (8 cores /
  16 threads, 256 KB L1, 2 MB L2, 16 MB L3), 32 GB DRAM".

The observation the models encode (paper §4.2): "We speculate that the
reduced impact on the newer machine is due to a combination of improved
caching, branch prediction, and speculation.  In the common case, the
control flow path for guards introduced by CARAT KOP is incredibly
predictable."  So the *visible* (retired-pipeline) cost of a guard is a
machine property: a fixed front-end cost plus a per-scanned-region-entry
cost, both near zero on the modern core and noticeably larger on the old
one.  Absolute cycle numbers are calibrated to land the figures in the
paper's ranges; the machine-to-machine and parameter-to-parameter *ratios*
are what the reproduction claims.

The simulated clock counts whole **centicycles** (hundredths of a cycle,
DESIGN.md §7b), so both engines add integers and no sum depends on its
order.  Every cost of a model is declared in cycles and converted once,
when the model is built, into its :class:`Centicycles` table; a cost
that is not a whole number of centicycles is refused there.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _default_op_cycles() -> dict[str, float]:
    return {
        "binop": 1.0,
        "icmp": 1.0,
        "fcmp": 2.0,
        "cast": 0.15,  # mostly register renames / folded address forms
        "gep": 0.5,
        "select": 1.0,
        "load": 4.0,     # L1-hit latency, amortized
        "store": 1.0,    # store-buffer absorbed
        "br": 0.5,
        "switch": 2.0,
        "phi": 0.0,      # register renaming, free
        "call": 2.0,
        "ret": 2.0,
        "alloca": 0.5,
        "asm": 0.0,
        "unreachable": 0.0,
    }


def centicycles(cycles: float, what: str = "cost") -> int:
    """``cycles`` as a whole number of centicycles; refuses a cost that
    has a finer fraction (``repr`` noise of a product such as
    ``0.15 * 1.6`` is not a fraction)."""
    cc = round(cycles * 100)
    if abs(cycles * 100 - cc) > 1e-6:
        raise ValueError(
            f"{what} of {cycles!r} cycles is not a whole number of "
            "centicycles")
    return cc


#: The cycle-cost fields of :class:`MachineModel`, converted into its
#: :class:`Centicycles` table (the other fields are rates and shapes).
_COST_FIELDS = (
    "guard_base", "guard_entry", "syscall", "netstack_base", "per_byte",
    "deschedule", "mmio_read", "mmio_write", "userspace_per_packet",
)


@dataclass(frozen=True)
class Centicycles:
    """One machine's costs in centicycles, the unit of the clock."""

    ops: dict
    guard_base: int
    guard_entry: int
    syscall: int
    netstack_base: int
    per_byte: int
    deschedule: int
    mmio_read: int
    mmio_write: int
    userspace_per_packet: int

    def op(self, opcode: str) -> int:
        return self.ops.get(opcode, 100)

    def guard(self, entries_scanned: int) -> int:
        return self.guard_base + self.guard_entry * entries_scanned


@dataclass
class MachineModel:
    """Cycle costs of one testbed machine."""

    name: str
    freq_hz: float
    #: Visible per-executed-IR-op cost (superscalar-adjusted).
    op_cycles: dict[str, float] = field(default_factory=_default_op_cycles)
    #: Retired cost of a guard call itself (call + flag checks), after
    #: branch prediction and speculation hide the predictable path.
    guard_base_cycles: float = 1.0
    #: Additional visible cost per region-table entry scanned.
    guard_entry_cycles: float = 0.25
    #: sendmsg() syscall entry/exit as seen from user space.
    syscall_cycles: float = 420.0
    #: Core network stack traversal per packet (socket, qdisc, skb).
    netstack_base_cycles: float = 140.0
    #: Per-payload-byte cost (copy_from_user + checksum touches).
    per_byte_cycles: float = 0.35
    #: Log-normal jitter applied per packet (sigma in log space).
    jitter_sigma: float = 0.012
    #: Cost of being descheduled when the TX ring is full (paper §4.2:
    #: outliers "in excess of 10 million cycles").
    deschedule_cycles: float = 11_000_000.0
    #: MMIO register access (uncached PCIe round trip, write-posted).
    mmio_read_cycles: float = 300.0
    mmio_write_cycles: float = 60.0
    #: Per-iteration cost of the user-level test tool outside the
    #: sendmsg() window (buffer prep, libc, loop) — this is what pins the
    #: absolute packets/sec near the paper's 105k-130k range.
    userspace_per_packet_cycles: float = 23_600.0
    #: Trial-to-trial throughput spread (log-sigma): system noise across
    #: runs — frequency scaling, interrupts, cache state.  This is what
    #: gives the Figure 3/4 CDFs their width.
    trial_sigma: float = 0.055
    #: Mean scheduler-stall events per 100k-packet trial, affecting both
    #: techniques equally ("outliers ... occur when the ring is full and
    #: the test application is descheduled", §4.2).
    base_stalls_per_100k: float = 0.5
    #: Figure 6 burst model (mean-slowdown experiment ONLY — see
    #: EXPERIMENTS.md): probability that a *carat* trial at small packet
    #: size suffers a stall burst, and the burst's mean size.
    burst_probability_amplitude: float = 0.71
    burst_size_scale_bytes: float = 80.0
    burst_mean_stalls: float = 16.0

    def __post_init__(self) -> None:
        #: Every cost above in centicycles (see :class:`Centicycles`).
        self.centi = Centicycles(
            ops={op: centicycles(c, f"op {op!r}")
                 for op, c in self.op_cycles.items()},
            **{name: centicycles(getattr(self, f"{name}_cycles"), name)
               for name in _COST_FIELDS},
        )

    def op_cost(self, opcode: str) -> float:
        return self.op_cycles.get(opcode, 1.0)

    def guard_cost(self, entries_scanned: int) -> float:
        """Visible cycles of one guard with an n-entry policy scan."""
        return self.guard_base_cycles + self.guard_entry_cycles * entries_scanned

    def seconds(self, cycles: float) -> float:
        return cycles / self.freq_hz

    def cycles_for_us(self, usec: float) -> float:
        return usec * 1e-6 * self.freq_hz

    def centicycles_for_us(self, usec: float) -> int:
        """A delay in centicycles, rounded once."""
        return round(self.cycles_for_us(usec) * 100)


def r415() -> MachineModel:
    """The slow AMD 4122 box: weaker prediction, slower caches."""
    ops = _default_op_cycles()
    # Older core: narrower issue, slower L1, weaker predictor.
    for k in ops:
        ops[k] *= 1.6
    ops["load"] = 7.0
    return MachineModel(
        name="R415 (2x AMD 4122, 2.2 GHz)",
        freq_hz=2.2e9,
        op_cycles=ops,
        guard_base_cycles=3.0,
        guard_entry_cycles=1.1,
        syscall_cycles=700.0,
        netstack_base_cycles=260.0,
        per_byte_cycles=0.55,
        jitter_sigma=0.02,
        deschedule_cycles=12_000_000.0,
        mmio_read_cycles=420.0,
        mmio_write_cycles=90.0,
        userspace_per_packet_cycles=16_600.0,
        trial_sigma=0.035,
        base_stalls_per_100k=0.7,
    )


def r350() -> MachineModel:
    """The fast Xeon E-2378G box: guards nearly vanish in the pipeline."""
    return MachineModel(
        name="R350 (Xeon E-2378G, 2.8 GHz)",
        freq_hz=2.8e9,
        guard_base_cycles=0.12,
        guard_entry_cycles=0.05,
        syscall_cycles=300.0,
        netstack_base_cycles=110.0,
        per_byte_cycles=0.35,
        jitter_sigma=0.012,
        deschedule_cycles=11_000_000.0,
        mmio_read_cycles=300.0,
        mmio_write_cycles=60.0,
    )


MACHINES = {"r415": r415, "r350": r350}


def get_machine(name: str) -> MachineModel:
    try:
        return MACHINES[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown machine {name!r}; have {sorted(MACHINES)}")


__all__ = [
    "Centicycles", "MACHINES", "MachineModel", "centicycles", "get_machine",
    "r350", "r415",
]
