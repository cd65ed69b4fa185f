"""The four end-to-end workloads, their correctness oracles, and one
repeat of a workload in the current process.

Every load is a closed loop: one simulated user issues the next op only
after the previous one returns.  An op is one call across the
syscall boundary (``sendmsg`` for the NIC stack; ``pread``, ``pwrite``
or ``fsync`` for the block stack).  The seed is the only input knob:
it fixes the frame sizes, the decoy windows toggled and the block
request streams, so the same seed replays the same inputs.

The benchmark reaches ``repro`` only through public calls:
``CaratKopSystem``, ``blast``/``blkblast``, ``PolicyManager``,
``guard_stats()`` and the device and queue objects the system exposes.
"""

from __future__ import annotations

import heapq
import random
import resource
import statistics
import struct
from array import array
from time import perf_counter

from repro import abi
from repro.core.system import CaratKopSystem, SystemConfig
from repro.kernel import layout
from repro.net.frame import make_test_frame
from repro.vblk import regs as vblk_regs

import spans

#: Figure 6's packet sizes (``repro.bench.FIG6_SIZES``).  Copied so the
#: load process does not import the bench harness, which pulls in NumPy
#: and would count it in ``peak_rss_mb``.
FIG6_SIZES = (64, 128, 256, 512, 1024, 1500)

WARMUP_OPS = 500
NET_CHUNK = 10   # frames per blast() call; one size per chunk
#: net-churn's chunk.  The first frame after a policy mutation misses
#: the flushed decision caches and takes ~1.3x as long; one toggle per
#: 5 frames makes those frames 20% of the ops, so op_p90_us falls in
#: the middle of their mode.  At one per 10 frames it fell on the edge
#: between the two modes and moved by 6-12% between runs of the same code.
CHURN_CHUNK = 5
BLK_CHUNK = 64   # requests per blkblast() call; one seed per chunk
#: The timed phase is cut into windows of at least this many ops, each
#: followed by a calibration slice that scales it.  200 ops take about
#: 30 ms: short enough to follow the host's changes of speed, long
#: enough to keep the slices at ~5% of the phase, and with 20 samples
#: beyond each window's p90.
WINDOW_OPS = 200
#: net-churn toggles one of these page-sized decoy windows after every
#: chunk.  They sit apart from the standard policy's decoys and are
#: never touched by the driver, so decisions never change.
CHURN_DECOYS = 8
CHURN_BASE = 0x3_0000_0000

#: SystemConfig per workload, on top of the r415 model and compiled engine.
CONFIGS = {
    "net-faithful": dict(driver="e1000e", opt_level=0,
                         policy_index="linear", regions=64),
    "net-verified": dict(driver="e1000e", opt_level=3,
                         policy_index="interval", regions=64),
    "net-churn": dict(driver="e1000e", opt_level=2,
                      policy_index="interval", regions=63),
    "blk-mq": dict(driver="vblk", opt_level=3, policy_index="interval",
                   regions=64, cpus=4, queues="auto"),
}


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _upper_percentile(values, q: float) -> float:
    """``_percentile(sorted(values), q)`` for q near 1, without building
    a sorted copy of every sample."""
    return heapq.nlargest(len(values) - int(q * len(values)), values)[-1]


# -- host-speed calibration ----------------------------------------------
#
# Other tenants of a shared host change its speed by up to 2x, for
# spells from a second to many minutes: longer than a whole run.  In sets
# of ten runs, the quartile spread of the unscaled host timings reached
# 10-29% of the median.  So each timed window is paired with a
# calibration slice run right after it, in the same process: fixed
# pure-Python work that does not use ``repro``.  The window's host
# timings are scaled by (CAL_REF_S / slice time) ** CAL_EXPONENT.  A
# spell slows the slice with the window and the scale cancels most of
# it (the same sets spread 2-6% scaled), while a change to the program
# leaves the slices alone.  Set-up is scaled the same way by slices run
# just before and after it.

#: One slice's time on an unloaded 2-vCPU x86-64 host under CPython
#: 3.11, the host the bounds were set on; the scale is ~1 there.
CAL_REF_S = 1.5e-3
#: The program's host time grows more slowly than the slice's when the
#: host slows: over 80 runs while the slice's time swung by 2x, fitting
#: log(program time) to log(slice time) gave exponents of 0.64 to 0.83
#: per workload.
CAL_EXPONENT = 0.7
#: Slices timed on each side of set-up.
CAL_SETUP_SLICES = 3


class _CalObj:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 0xFFFF_FFFF


_CAL_BUF = bytearray(1 << 14)


def _calibration_slice() -> float:
    """Host seconds of one slice: method calls, dict updates and buffer
    packing, the kinds of work the simulator spends its host time on,
    over 16 KB so that the slice does not evict the program's data."""
    t0 = perf_counter()
    counts = {}
    objs = [_CalObj(i, i * 7) for i in range(64)]
    buf = _CAL_BUF
    acc = 0
    for i in range(2000):
        acc = objs[i & 63].step(acc ^ i)
        k = acc & 0x3FF
        counts[k] = counts.get(k, 0) + 1
        off = (acc * 8) & 0x3FC0
        buf[off:off + 8] = struct.pack("<Q", acc)
        acc ^= struct.unpack_from("<I", buf, (off + 24) & 0x3FC0)[0]
    return perf_counter() - t0


def _host_scale(slice_s: float) -> float:
    """Host seconds measured next to a slice of ``slice_s`` -> host
    seconds at the reference speed."""
    return (CAL_REF_S / slice_s) ** CAL_EXPONENT


class Load:
    """One workload on one freshly built system.

    ``setup()`` builds the system and completes the first op;
    ``run_ops`` (warm-up) and ``run_windows`` (timed phase) drive the
    closed loop; ``failures()`` runs the oracles.  Tests use the steps
    one by one to inject faults.
    """

    def __init__(self, name: str, seed: int, recorder=None):
        self.name = name
        self.config = CONFIGS[name]
        self.rng = random.Random(seed)
        self.recorder = recorder
        self.ops = 0       # every op issued, warm-up included
        self.failed = 0    # ops whose call returned an error
        # Compact arrays: a list of floats would grow the child by ~1 MB
        # per 30,000 ops and tie peak_rss_mb to host speed.
        #: Host seconds per syscall-boundary call since the last clear.
        self.latencies = array("d")
        #: Host seconds per policy ioctl (net-churn) since the last clear.
        self.mutation_latencies = array("d")
        self.mutations = 0

    # -- set-up ----------------------------------------------------------

    def setup(self) -> float:
        """Build the system and complete the first op; returns the host
        seconds that took (oracle plumbing excluded)."""
        cfg = SystemConfig(machine="r415", engine="compiled", **self.config)
        build, first = CaratKopSystem, self._first_op
        if self.recorder is not None:
            build = self.recorder.wrap("core.boot", build)
            first = self.recorder.wrap("vm.first_op", first)
        t0 = perf_counter()
        self.system = build(cfg)
        built = perf_counter() - t0
        self._attach()
        t0 = perf_counter()
        first()
        return built + perf_counter() - t0

    def _attach(self) -> None:
        """Install the per-op clock and oracle taps on the live system."""
        self.digest = self.system.policy.index.digest()
        if self.recorder is not None:
            sym = self.system.kernel.symbols.lookup(abi.GUARD_SYMBOL)
            sym.native = self.recorder.wrap("policy.guard", sym.native)

    def _timed(self, fn):
        latencies = self.latencies

        def call(*args):
            t0 = perf_counter()
            result = fn(*args)
            latencies.append(perf_counter() - t0)
            return result

        return call

    # -- the closed loop -------------------------------------------------

    def run_ops(self, n: int) -> int:
        done = 0
        while done < n:
            done += self.step()
        return done

    def run_windows(self, seconds=None, ops=None) -> tuple[int, float, list]:
        """The timed phase: run for ``seconds`` (or ``ops`` ops) and
        return ``(ops, host seconds, windows)``, where each window is
        ``(ops, host seconds, first latency index, end latency index,
        host seconds of the calibration slice run after it)``."""
        latencies = self.latencies
        windows = []
        t0 = mark = perf_counter()
        deadline = t0 + seconds if seconds is not None else None
        done = in_window = 0
        first = len(latencies)
        while (perf_counter() < deadline) if ops is None else (done < ops):
            n = self.step()
            done += n
            in_window += n
            if in_window >= WINDOW_OPS:
                elapsed = perf_counter() - mark
                windows.append((in_window, elapsed, first, len(latencies),
                                _calibration_slice()))
                mark, in_window, first = perf_counter(), 0, len(latencies)
        return done, perf_counter() - t0, windows

    # -- oracles ---------------------------------------------------------

    def failures(self) -> list[str]:
        """Every oracle that does not hold, as a readable line."""
        out = []
        stats = self.system.guard_stats()
        if stats["denied"]:
            out.append(f"{stats['denied']} guard denials on a clean workload")
        # net-churn adds and removes a window after every chunk; no
        # workload may leave the policy changed.
        if self.system.policy.index.digest() != self.digest:
            out.append("policy digest changed over the run")
        if self.config["opt_level"] == 3:
            # A faster set-up must not come from skipping verification.
            state = self.system.driver.verify_state
            if state != "verified":
                out.append(f"-O3 driver verify_state is {state!r}")
            if not stats["guards_proven"] or (
                    stats["guards_elided"] != stats["guards_proven"]):
                out.append(f"{stats['guards_elided']} guards elided but "
                           f"{stats['guards_proven']} proven")
        return out

    # -- counters --------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Raw counters whose timed-phase deltas give the exact counts."""
        stats = self.system.guard_stats()
        timing = self.system.kernel.vm.timing
        return {
            "checks": stats["checks"],
            "cache_hits": stats["guard_cache_hits"],
            "cache_misses": stats["guard_cache_misses"],
            "comparisons": stats["comparisons"],
            "structure_checks": stats["structure_checks"],
            "publishes": self.system.policy.replica_publishes,
            "mutations": self.mutations,
            "instructions": timing.instructions,
            "cycles": timing.cycles,
            "stalls": self._stalls(),
        }


class NetLoad(Load):
    """e1000e through ``sendmsg``: chunks of ``NET_CHUNK`` frames
    (``CHURN_CHUNK`` on net-churn), each chunk's size drawn from the
    Figure 6 sizes by the seeded RNG."""

    def __init__(self, name: str, seed: int, recorder=None):
        super().__init__(name, seed, recorder)
        self.churn = name == "net-churn"
        self.chunk = CHURN_CHUNK if self.churn else NET_CHUNK
        self.octets = 0
        self.last_frame = b""

    def _attach(self) -> None:
        super()._attach()
        sock = self.system.socket
        sock.sendmsg = self._timed(sock.sendmsg)

    def _blast(self, size: int, count: int) -> None:
        result = self.system.blast(size, count)
        self.ops += count
        self.failed += result.errors
        self.octets += size * count
        self.last_frame = make_test_frame(size, count - 1).encode()

    def _first_op(self) -> None:
        self._blast(self.rng.choice(FIG6_SIZES), 1)

    def step(self) -> int:
        self._blast(self.rng.choice(FIG6_SIZES), self.chunk)
        if self.churn:
            # Add then remove a decoy window: each ioctl flushes the
            # decision caches and republishes the RCU replicas.
            base = CHURN_BASE + self.rng.randrange(CHURN_DECOYS) * layout.PAGE_SIZE
            pm = self.system.policy_manager
            for mutate in (pm.allow, pm.remove_region):
                t0 = perf_counter()
                mutate(base, layout.PAGE_SIZE)
                self.mutation_latencies.append(perf_counter() - t0)
            self.mutations += 2
        return self.chunk

    def _stalls(self) -> int:
        return self.system.socket.stalls

    def failures(self) -> list[str]:
        out = super().failures()
        sink = self.system.sink
        if sink.packets != self.ops:
            out.append(f"sink saw {sink.packets} frames, {self.ops} sent")
        if sink.octets != self.octets:
            out.append(f"sink saw {sink.octets} octets, {self.octets} sent")
        if sink.last() != self.last_frame:
            out.append("last frame on the wire differs from the last sent")
        return out


class BlkLoad(Load):
    """vblk through ``pread``/``pwrite``/``fsync``: chunks of
    ``BLK_CHUNK`` random 2-sector requests, 50% reads, a flush every 16,
    on 4 simulated CPUs with one queue pair each."""

    def _attach(self) -> None:
        super()._attach()
        queue = self.system.blkqueue
        # The shadow store: what every sector must hold, given the
        # writes that succeeded.
        self.shadow = bytearray(self.system.device.store)
        self.reads_checked = 0
        self.read_mismatches = 0
        sector_size = vblk_regs.SECTOR_SIZE
        shadow = self.shadow
        pread, pwrite = queue.pread, queue.pwrite

        def checked_pread(sector, nsect=1):
            result = pread(sector, nsect)
            if result.rc == 0:
                off = sector * sector_size
                self.reads_checked += 1
                if result.data != shadow[off:off + nsect * sector_size]:
                    self.read_mismatches += 1
            return result

        def shadowed_pwrite(sector, payload):
            result = pwrite(sector, payload)
            if result.rc == 0:
                off = sector * sector_size
                shadow[off:off + len(payload)] = payload
            return result

        queue.pread = self._timed(checked_pread)
        queue.pwrite = self._timed(shadowed_pwrite)
        queue.fsync = self._timed(queue.fsync)

    def _blkblast(self, count: int) -> None:
        result = self.system.blkblast(
            count, nsect=2, pattern="rand", seed=self.rng.getrandbits(32),
            read_frac=50, flush_interval=16,
        )
        self.ops += count
        self.failed += result.errors

    def _first_op(self) -> None:
        self._blkblast(1)

    def step(self) -> int:
        self._blkblast(BLK_CHUNK)
        return BLK_CHUNK

    def _stalls(self) -> int:
        return self.system.blkqueue.stalls

    def failures(self) -> list[str]:
        out = super().failures()
        if not self.reads_checked:
            out.append("no read was checked against the shadow store")
        if self.read_mismatches:
            out.append(f"{self.read_mismatches} of {self.reads_checked} reads "
                       "returned other data than last written")
        if self.system.device.store != self.shadow:
            out.append("final media image differs from the shadow store")
        return out


def make_load(name: str, seed: int, recorder=None) -> Load:
    cls = BlkLoad if CONFIGS[name]["driver"] == "vblk" else NetLoad
    return cls(name, seed, recorder)


def run_repeat(name: str, seed: int, *, seconds: float | None = None,
               ops: int | None = None, traced: bool = False,
               warmup: int = WARMUP_OPS) -> dict:
    """One repeat: set up, warm up, run the timed phase for ``seconds``
    (or ``ops`` ops), check the oracles.  Returns the repeat's numbers."""
    if (seconds is None) == (ops is None):
        raise ValueError("give exactly one of seconds and ops")
    recorder = spans.SpanRecorder() if traced else None
    if recorder is None:
        return _repeat(make_load(name, seed), seconds, ops, warmup)
    with spans.traced(recorder):
        return _repeat(make_load(name, seed, recorder), seconds, ops, warmup)


def _repeat(load: Load, seconds, ops, warmup) -> dict:
    _calibration_slice()  # the first call in a process runs cold
    setup_cal = [_calibration_slice() for _ in range(CAL_SETUP_SLICES)]
    setup_s = load.setup()
    setup_cal += [_calibration_slice() for _ in range(CAL_SETUP_SLICES)]
    recorder = load.recorder
    setup_nodes = recorder.take() if recorder is not None else None
    load.run_ops(warmup)
    if recorder is not None:
        recorder.take()  # warm-up spans are not reported
    del load.latencies[:]
    del load.mutation_latencies[:]
    before = load.counters()
    timed_ops, timed_s, windows = load.run_windows(seconds, ops)
    if not windows:
        raise RuntimeError(f"timed phase ended before {WINDOW_OPS} ops")
    after = load.counters()
    failures = load.failures()

    delta = {k: after[k] - before[k] for k in after}
    # Each window's host seconds -> host seconds at the reference speed.
    # Medians over windows, rather than percentiles of all the repeat's
    # ops, keep out the tails of windows that the scale corrects only in
    # part: over ten runs, op_p90_us spread 3-5% this way, 9-12% pooled.
    rates, p50s, p90s = [], [], []
    for n, s, lo, hi, cal in windows:
        scale = _host_scale(cal)
        lat = sorted(load.latencies[lo:hi])
        rates.append(n / (s * scale))
        p50s.append(_percentile(lat, 0.50) * scale)
        p90s.append(_percentile(lat, 0.90) * scale)
    median = statistics.median
    mutations = sorted(load.mutation_latencies)
    result = {
        "workload": load.name,
        "traced": recorder is not None,
        "attempted": load.ops,
        "failed": load.ops if failures else load.failed,
        "oracle_failures": failures,
        "timed_ops": timed_ops,
        "timed_s": timed_s,
        "windows": len(windows),
        "ops_per_s": median(rates),
        "op_p50_us": median(p50s) * 1e6,
        "op_p90_us": median(p90s) * 1e6,
        "setup_s": setup_s * _host_scale(median(setup_cal)),
        # Unscaled host time from here on.
        "calibration_s": median(cal for *_, cal in windows),
        "setup_calibration_s": median(setup_cal),
        "mean_ops_per_s": timed_ops / timed_s,
        "op_p99_us": _upper_percentile(load.latencies, 0.99) * 1e6,
        "mutation_p50_us": _percentile(mutations, 0.50) * 1e6 if mutations else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_ops_per_s": timed_ops / load.system.machine.seconds(delta["cycles"]),
        "counts": _counts(load, delta, timed_ops),
    }
    if recorder is not None:
        run_nodes = recorder.take()
        self_us, calls = spans.run_per_op(run_nodes, timed_ops)
        result["spans"] = {
            "build_ms": spans.build_ms(setup_nodes),
            "run_us_per_op": self_us,
            "calls_per_op": calls,
            "setup_tree": spans.tree(setup_nodes),
            "run_tree": spans.tree(run_nodes),
        }
    return result


def _counts(load: Load, delta: dict, ops: int) -> dict[str, float]:
    """Exact per-layer counts over the timed phase."""
    stats = load.system.guard_stats()
    guards = load.system.driver_compiled.guard_count
    lookups = delta["cache_hits"] + delta["cache_misses"]
    return {
        "policy.checks_per_op": delta["checks"] / ops,
        "policy.cache_hit_ratio": delta["cache_hits"] / lookups if lookups else 0.0,
        "policy.comparisons_per_structure_check": (
            delta["comparisons"] / delta["structure_checks"]
            if delta["structure_checks"] else 0.0),
        "policy.replica_publishes_per_mutation": (
            delta["publishes"] / delta["mutations"] if delta["mutations"] else 0.0),
        "vm.instructions_per_op": delta["instructions"] / ops,
        "vm.translation_cache_misses": stats["translation_cache_misses"],
        "syscall.stalls_per_op": delta["stalls"] / ops,
        "absint.proven_ratio": stats["guards_proven"] / guards if guards else 0.0,
        "kernel.verify_demotions": stats["verify_demotions"],
    }
