"""The device-stack seam: both guarded stacks behind one protocol, on
one kernel or each on its own."""

import hashlib

import pytest

from repro.cli import blkblast_main, pktblast_main
from repro.core.stacks import STACKS, BlkStack, NetStack
from repro.core.system import CaratKopSystem, SystemConfig

WORKLOAD = {"e1000e": {"size": 128}, "vblk": {"pattern": "rand"}}


def test_stacks_are_keyed_by_driver_name():
    assert STACKS == {"e1000e": NetStack, "vblk": BlkStack}


def test_unknown_driver_rejected():
    with pytest.raises(ValueError, match="unknown driver"):
        CaratKopSystem(SystemConfig(machine=None, driver="floppy"))
    with pytest.raises(ValueError, match="unknown driver"):
        CaratKopSystem(SystemConfig(machine=None, driver=("vblk", "floppy")))
    with pytest.raises(ValueError, match="twice"):
        CaratKopSystem(SystemConfig(machine=None, driver=("vblk", "vblk")))


def _fixed_blasts(driver) -> dict:
    """Sink and media state after the same blasts, whichever stacks
    share the kernel."""
    system = CaratKopSystem(SystemConfig(machine=None, driver=driver))
    names = [stack.name for stack in system.stacks]
    out = {}
    for step in range(2):
        if "e1000e" in names:
            assert system.blast(size=128 + 512 * step, count=30).errors == 0
        if "vblk" in names:
            assert system.blkblast(count=40, pattern="rand",
                                   seed=step + 3).errors == 0
    if "e1000e" in names:
        out["frames"], out["octets"] = system.sink.packets, system.sink.octets
    if "vblk" in names:
        blk = system.stacks[names.index("vblk")]
        out["store"] = hashlib.sha256(blk.device.store).hexdigest()
    return out


def test_stacks_on_one_kernel_do_not_interfere():
    both = CaratKopSystem(SystemConfig(machine=None,
                                       driver=("e1000e", "vblk")))
    assert both.kernel.lsmod() == ["e1000e", "vblk"]
    assert both.socket is both.stacks[0].socket
    assert both.blkqueue is both.stacks[1].blkqueue
    assert _fixed_blasts(("e1000e", "vblk")) == {
        **_fixed_blasts("e1000e"), **_fixed_blasts("vblk")}


@pytest.mark.parametrize("driver", sorted(STACKS))
def test_workload_delivers_and_drains(driver):
    system = CaratKopSystem(SystemConfig(machine=None, driver=driver))
    stack = system.stack
    assert system.kernel.lsmod() == [stack.name]
    before = stack.delivered()
    result = stack.workload(12, **WORKLOAD[driver])
    assert result.errors == 0
    assert stack.delivered() - before == 12
    assert stack.stranded() == []
    assert stack.describe(result)[0].startswith("12/12 ")


@pytest.mark.parametrize("driver", sorted(STACKS))
def test_reload_after_eject_rebuilds_the_glue(driver):
    """Eject the driver itself, lift its quarantine, reload: the stack
    re-probes fresh glue on the new module and moves data again."""
    system = CaratKopSystem(SystemConfig(machine=None, driver=driver,
                                         enforce_mode="eject"))
    stack = system.stack
    old_driver = system.driver
    system.stack.workload(4, **WORKLOAD[driver])
    system.kernel.eject(stack.name)
    assert stack.name not in system.kernel.lsmod()
    assert system.policy_manager.unquarantine(stack.name)
    new_driver = system.reload_driver()
    assert new_driver is not old_driver and system.driver is new_driver
    before = stack.delivered()
    assert stack.workload(8, **WORKLOAD[driver]).errors == 0
    assert stack.delivered() - before == 8


def test_glue_reachable_on_the_system():
    net = CaratKopSystem(SystemConfig(machine=None))
    assert net.socket is net.stack.socket and net.sink is net.stack.sink
    blk = CaratKopSystem(SystemConfig(machine=None, driver="vblk", cpus=2,
                                      queues="auto"))
    assert blk.blkqueue is blk.stack.blkqueue
    assert blk.blkdev.queues == 2
    with pytest.raises(AttributeError):
        blk.socket


def test_soak_runs_one_cycle_body_per_stack():
    from repro.faults import run_soak

    report = run_soak(cycles=2, machine=None, blast_count=5, blk_count=6)
    assert report["delivered_frames"] == 10
    vblk = report["vblk"]
    assert vblk["ejections"] == 2 and vblk["delivered_ops"] == 12
    assert vblk["leaked_bytes_total"] == 0
    assert [c["rc"] for c in vblk["per_cycle"]] == [-14, -14]


def test_one_kernel_soak_leaves_every_driver_whole(monkeypatch):
    """The soak builds one system for both stacks.  After each hostile
    ejection both drivers are resident, their journals and the kernel's
    kmalloc totals are as before the hostile insmod, and each stack's
    device then completes exactly its recovery blast."""
    from repro.faults import run_soak, soak
    from repro.kernel.kernel import Kernel

    built = []

    class Recorded(CaratKopSystem):
        def __init__(self, config):
            super().__init__(config)
            built.append(self)

    events = []
    real_insmod, real_eject = Kernel.insmod, Kernel.eject

    def state(kernel):
        (system,) = built
        return {
            "lsmod": kernel.lsmod(),
            "journals": [kernel.journal.depth_by_kind(stack.name)
                         for stack in system.stacks],
            "kmalloc": kernel.kmalloc_allocator.snapshot(),
            "delivered": [stack.delivered() for stack in system.stacks],
        }

    def insmod(self, compiled):
        if compiled.name == soak.HOSTILE_NAME:
            events.append(("insmod", state(self)))
        return real_insmod(self, compiled)

    def eject(self, name, reason="policy violation"):
        summary = real_eject(self, name, reason)
        if name == soak.HOSTILE_NAME:
            events.append(("eject", state(self)))
        return summary

    monkeypatch.setattr(soak, "CaratKopSystem", Recorded)
    monkeypatch.setattr(Kernel, "insmod", insmod)
    monkeypatch.setattr(Kernel, "eject", eject)
    cycles, counts = 4, [5, 6]
    report = run_soak(cycles=cycles, blast_count=counts[0],
                      blk_count=counts[1])

    assert len(built) == 1 and len(built[0].stacks) == 2
    arcs = [(before, after) for (kind, before), (next_kind, after)
            in zip(events, events[1:]) if (kind, next_kind) == (
                "insmod", "eject")]
    assert len(arcs) == cycles
    for before, after in arcs:
        assert after["lsmod"] == ["e1000e", "vblk"]
        assert after["journals"] == before["journals"]
        assert after["kmalloc"] == before["kmalloc"]
    starts = [before["delivered"] for before, _ in arcs]
    for prev, cur in zip(starts, starts[1:]):
        assert [b - a for a, b in zip(prev, cur)] == counts
    for part, count in ((report, counts[0]), (report["vblk"], counts[1])):
        assert [c["delivered"] for c in part["per_cycle"]] == [count] * cycles


def test_short_soak_fires_every_scheduled_fault():
    from repro.faults import run_soak
    from repro.faults.injector import KINDS
    from repro.faults.soak import BLK_FAULTS, NET_FAULTS

    report = run_soak(cycles=7)
    tally = dict(KINDS.values())  # schedule keyword -> report key
    assert [option for option in {**NET_FAULTS, **BLK_FAULTS}
            if report["injector"][tally[option]] == 0] == []


def test_timed_soak_waits_for_the_block_device_to_drain():
    """On a machine clock the last requests of a recovery blast are
    still on the media when it returns; the drain audit must idle until
    they complete rather than report them stranded."""
    from repro.faults import run_soak

    report = run_soak(cycles=2, machine="r350", blast_count=5, blk_count=16)
    assert report["cycles_completed"] == 2
    assert report["vblk"]["delivered_ops"] == 32


@pytest.mark.parametrize("main, argv", [
    (pktblast_main, ["--count", "20"]),
    (blkblast_main, ["--count", "20", "--pattern", "rand"]),
])
def test_blast_tools_share_flags_and_report(main, argv, capsys):
    shared = ["--machine", "r415", "--engine", "interp", "--opt-level", "3",
              "--policy-index", "linear", "--cpus", "2", "--smp-seed", "1",
              "--enforce-mode", "eject", "--verify-policy", "strict",
              "--regions", "4", "--latency"]
    assert main(argv + shared) == 0
    out = capsys.readouterr().out
    assert out.startswith("carat: 20/20 ")
    assert "latency: median" in out
    assert "guards:" in out and "0 denied" in out
