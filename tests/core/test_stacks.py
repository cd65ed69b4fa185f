"""The device-stack seam: both guarded stacks behind one protocol."""

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
