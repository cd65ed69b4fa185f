"""The one user/kernel syscall boundary both device stacks cross.

``RawPacketSocket.sendmsg`` and ``BlockRequestQueue.pwrite`` are driven
with a scripted driver path (a run of EBUSYs, then success) so the
boundary's own work is visible on the cycle counter: the entry charge,
the ``deschedule * attempt`` backoff, the device drain before every
retry, and the stall count.
"""

import pytest

from repro.core.system import CaratKopSystem, SystemConfig
from repro.faults import FaultInjector
from repro.kernel.chardev import EBUSY

#: stack -> (boundary, driver-path owner, its method, one call, bytes moved)
STACKS = {
    "e1000e": (lambda s: s.socket, lambda s: s.netdev, "xmit",
               lambda b: b.sendmsg(bytes(100)), 100),
    "vblk": (lambda s: s.blkqueue, lambda s: s.blkdev, "submit_write",
             lambda b: b.pwrite(0, bytes(512)), 512),
}


def _scripted(driver, busy: int, machine: str | None = "r415"):
    """A system whose driver path answers EBUSY ``busy`` times, then 0.
    Returns ``(system, boundary, call, nbytes, log)``; ``log`` records
    every driver-path call and device drain with the cycle count."""
    system = CaratKopSystem(SystemConfig(machine=machine, driver=driver))
    boundary_of, owner_of, method, call, nbytes = STACKS[driver]
    boundary = boundary_of(system)
    timing = system.kernel.vm.timing
    log = []

    def now():
        return timing.cycles if timing is not None else 0.0

    def driver_path(*args):
        log.append(("op", now()))
        return -EBUSY if sum(e == "op" for e, _ in log) <= busy else 0

    def sync():
        log.append(("sync", now()))

    setattr(owner_of(system), method, driver_path)
    system.device.sync = sync
    return system, boundary, call, nbytes, log


@pytest.mark.parametrize("driver", sorted(STACKS))
class TestBoundary:
    def test_entry_charge(self, driver):
        system, boundary, call, nbytes, log = _scripted(driver, busy=0)
        m = system.machine
        start = system.kernel.vm.timing.cycles
        result = call(boundary)
        entry = m.syscall_cycles + m.netstack_base_cycles \
            + m.per_byte_cycles * nbytes
        assert log == [("op", pytest.approx(start + entry))]
        assert result.rc == 0 and not result.stalled
        assert result.latency_cycles == pytest.approx(entry)
        assert boundary.stalls == 0

    def test_ebusy_backs_off_linearly_and_drains(self, driver):
        system, boundary, call, _, log = _scripted(driver, busy=2)
        boundary.max_retries = 3
        m = system.machine
        result = call(boundary)
        assert [e for e, _ in log] == ["op", "sync", "op", "sync", "op"]
        ops = [c for e, c in log if e == "op"]
        # Retry k sleeps deschedule * k before the device drains.
        assert ops[1] - ops[0] == pytest.approx(m.deschedule_cycles * 1)
        assert ops[2] - ops[1] == pytest.approx(m.deschedule_cycles * 2)
        assert result.rc == 0 and result.stalled
        assert boundary.stalls == 2

    def test_retries_are_bounded(self, driver):
        system, boundary, call, _, log = _scripted(driver, busy=5)
        result = call(boundary)
        assert [e for e, _ in log] == ["op", "sync", "op"]
        assert result.rc == -EBUSY and result.stalled
        assert boundary.stalls == 1

    def test_untimed_charges_nothing_but_still_drains(self, driver):
        _, boundary, call, _, log = _scripted(driver, busy=1, machine=None)
        result = call(boundary)
        assert [e for e, _ in log] == ["op", "sync", "op"]
        assert result.rc == 0 and result.stalled
        assert result.latency_cycles == 0.0
        assert boundary.stalls == 1


def test_untimed_nic_rides_out_transient_xmit_failures():
    # Every 6th xmit fails at the netdev layer; the retry after the
    # drain succeeds, and each one is counted as a stall.
    system = CaratKopSystem(SystemConfig(machine=None))
    FaultInjector(xmit_fail_period=6).attach(system)
    result = system.blast(size=128, count=60)
    assert result.stalls > 0
    assert result.errors == 0
    assert system.sink.packets == 60
