"""The kernel log is a fixed-size ring, like printk's ``log_buf``: a
long-running system that logs a line per policy ioctl keeps a bounded
tail instead of growing without limit."""

from repro import abi
from repro.kernel import Kernel
from repro.kernel.kernel import DMESG_LINES
from repro.policy import CaratPolicyModule, PolicyManager


def test_flood_keeps_the_newest_lines():
    kernel = Kernel()
    total = DMESG_LINES + 300
    for i in range(total):
        kernel.dmesg(f"line {i}")
    log = kernel.dmesg_log
    assert isinstance(log, list)
    assert len(log) == DMESG_LINES
    assert log[0] == f"line {total - DMESG_LINES}"
    assert log[-1] == f"line {total - 1}"
    # A copy: the caller cannot edit the ring through it.
    log.clear()
    assert len(kernel.dmesg_log) == DMESG_LINES


def test_policy_ioctl_churn_stays_bounded():
    kernel = Kernel()
    CaratPolicyModule(kernel).install()
    manager = PolicyManager(kernel)
    base = 0x4000_0000
    for i in range(DMESG_LINES + 10):
        manager.add_region(base + i * 0x1000, 0x1000, abi.FLAG_READ)
        manager.remove_region(base + i * 0x1000, 0x1000)
    log = kernel.dmesg_log
    assert len(log) == DMESG_LINES
    assert f"{base + (DMESG_LINES + 9) * 0x1000:#018x}" in log[-1]
