"""RX-path tests: device receive engine + driver RX ring + netif_rx.

The paper's evaluation is TX-only, but a credible e1000e substrate needs
the receive side; these tests also show RX descriptor handling is guarded
exactly like TX (same loads/stores, same policy)."""

import pytest

from repro.core.system import CaratKopSystem, SystemConfig
from repro.e1000e import regs
from repro.net import make_test_frame


@pytest.fixture(
    params=[(False, 1), (True, 1), (False, 2), (True, 2)],
    ids=["baseline", "carat", "baseline-2cpu", "carat-2cpu"],
)
def system(request):
    """One system per (protected, CPUs).  On two CPUs the driver is
    still the ring's only cleaner: frames arrive in order, through the
    same guarded descriptor walk as on one."""
    protect, cpus = request.param
    return CaratKopSystem(
        SystemConfig(machine=None, protect=protect, cpus=cpus)
    )


class TestReceive:
    def test_injected_frame_reaches_stack(self, system):
        frame = make_test_frame(128, seq=5)
        assert system.netdev.inject_rx(frame) is True
        cleaned = system.netdev.poll_rx()
        assert cleaned == 1
        assert system.netdev.rx_queue == [frame.encode()]

    def test_rx_stats(self, system):
        for seq in range(5):
            system.netdev.inject_rx(make_test_frame(100, seq))
        system.netdev.poll_rx()
        stats = system.netdev.stats()
        assert stats["rx_packets"] == 5
        assert stats["rx_bytes"] == 500
        assert system.device.mmio_read(regs.GPRC, 4) == 5

    def test_poll_budget_respected(self, system):
        for seq in range(10):
            system.netdev.inject_rx(make_test_frame(64, seq))
        assert system.netdev.poll_rx(budget=4) == 4
        assert system.netdev.poll_rx(budget=100) == 6

    def test_frames_in_order_and_intact(self, system):
        frames = [make_test_frame(90, seq) for seq in range(20)]
        for f in frames:
            system.netdev.inject_rx(f)
        system.netdev.poll_rx(budget=64)
        assert system.netdev.rx_queue == [f.encode() for f in frames]

    def test_ring_wraparound(self, system):
        # More frames than the 128-entry RX ring, polled in batches.
        total = 300
        delivered = 0
        for seq in range(total):
            assert system.netdev.inject_rx(make_test_frame(64, seq))
            if seq % 50 == 49:
                delivered += system.netdev.poll_rx(budget=64)
        delivered += system.netdev.poll_rx(budget=128)
        assert delivered == total
        assert len(system.netdev.rx_queue) == total

    def test_ring_exhaustion_drops_with_mpc(self, system):
        # Fill the ring without polling: 127 descriptors available.
        accepted = 0
        for seq in range(200):
            if system.netdev.inject_rx(make_test_frame(64, seq)):
                accepted += 1
        assert accepted == 127  # RX_ENTRIES - 1 (the classic gap)
        assert system.device.mmio_read(regs.MPC, 4) == 200 - 127
        # Poll, recycle, and the ring accepts again.
        assert system.netdev.poll_rx(budget=128) == 127
        assert system.netdev.inject_rx(make_test_frame(64, 999)) is True

    def test_oversize_frame_dropped(self, system):
        assert system.netdev.inject_rx(b"\x00" * 2049) is False
        assert system.device.mmio_read(regs.MPC, 4) == 1

    def test_rx_disabled_after_remove(self, system):
        system.netdev.remove()
        assert system.netdev.inject_rx(make_test_frame(64, 0)) is False

    def test_empty_poll_returns_zero(self, system):
        assert system.netdev.poll_rx() == 0


class TestRxGuarding:
    def test_rx_path_is_guarded(self):
        carat = CaratKopSystem(SystemConfig(machine=None, protect=True))
        checks_before = carat.guard_stats()["checks"]
        carat.netdev.inject_rx(make_test_frame(128, 0))  # device DMA only
        dma_checks = carat.guard_stats()["checks"] - checks_before
        assert dma_checks == 0  # the DMA write is unguarded by design
        carat.netdev.poll_rx()  # the driver's descriptor walk IS guarded
        assert carat.guard_stats()["checks"] > checks_before

    def test_rx_deny_policy_panics_on_poll(self):
        from repro.kernel import KernelPanic

        system = CaratKopSystem(SystemConfig(machine=None, protect=True))
        system.netdev.inject_rx(make_test_frame(128, 0))
        system.policy_manager.clear()
        system.policy_manager.set_default(False)
        with pytest.raises(KernelPanic):
            system.netdev.poll_rx()

    def test_loopback_roundtrip(self, system):
        """TX then 'wire loopback' into RX: bytes survive both DMA paths."""
        frame = make_test_frame(200, 42)
        assert system.netdev.xmit(frame) == 0
        wire = system.sink.last()
        assert system.netdev.inject_rx(wire)
        system.netdev.poll_rx()
        assert system.netdev.rx_queue[-1] == frame.encode()
