"""SMP primitives: per-CPU data, the cooperative scheduler, and RCU."""

import pytest

from repro.kernel import Kernel, PerCpu, RcuDomain, RcuError, SmpTopology


class TestPerCpu:
    def test_slots_never_alias(self):
        pc = PerCpu(4, lambda cpu: [])
        pc[0].append("x")
        assert [list(v) for v in pc] == [["x"], [], [], []]

    def test_factory_sees_cpu_id(self):
        pc = PerCpu(3, lambda cpu: cpu * 10)
        assert list(pc) == [0, 10, 20]
        assert list(pc.items()) == [(0, 0), (1, 10), (2, 20)]

    def test_len_and_setitem(self):
        pc = PerCpu(2, lambda cpu: None)
        assert len(pc) == 2
        pc[1] = "new"
        assert pc[1] == "new"

    def test_rejects_zero_cpus(self):
        with pytest.raises(ValueError):
            PerCpu(0, lambda cpu: None)


class TestSmpTopology:
    def test_default_is_single_cpu_zero(self):
        smp = SmpTopology()
        assert smp.ncpus == 1
        assert smp.current == 0
        assert smp.switches == 0

    def test_switch_to_counts_only_real_switches(self):
        smp = SmpTopology(4)
        assert smp.switch_to(2) == 0
        assert smp.current == 2
        assert smp.switches == 1
        smp.switch_to(2)  # no-op: same CPU
        assert smp.switches == 1
        with pytest.raises(ValueError):
            smp.switch_to(4)

    def test_on_restores_previous_cpu_even_on_error(self):
        smp = SmpTopology(2)
        with pytest.raises(RuntimeError):
            with smp.on(1):
                assert smp.current == 1
                raise RuntimeError("boom")
        assert smp.current == 0

    def test_next_cpu_rotates_from_seed(self):
        smp = SmpTopology(3, seed=2)
        assert [smp.next_cpu() for _ in range(5)] == [2, 0, 1, 2, 0]

    def test_round_robin_reconstructs_global_order(self):
        # Seq s runs on CPU s % ncpus and seqs run in order 0, 1, 2, ...
        # at every CPU count — the property the --cpus bit-identity
        # check rests on.  11 is a multiple of none of 2, 3 and 4.
        for ncpus in (1, 2, 3, 4):
            smp = SmpTopology(ncpus)
            seen = []
            smp.run_sharded(11, lambda seq: seen.append((smp.current, seq)))
            assert [seq for _, seq in seen] == list(range(11))
            assert all(cpu == seq % ncpus for cpu, seq in seen)
            assert smp.current == 0

    def test_round_robin_uneven_tasks(self):
        # 7 steps on 3 CPUs: CPU 0 takes one more than the others, and
        # every step off the current CPU costs one switch there and back.
        smp = SmpTopology(3)
        cpus = []
        smp.run_sharded(7, lambda seq: cpus.append(smp.current))
        assert cpus == [0, 1, 2, 0, 1, 2, 0]
        assert smp.switches == 2 * 4

    def test_seed_rotates_turn_order(self):
        smp = SmpTopology(3, seed=2)
        seen = []
        smp.run_sharded(5, lambda seq: seen.append((smp.current, seq)))
        assert seen == [(2, 0), (0, 1), (1, 2), (2, 3), (0, 4)]
        assert smp.current == 2

    def test_sharded_restores_current_when_step_raises(self):
        smp = SmpTopology(4)
        seen = []

        def step(seq):
            seen.append(seq)
            if seq == 2:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            smp.run_sharded(8, step)
        assert seen == [0, 1, 2]
        assert smp.current == 0


class TestRcu:
    def _domain(self, ncpus=2):
        return RcuDomain(SmpTopology(ncpus))

    def test_read_sections_nest(self):
        rcu = self._domain()
        with rcu.read():
            with rcu.read():
                assert rcu.in_read_section()
            assert rcu.in_read_section()
        assert not rcu.in_read_section()
        assert rcu.read_sections == 2

    def test_unlock_without_lock_raises(self):
        rcu = self._domain()
        with pytest.raises(RcuError):
            rcu.read_unlock()

    def test_synchronize_completes_grace_period(self):
        rcu = self._domain()
        seq = rcu.synchronize()
        assert seq == 1
        assert rcu.grace_periods == 1

    def test_synchronize_inside_read_section_raises(self):
        rcu = self._domain()
        with rcu.read():
            with pytest.raises(RcuError):
                rcu.synchronize()

    def test_synchronize_blocked_by_other_cpu_reader(self):
        rcu = self._domain(ncpus=2)
        rcu.read_lock(cpu=1)
        with pytest.raises(RcuError):
            rcu.synchronize()  # current CPU is 0, but CPU 1 never quiesces
        rcu.read_unlock(cpu=1)
        rcu.synchronize()

    def test_call_rcu_defers_until_grace_period(self):
        rcu = self._domain()
        freed = []
        rcu.call_rcu(lambda: freed.append("old"))
        assert freed == []
        assert rcu.callbacks_pending == 1
        rcu.synchronize()
        assert freed == ["old"]
        assert rcu.callbacks_pending == 0
        assert rcu.callbacks_invoked == 1

    def test_callback_enqueued_during_gp_waits_for_next(self):
        rcu = self._domain()
        rcu.synchronize()
        freed = []
        rcu.call_rcu(lambda: freed.append(1))
        rcu.barrier()
        assert freed == [1]

    def test_stats_shape(self):
        rcu = self._domain()
        with rcu.read():
            pass
        rcu.synchronize()
        assert rcu.stats() == {
            "grace_periods": 1,
            "read_sections": 1,
            "callbacks_pending": 0,
            "callbacks_invoked": 0,
        }


class TestKernelWiring:
    def test_kernel_defaults_to_one_cpu(self):
        kernel = Kernel()
        assert kernel.smp.ncpus == 1
        assert kernel.rcu.smp is kernel.smp

    def test_kernel_honours_ncpus_and_seed(self):
        kernel = Kernel(ncpus=4, smp_seed=3)
        assert kernel.smp.ncpus == 4
        assert kernel.smp.current == 3
        assert len(kernel.trace.rings) == 4
