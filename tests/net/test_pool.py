"""Process-pool pktblast: partitioning and the deterministic merge.

The wall-clock scale-out assertion lives in
``benchmarks/test_smp_scaling.py`` (it needs real cores); here we pin
the partition math and the merge semantics with in-process workers.
"""

import pytest

from repro.net import PoolResult, partition, pool_blast


class TestPartition:
    def test_even_split(self):
        assert partition(100, 4) == [25, 25, 25, 25]

    def test_remainder_goes_to_earlier_workers(self):
        assert partition(10, 3) == [4, 3, 3]
        assert partition(5, 4) == [2, 1, 1, 1]

    def test_more_workers_than_packets(self):
        assert partition(2, 4) == [1, 1, 0, 0]

    def test_total_is_preserved(self):
        for count in (0, 1, 7, 100, 999):
            for workers in (1, 2, 3, 8):
                assert sum(partition(count, workers)) == count

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            partition(10, 0)


class TestPoolBlast:
    def _blast(self, workers, count=80):
        return pool_blast(
            workers,
            size=128,
            count=count,
            config_kwargs={"machine": "r415", "protect": True},
            processes=False,  # sequential in-process: same merge math
        )

    def test_merge_accounts_for_every_packet(self):
        result = self._blast(3, count=80)
        assert isinstance(result, PoolResult)
        assert result.workers == 3
        assert result.packets_requested == 80
        assert result.packets_sent == 80
        assert result.errors == 0
        assert [w["packets_sent"] for w in result.per_worker] == [27, 27, 26]

    def test_simulated_quantities_merge_by_summation(self):
        merged = self._blast(2, count=60)
        assert merged.total_cycles == sum(
            w["total_cycles"] for w in merged.per_worker
        )
        for key, value in merged.guard_stats.items():
            assert value == sum(
                w["guard_stats"][key] for w in merged.per_worker
            )

    def test_workers_are_deterministic_replicas(self):
        """Same share => byte-identical simulated results per worker
        (each worker is its own complete system on its own clock).
        Translation-cache traffic is process-global warmth, not
        simulated state, so it is excluded from the comparison."""
        merged = self._blast(2, count=60)
        a, b = merged.per_worker

        def sim_stats(report):
            return {k: v for k, v in report["guard_stats"].items()
                    if not k.startswith("translation_")}

        assert a["packets_sent"] == b["packets_sent"] == 30
        assert a["total_cycles"] == b["total_cycles"]
        assert sim_stats(a) == sim_stats(b)

    def test_wall_pps_is_gated_by_the_straggler(self):
        # Real fan-out: the pool's wall time runs from the first blast's
        # start to the last one's end, so the slowest worker gates it.
        merged = pool_blast(
            2, size=128, count=40,
            config_kwargs={"machine": "r415", "protect": True},
            processes=True,
        )
        workers = merged.per_worker
        slowest = max(w["wall_elapsed_s"] for w in workers)
        assert merged.wall_elapsed_s == (
            max(w["wall_end_s"] for w in workers)
            - min(w["wall_start_s"] for w in workers))
        assert merged.wall_elapsed_s >= slowest
        assert merged.wall_pps == pytest.approx(40 / merged.wall_elapsed_s)

    def test_in_process_wall_time_is_the_sum_of_workers(self):
        # Sequential workers overlap nothing: their times add up, so an
        # in-process pool can never report a speedup.
        merged = self._blast(4, count=80)
        assert merged.wall_elapsed_s == sum(
            w["wall_elapsed_s"] for w in merged.per_worker)
        assert merged.wall_pps == pytest.approx(80 / merged.wall_elapsed_s)

    def test_single_worker_degenerates_to_plain_blast(self):
        merged = self._blast(1, count=25)
        assert merged.workers == 1
        assert merged.packets_sent == 25
        assert len(merged.per_worker) == 1

    def test_trace_merge(self):
        merged = pool_blast(
            2, size=128, count=30,
            config_kwargs={"machine": "r415", "protect": True},
            trace=True, processes=False,
        )
        assert merged.trace_events  # counters were recorded and summed
        for key, value in merged.trace_events.items():
            assert value == sum(
                w["trace_events"][key] for w in merged.per_worker
            )
