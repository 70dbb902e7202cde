"""Unit tests for cross-worker stats aggregation."""

import pytest

from repro.planner.cache import CacheStats
from repro.planner.service import ServiceStats
from repro.serve.protocol import ProtocolError
from repro.serve.stats import ServerStats, WorkerStats, aggregate_service_stats


def snap(worker, requests=0, hits=0, planned=0, simulated=0, pruned=0):
    return WorkerStats(
        worker=worker,
        pid=1000 + worker,
        service=ServiceStats(requests=requests, cache_hits=hits,
                             plans_computed=planned,
                             candidates_simulated=simulated,
                             candidates_pruned=pruned),
        cache=CacheStats(size=planned, capacity=256),
    )


class TestAggregation:
    def test_totals_sum_every_counter(self):
        total = aggregate_service_stats([
            ServiceStats(requests=10, cache_hits=7, plans_computed=3,
                         coalesced_requests=1, candidates_simulated=20,
                         candidates_pruned=40, total_planning_time=1.5,
                         warm_start_entries=2),
            ServiceStats(requests=5, cache_hits=4, plans_computed=1,
                         candidates_simulated=6, candidates_pruned=12,
                         total_planning_time=0.5),
        ])
        assert total.requests == 15
        assert total.cache_hits == 11
        assert total.plans_computed == 4
        assert total.coalesced_requests == 1
        assert total.candidates_simulated == 26
        assert total.candidates_pruned == 52
        assert total.total_planning_time == 2.0
        assert total.warm_start_entries == 2
        assert total.hit_rate == 11 / 15

    def test_server_stats_orders_and_counts_workers(self):
        stats = ServerStats.from_workers([snap(1, requests=4, hits=4),
                                          snap(0, requests=6, hits=2, planned=1)])
        assert [w.worker for w in stats.workers] == [0, 1]
        assert stats.num_workers == 2
        assert stats.workers_with_requests == 2
        assert stats.workers_with_hits == 2
        assert stats.totals.requests == 10

    def test_idle_workers_do_not_count_as_serving(self):
        stats = ServerStats.from_workers([snap(0, requests=3, hits=0, planned=3),
                                          snap(1)])
        assert stats.workers_with_requests == 1
        assert stats.workers_with_hits == 0

    def test_describe_mentions_every_worker_and_the_fleet(self):
        text = ServerStats.from_workers([snap(0, requests=2, hits=1),
                                         snap(1, requests=2, hits=2)]).describe()
        assert "worker 0" in text and "worker 1" in text
        assert "fleet (2 workers): 4 requests" in text


class TestSerialization:
    def test_worker_stats_roundtrip(self):
        original = snap(2, requests=9, hits=5, planned=2, simulated=11, pruned=13)
        restored = WorkerStats.from_dict(original.to_dict())
        assert restored == original

    @pytest.mark.parametrize("section", ["service", "cache"])
    def test_unknown_counter_fields_are_rejected(self, section):
        payload = snap(0, requests=1).to_dict()
        payload[section]["counter_from_the_future"] = 99
        with pytest.raises(ProtocolError, match="counter_from_the_future"):
            WorkerStats.from_dict(payload)

    @pytest.mark.parametrize("key", ["worker", "pid", "service", "cache"])
    def test_missing_fields_are_rejected(self, key):
        payload = snap(0, requests=1).to_dict()
        del payload[key]
        with pytest.raises(ProtocolError, match=key):
            WorkerStats.from_dict(payload)
