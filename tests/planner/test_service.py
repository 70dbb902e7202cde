"""PlannerService behaviour: memoization, single-flight, batching, warm starts."""

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.planner.service as service_module
from repro.bench.schemes import scheme_by_name
from repro.bench.selector import PartitioningRecommendation
from repro.bench.workloads import Workload, attention_workload
from repro.core.graph import mlp_chain
from repro.planner import PlannerService
from repro.planner.graph import GraphPlan
from repro.planner.search import SearchStats, search_partitionings
from repro.topology.machines import uniform_system

MACHINE = uniform_system(4)
SMALL = Workload("small", 96, 80, 64)


def small_service(**kwargs) -> PlannerService:
    kwargs.setdefault("replication_factors", [1, 2])
    kwargs.setdefault("stationary_options", ("B", "C"))
    return PlannerService(MACHINE, **kwargs)


class TestMemoization:
    def test_second_request_is_a_cache_hit(self):
        with small_service() as service:
            cold = service.plan(SMALL)
            warm = service.plan(SMALL)
        assert not cold.cache_hit and cold.search_stats is not None
        assert warm.cache_hit and warm.search_stats is None
        assert warm.recommendation.describe() == cold.recommendation.describe()
        stats = service.stats()
        assert stats.requests == 2
        assert stats.plans_computed == 1
        assert stats.cache_hits == 1

    def test_bucketed_shapes_share_a_plan(self):
        with small_service() as service:
            service.plan(Workload("a", 4096, 128, 128))
            response = service.plan(Workload("b", 4100, 128, 128))
        assert response.cache_hit

    def test_distinct_shapes_plan_separately(self):
        with small_service() as service:
            service.plan(Workload("a", 96, 80, 64))
            response = service.plan(Workload("b", 512, 80, 64))
        assert not response.cache_hit
        assert service.stats().plans_computed == 2

    def test_top_k_override_changes_cache_identity(self):
        with small_service() as service:
            service.plan(SMALL)
            response = service.plan(SMALL, top_k=3)
        assert not response.cache_hit
        assert len(response.recommendations) == 3

    def test_matches_direct_selector(self):
        """With bucketing disabled the service answers exactly like the search."""
        expected = search_partitionings(MACHINE, SMALL, replication_factors=[1, 2],
                                        stationary_options=("B", "C"))[0][0]
        with small_service(bucket_ratio=1.0) as service:
            got = service.plan(SMALL).recommendation
        assert (got.scheme.name, got.replication, got.stationary,
                got.percent_of_peak) == \
            (expected.scheme.name, expected.replication, expected.stationary,
             expected.percent_of_peak)

    def test_bucket_plans_are_arrival_order_independent(self):
        """Any member of a bucket gets the plan computed for the bucket corner."""
        small_first = small_service()
        large_first = small_service()
        with small_first, large_first:
            a = Workload("a", 4000, 128, 128)
            b = Workload("b", 4300, 128, 128)
            assert small_first.signature_for(a) == small_first.signature_for(b)
            plan_ab = small_first.plan(a)
            plan_ba = large_first.plan(b)
        assert plan_ab.recommendation.describe() == plan_ba.recommendation.describe()
        # The planned shape is the bucket corner: >= both members' dimensions.
        assert plan_ab.signature.m >= b.m

    def test_execution_config_changes_cache_identity(self):
        """Plans computed under different execution configs must not alias."""
        from repro.core.config import ExecutionConfig
        default = small_service()
        synchronous = small_service(
            config=ExecutionConfig.synchronous().evolve(simulate_only=True))
        with default, synchronous:
            sig_a = default.signature_for(SMALL)
            sig_b = synchronous.signature_for(SMALL)
        assert sig_a.key() != sig_b.key()

    def test_recommendation_is_buildable(self):
        with small_service() as service:
            rec = service.plan(SMALL).recommendation
        from repro.runtime.runtime import Runtime
        a, b, c = rec.build_matrices(Runtime(machine=MACHINE), SMALL, materialize=False)
        assert a.shape == (SMALL.m, SMALL.k) and c.shape == (SMALL.m, SMALL.n)


GRAPH = mlp_chain(96, 64)


def request_one(service, kind):
    """Serve the fixed request of one kind: a single op or a graph."""
    return service.plan(SMALL) if kind == "plan" else service.plan_graph(GRAPH)


REC = PartitioningRecommendation(
    scheme=scheme_by_name("column"), replication=(1, 1, 1), stationary="B",
    percent_of_peak=42.0, simulated_time=1.0, memory_per_device=1 << 20,
)


def stub_compute(monkeypatch, kind, compute):
    """Replace the kind's miss step (search or graph solve) with a stub."""
    if kind == "plan":
        def stub(*args, **kwargs):
            return compute(), SearchStats(num_candidates=1, num_simulated=1)
        monkeypatch.setattr(service_module, "search_partitionings", stub)
        return

    def graph_stub(machine, graph, **kwargs):
        recommendations = compute()
        return (GraphPlan(graph=graph, assignment=(0, 0),
                          recommendations=(recommendations[0],) * 2,
                          makespan=2.0, op_times=(1.0, 1.0),
                          edge_times=(0.0,), greedy_assignment=(0, 0),
                          greedy_makespan=2.0, method="chain_dp"),
                SearchStats(num_candidates=2, num_simulated=2))
    monkeypatch.setattr(service_module, "plan_graph_layouts", graph_stub)


@pytest.mark.parametrize("kind", ["plan", "plan_graph"])
class TestSingleFlight:
    """Both request kinds run on the one cache/single-flight path."""

    def test_concurrent_identical_requests_coalesce(self, monkeypatch, kind):
        calls = []

        def slow():
            calls.append(threading.get_ident())
            time.sleep(0.3)
            return [REC]

        stub_compute(monkeypatch, kind, slow)
        with small_service() as service:
            if kind == "plan":  # plan_many must spread its batch over the pool
                responses = service.plan_many([SMALL] * 4)
            else:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    responses = list(pool.map(
                        lambda _: request_one(service, kind), range(4)))
        assert len(calls) == 1, "identical in-flight requests must share one search"
        assert sorted(r.coalesced for r in responses) == [False, True, True, True]
        assert all(r.recommendation.percent_of_peak == 42.0 for r in responses)
        stats = service.stats()
        assert stats.plans_computed == 1
        assert stats.coalesced_requests == 3
        assert stats.requests == 4

    def test_leader_failure_propagates_to_waiters(self, monkeypatch, kind):
        def failing():
            time.sleep(0.2)
            raise RuntimeError("boom")

        stub_compute(monkeypatch, kind, failing)
        with small_service(max_workers=2) as service:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(request_one, service, kind)
                           for _ in range(2)]
                for future in futures:
                    with pytest.raises(RuntimeError, match="boom"):
                        future.result()
            # A failed flight must not poison the key: a retry plans afresh.
            monkeypatch.undo()
            assert not request_one(service, kind).cache_hit
        assert service.stats().plans_computed == 1

    def test_grace_window_serves_stale(self, kind):
        now = [1000.0]
        with small_service(cache_ttl_seconds=10.0, cache_grace_seconds=60.0,
                           clock=lambda: now[0]) as service:
            cold = request_one(service, kind)
            now[0] += 30.0  # past the TTL, inside the grace window
            stale = request_one(service, kind)
        assert stale.cache_hit and stale.stale
        assert stale.plan_age == pytest.approx(30.0)
        assert stale.recommendations == cold.recommendations
        assert service.stats().stale_hits == 1


    def test_planning_time_covers_signature(self, monkeypatch, kind):
        name = "signature_for" if kind == "plan" else "graph_signature_for"
        original = getattr(PlannerService, name)

        def slow_signature(*args, **kwargs):
            time.sleep(0.05)
            return original(*args, **kwargs)

        stub_compute(monkeypatch, kind, lambda: [REC])
        with small_service() as service:
            request_one(service, kind)
            monkeypatch.setattr(PlannerService, name, slow_signature)
            hit = request_one(service, kind)
        assert hit.cache_hit
        assert hit.planning_time >= 0.05
        assert service.stats().max_planning_time >= 0.05


class TestMixedTrafficStress:
    def test_counters_balance_under_contention(self, monkeypatch):
        """Op and graph requests on shared keys, more threads than cores and a
        short switch interval: every request is counted exactly once and every
        key is computed exactly once."""
        stub_compute(monkeypatch, "plan", lambda: [REC])
        stub_compute(monkeypatch, "plan_graph", lambda: [REC])
        workloads = [Workload(f"w{i}", 96 * (i + 1), 80, 64) for i in range(3)]
        graphs = [mlp_chain(96 * (i + 1), 64) for i in range(2)]
        requests = [("plan", w) for w in workloads] + [("plan_graph", g) for g in graphs]

        def serve(index):
            kind, subject = requests[index % len(requests)]
            if kind == "plan":
                return service.plan(subject)
            return service.plan_graph(subject)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with small_service() as service:
                with ThreadPoolExecutor(max_workers=(os.cpu_count() or 1) + 8) as pool:
                    responses = list(pool.map(serve, range(400), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(r.recommendation is REC for r in responses)
        stats = service.stats()
        assert stats.requests == 400
        assert stats.plans_computed == len(requests)
        assert stats.cache_hits + stats.coalesced_requests + stats.plans_computed == 400


class TestTopKValidation:
    @pytest.mark.parametrize("top_k", [0, -3])
    def test_plan_rejects_top_k_below_one_before_any_work(self, top_k):
        with small_service() as service:
            with pytest.raises(ValueError, match="top_k must be >= 1"):
                service.plan(SMALL, top_k=top_k)
        assert service.stats().requests == 0
        assert service.stats().plans_computed == 0
        assert service.cache_stats().size == 0

    def test_constructor_rejects_top_k_below_one(self):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            small_service(top_k=0)


class TestPlanMany:
    def test_order_preserved(self):
        workloads = [Workload(f"w{i}", 64 * (i + 1), 80, 64) for i in range(3)]
        with small_service(max_workers=3) as service:
            responses = service.plan_many(workloads)
        assert [r.signature for r in responses] == \
            [service.signature_for(w) for w in workloads]

    def test_empty_batch(self):
        with small_service() as service:
            assert service.plan_many([]) == []


class TestPersistence:
    def test_warm_start_across_service_instances(self, tmp_path):
        store = str(tmp_path / "plans.json")
        with small_service(store_path=store) as first:
            first.plan(SMALL)
            first.save_store()

        with small_service(store_path=store) as second:
            response = second.plan(SMALL)
        assert second.stats().warm_start_entries == 1
        assert response.cache_hit
        assert second.stats().plans_computed == 0

    def test_autosave_on_new_plan(self, tmp_path):
        store = str(tmp_path / "plans.json")
        with small_service(store_path=store, autosave=True) as service:
            service.plan(SMALL)
            fresh = small_service(store_path=store)
            assert fresh.stats().warm_start_entries == 1
            fresh.close()

    def test_save_without_store_path_raises(self):
        with small_service() as service:
            with pytest.raises(ValueError):
                service.save_store()


class TestStats:
    def test_pruning_counters_aggregate(self):
        with small_service() as service:
            service.plan(SMALL)
            service.plan(attention_workload(128, head_dim=32))
        stats = service.stats()
        assert stats.plans_computed == 2
        assert stats.candidates_simulated >= 2
        assert stats.candidates_simulated + stats.candidates_pruned >= stats.candidates_simulated
        assert stats.total_planning_time > 0.0

    def test_hit_rate(self):
        with small_service() as service:
            service.plan(SMALL)
            service.plan(SMALL)
            service.plan(SMALL)
        assert service.stats().hit_rate == pytest.approx(2 / 3)
        assert service.cache_stats().hits == 2
