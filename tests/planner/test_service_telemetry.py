"""In-process PlannerService telemetry: metrics, spans, request log, rollup."""

import os

import pytest

from repro.bench.workloads import Workload
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqlog import RequestLog, iter_records
from repro.obs.rollup import rollup_requests
from repro.obs.tracing import Tracer
from repro.core.graph import mlp_chain
from repro.planner import PlannerService
from repro.topology.machines import uniform_system

MACHINE = uniform_system(2)
SERVICE_OPTIONS = {"replication_factors": [1]}


def make_workload(m=96, n=80, k=64):
    return Workload(f"w{m}x{n}x{k}", m, n, k)


@pytest.fixture()
def telemetry(tmp_path):
    registry = MetricsRegistry()
    tracer = Tracer(role="svc-test")
    log = RequestLog(str(tmp_path / "requests.jsonl"))
    with PlannerService(MACHINE, metrics=registry, tracer=tracer,
                        request_log=log, **SERVICE_OPTIONS) as service:
        yield service, registry, tracer, log
    log.close()


class TestServiceMetrics:
    def test_outcome_counters_and_latency_histograms(self, telemetry):
        service, registry, _, _ = telemetry
        workload = make_workload()
        cold = service.plan(workload)
        warm = service.plan(workload)
        assert not cold.cache_hit and warm.cache_hit
        counters = registry.snapshot()["counters"]
        assert counters['repro_planner_requests_total{outcome="computed"}'] == 1.0
        assert counters['repro_planner_requests_total{outcome="hit"}'] == 1.0
        histograms = registry.snapshot()["histograms"]
        assert histograms['repro_planner_latency_seconds{outcome="computed"}']["count"] == 1
        assert histograms['repro_planner_latency_seconds{outcome="hit"}']["count"] == 1
        # Computed plans bill their search phases onto the phase counters.
        phase_seconds = {
            name: value for name, value in counters.items()
            if name.startswith("repro_search_phase_seconds_total")}
        assert phase_seconds['repro_search_phase_seconds_total{phase="simulate"}'] > 0.0

    def test_results_identical_with_and_without_telemetry(self, telemetry):
        service, _, _, _ = telemetry
        workload = make_workload(112, 64, 48)
        with PlannerService(MACHINE, **SERVICE_OPTIONS) as plain:
            reference = plain.plan(workload)
        traced = service.plan(workload)
        assert traced.recommendation.plan_key() == reference.recommendation.plan_key()
        assert traced.recommendation.simulated_time == \
            reference.recommendation.simulated_time

    def test_max_planning_time_tracks_the_slowest_request(self, telemetry):
        service, _, _, _ = telemetry
        service.plan(make_workload())
        stats = service.stats()
        assert stats.max_planning_time > 0.0
        assert stats.max_planning_time >= stats.total_planning_time / max(
            stats.plans_computed, 1) * 0.99


class TestServiceTracing:
    def test_computed_request_opens_search_phase_spans(self, telemetry):
        service, _, tracer, _ = telemetry
        service.plan(make_workload())
        spans = tracer.spans()
        names = {s.name for s in spans}
        assert {"planner.plan", "search.bound", "search.simulate"} <= names
        by_name = {s.name: s for s in spans}
        root = by_name["planner.plan"]
        assert root.parent_id is None
        assert root.attributes["outcome"] == "computed"
        # Search phases are children within the same trace.
        for name in names - {"planner.plan"}:
            assert by_name[name].trace_id == root.trace_id
        assert by_name["search.bound"].parent_id == root.span_id

    def test_cache_hit_is_a_single_span(self, telemetry):
        service, _, tracer, _ = telemetry
        workload = make_workload(104, 72, 56)
        service.plan(workload)
        tracer.clear()
        response = service.plan(workload)
        assert response.cache_hit
        (span,) = tracer.spans()
        assert span.name == "planner.plan"
        assert span.attributes["outcome"] == "hit"


class TestServiceRequestLog:
    def test_every_request_becomes_one_line(self, telemetry, tmp_path):
        service, _, _, log = telemetry
        workload = make_workload()
        service.plan(workload)
        service.plan(workload)
        records = list(iter_records(log.path))
        assert [r.outcome for r in records] == ["computed", "hit"]
        signature = service.signature_for(workload).key()
        assert all(r.signature == signature for r in records)
        assert all(r.pid == os.getpid() for r in records)
        assert records[0].phases  # computed requests carry the phase split
        assert not records[1].phases
        assert records[0].plan_age == 0.0
        assert records[1].plan_age >= 0.0
        assert all(r.trace_id for r in records)  # tracing was on


class TestAdaptiveFeedback:
    def test_rollup_counts_the_service_log(self, telemetry):
        service, _, _, log = telemetry
        hot = make_workload(96, 80, 64)
        cold = make_workload(128, 96, 32)
        for _ in range(3):
            service.plan(hot)
        service.plan(cold)

        rollup = rollup_requests(log.path)
        assert {agg.signature: agg.requests for agg in rollup.top(2)} == {
            service.signature_for(hot).key(): 3,
            service.signature_for(cold).key(): 1}

    def test_stale_serve_is_logged_as_stale_outcome(self, tmp_path):
        class Clock:
            now = 1000.0

            def __call__(self):
                return self.now

        clock = Clock()
        log = RequestLog(str(tmp_path / "requests.jsonl"))
        with PlannerService(MACHINE, request_log=log, clock=clock,
                            cache_ttl_seconds=10.0, cache_grace_seconds=60.0,
                            **SERVICE_OPTIONS) as service:
            workload = make_workload()
            service.plan(workload)
            clock.now += 15.0
            response = service.plan(workload)
            assert response.stale
        log.close()
        outcomes = [record.outcome for record in iter_records(log.path)]
        assert outcomes == ["computed", "stale"]

    def test_request_log_timestamps_use_the_injected_clock(self, tmp_path):
        """Regression: record ``ts`` must tick on the service clock, not
        wall time — fake-clock replays otherwise log timestamps the cache's
        TTL/plan-age accounting never saw."""
        class Clock:
            now = 5000.0

            def __call__(self):
                return self.now

        clock = Clock()
        log = RequestLog(str(tmp_path / "requests.jsonl"))
        with PlannerService(MACHINE, request_log=log, clock=clock,
                            **SERVICE_OPTIONS) as service:
            service.plan(make_workload())
            clock.now = 5123.0
            service.plan(make_workload())
        log.close()
        records = list(iter_records(log.path))
        assert [r.ts for r in records] == [5000.0, 5123.0]


class TestGraphPlanTelemetry:
    def test_graph_requests_share_the_serving_telemetry(self, telemetry):
        service, registry, tracer, log = telemetry
        graph = mlp_chain(96, 64)
        cold = service.plan_graph(graph)
        warm = service.plan_graph(graph)
        assert not cold.cache_hit and warm.cache_hit

        counters = registry.snapshot()["counters"]
        assert counters['repro_planner_requests_total{outcome="computed"}'] == 1.0
        assert counters['repro_planner_requests_total{outcome="hit"}'] == 1.0

        spans = [s for s in tracer.spans() if s.name == "planner.plan_graph"]
        assert [s.attributes["outcome"] for s in spans] == ["computed", "hit"]
        assert spans[0].attributes["method"] == "chain_dp"
        assert spans[0].attributes["signature"] == cold.signature.key()

        records = list(iter_records(log.path))
        assert [r.outcome for r in records] == ["computed", "hit"]
        assert all(r.workload == graph.name for r in records)
        assert all(r.signature == cold.signature.key() for r in records)
        assert records[0].phases  # computed graph plans bill search phases

    def test_graph_stats_count_requests_and_hits(self, telemetry):
        service, _, _, _ = telemetry
        graph = mlp_chain(96, 64)
        service.plan_graph(graph)
        service.plan_graph(graph)
        stats = service.stats()
        assert stats.requests == 2
        assert stats.plans_computed == 1
        assert stats.cache_hits == 1
        assert stats.candidates_simulated > 0


class _FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestStoreExpirations:
    def test_expired_store_entries_reach_the_exported_counter(self, tmp_path):
        clock = _FakeClock()
        store = str(tmp_path / "plans.json")
        options = dict(SERVICE_OPTIONS, store_path=store, cache_ttl_seconds=30.0,
                       clock=clock)
        with PlannerService(uniform_system(4), **options) as service:
            service.plan(make_workload())
            service.plan(make_workload(128, 96, 32))
            service.save_store()
        clock.now += 100.0
        registry = MetricsRegistry()
        with PlannerService(uniform_system(4), metrics=registry,
                            **options) as reopened:
            assert reopened.cache_stats().expirations == 2
            counters = registry.snapshot()["counters"]
            assert counters["repro_plan_cache_expirations_total"] == 2.0
