"""Fleet telemetry end-to-end: metrics op, cross-process traces, request logs.

One module-scoped telemetry-enabled server backs every test; counters are
cumulative across tests, so assertions are delta-based or monotone.
"""

import json
import time

import pytest

from repro.bench.workloads import Workload
from repro.core.graph import mlp_chain
from repro.obs.rollup import rollup_requests
from repro.obs.tracing import Tracer
from repro.serve import PlanClient, PlanServer
from repro.topology.machines import uniform_system

MACHINE = uniform_system(2)
SERVICE_OPTIONS = {"replication_factors": [1]}


def make_workload(m=96, n=80, k=64):
    return Workload(f"w{m}x{n}x{k}", m, n, k)


@pytest.fixture(scope="module")
def reqlog_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("reqlogs"))


@pytest.fixture(scope="module")
def server(reqlog_dir):
    with PlanServer(MACHINE, num_workers=2, service_options=SERVICE_OPTIONS,
                    enable_metrics=True, enable_tracing=True,
                    reqlog_dir=reqlog_dir) as srv:
        yield srv


def outcome_total(snapshot):
    return sum(value for name, value in snapshot["counters"].items()
               if name.startswith("repro_planner_requests_total"))


class TestMetricsOp:
    def test_worker_scrape_matches_fleet_aggregate(self, server):
        """client.metrics() (one worker) sums across connections to the
        server-side merged view — the parity check for the wire op."""
        with PlanClient(server.address) as cli:
            cli.plan(make_workload())
        merged = server.aggregate_metrics()
        with PlanClient(server.address) as first, \
                PlanClient(server.address) as second:
            # Consecutive connects round-robin: one scrape per worker.
            assert {first.ping()["worker"], second.ping()["worker"]} == {0, 1}
            per_worker = [first.metrics(), second.metrics()]
        total = sum(outcome_total(snap) for snap in per_worker)
        assert total == outcome_total(merged)
        assert total >= 1.0

    def test_aggregate_metrics_counts_every_request(self, server):
        before = outcome_total(server.aggregate_metrics())
        workload = make_workload(120, 88, 72)
        with PlanClient(server.address) as cli:
            for _ in range(3):
                cli.plan(workload)
        after = outcome_total(server.aggregate_metrics())
        assert after - before == 3.0

    def test_merged_snapshot_renders_as_prometheus(self, server):
        from repro.obs.metrics import render_prometheus

        with PlanClient(server.address) as cli:
            cli.plan(make_workload())
        text = render_prometheus(server.aggregate_metrics())
        assert "# TYPE repro_planner_requests_total counter" in text
        assert "# TYPE repro_planner_latency_seconds histogram" in text
        assert 'le="+Inf"' in text

    def test_untelemetered_server_answers_empty_snapshots(self):
        with PlanServer(MACHINE, num_workers=1,
                        service_options=SERVICE_OPTIONS) as plain:
            with PlanClient(plain.address) as cli:
                cli.plan(make_workload())
                assert cli.metrics()["counters"] == {}
            assert plain.aggregate_metrics()["counters"] == {}


class TestCrossProcessTracing:
    def test_one_request_renders_as_one_timeline(self, server):
        """The acceptance path: client -> worker -> planner -> search under
        a single trace id, Chrome-exportable."""
        tracer = Tracer(role="client")
        with PlanClient(server.address, tracer=tracer) as cli:
            response = cli.plan(make_workload(132, 96, 60))
        assert response.trace_id
        spans = tracer.spans(response.trace_id)
        names = {s.name for s in spans}
        assert {"client.plan", "worker.plan", "planner.plan",
                "search.bound", "search.simulate"} <= names
        assert {s.trace_id for s in spans} == {response.trace_id}
        assert {s.role for s in spans} == {"client", f"worker-{response.worker}"}
        by_name = {s.name: s for s in spans}
        assert by_name["worker.plan"].parent_id == by_name["client.plan"].span_id
        assert by_name["planner.plan"].parent_id == by_name["worker.plan"].span_id

        trace = tracer.chrome_trace(response.trace_id)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert all(e["args"]["trace_id"] == response.trace_id for e in slices)
        assert len({e["pid"] for e in slices}) == 2  # client + worker processes
        json.dumps(trace)  # Perfetto-loadable JSON

    def test_warm_hit_traces_without_search_spans(self, server):
        tracer = Tracer(role="client")
        workload = make_workload(144, 104, 52)
        with PlanClient(server.address, tracer=tracer) as cli:
            cli.plan(workload)
            warm = cli.plan(workload)
        if warm.cache_hit:  # same pooled connection -> same worker
            names = {s.name for s in tracer.spans(warm.trace_id)}
            assert "search.bound" not in names
            assert {"client.plan", "worker.plan", "planner.plan"} <= names
        assert warm.plan_age >= 0.0

    def test_untraced_client_against_traced_server_stays_plain(self, server):
        with PlanClient(server.address) as cli:
            response = cli.plan(make_workload())
        assert response.trace_id is None
        assert response.spans == []


class TestFleetRequestLog:
    def test_workers_log_to_private_files_and_rollup_reads_the_dir(
            self, server, reqlog_dir):
        workload = make_workload(156, 112, 44)
        with PlanClient(server.address, pool_size=4) as cli:
            for _ in range(4):
                cli.plan(workload)
        rollup = rollup_requests(reqlog_dir)
        assert rollup.records >= 4
        served = [agg for agg in rollup.signatures.values()
                  if agg.workload == workload.name]
        assert len(served) == 1
        assert served[0].requests >= 4
        assert served[0].hits >= 1  # repeats on a pinned connection hit


class TestFleetStatsExtremes:
    def test_fleet_preserves_per_worker_extremes(self, server):
        with PlanClient(server.address) as cli:
            cli.plan(make_workload(168, 120, 36))
        stats = server.aggregate_stats()
        assert stats.max_planning_time > 0.0
        assert stats.max_planning_time == max(
            w.service.max_planning_time for w in stats.workers)
        # Sums would fabricate a latency no worker saw; max must not.
        assert stats.max_planning_time < sum(
            w.service.max_planning_time for w in stats.workers) + 1e-12
        assert stats.oldest_plan_age is not None
        assert stats.oldest_plan_age >= 0.0


class TestStaleOutcomeLabel:
    @pytest.mark.parametrize("kind", ["plan", "plan_graph"])
    def test_client_span_says_stale_like_the_planner_span(self, kind):
        """A grace-window hit is labelled ``stale`` on both sides of the wire."""
        options = dict(SERVICE_OPTIONS, cache_ttl_seconds=0.05,
                       cache_grace_seconds=60.0)
        tracer = Tracer(role="client")
        with PlanServer(MACHINE, num_workers=1, service_options=options,
                        enable_tracing=True) as srv:
            with PlanClient(srv.address, tracer=tracer) as cli:
                def request():
                    if kind == "plan":
                        return cli.plan(make_workload(120, 88, 40))
                    return cli.plan_graph(mlp_chain(96, 64))

                request()
                time.sleep(0.1)  # past the TTL, inside the grace window
                stale = request()
        assert stale.cache_hit and stale.stale
        by_name = {s.name: s for s in tracer.spans(stale.trace_id)}
        assert by_name[f"planner.{kind}"].attributes["outcome"] == "stale"
        assert by_name[f"client.{kind}"].attributes["outcome"] == "stale"
