"""End-to-end tests: forked PlanServer fleet + pooled PlanClient.

A module-scoped two-worker server (tiny machine, tiny search space) backs
most tests; scenarios needing special server configuration start their own.
"""

import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.workloads import Workload, attention_workload, block_sparse_workload
from repro.planner import PlannerService
from repro.serve import (
    PlanClient,
    PlanServer,
    RemotePlanError,
    encode_frame,
    protocol,
)
from repro.topology.machines import uniform_system

MACHINE = uniform_system(2)
SERVICE_OPTIONS = {"replication_factors": [1]}


def make_workload(m=96, n=80, k=64):
    return Workload(f"w{m}x{n}x{k}", m, n, k)


@pytest.fixture(scope="module")
def server():
    with PlanServer(MACHINE, num_workers=2,
                    service_options=SERVICE_OPTIONS) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with PlanClient(server.address, pool_size=4) as cli:
        yield cli


class TestServing:
    def test_remote_plan_matches_in_process_service(self, client):
        workload = attention_workload(128)
        with PlannerService(MACHINE, **SERVICE_OPTIONS) as service:
            reference = service.plan(workload).recommendation
        remote = client.plan(workload).recommendation
        assert remote.scheme.name == reference.scheme.name
        assert remote.replication == reference.replication
        assert remote.stationary == reference.stationary
        assert remote.simulated_time == reference.simulated_time
        assert remote.percent_of_peak == reference.percent_of_peak

    def test_repeat_requests_hit_the_worker_cache(self, client):
        workload = make_workload(100, 90, 70)
        cold = client.plan(workload)
        # Pin the warm request to the same worker: a pooled client reuses the
        # released connection for the immediate next request.
        warm = client.plan(workload)
        if warm.worker == cold.worker:
            assert warm.cache_hit
            assert warm.planning_time < cold.planning_time
        assert warm.recommendation.simulated_time == cold.recommendation.simulated_time

    def test_top_k_override_travels(self, client):
        response = client.plan(make_workload(), top_k=3)
        assert len(response.recommendations) == 3
        times = [r.simulated_time for r in response.recommendations]
        assert times == sorted(times)

    def test_structured_workload_over_the_wire(self, client):
        workload = block_sparse_workload(256, 256, 256, density=0.25, seed=3)
        with PlannerService(MACHINE, **SERVICE_OPTIONS) as service:
            reference = service.plan(workload).recommendation
        remote = client.plan(workload).recommendation
        assert remote.scheme.name == reference.scheme.name
        assert remote.simulated_time == reference.simulated_time

    def test_server_side_failure_raises_remote_error_without_retry(self, client):
        before = client.transport_retries
        with pytest.raises(RemotePlanError) as excinfo:
            client._request({"op": "no-such-op"})
        assert excinfo.value.error_type == "ValueError"
        assert client.transport_retries == before

    def test_malformed_plan_payload_is_a_server_error(self, client):
        with pytest.raises(RemotePlanError):
            client._request({"op": "plan", "workload": {"not": "a workload"}})

    @pytest.mark.parametrize("top_k", [0, -3])
    def test_top_k_below_one_is_rejected_without_side_effects(
            self, server, client, top_k):
        workload = make_workload(104, 88, 72)
        restarts = server.restart_counts()
        before = server.aggregate_stats()
        with pytest.raises(RemotePlanError) as excinfo:
            client.plan(workload, top_k=top_k)
        assert excinfo.value.error_type == "ValueError"
        assert server.restart_counts() == restarts
        after = server.aggregate_stats()
        assert (sum(w.cache.puts for w in after.workers)
                == sum(w.cache.puts for w in before.workers))
        assert after.totals.plans_computed == before.totals.plans_computed
        # The worker survived and the same client keeps being served.
        assert client.plan(workload).recommendations


class TestFleet:
    def test_consecutive_connections_round_robin_across_workers(self, server):
        with PlanClient(server.address) as first, PlanClient(server.address) as second:
            workers = {first.ping()["worker"], second.ping()["worker"]}
        assert workers == {0, 1}

    def test_concurrent_clients_spread_and_aggregate(self, server):
        workload = make_workload(120, 110, 60)
        with PlanClient(server.address, pool_size=8) as cli:
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(pool.map(lambda _: cli.plan(workload), range(32)))
        assert {r.worker for r in responses} == {0, 1}
        times = {r.recommendation.simulated_time for r in responses}
        assert len(times) == 1  # both shared-nothing caches agree exactly
        stats = server.aggregate_stats()
        assert stats.num_workers == 2
        assert stats.workers_with_hits == 2  # warm traffic reached both
        assert stats.totals.requests >= 32
        assert stats.totals.cache_hits >= 30  # each worker computed at most once

    def test_worker_stats_identify_the_owning_worker(self, server):
        with PlanClient(server.address) as cli:
            owner = cli.ping()
            snap = cli.worker_stats()
        assert snap.worker == owner["worker"]
        assert snap.pid == owner["pid"]
        assert snap.cache.capacity == 256

    def test_alive_workers(self, server):
        assert server.alive_workers() == [0, 1]


class TestPipelining:
    def test_pipelined_requests_answered_in_order(self, server):
        """Many frames written before any read exercise the write buffering."""
        if isinstance(server.address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:  # pragma: no cover - fixture uses a unix socket
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        try:
            sock.connect(server.address)
            blob = b"".join(encode_frame(protocol.ping_request()) for _ in range(64))
            sock.sendall(blob)
            reader = protocol.FrameDecoder()
            answers = [reader.read(sock) for _ in range(64)]
        finally:
            sock.close()
        assert all(a is not None and a["ok"] for a in answers)
        workers = {a["result"]["worker"] for a in answers}
        assert len(workers) == 1  # one connection stays pinned to one worker

    def test_unread_responses_do_not_block_other_connections(self, server):
        """A client that never reads must not stall its worker's siblings."""
        lazy = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        lazy.settimeout(10.0)
        try:
            lazy.connect(server.address)
            lazy.sendall(b"".join(encode_frame(protocol.ping_request())
                                  for _ in range(256)))
            # Both workers keep answering other clients while `lazy` hoards
            # its responses unread.
            for _ in range(2):
                with PlanClient(server.address) as cli:
                    assert "worker" in cli.ping()
        finally:
            lazy.close()

    def test_hoarding_connection_is_closed_at_the_backlog_cap(self, monkeypatch):
        """Unread responses may not grow worker memory without bound."""
        from repro.serve import server as server_module

        # Forked workers inherit the patched cap, so a tiny backlog triggers.
        monkeypatch.setattr(server_module, "MAX_CONNECTION_BACKLOG_BYTES", 256)
        with PlanServer(MACHINE, num_workers=1,
                        service_options=SERVICE_OPTIONS) as srv:
            hoarder = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            hoarder.settimeout(10.0)
            try:
                hoarder.connect(srv.address)
                # Enough pings that the replies overflow the worker's kernel
                # send buffer (~a few hundred KB) and pile into outbuf past
                # the 256-byte cap; the worker then drops the connection,
                # which surfaces either as EPIPE/ECONNRESET while we are
                # still sending or as EOF/reset when we finally read.
                dropped = False
                reader = protocol.FrameDecoder()
                try:
                    hoarder.sendall(b"".join(
                        encode_frame(protocol.ping_request())
                        for _ in range(20000)))
                    for _ in range(20000):
                        if reader.read(hoarder) is None:
                            dropped = True
                            break
                except (protocol.ProtocolError, OSError):
                    dropped = True
                assert dropped
            finally:
                hoarder.close()
            # The worker itself lives on and serves fresh connections.
            with PlanClient(srv.address) as cli:
                assert cli.ping()["worker"] == 0


class TestLifecycle:
    def test_tcp_address_mode(self):
        with PlanServer(MACHINE, num_workers=1, address=("127.0.0.1", 0),
                        service_options=SERVICE_OPTIONS) as srv:
            host, port = srv.address
            assert host == "127.0.0.1" and port > 0
            with PlanClient((host, port)) as cli:
                assert cli.ping()["worker"] == 0
                assert cli.plan(make_workload()).recommendations

    def test_restart_after_crash_replaces_stale_socket_file(self, tmp_path):
        """A SIGKILLed server's leftover socket file must not block restarts."""
        import os

        path = str(tmp_path / "plans.sock")
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(path)
        stale.close()  # file remains, nothing listens: a crashed server
        assert os.path.exists(path)
        with PlanServer(MACHINE, num_workers=1, address=path,
                        service_options=SERVICE_OPTIONS) as srv:
            with PlanClient(srv.address) as cli:
                assert cli.ping()["worker"] == 0
        assert not os.path.exists(path)

    def test_bind_still_conflicts_with_a_live_server(self, tmp_path):
        """The stale-socket probe must not steal a living server's address."""
        path = str(tmp_path / "plans.sock")
        with PlanServer(MACHINE, num_workers=1, address=path,
                        service_options=SERVICE_OPTIONS):
            second = PlanServer(MACHINE, num_workers=1, address=path,
                                service_options=SERVICE_OPTIONS)
            with pytest.raises(OSError):
                second.start()
            second.stop()

    def test_stop_is_idempotent_and_cleans_the_socket(self):
        import os

        srv = PlanServer(MACHINE, num_workers=1, service_options=SERVICE_OPTIONS)
        address = srv.start()
        assert os.path.exists(address)
        srv.stop()
        srv.stop()
        assert not os.path.exists(address)

    def test_workers_exit_after_stop(self):
        srv = PlanServer(MACHINE, num_workers=2, service_options=SERVICE_OPTIONS)
        srv.start()
        procs = [handle.process for handle in srv._workers]
        srv.stop()
        assert all(not proc.is_alive() for proc in procs)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            PlanServer(MACHINE, num_workers=0)

    def test_bounded_store_options_reach_the_workers(self):
        options = dict(SERVICE_OPTIONS, cache_capacity=5,
                       cache_max_bytes=1 << 16, cache_ttl_seconds=3600.0)
        with PlanServer(MACHINE, num_workers=1, service_options=options) as srv:
            with PlanClient(srv.address) as cli:
                snap = cli.worker_stats()
        assert snap.cache.capacity == 5
        assert snap.cache.max_bytes == 1 << 16
        assert snap.cache.ttl_seconds == 3600.0

    def test_warm_start_store_round_trip(self, tmp_path):
        store = str(tmp_path / "plans.json")
        workload = make_workload(128, 96, 64)
        options = dict(SERVICE_OPTIONS, store_path=store, autosave=True)
        with PlanServer(MACHINE, num_workers=1, service_options=options) as srv:
            with PlanClient(srv.address) as cli:
                assert not cli.plan(workload).cache_hit
        with PlanServer(MACHINE, num_workers=1, service_options=options) as srv:
            with PlanClient(srv.address) as cli:
                warm = cli.plan(workload)
                assert warm.cache_hit  # loaded from the shared store at boot
                snap = cli.worker_stats()
        assert snap.service.warm_start_entries == 1


class _FlakyServer:
    """Accepts on loopback; drops the first N connections before answering."""

    def __init__(self, failures: int):
        self.failures = failures
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.address = self.listener.getsockname()[:2]
        self.accepted = 0
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            if self.accepted <= self.failures:
                conn.close()  # simulate a worker dying mid-conversation
                continue
            try:
                message = protocol.recv_message(conn)
                if message and message.get("op") == "ping":
                    conn.sendall(encode_frame(protocol.ok_response(
                        {"worker": 0, "pid": 0})))
            except (OSError, protocol.ProtocolError):
                pass
            finally:
                conn.close()

    def close(self):
        try:
            self.listener.shutdown(socket.SHUT_RDWR)  # wake the blocked accept
        except OSError:
            pass
        self.listener.close()
        self.thread.join(timeout=2.0)


class TestRetries:
    def test_client_retries_transport_failures(self):
        flaky = _FlakyServer(failures=2)
        try:
            with PlanClient(flaky.address, retries=3, retry_delay=0.01) as cli:
                assert cli.ping() == {"worker": 0, "pid": 0}
                assert cli.transport_retries >= 1
        finally:
            flaky.close()

    def test_client_gives_up_after_exhausting_retries(self):
        flaky = _FlakyServer(failures=100)
        try:
            with PlanClient(flaky.address, retries=1, retry_delay=0.01) as cli:
                with pytest.raises(ConnectionError):
                    cli.ping()
        finally:
            flaky.close()

    def test_connection_refused_surfaces_as_connection_error(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()[:2]
        probe.close()  # nothing listens here anymore
        with PlanClient(dead_address, retries=1, retry_delay=0.01) as cli:
            with pytest.raises(ConnectionError):
                cli.ping()


class TestBackgroundRefreshFleet:
    """Per-worker background refreshers: stale flag on the wire, warm serving."""

    def test_stale_rides_the_wire_and_refresh_runs_in_worker(self):
        options = dict(SERVICE_OPTIONS, cache_ttl_seconds=0.2,
                       cache_grace_seconds=30.0)
        with PlanServer(MACHINE, num_workers=1, service_options=options,
                        refresh_options={"interval_seconds": 10.0}) as srv:
            with PlanClient(srv.address) as cli:
                workload = make_workload()
                first = cli.plan(workload)
                assert not first.cache_hit and not first.stale
                import time
                time.sleep(0.3)  # past TTL, well inside grace
                stale = cli.plan(workload)
                assert stale.cache_hit and stale.stale
                assert stale.plan_age >= 0.2
                assert (stale.recommendation.describe()
                        == first.recommendation.describe())
                # The stale serve woke the worker's refresher; the next
                # request lands on a fresh recomputed entry.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    totals = srv.aggregate_stats().totals
                    if totals.background_refreshes >= 1:
                        break
                    time.sleep(0.02)
                assert totals.background_refreshes >= 1
                assert totals.stale_hits >= 1
                fresh = cli.plan(workload)
                assert fresh.cache_hit and not fresh.stale

    def test_pre_ttl_refresh_keeps_steady_traffic_fresh(self):
        options = dict(SERVICE_OPTIONS, cache_ttl_seconds=0.4)
        with PlanServer(MACHINE, num_workers=1, service_options=options,
                        refresh_options={"interval_seconds": 0.05,
                                         "refresh_margin": 0.5}) as srv:
            with PlanClient(srv.address) as cli:
                import time
                workload = make_workload()
                cli.plan(workload)
                # Steady traffic slower than the TTL but faster than
                # TTL + grace: with pre-TTL refresh nothing ever goes stale.
                for _ in range(3):
                    time.sleep(0.3)
                    response = cli.plan(workload)
                    assert response.cache_hit and not response.stale

    def test_fleet_without_refresh_options_reports_zero_refreshes(self, server):
        totals = server.aggregate_stats().totals
        assert totals.background_refreshes == 0


class TestGraphServing:
    """Protocol 1.3: joint graph planning over the fleet socket."""

    def test_ping_advertises_protocol_1_3(self, client):
        assert tuple(client.ping()["protocol"]) >= (1, 3)

    def test_remote_plan_graph_matches_in_process_service(self, client):
        from repro.core.graph import mlp_chain

        graph = mlp_chain(96, 64)
        with PlannerService(MACHINE, **SERVICE_OPTIONS) as service:
            reference = service.plan_graph(graph)
        remote = client.plan_graph(graph)
        assert tuple(remote.assignment) == reference.assignment
        assert remote.makespan == reference.makespan
        assert remote.greedy_makespan == reference.greedy_makespan
        assert remote.method == reference.method
        assert remote.signature_key == reference.signature.key()
        for wire, local in zip(remote.recommendations,
                               reference.recommendations):
            assert wire.scheme.name == local.scheme.name
            assert wire.simulated_time == local.simulated_time

    def test_repeat_graph_requests_hit_the_worker_cache(self, client):
        from repro.core.graph import mlp_chain

        graph = mlp_chain(112, 48)
        cold = client.plan_graph(graph)
        warm = client.plan_graph(graph)
        if warm.worker == cold.worker:
            assert warm.cache_hit
        assert tuple(warm.assignment) == tuple(cold.assignment)
        assert warm.makespan == cold.makespan

    def test_lattice_size_override_travels(self, client):
        from repro.core.graph import mlp_chain

        graph = mlp_chain(96, 64)
        narrow = client.plan_graph(graph, lattice_size=1)
        # A width-1 lattice has no joint freedom: joint == greedy.
        assert tuple(narrow.assignment) == (0, 0)
        assert narrow.makespan == narrow.greedy_makespan
