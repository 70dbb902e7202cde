"""Fault-injection tests: crashes, supervised restarts, and hand-off re-deals.

Every failure here is injected deterministically through
:mod:`repro.serve.faults` — keyed to an exact ``(worker, generation,
request ordinal)`` coordinate — so there are no sleeps-as-synchronization
and no signal races.  Where the tests must observe an *asynchronous*
recovery (the supervisor re-forking a worker), they poll a counter against
a deadline rather than assuming timing.
"""

import socket
import threading
import time

import pytest

from repro.bench.workloads import Workload
from repro.planner import PlannerService
from repro.serve import (
    FAULT_DELAY,
    FAULT_DROP,
    FAULT_EXIT,
    FAULT_TORN,
    FAULT_TORN_HANDOFF,
    Fault,
    FaultPlan,
    PlanClient,
    PlanServer,
    RestartPolicy,
    encode_frame,
    protocol,
)
from repro.serve.faults import PARENT_ACTIONS, WORKER_ACTIONS
from repro.serve.server import _RestartState
from repro.topology.machines import uniform_system

MACHINE = uniform_system(2)
SERVICE_OPTIONS = {"replication_factors": [1]}

#: Near-instant restarts so recovery polling converges fast.
FAST_RESTART = RestartPolicy(backoff_base=0.01, backoff_cap=0.05)


def make_workload(m=96, n=80, k=64):
    return Workload(f"w{m}x{n}x{k}", m, n, k)


def reference_plan(workload, top_k=None):
    """What an uninjected in-process service answers for ``workload``."""
    with PlannerService(MACHINE, **SERVICE_OPTIONS) as service:
        return service.plan(workload, top_k=top_k).recommendation


def wait_until(predicate, timeout=10.0, interval=0.02):
    """Poll ``predicate`` against a deadline; returns its final truth value."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestFaultPrimitives:
    """The pure matching seam, independent of any server."""

    def test_fault_matches_exact_coordinate_only(self):
        fault = Fault(action=FAULT_EXIT, worker=1, request=2, generation=0)
        assert fault.matches(1, 0, 2)
        assert not fault.matches(0, 0, 2)  # wrong worker
        assert not fault.matches(1, 0, 1)  # wrong ordinal
        assert not fault.matches(1, 1, 2)  # wrong incarnation

    def test_generation_none_matches_every_incarnation(self):
        fault = Fault(action=FAULT_EXIT, worker=0, request=0, generation=None)
        assert fault.matches(0, 0, 0)
        assert fault.matches(0, 7, 0)

    def test_plan_filters_by_action_family(self):
        plan = FaultPlan([Fault(action=FAULT_TORN_HANDOFF, worker=0),
                          Fault(action=FAULT_DROP, worker=0)])
        assert plan.match(0, 0, 0, actions=WORKER_ACTIONS).action == FAULT_DROP
        assert (plan.match(0, 0, 0, actions=PARENT_ACTIONS).action
                == FAULT_TORN_HANDOFF)

    def test_empty_plan_is_falsy_and_never_matches(self):
        plan = FaultPlan()
        assert not plan
        assert plan.match(0, 0, 0, actions=WORKER_ACTIONS) is None

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            Fault(action="segfault", worker=0)

    def test_negative_ordinal_rejected(self):
        with pytest.raises(ValueError):
            Fault(action=FAULT_EXIT, worker=0, request=-1)

    def test_plan_rejects_non_faults(self):
        with pytest.raises(TypeError):
            FaultPlan(["exit"])


class TestWorkerCrash:
    """A worker killed mid-request: the client retries, the parent restarts."""

    def test_crash_mid_request_retries_and_answer_matches_reference(self):
        plan = FaultPlan([Fault(action=FAULT_EXIT, worker=0, request=0)])
        workload = make_workload()
        reference = reference_plan(workload)
        with PlanServer(MACHINE, num_workers=2,
                        service_options=SERVICE_OPTIONS, fault_plan=plan,
                        restart_policy=FAST_RESTART,
                        enable_metrics=True) as srv:
            with PlanClient(srv.address, retries=2, retry_delay=0.01) as cli:
                # Sequential requests across the crash: none may be lost.
                responses = [cli.plan(workload) for _ in range(8)]
                assert cli.transport_retries >= 1  # the crash cost a retry
            # Every answer, the survivor's included, is bit-identical to the
            # uninjected in-process service: crashes may slow a request,
            # never skew it.
            assert [r.recommendation.plan_key() for r in responses] == \
                [reference.plan_key()] * 8
            got = responses[0].recommendation
            assert got.scheme.name == reference.scheme.name
            assert got.replication == reference.replication
            assert got.stationary == reference.stationary
            assert got.simulated_time == reference.simulated_time

            # The parent notices the corpse and re-forks it exactly once...
            assert wait_until(lambda: srv.restart_counts().get(0, 0) == 1)
            assert srv.restart_counts() == {0: 1}
            # ...and the fleet view converges back to two reporting workers,
            # now carrying the supervisor's restart accounting.
            assert wait_until(lambda: srv.aggregate_stats().num_workers == 2)
            stats = srv.aggregate_stats()
            assert stats.total_restarts == 1
            assert stats.restarts == {0: 1}
            assert "1 restarts" in stats.describe()
            # The metrics view reads the same supervisor count.
            counters = srv.aggregate_metrics()["counters"]
            assert counters['repro_serve_worker_restarts_total{worker="0"}'] == \
                srv.restart_counts()[0]

    def test_restarted_worker_reports_bumped_generation(self):
        plan = FaultPlan([Fault(action=FAULT_EXIT, worker=0, request=0)])
        with PlanServer(MACHINE, num_workers=2,
                        service_options=SERVICE_OPTIONS, fault_plan=plan,
                        restart_policy=FAST_RESTART) as srv:
            with PlanClient(srv.address, retries=2, retry_delay=0.01) as cli:
                cli.plan(make_workload())
            assert wait_until(lambda: srv.restart_counts().get(0, 0) == 1)

            def seen_generations():
                seen = {}
                for _ in range(8):
                    with PlanClient(srv.address, pool_size=1) as probe:
                        pong = probe.ping()
                    seen[pong["worker"]] = pong["generation"]
                return seen

            # Worker 0's replacement announces generation 1 (the fault was
            # pinned to generation 0, so the replacement serves untouched);
            # worker 1 never died and stays at generation 0.
            assert wait_until(lambda: seen_generations() == {0: 1, 1: 0})

    def test_plan_responses_carry_the_generation(self):
        with PlanServer(MACHINE, num_workers=1,
                        service_options=SERVICE_OPTIONS) as srv:
            with PlanClient(srv.address) as cli:
                assert cli.plan(make_workload()).generation == 0
                assert cli.ping()["generation"] == 0

    def test_no_restarts_without_auto_restart(self):
        plan = FaultPlan([Fault(action=FAULT_EXIT, worker=0, request=0)])
        with PlanServer(MACHINE, num_workers=2,
                        service_options=SERVICE_OPTIONS, fault_plan=plan,
                        auto_restart=False) as srv:
            with PlanClient(srv.address, retries=2, retry_delay=0.01) as cli:
                cli.plan(make_workload())  # kills worker 0, answered by 1
            assert wait_until(lambda: 0 not in srv.alive_workers())
            # Give a would-be supervisor ample time to act; nothing may.
            time.sleep(0.3)
            assert srv.restart_counts() == {}
            assert srv.alive_workers() == [1]


class TestRestartBackoff:
    """Restart storms are rate-limited and eventually abandoned."""

    def test_backoff_schedule_grows_and_caps(self):
        clock = {"now": 100.0}
        state = _RestartState(
            RestartPolicy(backoff_base=0.1, backoff_multiplier=2.0,
                          backoff_cap=0.4, window_seconds=60.0),
            clock=lambda: clock["now"])
        delays = []
        for _ in range(5):
            delays.append(state.record_death())
            clock["now"] += 1.0
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]  # doubles, then capped
        assert not state.abandoned

    def test_backoff_resets_after_a_quiet_window(self):
        clock = {"now": 0.0}
        state = _RestartState(
            RestartPolicy(backoff_base=0.1, backoff_multiplier=2.0,
                          backoff_cap=1.0, window_seconds=10.0),
            clock=lambda: clock["now"])
        assert state.record_death() == 0.1
        clock["now"] += 1.0
        assert state.record_death() == 0.2
        clock["now"] += 30.0  # well past the window: the worker was stable
        assert state.record_death() == 0.1

    def test_storm_limit_abandons_the_worker(self):
        clock = {"now": 0.0}
        state = _RestartState(
            RestartPolicy(backoff_base=0.1, window_seconds=60.0,
                          max_restarts_per_window=2),
            clock=lambda: clock["now"])
        assert state.record_death() is not None
        clock["now"] += 0.1
        assert state.record_death() is not None
        clock["now"] += 0.1
        assert state.record_death() is None  # third death in the window
        assert state.abandoned

    def test_live_restart_storm_is_capped(self):
        # generation=None re-arms the crash on every incarnation's first
        # request: each restart of worker 0 dies again as soon as it serves.
        plan = FaultPlan([Fault(action=FAULT_EXIT, worker=0, request=0,
                                generation=None)])
        policy = RestartPolicy(backoff_base=0.005, backoff_cap=0.02,
                               window_seconds=60.0, max_restarts_per_window=3)
        workload = make_workload()
        with PlanServer(MACHINE, num_workers=2,
                        service_options=SERVICE_OPTIONS, fault_plan=plan,
                        restart_policy=policy) as srv:

            def drive_traffic():
                # Keep poking the fleet so every incarnation of worker 0
                # gets a request to die on; worker 1 absorbs the rest.
                try:
                    with PlanClient(srv.address, retries=3,
                                    retry_delay=0.01) as cli:
                        cli.plan(workload)
                except ConnectionError:
                    pass

            deadline = time.monotonic() + 20.0
            while (time.monotonic() < deadline
                   and srv.abandoned_workers() != [0]):
                drive_traffic()
                time.sleep(0.02)
            assert srv.abandoned_workers() == [0]
            # The storm burned exactly the per-window budget, then stopped:
            # abandonment caps restarts instead of forking forever.
            assert srv.restart_counts()[0] == policy.max_restarts_per_window
            stable = srv.restart_counts()[0]
            time.sleep(0.2)
            assert srv.restart_counts()[0] == stable
            # The fleet still serves through the surviving worker.
            with PlanClient(srv.address, retries=2, retry_delay=0.01) as cli:
                assert cli.plan(workload).worker == 1


class TestTornHandoff:
    """A corrupted fd transfer: worker rejects it, parent re-deals the conn."""

    def test_torn_handoff_rejected_and_conn_redealt_without_client_retry(self):
        plan = FaultPlan([Fault(action=FAULT_TORN_HANDOFF, worker=0,
                                request=0)])
        workload = make_workload()
        reference = reference_plan(workload)
        with PlanServer(MACHINE, num_workers=2,
                        service_options=SERVICE_OPTIONS, fault_plan=plan,
                        restart_policy=FAST_RESTART) as srv:
            # retries=0: the client gets no second chance, so success proves
            # the *parent* moved the accepted connection to a survivor — the
            # request was never lost, only re-dealt.
            with PlanClient(srv.address, retries=0) as cli:
                response = cli.plan(workload)
                assert cli.transport_retries == 0
            assert response.worker == 1
            got = response.recommendation
            assert got.scheme.name == reference.scheme.name
            assert got.simulated_time == reference.simulated_time
            # The worker that rejected the torn hand-off exited and was
            # replaced by the supervisor.
            assert wait_until(lambda: srv.restart_counts().get(0, 0) == 1)
            assert wait_until(lambda: srv.aggregate_stats().num_workers == 2)


class TestWorkerSideFaults:
    """Drop, torn-frame, and delay faults observed from the client side."""

    def test_dropped_connection_is_retried_cleanly(self):
        plan = FaultPlan([Fault(action=FAULT_DROP, worker=0, request=0)])
        workload = make_workload()
        with PlanServer(MACHINE, num_workers=2,
                        service_options=SERVICE_OPTIONS,
                        fault_plan=plan) as srv:
            with PlanClient(srv.address, retries=2, retry_delay=0.01) as cli:
                response = cli.plan(workload)
                assert cli.transport_retries >= 1
            assert response.recommendations
            # A drop is connection-local: the worker itself lives on.
            assert srv.alive_workers() == [0, 1]
            assert srv.restart_counts() == {}

    def test_torn_frame_is_rejected_and_retried(self):
        plan = FaultPlan([Fault(action=FAULT_TORN, worker=0, request=0)])
        workload = make_workload()
        reference = reference_plan(workload)
        with PlanServer(MACHINE, num_workers=2,
                        service_options=SERVICE_OPTIONS,
                        fault_plan=plan) as srv:
            with PlanClient(srv.address, retries=2, retry_delay=0.01) as cli:
                response = cli.plan(workload)
                assert cli.transport_retries >= 1
            assert (response.recommendation.simulated_time
                    == reference.simulated_time)
            assert srv.alive_workers() == [0, 1]

    def test_torn_frame_surfaces_as_protocol_error_on_a_raw_socket(self):
        plan = FaultPlan([Fault(action=FAULT_TORN, worker=0, request=0)])
        with PlanServer(MACHINE, num_workers=1,
                        service_options=SERVICE_OPTIONS,
                        fault_plan=plan) as srv:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(10.0)
            try:
                sock.connect(srv.address)
                sock.sendall(encode_frame(protocol.ping_request()))
                with pytest.raises(protocol.ProtocolError):
                    protocol.recv_message(sock)
            finally:
                sock.close()

    def test_delay_fault_answers_late_but_correctly(self):
        plan = FaultPlan([Fault(action=FAULT_DELAY, worker=0, request=0,
                                delay_seconds=0.2)])
        with PlanServer(MACHINE, num_workers=1,
                        service_options=SERVICE_OPTIONS,
                        fault_plan=plan) as srv:
            with PlanClient(srv.address, retries=0) as cli:
                started = time.monotonic()
                pong = cli.ping()
                elapsed = time.monotonic() - started
                assert cli.transport_retries == 0
            assert pong["worker"] == 0
            assert elapsed >= 0.2


class _OneAnswerServer:
    """Loopback server answering exactly one ping per connection, then
    closing it — every pooled client connection is stale by construction."""

    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.address = self.listener.getsockname()[:2]
        self.served = 0
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            try:
                message = protocol.recv_message(conn)
                if message and message.get("op") == "ping":
                    conn.sendall(encode_frame(protocol.ok_response(
                        {"worker": 0, "pid": 0})))
                    self.served += 1
            except (OSError, protocol.ProtocolError):
                pass
            finally:
                conn.close()

    def close(self):
        try:
            self.listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.listener.close()
        self.thread.join(timeout=2.0)


class TestStalePoolRegression:
    """The pooled-connection staleness fix in PlanClient._request."""

    def test_stale_pooled_connection_gets_one_free_fresh_retry(self):
        # The server closes every connection after one answer, so the pooled
        # connection from the first ping is dead when the second ping draws
        # it.  With retries=0 the old client raised ConnectionError here;
        # the fix drains the pool and retries fresh without spending the
        # (zero-sized) retry budget.
        server = _OneAnswerServer()
        try:
            with PlanClient(server.address, pool_size=1, retries=0) as cli:
                assert cli.ping() == {"worker": 0, "pid": 0}
                assert cli.ping() == {"worker": 0, "pid": 0}  # via freebie
                assert cli.transport_retries == 0
        finally:
            server.close()

    def test_pool_freebie_is_bounded_to_one_per_request(self):
        # Prime the pool, then kill the server entirely: the freebie buys
        # exactly one extra connection attempt, after which the configured
        # retry budget governs — a dead server still fails promptly.
        server = _OneAnswerServer()
        with PlanClient(server.address, pool_size=1, retries=0,
                        retry_delay=0.01) as cli:
            assert cli.ping() == {"worker": 0, "pid": 0}
            server.close()
            with pytest.raises(ConnectionError):
                cli.ping()
            assert cli.transport_retries == 0  # freebie never counts

    def test_restarted_worker_invalidates_the_pool_transparently(self):
        # End-to-end: a request is answered, the owning worker crashes on
        # its next request and is restarted; the client's pooled connection
        # is stale, yet the next request succeeds.  The freebie covers the
        # pooled-connection failure; one configured retry covers the narrow
        # window where the freebie's fresh connection is dealt to the worker
        # in the instant before its exit lands (the worker already owns that
        # fd, so no parent-side re-deal can save it).
        plan = FaultPlan([Fault(action=FAULT_EXIT, worker=0, request=1)])
        workload = make_workload()
        with PlanServer(MACHINE, num_workers=1,
                        service_options=SERVICE_OPTIONS, fault_plan=plan,
                        restart_policy=FAST_RESTART) as srv:
            with PlanClient(srv.address, pool_size=1, retries=1,
                            retry_delay=0.01) as cli:
                first = cli.plan(workload)
                assert first.generation == 0
                # Ordinal 1 on generation 0 kills the worker mid-request;
                # the pooled connection fails, a fresh one is opened, and
                # the parent holds it until the restarted worker (the fault
                # is generation-pinned, so generation 1 is clean) takes the
                # hand-off.
                second = cli.plan(workload)
                assert second.generation == 1
                assert second.recommendation.simulated_time \
                    == first.recommendation.simulated_time
            assert srv.restart_counts() == {0: 1}
