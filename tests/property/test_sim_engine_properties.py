"""Property-based invariants of the direct walk's schedule and the event oracles.

The walk (:func:`repro.core.walk.walk_columns`) keeps time and an
``EventEngine`` records it; only the scheduling oracle
(``tests/engine_oracle.py``) keeps the shared egress/ingress timelines.
Where a property needs those timelines, it is checked on the oracle's run
of the same case, whose makespan must equal the walk's.  Three families:

1. **Timeline sanity** — per-engine occupancy intervals are monotone and
   non-overlapping (engines are single-server queues), and every realized
   event respects its recorded dependencies.
2. **Bound sandwich** — for any workload/config, the critical-path lower
   bound never exceeds the simulated time, which never exceeds the summed
   busy time across all engines (the schedule has no globally idle instant
   before the makespan).
3. **Baseline parity** — the baselines' schedules, emitted through the
   scheduling engine by the oracle ``tests/baseline_oracle.py``, reproduce
   their closed-form models.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import Cannon, CosmaLike, OneAndHalfD, OneDRing, Summa, TwoAndHalfD
from repro.bench.schemes import ua_schemes
from repro.bench.sweep import run_ua_point
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel
from repro.core.direct import DirectExecutor
from repro.core.matmul import model_reduce_time, plan_ops
from repro.dist.matrix import DistributedMatrix
from repro.sim import EventEngine
from repro.topology.machines import GB, uniform_system
from tests.baseline_oracle import simulate_events
from tests.bound_oracle import critical_path_lower_bound, direct_lower_bound
from tests.direct_oracle import OracleExecutor
from tests.engine_oracle import ENGINES, OracleEngine
from tests.slicing_oracle import apply_iteration_offset

_SCHEMES = {scheme.name: scheme for scheme in ua_schemes()}


@st.composite
def sim_case(draw):
    num_devices = draw(st.sampled_from([2, 4, 6]))
    workload = Workload(
        name="prop",
        m=draw(st.integers(min_value=8, max_value=96)),
        n=draw(st.integers(min_value=8, max_value=96)),
        k=draw(st.integers(min_value=8, max_value=96)),
    )
    scheme = draw(st.sampled_from(sorted(_SCHEMES)))
    divisors = [c for c in range(1, num_devices + 1) if num_devices % c == 0]
    replication = draw(st.sampled_from(divisors))
    stationary = draw(st.sampled_from(["A", "B", "C"]))
    link_gb = draw(st.sampled_from([2, 25, 400]))
    config = ExecutionConfig(
        simulate_only=True,
        prefetch_depth=draw(st.integers(min_value=0, max_value=3)),
        async_execution=draw(st.booleans()),
        iteration_offset=draw(st.booleans()),
    )
    return num_devices, workload, scheme, replication, stationary, link_gb, config


def _simulate(case):
    num_devices, workload, scheme, replication, stationary, link_gb, config = case
    machine = uniform_system(num_devices, link_bandwidth=link_gb * GB)
    point = run_ua_point(machine, workload, _SCHEMES[scheme],
                         (replication, replication, replication),
                         stationary, config)
    return machine, point


def _build_executor(case, contention=True, oracle=False):
    """The case's operands and op lists, and an executor with its engine:
    the walk on a recording ``EventEngine``, or with ``oracle`` the
    op-object oracle on the scheduling engine."""
    num_devices, workload, scheme, replication, stationary, link_gb, config = case
    machine = uniform_system(num_devices, link_bandwidth=link_gb * GB)
    from repro.runtime.runtime import Runtime

    runtime = Runtime(machine=machine)
    p = machine.num_devices
    rep = replication
    part_a, part_b, part_c = _SCHEMES[scheme].partitions(
        workload, p // rep, p // rep, p // rep
    )
    a_shape, b_shape, c_shape = workload.shapes
    a = DistributedMatrix.create(runtime, a_shape, part_a, replication=rep,
                                 name="A", materialize=False)
    b = DistributedMatrix.create(runtime, b_shape, part_b, replication=rep,
                                 name="B", materialize=False)
    c = DistributedMatrix.create(runtime, c_shape, part_c, replication=rep,
                                 name="C", materialize=False)
    per_rank_ops = plan_ops(a, b, c, stationary=stationary)
    if config.iteration_offset:
        per_rank_ops = {rank: apply_iteration_offset(ops)
                        for rank, ops in per_rank_ops.items()}
    if oracle:
        engine = OracleEngine(machine.num_devices, contention=contention)
        executor = OracleExecutor(a, b, c, CostModel(machine), config, engine=engine)
    else:
        engine = EventEngine(machine.num_devices, contention=contention)
        executor = DirectExecutor(a, b, c, CostModel(machine), config, engine=engine)
    return a, b, c, per_rank_ops, engine, executor


def _oracle_run(case):
    """The oracle's makespan and scheduling engine on the case."""
    a, b, c, per_rank_ops, engine, executor = _build_executor(case, oracle=True)
    makespan, _ = executor.execute(per_rank_ops)
    return makespan, engine


def _assert_monotone_non_overlapping(intervals, where):
    intervals = sorted(intervals, key=lambda interval: interval[0])
    for start, end in intervals:
        assert end >= start
    for earlier, later in zip(intervals, intervals[1:]):
        assert earlier[1] <= later[0], f"overlap on {where}"


class TestTimelineInvariants:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=sim_case())
    def test_timelines_monotone_and_non_overlapping(self, case):
        a, b, c, per_rank_ops, engine, executor = _build_executor(case)
        makespan, _ = executor.execute(per_rank_ops)
        # The walk's own queues, from the events it recorded.
        queues = {}
        for event in engine.events:
            if event.engine is not None:
                queues.setdefault((event.device, event.engine), []).append(
                    (event.start, event.end))
        for (device, name), intervals in queues.items():
            _assert_monotone_non_overlapping(intervals,
                                             f"device {device} engine {name}")
        # Every engine, egress and ingress included, on the oracle's
        # timelines of the same schedule.
        oracle_makespan, oracle = _oracle_run(case)
        assert makespan == oracle_makespan == engine.makespan()
        for device in range(oracle.num_devices):
            timeline = oracle.clock.device(device)
            for name in ENGINES:
                _assert_monotone_non_overlapping(
                    [(entry.start, entry.end) for entry in timeline.entries(name)],
                    f"device {device} engine {name}")

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=sim_case())
    def test_events_respect_dependencies(self, case):
        a, b, c, per_rank_ops, engine, executor = _build_executor(case)
        executor.execute(per_rank_ops)
        by_uid = {event.uid: event for event in engine.events}
        for event in engine.events:
            for parent in event.parents:
                assert by_uid[parent].end <= event.start or math.isclose(
                    by_uid[parent].end, event.start, rel_tol=1e-12
                )


class TestBoundSandwich:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=sim_case())
    def test_critical_path_bound_le_simulated_le_total_busy(self, case):
        machine, point = _simulate(case)
        config = case[-1]

        a, b, c, per_rank_ops, _, _ = _build_executor(case)
        cost_model = CostModel(machine)
        bound = critical_path_lower_bound(cost_model, a, b, c, per_rank_ops, config)
        bound += model_reduce_time(c, cost_model)
        assert bound <= point.simulated_time * (1 + 1e-12)

        # Upper half of the sandwich: the schedule is never globally idle
        # before the makespan, so the contended run's summed busy time
        # (egress and ingress included, read on the oracle's timelines of
        # the same schedule) dominates it.
        a2, b2, c2, ops2, engine2, executor2 = _build_executor(case)
        makespan, _ = executor2.execute(ops2)
        oracle_makespan, oracle = _oracle_run(case)
        assert makespan == oracle_makespan
        assert makespan <= oracle.total_busy_time() * (1 + 1e-12)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=sim_case())
    def test_occupancy_bound_never_tighter_than_critical_path(self, case):
        a, b, c, per_rank_ops, _, _ = _build_executor(case)
        machine = a.runtime.machine
        config = case[-1]
        cost_model = CostModel(machine)
        occupancy = direct_lower_bound(
            cost_model, a, b, c, per_rank_ops, cache_remote_tiles=config.cache_remote_tiles
        )
        critical = critical_path_lower_bound(cost_model, a, b, c, per_rank_ops, config)
        assert critical >= occupancy * (1 - 1e-12)


class TestBaselineEventParity:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        m=st.integers(min_value=64, max_value=4096),
        n=st.integers(min_value=64, max_value=4096),
        k=st.integers(min_value=64, max_value=4096),
        devices=st.sampled_from([4, 8, 16]),
        link_gb=st.sampled_from([5, 50, 400]),
        algorithm=st.sampled_from([
            OneDRing(), Summa(), Cannon(), OneAndHalfD(2), TwoAndHalfD(2),
            CosmaLike(), Summa(overlap=False), OneDRing(overlap=False),
        ]),
    )
    def test_event_trace_matches_closed_form(self, m, n, k, devices, link_gb,
                                             algorithm):
        machine = uniform_system(devices, link_bandwidth=link_gb * GB)
        closed = algorithm.simulate(m, n, k, machine).simulated_time
        traced = simulate_events(algorithm, m, n, k, machine).makespan()
        assert math.isclose(traced, closed, rel_tol=1e-9), (
            algorithm.name, closed, traced
        )

    @pytest.mark.parametrize("algorithm, devices, active", [
        (Cannon(), 12, 9),            # the largest square grid, 3x3
        (TwoAndHalfD(2), 12, 8),      # two 2x2 layers
        (CosmaLike(), 12, 12),
        (Summa(), 12, 12),
    ])
    def test_idle_devices_get_no_events(self, algorithm, devices, active):
        machine = uniform_system(devices)
        engine = simulate_events(algorithm, 2048, 2048, 2048, machine)
        busy = {event.device for event in engine.events}
        assert busy == set(range(active))
        assert all(engine.device_finish(device) == 0.0
                   for device in range(active, devices))
