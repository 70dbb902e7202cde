"""Unit tests for the direct execution engine's behaviour and optimisations."""

import numpy as np
import pytest

from repro.core.config import ExecutionConfig, ExecutionMode, LoweringStrategy
from repro.core.cost_model import CostModel
from repro.core.direct import DirectExecutor
from repro.core.lowering import lower_all_ranks
from repro.core.matmul import universal_matmul
from repro.core.schedule_sim import IRExecutor
from repro.core.slicing import generate_all_ops, ops_table
from repro.core.stationary import Stationary
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Block2D, ColumnBlock, RowBlock
from repro.runtime.runtime import Runtime
from repro.sim.engine import EventEngine
from repro.sim.events import EventKind, ScheduledEvent
from repro.topology.machines import h100_system, pvc_system, uniform_system
from tests.pricing_oracle import op_compute_time
from tests.slicing_oracle import apply_iteration_offset


def build_problem(num_ranks=4, m=32, n=28, k=24, parts=None, materialize=True,
                  machine=None):
    runtime = Runtime(machine=machine or uniform_system(num_ranks))
    parts = parts or (Block2D(), Block2D(), Block2D())
    rng = np.random.default_rng(0)
    if materialize:
        a = DistributedMatrix.from_dense(runtime, rng.standard_normal((m, k)), parts[0],
                                         name="A")
        b = DistributedMatrix.from_dense(runtime, rng.standard_normal((k, n)), parts[1],
                                         name="B")
        c = DistributedMatrix.create(runtime, (m, n), parts[2], dtype=np.float64, name="C")
    else:
        a = DistributedMatrix.create(runtime, (m, k), parts[0], name="A", materialize=False)
        b = DistributedMatrix.create(runtime, (k, n), parts[1], name="B", materialize=False)
        c = DistributedMatrix.create(runtime, (m, n), parts[2], name="C", materialize=False)
    return runtime, a, b, c


class TestExecutorBasics:
    def test_execute_returns_stats_for_every_rank(self):
        runtime, a, b, c = build_problem()
        ops = generate_all_ops(a, b, c, Stationary.C)
        executor = DirectExecutor(a, b, c, CostModel(runtime.machine), ExecutionConfig())
        makespan, stats = executor.execute(ops)
        assert makespan > 0.0
        assert set(stats) == set(range(4))
        assert all(stats[r].num_ops == len(ops[r]) for r in range(4))

    def test_engine_busy_times_populated(self):
        runtime, a, b, c = build_problem(parts=(RowBlock(), RowBlock(), RowBlock()))
        ops = generate_all_ops(a, b, c, Stationary.C)
        executor = DirectExecutor(a, b, c, CostModel(runtime.machine), ExecutionConfig())
        _, stats = executor.execute(ops)
        assert any(s.copy_time > 0 for s in stats.values())
        assert all(s.compute_time > 0 for s in stats.values() if s.num_ops)

    def test_makespan_at_least_slowest_rank_compute(self):
        runtime, a, b, c = build_problem()
        ops = generate_all_ops(a, b, c, Stationary.C)
        cost_model = CostModel(runtime.machine)
        executor = DirectExecutor(a, b, c, cost_model, ExecutionConfig())
        makespan, stats = executor.execute(ops)
        assert makespan >= max(s.compute_time for s in stats.values())

    def test_ops_of_another_rank_or_replica_rejected(self):
        """The op-list adapter walks ops on their own rank's replicas only."""
        from dataclasses import replace

        runtime, a, b, c = build_problem()
        ops = generate_all_ops(a, b, c, Stationary.C)
        executor = DirectExecutor(a, b, c, CostModel(runtime.machine), ExecutionConfig())
        c_before = c.to_dense()
        with pytest.raises(ValueError, match="not an op of that rank"):
            executor.execute({1: ops[0]})
        op = ops[0][0]
        for bad in (replace(op, a=replace(op.a, replica=1)), replace(op, itemsize=2)):
            with pytest.raises(ValueError, match="not an op of that rank"):
                executor.execute({0: [bad]})
        assert np.array_equal(c.to_dense(), c_before)

    def test_empty_op_lists(self):
        runtime, a, b, c = build_problem()
        executor = DirectExecutor(a, b, c, CostModel(runtime.machine), ExecutionConfig())
        makespan, stats = executor.execute({r: [] for r in range(4)})
        assert makespan == 0.0
        assert all(s.num_ops == 0 for s in stats.values())


class TestOptimisationEffects:
    def test_tile_cache_avoids_duplicate_fetches(self):
        parts = (RowBlock(), ColumnBlock(), ColumnBlock())
        runtime, a, b, c = build_problem(parts=parts)
        ops = generate_all_ops(a, b, c, Stationary.C)
        cost_model = CostModel(runtime.machine)

        cached = DirectExecutor(a, b, c, cost_model, ExecutionConfig(cache_remote_tiles=True))
        _, cached_stats = cached.execute(ops)
        c.zero()
        uncached = DirectExecutor(a, b, c, cost_model,
                                  ExecutionConfig(cache_remote_tiles=False))
        _, uncached_stats = uncached.execute(ops)
        assert sum(s.remote_get_bytes for s in cached_stats.values()) <= \
            sum(s.remote_get_bytes for s in uncached_stats.values())

    def test_memory_pool_reuses_buffers(self):
        runtime, a, b, c = build_problem(parts=(RowBlock(), RowBlock(), RowBlock()))
        ops = generate_all_ops(a, b, c, Stationary.C)
        executor = DirectExecutor(a, b, c, CostModel(runtime.machine),
                                  ExecutionConfig(use_memory_pool=True,
                                                  cache_remote_tiles=False))
        executor.execute(ops)
        reuses = sum(runtime.pool(r).stats.reuses for r in range(4))
        assert reuses > 0

    def test_async_overlap_not_slower_than_synchronous(self):
        machine = pvc_system(12)
        runtime, a, b, c = build_problem(num_ranks=12, m=240, n=240, k=240,
                                         parts=(RowBlock(), RowBlock(), RowBlock()),
                                         materialize=False, machine=machine)
        ops = generate_all_ops(a, b, c, Stationary.C)
        cost_model = CostModel(machine)
        fast = DirectExecutor(a, b, c, cost_model,
                              ExecutionConfig(simulate_only=True))
        slow = DirectExecutor(a, b, c, cost_model,
                              ExecutionConfig.synchronous().evolve(simulate_only=True))
        fast_time, _ = fast.execute(ops)
        slow_time, _ = slow.execute(ops)
        assert fast_time <= slow_time + 1e-12

    def test_iteration_offset_helps_under_contention(self):
        """Everyone fetching the same owner's tile first serialises on that link;
        the offset staggers the accesses (paper §4.2, first optimisation)."""
        machine = uniform_system(8)
        runtime, a, b, c = build_problem(num_ranks=8, m=64, n=64, k=512,
                                         parts=(ColumnBlock(), ColumnBlock(), ColumnBlock()),
                                         materialize=False, machine=machine)
        cost_model = CostModel(machine)
        raw_ops = generate_all_ops(a, b, c, Stationary.C)
        offset_ops = {r: apply_iteration_offset(ops) for r, ops in raw_ops.items()}
        config = ExecutionConfig(simulate_only=True)
        with_offset, _ = DirectExecutor(a, b, c, cost_model, config).execute(offset_ops)
        without_offset, _ = DirectExecutor(a, b, c, cost_model, config).execute(raw_ops)
        assert with_offset <= without_offset + 1e-12

    def test_h100_accumulate_interference_charged(self):
        """On H100 the accumulate kernel steals compute time (paper §5.2.1)."""
        machine = h100_system(8)
        runtime, a, b, c = build_problem(num_ranks=8, m=64, n=64, k=64,
                                         parts=(ColumnBlock(), RowBlock(), Block2D()),
                                         materialize=False, machine=machine)
        ops = generate_all_ops(a, b, c, Stationary.B)
        cost_model = CostModel(machine)
        executor = DirectExecutor(a, b, c, cost_model, ExecutionConfig(simulate_only=True))
        _, stats = executor.execute(ops)
        # Compute busy time must exceed the pure GEMM+local-accumulate time on
        # ranks that issued remote accumulates, because interference is added.
        for rank, rank_stats in stats.items():
            pure = sum(op_compute_time(cost_model, op) for op in ops[rank])
            if rank_stats.remote_accumulate_bytes > 0:
                assert rank_stats.compute_time > pure


class TestPrefetchDepths:
    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    def test_all_depths_correct(self, depth):
        runtime, a, b, c = build_problem(parts=(ColumnBlock(), ColumnBlock(), ColumnBlock()))
        config = ExecutionConfig(prefetch_depth=depth)
        result = universal_matmul(a, b, c, stationary="C", config=config)
        np.testing.assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense(), rtol=1e-9)
        assert result.total_ops > 0

    def test_deeper_prefetch_not_slower(self):
        machine = pvc_system(12)
        times = {}
        for depth in (0, 2):
            runtime, a, b, c = build_problem(num_ranks=12, m=240, n=240, k=240,
                                             parts=(RowBlock(), RowBlock(), RowBlock()),
                                             materialize=False, machine=machine)
            ops = generate_all_ops(a, b, c, Stationary.C)
            config = ExecutionConfig(simulate_only=True, prefetch_depth=depth)
            times[depth], _ = DirectExecutor(a, b, c, CostModel(machine), config).execute(ops)
        assert times[2] <= times[0] + 1e-12


def _run_ir(a, b, c, config, engine):
    """The IR executor on stationary A's lowered programs, recording to ``engine``."""
    executor = IRExecutor(a, b, c, CostModel(a.runtime.machine), config, engine=engine)
    cols = executor.price(ops_table(a, b, c, generate_all_ops(a, b, c, Stationary.A)))
    return executor.execute(cols, lower_all_ranks(cols, config))


class TestEngineOnlyRecords:
    """The walk times with plain floats; an event engine only records it."""

    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("materialize", [True, False])
    def test_universal_matmul_builds_no_engine_or_event(self, monkeypatch, materialize,
                                                        mode):
        built = []
        for cls in (EventEngine, ScheduledEvent):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        runtime, a, b, c = build_problem(parts=(RowBlock(), ColumnBlock(), Block2D()),
                                         materialize=materialize)
        config = ExecutionConfig(simulate_only=not materialize, mode=mode)
        result = universal_matmul(a, b, c, stationary="A", config=config)
        assert result.remote_get_bytes > 0 and result.remote_accumulate_bytes > 0
        assert built == []
        if materialize:
            np.testing.assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense(),
                                       rtol=1e-9)
        # The counters see an engine that is asked for.
        engine = EventEngine(runtime.num_ranks)
        if mode is ExecutionMode.DIRECT:
            DirectExecutor(a, b, c, CostModel(runtime.machine), config,
                           engine=engine).execute(generate_all_ops(a, b, c, Stationary.A))
        else:
            _run_ir(a, b, c, config, engine)
        assert "EventEngine" in built and "ScheduledEvent" in built

    @pytest.mark.parametrize("lowering", list(LoweringStrategy), ids=lambda s: s.value)
    def test_ir_executor_records_to_an_engine_it_is_handed(self, lowering):
        """The positive control: handed an engine, the IR executor records
        every kind of step event, and the engine's makespan is its own."""
        machine = h100_system(4)
        runtime, a, b, c = build_problem(parts=(RowBlock(), ColumnBlock(), Block2D()),
                                         materialize=False, machine=machine)
        config = ExecutionConfig(simulate_only=True, mode=ExecutionMode.IR,
                                 lowering=lowering)
        engine = EventEngine(runtime.num_ranks)
        makespan, stats = _run_ir(a, b, c, config, engine)
        kinds = {event.kind for event in engine.events}
        assert kinds == {EventKind.FETCH, EventKind.GEMM, EventKind.ACCUMULATE,
                         EventKind.SYNC}
        assert engine.makespan() == makespan > 0.0
        assert (makespan, stats) == _run_ir(a, b, c, config, None)

    @pytest.mark.parametrize("contention", [True, False])
    def test_recording_changes_nothing(self, contention):
        """With an engine the walk returns what it returns without one, and
        its makespan is the engine's."""
        machine = h100_system(8)
        runtime, a, b, c = build_problem(num_ranks=8, m=64, n=64, k=64,
                                         parts=(ColumnBlock(), RowBlock(), Block2D()),
                                         materialize=False, machine=machine)
        ops = generate_all_ops(a, b, c, Stationary.B)
        cost_model = CostModel(machine)
        config = ExecutionConfig(simulate_only=True)
        engine = EventEngine(runtime.num_ranks, contention=contention)
        recorded = DirectExecutor(a, b, c, cost_model, config, engine=engine).execute(ops)
        assert recorded[0] == engine.makespan()
        assert engine.events
        if contention:
            assert recorded == DirectExecutor(a, b, c, cost_model, config).execute(ops)
