"""Unit tests for IR execution and program time estimation."""

import numpy as np
import pytest

from repro.core.config import ExecutionConfig, LoweringStrategy
from repro.core.cost_model import CostModel
from repro.core.graph import ComputationGraph
from repro.core.ir import IRProgram, IRStep, IRComputeOp
from repro.core.lowering import lower_all_ranks
from repro.core.schedule_sim import IRExecutor, estimate_program_time
from repro.core.slicing import generate_all_ops, generate_local_ops, ops_table
from repro.core.stationary import Stationary
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Block2D, ColumnBlock, RowBlock
from repro.runtime.runtime import Runtime
from repro.topology.machines import uniform_system
from repro.util.validation import SchedulingError
from tests.pricing_oracle import op_accumulate_time, op_compute_time, op_fetch_time


def build_problem(materialize=True):
    runtime = Runtime(machine=uniform_system(4))
    rng = np.random.default_rng(2)
    m, n, k = 28, 26, 20
    if materialize:
        a = DistributedMatrix.from_dense(runtime, rng.standard_normal((m, k)), RowBlock(),
                                         name="A")
        b = DistributedMatrix.from_dense(runtime, rng.standard_normal((k, n)), ColumnBlock(),
                                         name="B")
        c = DistributedMatrix.create(runtime, (m, n), Block2D(), dtype=np.float64, name="C")
    else:
        a = DistributedMatrix.create(runtime, (m, k), RowBlock(), name="A", materialize=False)
        b = DistributedMatrix.create(runtime, (k, n), ColumnBlock(), name="B",
                                     materialize=False)
        c = DistributedMatrix.create(runtime, (m, n), Block2D(), name="C", materialize=False)
    return runtime, a, b, c


class TestEstimateProgramTime:
    def test_steps_overlap_comm_and_compute(self):
        runtime, a, b, c = build_problem(materialize=False)
        cost_model = CostModel(runtime.machine)
        ops = generate_local_ops(a, b, c, Stationary.C, 1)
        cols = IRExecutor(a, b, c, cost_model).price(ops_table(a, b, c, {1: ops}))
        graph = ComputationGraph.build(1, cols)
        programs = lower_all_ranks(cols)
        estimate = estimate_program_time(programs[1], graph)
        serial = sum(op_compute_time(cost_model, op) + op_fetch_time(cost_model, op)
                     + op_accumulate_time(cost_model, op) for op in ops)
        assert 0.0 < estimate <= serial + 1e-12

    def test_empty_program(self):
        runtime, a, b, c = build_problem(materialize=False)
        cost_model = CostModel(runtime.machine)
        cols = IRExecutor(a, b, c, cost_model).price(ops_table(a, b, c, {}))
        graph = ComputationGraph.build(0, cols)
        assert estimate_program_time(IRProgram(rank=0), graph) == 0.0


class TestIRExecutor:
    def test_result_matches_numpy(self):
        runtime, a, b, c = build_problem()
        cost_model = CostModel(runtime.machine)
        executor = IRExecutor(a, b, c, cost_model, ExecutionConfig())
        cols = executor.price(ops_table(a, b, c, generate_all_ops(a, b, c, Stationary.C)))
        makespan, stats = executor.execute(cols, lower_all_ranks(cols))
        np.testing.assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense(), rtol=1e-9)
        assert makespan > 0.0
        assert sum(s.flops for s in stats.values()) == 2 * 28 * 26 * 20

    def test_simulate_only_mode_touches_no_data(self):
        runtime, a, b, c = build_problem(materialize=False)
        cost_model = CostModel(runtime.machine)
        executor = IRExecutor(a, b, c, cost_model, ExecutionConfig(simulate_only=True))
        cols = executor.price(ops_table(a, b, c, generate_all_ops(a, b, c, Stationary.C)))
        makespan, stats = executor.execute(cols, lower_all_ranks(cols))
        assert makespan > 0.0
        assert sum(s.remote_get_bytes for s in stats.values()) > 0

    def test_invalid_program_rejected(self):
        runtime, a, b, c = build_problem()
        cost_model = CostModel(runtime.machine)
        bad = {rank: IRProgram(rank=rank) for rank in range(4)}  # schedules nothing
        executor = IRExecutor(a, b, c, cost_model, ExecutionConfig())
        cols = executor.price(ops_table(a, b, c, generate_all_ops(a, b, c, Stationary.C)))
        with pytest.raises(ValueError):
            executor.execute(cols, bad)

    def test_missing_fetch_detected(self):
        runtime, a, b, c = build_problem()
        cost_model = CostModel(runtime.machine)
        per_rank_ops = generate_all_ops(a, b, c, Stationary.C)
        # Build programs that compute everything but never fetch anything.
        programs = {
            rank: IRProgram(rank=rank, steps=[
                IRStep(computes=[IRComputeOp(i) for i in range(len(ops))])
            ])
            for rank, ops in per_rank_ops.items()
        }
        executor = IRExecutor(a, b, c, cost_model, ExecutionConfig())
        cols = executor.price(ops_table(a, b, c, per_rank_ops))
        with pytest.raises(SchedulingError):
            executor.execute(cols, programs)

    @pytest.mark.parametrize("strategy", [LoweringStrategy.GREEDY,
                                          LoweringStrategy.COST_GREEDY])
    def test_all_lowerings_execute_correctly(self, strategy):
        runtime, a, b, c = build_problem()
        cost_model = CostModel(runtime.machine)
        executor = IRExecutor(a, b, c, cost_model, ExecutionConfig())
        cols = executor.price(ops_table(a, b, c, generate_all_ops(a, b, c, Stationary.B)))
        executor.execute(cols, lower_all_ranks(cols, ExecutionConfig(), strategy))
        np.testing.assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense(), rtol=1e-9)
