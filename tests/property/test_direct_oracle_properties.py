"""The direct executor's column walk against the op-object oracle.

``DirectExecutor`` walks priced slicing-table columns; ``tests/direct_oracle.py``
keeps the executor that walked ``LocalMatmulOp`` objects and priced each op
with scalar ``CostModel`` calls.  On the same inputs both must emit the same
events (every ``ScheduledEvent`` field, labels included), the same per-rank
``RankStats`` and makespan, the same memory-pool statistics, and — when
materialized — byte-identical C tiles in every replica.  The oracle
schedules on ``tests/engine_oracle.py``; the walk records on an
``EventEngine``, whose makespan must equal the scheduling engine's.  Three ways into the
walk are checked against the oracle:

* the op-list adapter ``DirectExecutor.execute``;
* the slicing table priced once and offset by index permutation, as
  ``universal_matmul`` runs it;
* a batch evaluator program's execution-order columns, as
  ``BatchEvaluator.simulate`` runs them (dense, block-sparse and MoE-ragged).

Inputs cover random and CuPy-style uneven ``CustomTiles`` with several tiles
per device, replication 1-3 on each operand, all three stationaries,
contended and relaxed engines, and every ``ExecutionConfig`` toggle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.schemes import scheme_by_name
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel
from repro.core.direct import DirectExecutor
from repro.core.matmul import universal_matmul
from repro.core.slicing import (
    OperandLayout,
    generate_all_ops,
    offset_permutation,
    slice_table,
)
from repro.core.stationary import Stationary
from repro.core.structure import BlockSparse, MoERagged
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Block2D, ColumnBlock, CustomTiles, RowBlock
from repro.planner.search import Candidate
from repro.runtime.runtime import Runtime
from repro.sim.batch import BatchEvaluator
from repro.sim.engine import EventEngine
from repro.topology.machines import GB, h100_system, pvc_system, uniform_system
from tests.direct_oracle import OracleExecutor
from tests.engine_oracle import OracleEngine
from tests.property.test_batch_evaluator_properties import CUPY_SPLITS
from tests.slicing_oracle import apply_iteration_offset, prune_structured_ops

MACHINES = {
    "pvc": pvc_system,
    "h100": h100_system,  # remote accumulates steal compute time
    "uniform": lambda p: uniform_system(p, link_bandwidth=25 * GB),
}


@st.composite
def configs(draw):
    return ExecutionConfig(
        prefetch_depth=draw(st.integers(min_value=0, max_value=3)),
        async_execution=draw(st.booleans()),
        max_concurrent_gemms=draw(st.integers(min_value=1, max_value=4)),
        max_concurrent_accumulates=draw(st.integers(min_value=1, max_value=4)),
        use_memory_pool=draw(st.booleans()),
        cache_remote_tiles=draw(st.booleans()),
        iteration_offset=draw(st.booleans()),
    )


@st.composite
def partitions(draw, rows, cols):
    kind = draw(st.sampled_from(["row", "column", "block", "custom"]))
    if kind == "row":
        return RowBlock()
    if kind == "column":
        return ColumnBlock()
    if kind == "block":
        return Block2D()

    def cuts(extent, most):
        count = draw(st.integers(min_value=0, max_value=most))
        interior = draw(st.lists(st.integers(min_value=1, max_value=extent - 1),
                                 min_size=count, max_size=count, unique=True))
        return [0] + sorted(interior) + [extent]

    return CustomTiles(cuts(rows, 4), cuts(cols, 3))


def _dense(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32) for shape in shapes]


def _operands(machine, shapes, parts, replication, materialize):
    """A fresh runtime holding A, B and a non-zero C (deterministic data)."""
    runtime = Runtime(machine=machine)
    matrices = []
    for name, dense, shape, part, rep in zip("ABC", _dense(shapes), shapes, parts,
                                             replication):
        if materialize:
            matrix = DistributedMatrix.from_dense(runtime, dense, part, replication=rep,
                                                  name=name)
        else:
            matrix = DistributedMatrix.create(runtime, shape, part, replication=rep,
                                              name=name, materialize=False)
        matrices.append(matrix)
    return runtime, matrices


def _oracle_ops(a, b, c, stationary, config, structure=None):
    ops = generate_all_ops(a, b, c, stationary)
    if structure is not None:
        ops = prune_structured_ops(ops, structure)
    if config.iteration_offset:
        ops = {rank: apply_iteration_offset(rank_ops) for rank, rank_ops in ops.items()}
    return ops


def _outcome(runtime, matrices, engine, makespan, stats):
    outcome = {"makespan": makespan, "stats": stats, "events": list(engine.events),
               "engine_makespan": engine.makespan(),
               "pools": [runtime.pool(rank).stats for rank in range(runtime.num_ranks)]}
    c = matrices[2]
    if c.materialized:
        outcome["c"] = [c.to_dense(replica).tobytes()
                        for replica in range(c.replication.num_replicas)]
    return outcome


def _check_walks(machine, shapes, parts, replication, stationary, config, contention,
                 materialize):
    config = config.evolve(simulate_only=not materialize)
    cost_model = CostModel(machine)
    runs = {}
    for way in ("oracle", "adapter", "table"):
        runtime, matrices = _operands(machine, shapes, parts, replication, materialize)
        a, b, c = matrices
        engine = (OracleEngine if way == "oracle" else EventEngine)(
            machine.num_devices, contention=contention)
        if way == "oracle":
            executor = OracleExecutor(a, b, c, cost_model, config, engine=engine)
            result = executor.execute(_oracle_ops(a, b, c, stationary, config))
        else:
            executor = DirectExecutor(a, b, c, cost_model, config, engine=engine)
            if way == "adapter":
                result = executor.execute(_oracle_ops(a, b, c, stationary, config))
            else:
                cols = executor.price(slice_table([(OperandLayout(a), OperandLayout(b),
                                                    OperandLayout(c), stationary)]))
                if config.iteration_offset:
                    order = offset_permutation(cols["rank"], cols["stat_i"],
                                               cols["stat_j"])
                    cols = {name: column[order] for name, column in cols.items()}
                result = executor.execute_columns(cols)
        runs[way] = _outcome(runtime, matrices, engine, *result)
    assert runs["adapter"] == runs["oracle"]
    assert runs["table"] == runs["oracle"]
    if contention:
        # universal_matmul's own walk: the same stats and makespan, and
        # C += A @ B in the reduce origin.
        _, (a, b, c) = _operands(machine, shapes, parts, replication, materialize)
        result = universal_matmul(a, b, c, stationary=stationary, config=config,
                                  cost_model=cost_model)
        assert result.per_rank == runs["oracle"]["stats"]
        assert result.compute_makespan == runs["oracle"]["makespan"]
        if materialize:
            a0, b0, c0 = _dense(shapes)
            np.testing.assert_allclose(c.to_dense(), c0 + a0 @ b0, rtol=1e-4, atol=1e-4)


class TestWalkEqualsOracle:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(sorted(MACHINES)),
           dims=st.tuples(*[st.integers(min_value=12, max_value=40)] * 3),
           replication=st.tuples(*[st.sampled_from([1, 2, 3])] * 3),
           stationary=st.sampled_from(list(Stationary)),
           config=configs(), contention=st.booleans(), materialize=st.booleans(),
           data=st.data())
    def test_random_partitionings(self, machine, dims, replication, stationary, config,
                                  contention, materialize, data):
        m, n, k = dims
        shapes = ((m, k), (k, n), (m, n))
        parts = [data.draw(partitions(*shape)) for shape in shapes]
        _check_walks(MACHINES[machine](6), shapes, parts, replication, stationary,
                     config, contention, materialize)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(sorted(MACHINES)),
           replication=st.sampled_from([(1, 1, 1), (2, 2, 2), (2, 1, 1), (1, 2, 1),
                                        (1, 1, 2)]),
           stationary=st.sampled_from(list(Stationary)),
           config=configs(), contention=st.booleans(), materialize=st.booleans())
    def test_cupy_uneven_splits(self, machine, replication, stationary, config,
                                contention, materialize):
        """CuPy's 60/110 and 110/70 index maps, two tiles per device."""
        shapes = ((100, 200), (200, 120), (100, 120))
        parts = [CustomTiles(*CUPY_SPLITS[name][4 // rep])
                 for name, rep in zip("ABC", replication)]
        _check_walks(MACHINES[machine](4), shapes, parts, replication, stationary,
                     config, contention, materialize)


STRUCTURED = [
    Workload("dense_96x64x128", 96, 64, 128),
    Workload("bs_96x128x128", 96, 128, 128, structure=BlockSparse(
        block_k=32, block_n=32,
        mask=((True, False, False, True), (False, False, False, False),
              (True, True, False, False), (False, True, False, True)))),
    Workload("moe_128x96x64", 128, 96, 64,
             structure=MoERagged(expert_tokens=(32, 5, 0, 17), capacity=32)),
]


class TestBatchProgramsEqualOracle:
    @pytest.mark.parametrize("workload", STRUCTURED, ids=lambda w: w.name)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(sorted(MACHINES)),
           replication=st.tuples(*[st.sampled_from([1, 2, 3])] * 3),
           scheme=st.sampled_from(["column", "row", "block", "inner", "outer"]),
           stationary=st.sampled_from(list(Stationary)),
           config=configs(), contention=st.booleans())
    def test_simulate_columns(self, workload, machine, replication, scheme, stationary,
                              config, contention):
        """A program's execution-order columns, as ``simulate`` walks them."""
        machine = MACHINES[machine](6)
        config = config.evolve(simulate_only=True)
        candidate = Candidate(index=0, scheme=scheme_by_name(scheme),
                              replication=replication, stationary=stationary.value,
                              memory_per_device=0)
        program = BatchEvaluator(machine, workload, config).compile(candidate)
        cls = program.cls
        structure = None if workload.structure.is_dense else workload.structure
        cost_model = CostModel(machine)
        runs = []
        for walk in ("oracle", "columns"):
            engine = (OracleEngine if walk == "oracle" else EventEngine)(
                machine.num_devices, contention=contention)
            if walk == "oracle":
                executor = OracleExecutor(cls.a, cls.b, cls.c, cost_model, config,
                                          engine=engine, structure=structure)
                result = executor.execute(_oracle_ops(cls.a, cls.b, cls.c, stationary,
                                                      config, structure))
            else:
                executor = DirectExecutor(cls.a, cls.b, cls.c, cost_model, config,
                                          engine=engine, structure=structure)
                result = executor.execute_columns(
                    program.exec_columns(config.iteration_offset))
            runs.append((result, list(engine.events), engine.makespan()))
        assert runs[0] == runs[1]
