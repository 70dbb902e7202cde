"""The planner's contended column walk equals the op-object executor.

``BatchEvaluator.simulate`` ranks the winners with
``repro.core.walk.walk_columns``, the direct executor's walk: the contended
timing walk of a program's priced execution-order columns, its state held as
plain floats and lists.  The oracle is ``tests/direct_oracle.OracleExecutor``
on a fresh contended scheduling engine (``tests/engine_oracle.py``), walking
the same candidate's op objects.  The makespan and both remote-byte totals must be equal with ``==``
across machines (with and without accumulate-compute interference), every
``ExecutionConfig`` window, dense, block-sparse and MoE workloads, uneven
``CustomTiles`` and replication.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.schemes import PartitioningScheme, ua_schemes
from repro.bench.sweep import valid_replication_factors
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.stationary import parse_stationary
from repro.core.structure import BlockSparse, MoERagged
from repro.core.walk import walk_columns
from repro.dist.partition import CustomTiles
from repro.planner.search import enumerate_candidates
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import h100_system, pvc_system, uniform_system
from tests.direct_oracle import OracleExecutor
from tests.engine_oracle import OracleEngine
from tests.property.test_direct_oracle_properties import _oracle_ops

MACHINES = {
    "h100_8": h100_system(8),
    "pvc_12": pvc_system(12),
    "uniform_2": uniform_system(2),
    "uniform_4": uniform_system(4),
    "uniform_8": uniform_system(8),
}


def _uneven_splits(extent: int, parts: int, rng: random.Random) -> list:
    """``parts`` distinct uneven cuts of ``extent`` (fewer if it is too short)."""
    parts = max(1, min(parts, extent))
    return [0] + sorted(rng.sample(range(1, extent), parts - 1)) + [extent]


def uneven_scheme(seed: int) -> PartitioningScheme:
    """Custom tiles with seeded uneven splits, 1-2 tiles per owner."""

    def factory(role: str):
        def build(shape, owners):
            rng = random.Random(f"{seed}:{role}:{shape}:{owners}")
            rows = rng.choice([1, owners, 2 * owners])
            cols = max(1, (owners * rng.choice([1, 2])) // rows)
            return CustomTiles(_uneven_splits(shape[0], rows, rng),
                               _uneven_splits(shape[1], cols, rng))
        return build

    return PartitioningScheme(name=f"uneven_{seed}", label="uneven custom tiles",
                              a_factory=factory("A"), b_factory=factory("B"),
                              c_factory=factory("C"))


@st.composite
def walk_config(draw):
    return ExecutionConfig(
        simulate_only=True,
        prefetch_depth=draw(st.integers(min_value=0, max_value=3)),
        async_execution=draw(st.booleans()),
        max_concurrent_gemms=draw(st.integers(min_value=1, max_value=4)),
        max_concurrent_accumulates=draw(st.integers(min_value=1, max_value=4)),
        cache_remote_tiles=draw(st.booleans()),
        iteration_offset=draw(st.booleans()),
    )


@st.composite
def any_workload(draw):
    m, n, k = (draw(st.integers(min_value=2, max_value=6)) * 32 for _ in range(3))
    kind = draw(st.sampled_from(["dense", "block_sparse", "moe"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    if kind == "dense":
        return Workload(f"dense_{m}x{n}x{k}", m, n, k)
    if kind == "block_sparse":
        k_blocks, n_blocks = k // 32, n // 32
        mask = [[rng.random() < 0.6 for _ in range(n_blocks)] for _ in range(k_blocks)]
        mask[rng.randrange(k_blocks)][rng.randrange(n_blocks)] = True
        structure = BlockSparse(block_k=32, block_n=32,
                                mask=tuple(tuple(row) for row in mask))
        return Workload(f"bs_{m}x{n}x{k}", m, n, k, structure=structure)
    num_experts = rng.choice([2, 4])
    capacity = m // num_experts
    tokens = tuple(rng.randint(0, capacity) for _ in range(num_experts))
    if sum(tokens) == 0:
        tokens = (capacity,) + tokens[1:]
    structure = MoERagged(expert_tokens=tokens, capacity=capacity)
    return Workload(f"moe_{m}x{n}x{k}", m, n, k, structure=structure)


def _candidates(machine, workload, seed: int):
    schemes = list(ua_schemes()) + [uneven_scheme(seed)]
    candidates, _ = enumerate_candidates(
        machine, workload, machine.memory_capacity, schemes,
        valid_replication_factors(machine.num_devices), ("A", "B", "C"))
    return candidates


def _totals(makespan, stats):
    return (makespan, sum(s.remote_get_bytes for s in stats.values()),
            sum(s.remote_accumulate_bytes for s in stats.values()))


def column_walk(evaluator: BatchEvaluator, program, cols):
    """The walk ``simulate`` runs, on a program's execution-order columns."""
    cls = program.cls
    makespan, totals = walk_columns(cols, (cls.a, cls.b, cls.c), evaluator.config,
                                    evaluator.machine.accumulate_compute_interference)
    return (makespan, sum(totals.remote_get_bytes), sum(totals.remote_accumulate_bytes))


def oracle_walk(evaluator: BatchEvaluator, program):
    """The oracle: the op-object executor on a fresh contended scheduling engine."""
    cls = program.cls
    config = evaluator.config
    executor = OracleExecutor(cls.a, cls.b, cls.c, evaluator.cost_model, config,
                              engine=OracleEngine(evaluator.machine.num_devices),
                              structure=evaluator.structure)
    ops = _oracle_ops(cls.a, cls.b, cls.c, parse_stationary(program.candidate.stationary),
                      config, evaluator.structure)
    return _totals(*executor.execute(ops))


def assert_walks_equal(machine, workload, config, candidates) -> None:
    evaluator = BatchEvaluator(machine, workload, config)
    for candidate in candidates:
        program = evaluator.compile(candidate)
        cols = program.exec_columns(config.iteration_offset)
        assert column_walk(evaluator, program, cols) == oracle_walk(evaluator, program), \
            candidate


class TestColumnWalkEqualsOracle:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(machine=st.sampled_from(sorted(MACHINES)), config=walk_config(),
           workload=any_workload(), seed=st.integers(min_value=0, max_value=2**16))
    def test_walk_equals_oracle(self, machine, config, workload, seed):
        machine = MACHINES[machine]
        candidates = _candidates(machine, workload, seed)
        rng = random.Random(seed)
        assert_walks_equal(machine, workload, config,
                           rng.sample(candidates, k=min(4, len(candidates))))

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @pytest.mark.parametrize("async_execution", [False, True])
    def test_dense_search_sample(self, machine, async_execution):
        """A fixed sample of one dense search's candidates, paper defaults
        otherwise: deterministic coverage of contended egress/ingress and, on
        H100, of the accumulate-compute interference slice."""
        machine = MACHINES[machine]
        workload = Workload("dense_192x160x96", 192, 160, 96)
        config = ExecutionConfig(simulate_only=True, async_execution=async_execution)
        candidates = _candidates(machine, workload, seed=0)
        assert_walks_equal(machine, workload, config,
                           random.Random(0).sample(candidates, k=min(48, len(candidates))))

    def test_simulate_reports_the_walk(self):
        """``simulate``'s makespan and byte totals are the oracle's."""
        machine = MACHINES["h100_8"]
        workload = Workload("dense_256x256x128", 256, 256, 128)
        config = ExecutionConfig(simulate_only=True)
        evaluator = BatchEvaluator(machine, workload, config)
        for candidate in _candidates(machine, workload, seed=0)[:12]:
            program = evaluator.compile(candidate)
            makespan, get_bytes, acc_bytes = oracle_walk(evaluator, program)
            point = evaluator.simulate(candidate)
            reduce_time = (program.cls.reduce_time
                           if program.cls.c.replication.num_replicas > 1 else 0.0)
            assert point.simulated_time == makespan + reduce_time
            assert point.extra["remote_get_bytes"] == get_bytes
            assert point.extra["remote_accumulate_bytes"] == acc_bytes
