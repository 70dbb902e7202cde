"""End-to-end correctness tests for the universal matmul across the partitioning space.

Every test multiplies real data through the PGAS runtime and compares the
gathered result against ``A @ B`` computed by NumPy — the same check the
paper's correctness claims rest on, exercised over aligned, misaligned, and
replicated distributions, all three data-movement strategies, and both the
direct and IR execution paths.
"""

import numpy as np
import pytest

from repro.core.config import ExecutionConfig, ExecutionMode, LoweringStrategy
from repro.core.matmul import plan_ops, universal_matmul
from repro.core.stationary import Stationary
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import (
    Block2D,
    BlockCyclic,
    ColumnBlock,
    CustomTiles,
    RowBlock,
)
from repro.runtime.runtime import Runtime
from repro.topology.machines import pvc_system, uniform_system
from repro.util.validation import ShapeError


def run_case(num_ranks, m, n, k, part_a, part_b, part_c, rep=(1, 1, 1),
             stationary=None, config=None, seed=0, dtype=np.float64):
    """Distribute random operands, multiply, and check against NumPy."""
    runtime = Runtime(machine=uniform_system(num_ranks))
    rng = np.random.default_rng(seed)
    a_dense = rng.standard_normal((m, k)).astype(dtype)
    b_dense = rng.standard_normal((k, n)).astype(dtype)
    a = DistributedMatrix.from_dense(runtime, a_dense, part_a, replication=rep[0], name="A")
    b = DistributedMatrix.from_dense(runtime, b_dense, part_b, replication=rep[1], name="B")
    c = DistributedMatrix.create(runtime, (m, n), part_c, replication=rep[2],
                                 dtype=dtype, name="C")
    config = config or ExecutionConfig(validate_ops=True)
    result = universal_matmul(a, b, c, stationary=stationary, config=config)
    tolerance = 1e-9 if np.dtype(dtype).itemsize >= 8 else 1e-3
    np.testing.assert_allclose(c.to_dense(0), a_dense @ b_dense,
                               rtol=tolerance, atol=tolerance)
    return result, runtime


ALL_1D_2D = [
    (RowBlock(), RowBlock(), RowBlock()),
    (ColumnBlock(), ColumnBlock(), ColumnBlock()),
    (Block2D(), Block2D(), Block2D()),
    (RowBlock(), ColumnBlock(), Block2D()),
    (ColumnBlock(), RowBlock(), Block2D()),
    (RowBlock(), ColumnBlock(), ColumnBlock()),
    (Block2D(), RowBlock(), ColumnBlock()),
]


class TestAllPartitionCombinations:
    @pytest.mark.parametrize("parts", ALL_1D_2D)
    def test_correct_for_partitioning(self, parts):
        result, _ = run_case(4, 30, 26, 22, *parts)
        assert result.total_ops > 0

    @pytest.mark.parametrize("stationary", list(Stationary))
    @pytest.mark.parametrize("parts", [
        (ColumnBlock(), RowBlock(), Block2D()),
        (Block2D(), Block2D(), Block2D()),
    ])
    def test_correct_for_every_stationary_strategy(self, parts, stationary):
        result, _ = run_case(6, 36, 30, 24, *parts, stationary=stationary)
        assert result.stationary is stationary

    def test_block_cyclic_partitioning(self):
        parts = (BlockCyclic((5, 5)), BlockCyclic((5, 7)), BlockCyclic((7, 7)))
        run_case(4, 20, 21, 15, *parts)

    def test_misaligned_custom_tiles(self):
        parts = (
            CustomTiles([0, 13, 29, 50], [0, 10, 37]),
            CustomTiles([0, 20, 37], [0, 7, 30, 41]),
            CustomTiles([0, 25, 50], [0, 11, 41]),
        )
        run_case(4, 50, 41, 37, *parts)

    def test_single_rank_degenerate(self):
        run_case(1, 12, 10, 8, RowBlock(), RowBlock(), RowBlock())

    def test_rectangular_very_tall(self):
        run_case(4, 96, 8, 8, RowBlock(), Block2D(), RowBlock())

    def test_rectangular_very_wide(self):
        run_case(4, 8, 96, 8, ColumnBlock(), ColumnBlock(), ColumnBlock())


class TestReplicationCombinations:
    @pytest.mark.parametrize("rep", [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2),
                                     (4, 1, 1), (1, 1, 4), (2, 4, 1), (4, 2, 2)])
    def test_replication_factors(self, rep):
        run_case(4, 28, 24, 20, Block2D(), Block2D(), Block2D(), rep=rep)

    def test_full_replication_of_everything(self):
        result, runtime = run_case(4, 16, 16, 16, RowBlock(), RowBlock(), RowBlock(),
                                   rep=(4, 4, 4))
        # Everything local: no remote gets should have been needed.
        assert result.remote_get_bytes == 0

    def test_mixed_replication_with_uneven_groups(self):
        run_case(6, 30, 24, 18, ColumnBlock(), RowBlock(), Block2D(), rep=(2, 3, 1))

    def test_replicated_c_reduce_time_reported(self):
        result, _ = run_case(4, 24, 24, 24, ColumnBlock(), RowBlock(), Block2D(),
                             rep=(1, 1, 2), stationary="B")
        assert result.reduce_time > 0.0

    def test_unreplicated_c_has_no_reduce_time(self):
        result, _ = run_case(4, 24, 24, 24, Block2D(), Block2D(), Block2D())
        assert result.reduce_time == 0.0


class TestExecutionModes:
    def test_ir_greedy_matches_reference(self):
        config = ExecutionConfig(mode=ExecutionMode.IR, lowering=LoweringStrategy.GREEDY)
        run_case(4, 30, 26, 22, Block2D(), Block2D(), Block2D(), config=config)

    def test_ir_cost_greedy_matches_reference(self):
        config = ExecutionConfig(mode=ExecutionMode.IR,
                                 lowering=LoweringStrategy.COST_GREEDY)
        run_case(4, 30, 26, 22, ColumnBlock(), RowBlock(), Block2D(), config=config)

    def test_ir_exhaustive_matches_reference(self):
        config = ExecutionConfig(mode=ExecutionMode.IR,
                                 lowering=LoweringStrategy.EXHAUSTIVE,
                                 exhaustive_search_limit=5000)
        run_case(4, 16, 16, 16, Block2D(), Block2D(), Block2D(), config=config)

    def test_synchronous_config_matches_reference(self):
        config = ExecutionConfig.synchronous()
        run_case(4, 30, 26, 22, Block2D(), Block2D(), Block2D(), config=config)

    def test_no_memory_pool(self):
        config = ExecutionConfig(use_memory_pool=False)
        run_case(4, 24, 24, 24, RowBlock(), ColumnBlock(), Block2D(), config=config)

    def test_no_tile_cache(self):
        config = ExecutionConfig(cache_remote_tiles=False)
        run_case(4, 24, 24, 24, RowBlock(), RowBlock(), RowBlock(), config=config)

    def test_deep_prefetch(self):
        config = ExecutionConfig(prefetch_depth=8)
        run_case(4, 24, 24, 24, ColumnBlock(), ColumnBlock(), ColumnBlock(), config=config)

    def test_float32_accumulation(self):
        run_case(4, 20, 20, 20, Block2D(), Block2D(), Block2D(), dtype=np.float32)


class TestResultMetadata:
    def test_flops_match_problem(self):
        result, _ = run_case(4, 30, 26, 22, Block2D(), Block2D(), Block2D())
        assert result.total_flops == 2 * 30 * 26 * 22

    def test_percent_of_peak_in_range(self):
        result, _ = run_case(4, 30, 26, 22, Block2D(), Block2D(), Block2D())
        assert 0.0 < result.percent_of_peak <= 100.0

    def test_simulated_time_positive_and_composed(self):
        result, _ = run_case(4, 30, 26, 22, Block2D(), Block2D(), Block2D())
        assert result.simulated_time == pytest.approx(
            result.compute_makespan + result.reduce_time
        )

    def test_per_rank_stats_cover_all_ranks(self):
        result, _ = run_case(4, 30, 26, 22, Block2D(), Block2D(), Block2D())
        assert set(result.per_rank) == {0, 1, 2, 3}
        assert sum(s.flops for s in result.per_rank.values()) == result.total_flops

    def test_metadata_records_partitions_and_replication(self):
        result, _ = run_case(4, 30, 26, 22, RowBlock(), ColumnBlock(), Block2D(),
                             rep=(2, 1, 1))
        assert result.metadata["partitions"] == {"A": "row", "B": "column", "C": "block"}
        assert result.metadata["replication"] == {"A": 2, "B": 1, "C": 1}

    def test_summary_is_flat_dict(self):
        result, _ = run_case(4, 20, 20, 20, Block2D(), Block2D(), Block2D())
        summary = result.summary()
        assert summary["stationary"] in ("A", "B", "C")
        assert isinstance(summary["percent_of_peak"], float)

    def test_traffic_counter_agrees_with_result(self):
        result, runtime = run_case(4, 30, 26, 22, ColumnBlock(), ColumnBlock(),
                                   ColumnBlock(), stationary="C")
        assert runtime.traffic.total_bytes("get", remote_only=True) == result.remote_get_bytes

    def test_ir_traffic_counter_agrees_with_result(self):
        # The IR fetches whole tiles, so it must count (and price) whole
        # tiles, not the first op's slice of each.
        results = {}
        for mode in ExecutionMode:
            result, runtime = run_case(4, 256, 256, 256, ColumnBlock(), Block2D(),
                                       Block2D(), stationary="C", dtype=np.float32,
                                       config=ExecutionConfig(mode=mode))
            assert runtime.traffic.total_bytes("get", remote_only=True) \
                == result.remote_get_bytes
            results[mode] = result.remote_get_bytes
        assert results[ExecutionMode.IR] == results[ExecutionMode.DIRECT] == 1_048_576


class TestCommunicationShape:
    """Communication-volume properties the paper's analysis relies on."""

    def test_column_scheme_moves_only_a(self):
        result, runtime = run_case(4, 32, 32, 32, ColumnBlock(), ColumnBlock(),
                                   ColumnBlock(), stationary="C")
        # B and C tiles are co-located per rank, so the only remote traffic is A:
        # each of the 4 ranks fetches the 3 A column tiles it does not own.
        a_tile_bytes = 32 * 8 * 8
        assert result.remote_accumulate_bytes == 0
        assert result.remote_get_bytes == 4 * 3 * a_tile_bytes

    def test_outer_product_only_accumulates_c(self):
        result, _ = run_case(4, 32, 32, 32, ColumnBlock(), RowBlock(), Block2D(),
                             stationary="B")
        assert result.remote_get_bytes == 0
        assert result.remote_accumulate_bytes > 0

    def test_replication_reduces_remote_gets(self):
        base, _ = run_case(4, 32, 32, 32, RowBlock(), RowBlock(), RowBlock(),
                           stationary="C")
        replicated, _ = run_case(4, 32, 32, 32, RowBlock(), RowBlock(), RowBlock(),
                                 rep=(1, 2, 1), stationary="C")
        assert replicated.remote_get_bytes < base.remote_get_bytes


class TestErrorHandling:
    def test_shape_mismatch_rejected(self):
        runtime = Runtime(machine=uniform_system(4))
        a = DistributedMatrix.create(runtime, (10, 6), Block2D(), name="A")
        b = DistributedMatrix.create(runtime, (7, 12), Block2D(), name="B")
        c = DistributedMatrix.create(runtime, (10, 12), Block2D(), name="C")
        with pytest.raises(ShapeError):
            universal_matmul(a, b, c)

    def test_different_runtimes_rejected(self):
        rt1 = Runtime(machine=uniform_system(4))
        rt2 = Runtime(machine=uniform_system(4))
        a = DistributedMatrix.create(rt1, (8, 8), Block2D(), name="A")
        b = DistributedMatrix.create(rt2, (8, 8), Block2D(), name="B")
        c = DistributedMatrix.create(rt1, (8, 8), Block2D(), name="C")
        with pytest.raises(ShapeError):
            universal_matmul(a, b, c)

    def test_accumulates_into_existing_c(self):
        runtime = Runtime(machine=uniform_system(4))
        rng = np.random.default_rng(5)
        a_dense = rng.standard_normal((16, 12))
        b_dense = rng.standard_normal((12, 14))
        a = DistributedMatrix.from_dense(runtime, a_dense, Block2D(), name="A")
        b = DistributedMatrix.from_dense(runtime, b_dense, Block2D(), name="B")
        c = DistributedMatrix.create(runtime, (16, 14), Block2D(), dtype=np.float64, name="C")
        c.fill(1.0)
        universal_matmul(a, b, c)
        np.testing.assert_allclose(c.to_dense(), a_dense @ b_dense + 1.0, rtol=1e-9)


class TestReplicatedOutput:
    """``C += A @ B`` lands in the reduce origin whatever C's replication:
    C's starting contents are counted once, not once per replica."""

    @staticmethod
    def _operands(rep, materialize=True):
        runtime = Runtime(machine=pvc_system(4))
        rng = np.random.default_rng(11)
        dense = [rng.standard_normal(shape) for shape in ((24, 20), (20, 28), (24, 28))]
        if not materialize:
            return dense, [DistributedMatrix.create(runtime, d.shape, part, replication=r,
                                                    dtype=d.dtype, name=name,
                                                    materialize=False)
                           for d, part, r, name in zip(dense, PARTS, (1, 1, rep), "ABC")]
        return dense, [DistributedMatrix.from_dense(runtime, d, part, replication=r,
                                                    name=name)
                       for d, part, r, name in zip(dense, PARTS, (1, 1, rep), "ABC")]

    @pytest.mark.parametrize("mode", [ExecutionMode.DIRECT, ExecutionMode.IR])
    @pytest.mark.parametrize("last", [False, True], ids=["origin_first", "origin_last"])
    @pytest.mark.parametrize("rep", [1, 2, 4])
    def test_starting_contents_counted_once(self, rep, last, mode):
        (a_dense, b_dense, c0), (a, b, c) = self._operands(rep)
        origin = rep - 1 if last else 0
        result = universal_matmul(a, b, c, config=ExecutionConfig(mode=mode),
                                  reduce_origin=origin)
        np.testing.assert_allclose(c.to_dense(origin), c0 + a_dense @ b_dense,
                                   rtol=1e-12, atol=1e-12)
        # Clearing the other replicas is out of band: modelled times match a
        # simulate-only run of the same layout.
        _, (a, b, c) = self._operands(rep, materialize=False)
        simulated = universal_matmul(a, b, c, reduce_origin=origin,
                                     config=ExecutionConfig(mode=mode, simulate_only=True))
        assert result.simulated_time == simulated.simulated_time

    @pytest.mark.parametrize("rep, origin", [(1, 3), (1, 1), (2, 2), (2, -1), (4, 4)])
    def test_bad_origin_rejected_before_any_work(self, rep, origin):
        _, (a, b, c) = self._operands(rep)
        before = [c.to_dense(replica) for replica in range(rep)]
        with pytest.raises(ValueError, match="reduce_origin"):
            universal_matmul(a, b, c, reduce_origin=origin)
        for replica in range(rep):
            assert np.array_equal(c.to_dense(replica), before[replica])


PARTS = (RowBlock(), ColumnBlock(), Block2D())


class TestPlanOps:
    def test_plan_without_execution(self):
        runtime = Runtime(machine=uniform_system(4))
        a = DistributedMatrix.create(runtime, (64, 64), Block2D(), name="A",
                                     materialize=False)
        b = DistributedMatrix.create(runtime, (64, 64), Block2D(), name="B",
                                     materialize=False)
        c = DistributedMatrix.create(runtime, (64, 64), Block2D(), name="C",
                                     materialize=False)
        plan = plan_ops(a, b, c)
        assert set(plan) == {0, 1, 2, 3}
        assert all(ops for ops in plan.values())

    def test_simulate_only_matches_materialized_timing(self):
        """The modelled time must not depend on whether data actually moves."""
        def build(materialize):
            runtime = Runtime(machine=uniform_system(4))
            a = DistributedMatrix.create(runtime, (64, 48), RowBlock(), name="A",
                                         materialize=materialize)
            b = DistributedMatrix.create(runtime, (48, 56), ColumnBlock(), name="B",
                                         materialize=materialize)
            c = DistributedMatrix.create(runtime, (64, 56), Block2D(), name="C",
                                         materialize=materialize)
            config = ExecutionConfig(simulate_only=not materialize)
            return universal_matmul(a, b, c, stationary="C", config=config)

        real = build(True)
        symbolic = build(False)
        assert symbolic.simulated_time == pytest.approx(real.simulated_time, rel=1e-9)
        assert symbolic.remote_get_bytes == real.remote_get_bytes
