"""Unit tests for data-movement strategy selection."""

import pytest

from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel
from repro.core.matmul import universal_matmul
from repro.core.stationary import (
    Stationary,
    choose_stationary_by_cost,
    choose_stationary_by_size,
    estimate_all_strategies,
    parse_stationary,
)
from repro.core.structure import DENSE, BlockSparse, even_spread_mask
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Block2D, ColumnBlock, RowBlock
from repro.runtime.runtime import Runtime
from repro.topology.machines import uniform_system


@pytest.fixture
def runtime():
    return Runtime(machine=uniform_system(4))


def triplet(runtime, m, n, k):
    a = DistributedMatrix.create(runtime, (m, k), Block2D(), name="A", materialize=False)
    b = DistributedMatrix.create(runtime, (k, n), Block2D(), name="B", materialize=False)
    c = DistributedMatrix.create(runtime, (m, n), Block2D(), name="C", materialize=False)
    return a, b, c


class TestParseStationary:
    @pytest.mark.parametrize("value,expected", [
        ("A", Stationary.A), ("b", Stationary.B), ("C", Stationary.C),
        ("stationary_c", Stationary.C), ("Stationary-B", Stationary.B),
        (Stationary.A, Stationary.A),
    ])
    def test_accepted_spellings(self, value, expected):
        assert parse_stationary(value) is expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_stationary("D")
        with pytest.raises(ValueError):
            parse_stationary(42)


class TestSizeHeuristic:
    def test_largest_matrix_chosen_c(self, runtime):
        # m=n large, k small -> C is biggest.
        a, b, c = triplet(runtime, 512, 512, 32)
        assert choose_stationary_by_size(a, b, c) is Stationary.C

    def test_largest_matrix_chosen_b(self, runtime):
        # B = k x n is biggest.
        a, b, c = triplet(runtime, 32, 512, 512)
        assert choose_stationary_by_size(a, b, c) is Stationary.B

    def test_largest_matrix_chosen_a(self, runtime):
        a, b, c = triplet(runtime, 512, 32, 512)
        assert choose_stationary_by_size(a, b, c) is Stationary.A

    def test_tie_prefers_c(self, runtime):
        a, b, c = triplet(runtime, 128, 128, 128)
        assert choose_stationary_by_size(a, b, c) is Stationary.C


class TestCostBasedSelection:
    def test_estimates_cover_all_strategies(self, runtime):
        a, b, c = triplet(runtime, 96, 96, 96)
        model = CostModel(runtime.machine)
        estimates = estimate_all_strategies(a, b, c, model)
        assert set(estimates) == set(Stationary)
        assert all(value > 0 for value in estimates.values())

    def test_choice_is_argmin_of_estimates(self, runtime):
        a, b, c = triplet(runtime, 96, 192, 48)
        model = CostModel(runtime.machine)
        estimates = estimate_all_strategies(a, b, c, model)
        assert choose_stationary_by_cost(a, b, c, model) == min(estimates, key=estimates.get)

    def test_cost_model_prefers_avoiding_large_matrix_movement(self, runtime):
        """With an enormous B and small A/C the cost model must not move B."""
        a = DistributedMatrix.create(runtime, (64, 2048), ColumnBlock(), name="A",
                                     materialize=False)
        b = DistributedMatrix.create(runtime, (2048, 2048), RowBlock(), name="B",
                                     materialize=False)
        c = DistributedMatrix.create(runtime, (64, 2048), ColumnBlock(), name="C",
                                     materialize=False)
        model = CostModel(runtime.machine)
        estimates = estimate_all_strategies(a, b, c, model)
        assert estimates[Stationary.B] <= estimates[Stationary.A]


class TestStructuredCostSelection:
    """``stationary="cost"`` prices a structured workload's live work."""

    @staticmethod
    def _operands(runtime):
        a = DistributedMatrix.create(runtime, (128, 256), ColumnBlock(), name="A",
                                     materialize=False)
        b = DistributedMatrix.create(runtime, (256, 128), RowBlock(), name="B",
                                     materialize=False)
        c = DistributedMatrix.create(runtime, (128, 128), ColumnBlock(), name="C",
                                     materialize=False)
        return a, b, c

    def test_block_sparse_choice_is_the_fastest_strategy(self, runtime):
        # One live 64x64 block of B: the dense envelope favours keeping A in
        # place, but with 7 of 8 blocks masked Stationary C is far faster.
        structure = BlockSparse(64, 64, even_spread_mask(4, 2, 1))
        config = ExecutionConfig(simulate_only=True)
        chosen = universal_matmul(*self._operands(runtime), stationary="cost",
                                  config=config, structure=structure)
        times = {strategy: universal_matmul(*self._operands(runtime), stationary=strategy,
                                            config=config, structure=structure).simulated_time
                 for strategy in Stationary}
        assert chosen.stationary is Stationary.C
        assert times[Stationary.C] == min(times.values())

    def test_dense_structure_changes_nothing(self, runtime):
        a, b, c = self._operands(runtime)
        model = CostModel(runtime.machine)
        assert estimate_all_strategies(a, b, c, model, DENSE) \
            == estimate_all_strategies(a, b, c, model)
