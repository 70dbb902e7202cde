"""Direct unit tests for partition strategies' grids and owner maps."""

import numpy as np
import pytest

from repro.dist.partition import (
    Block2D,
    BlockCyclic,
    ColumnBlock,
    CustomTiles,
    RowBlock,
)
from repro.dist.process_grid import ProcessGrid, near_square_factors
from repro.util.validation import PartitionError


class TestNearSquareFactors:
    @pytest.mark.parametrize("count,expected", [
        (1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (6, (2, 3)),
        (7, (1, 7)), (12, (3, 4)), (16, (4, 4)), (18, (3, 6)),
    ])
    def test_known_factorings(self, count, expected):
        assert near_square_factors(count) == expected

    def test_rows_never_exceed_cols(self):
        for count in range(1, 200):
            rows, cols = near_square_factors(count)
            assert rows * cols == count
            assert rows <= cols


class TestProcessGrid:
    def test_row_major_roundtrip(self):
        grid = ProcessGrid(3, 4)
        positions = [grid.position_of(i, j) for (i, j) in grid]
        assert positions == list(range(12))
        for position in range(12):
            assert grid.position_of(*grid.coords_of(position)) == position


class TestRowAndColumnBlock:
    def test_row_block_one_panel_per_owner(self):
        grid, owners = RowBlock().build((32, 16), 4)
        assert grid.shape == (4, 1)
        assert grid.row_splits == (0, 8, 16, 24, 32)
        assert grid.col_splits == (0, 16)
        np.testing.assert_array_equal(owners[:, 0], [0, 1, 2, 3])

    def test_column_block_one_panel_per_owner(self):
        grid, owners = ColumnBlock().build((10, 20), 5)
        assert grid.shape == (1, 5)
        np.testing.assert_array_equal(owners[0, :], [0, 1, 2, 3, 4])

    def test_uneven_extent_front_loads_remainder(self):
        grid, _ = RowBlock().build((10, 4), 4)
        assert grid.row_splits == (0, 3, 6, 8, 10)

    def test_more_owners_than_rows_clamps_tiles(self):
        grid, owners = RowBlock().build((3, 8), 5)
        assert grid.shape == (3, 1)
        assert set(int(o) for o in owners.ravel()) == {0, 1, 2}

    def test_explicit_block_count(self):
        grid, owners = RowBlock(num_blocks=8).build((32, 4), 4)
        assert grid.shape == (8, 1)
        # Round-robin wraps the extra panels back onto the owners.
        np.testing.assert_array_equal(owners[:, 0], [0, 1, 2, 3, 0, 1, 2, 3])

    def test_invalid_block_count_rejected(self):
        with pytest.raises(ValueError):
            RowBlock(num_blocks=0).build((32, 4), 4)
        with pytest.raises(ValueError):
            ColumnBlock(num_blocks=-2).build((4, 32), 4)


class TestBlock2D:
    def test_near_square_grid_row_major_owners(self):
        grid, owners = Block2D().build((1536, 1536), 6)
        assert grid.shape == (2, 3)
        np.testing.assert_array_equal(owners, [[0, 1, 2], [3, 4, 5]])

    def test_explicit_grid(self):
        grid, owners = Block2D(grid_rows=4, grid_cols=1).build((16, 16), 4)
        assert grid.shape == (4, 1)
        np.testing.assert_array_equal(owners[:, 0], [0, 1, 2, 3])

    def test_mismatched_explicit_grid_rejected(self):
        with pytest.raises(PartitionError):
            Block2D(grid_rows=3, grid_cols=2).build((16, 16), 4)

    def test_partial_grid_spec_infers_other_axis(self):
        grid, _ = Block2D(grid_rows=2).build((16, 16), 6)
        assert grid.shape == (2, 3)
        with pytest.raises(PartitionError):
            Block2D(grid_rows=5).build((16, 16), 6)


class TestBlockCyclic:
    def test_tile_boundaries_fixed_size(self):
        grid, _ = BlockCyclic((5, 7)).build((12, 21), 4)
        assert grid.row_splits == (0, 5, 10, 12)
        assert grid.col_splits == (0, 7, 14, 21)

    def test_mismatched_explicit_grid_rejected(self):
        with pytest.raises(PartitionError):
            BlockCyclic((4, 4), grid=(2, 2)).build((16, 16), 3)

    def test_cyclic_owner_assignment(self):
        grid, owners = BlockCyclic((4, 4)).build((16, 16), 4)
        assert grid.shape == (4, 4)
        # 2x2 process grid dealt cyclically: owners repeat with period 2.
        np.testing.assert_array_equal(owners[:2, :2], owners[2:, 2:])
        assert set(int(o) for o in owners.ravel()) == {0, 1, 2, 3}


class TestCustomTiles:
    def test_round_robin_owners(self):
        grid, owners = CustomTiles([0, 13, 29, 50], [0, 10, 37]).build((50, 37), 4)
        assert grid.shape == (3, 2)
        np.testing.assert_array_equal(owners, [[0, 1], [2, 3], [0, 1]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PartitionError):
            CustomTiles([0, 10], [0, 10]).build((10, 12), 2)

    def test_invalid_splits_rejected(self):
        with pytest.raises(PartitionError):
            CustomTiles([0, 5, 5, 10], [0, 10]).build((10, 10), 2)
        with pytest.raises(PartitionError):
            CustomTiles([1, 10], [0, 10]).build((10, 10), 2)

    def test_equal_splits_compare_and_hash_equal(self):
        left = CustomTiles([0, 60, 170], [0, 110, 180])
        right = CustomTiles((0, 60, 170), (0, 110, 180))
        assert left == right
        assert hash(left) == hash(right)

    def test_different_splits_compare_unequal(self):
        base = CustomTiles([0, 60, 170], [0, 110, 180])
        assert base != CustomTiles([0, 70, 170], [0, 110, 180])
        assert base != CustomTiles([0, 60, 170], [0, 100, 180])
        # Row and column splits are not interchangeable.
        assert CustomTiles([0, 5, 10], [0, 10]) != CustomTiles([0, 10], [0, 5, 10])
        assert base != RowBlock()

    def test_usable_as_dict_key(self):
        table = {(CustomTiles([0, 60, 170], [0, 110, 180]), 2): "shared"}
        assert table[(CustomTiles([0, 60, 170], [0, 110, 180]), 2)] == "shared"
        assert (CustomTiles([0, 60, 170], [0, 110, 180]), 1) not in table


class TestNames:
    def test_metadata_names(self):
        assert RowBlock().name == "row"
        assert ColumnBlock().name == "column"
        assert Block2D().name == "block"
        assert BlockCyclic().name == "block_cyclic"
        assert CustomTiles([0, 1], [0, 1]).name == "custom"
