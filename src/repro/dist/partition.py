"""Partitioning strategies: shape + rank count -> tile grid + owner map.

A :class:`Partition` turns a matrix shape and the number of owning processes
(the ranks of *one* replica group) into a :class:`~repro.dist.tile_grid.TileGrid`
and an owner map assigning each tile a position in ``[0, num_owners)``.
Positions are per-replica; :class:`~repro.dist.matrix.DistributedMatrix`
combines them with a :class:`~repro.dist.replication.ReplicationSpec` to get
global ranks.

The strategies mirror the paper's evaluation space:

* :class:`RowBlock` / :class:`ColumnBlock` — 1-D block panels, one per owner.
* :class:`Block2D` — 2-D blocks on a (near-square or explicit) process grid.
* :class:`BlockCyclic` — fixed-size tiles dealt cyclically over a process
  grid, the classical ScaLAPACK layout.
* :class:`CustomTiles` — arbitrary user-provided split points (the paper's
  Figure 1 misaligned-tiles scenario); owners are assigned round-robin.

Owner maps are row-major everywhere: tile ``(i, j)`` of a ``pr x pc`` grid
belongs to position ``i * pc + j``, consistent with
:mod:`repro.dist.process_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.dist.process_grid import near_square_factors
from repro.dist.tile_grid import TileGrid
from repro.util.indexing import split_extent
from repro.util.validation import PartitionError, check_positive_int


def _block_splits(extent: int, parts: int) -> Tuple[int, ...]:
    """Split points for ``parts`` contiguous near-equal blocks of ``extent``.

    When ``parts`` exceeds ``extent`` the number of blocks is clamped so that
    every tile is non-empty (surplus owners simply own nothing).
    """
    check_positive_int(extent, "extent")
    effective = max(1, min(parts, extent))
    splits = [0]
    for length in split_extent(extent, effective):
        splits.append(splits[-1] + length)
    return tuple(splits)


class Partition:
    """Base class of all partitioning strategies."""

    #: Short name used in result metadata and reports.
    name: str = "partition"

    def build(self, shape: Tuple[int, int], num_owners: int) -> Tuple[TileGrid, np.ndarray]:
        """Return ``(grid, owners)`` for a matrix of ``shape`` over ``num_owners``.

        ``owners`` has one entry per tile (same 2-D layout as the grid) whose
        value is the owning position within a replica group.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _round_robin_owners(grid: TileGrid, num_owners: int) -> np.ndarray:
    """Row-major round-robin owner assignment (exact when tiles == owners)."""
    linear = np.arange(grid.num_tiles, dtype=np.int64) % num_owners
    return linear.reshape(grid.num_row_tiles, grid.num_col_tiles)


@dataclass(frozen=True)
class RowBlock(Partition):
    """1-D partitioning into contiguous row panels, one per owner.

    ``num_blocks`` overrides the panel count (defaults to the owner count);
    panels are assigned to positions in order.
    """

    num_blocks: Optional[int] = None
    name = "row"

    def build(self, shape: Tuple[int, int], num_owners: int) -> Tuple[TileGrid, np.ndarray]:
        """Row panels of near-equal height, owners assigned round-robin."""
        check_positive_int(num_owners, "num_owners")
        rows, cols = int(shape[0]), int(shape[1])
        blocks = num_owners if self.num_blocks is None else \
            check_positive_int(self.num_blocks, "num_blocks")
        grid = TileGrid(_block_splits(rows, blocks), (0, cols))
        return grid, _round_robin_owners(grid, num_owners)


@dataclass(frozen=True)
class ColumnBlock(Partition):
    """1-D partitioning into contiguous column panels, one per owner."""

    num_blocks: Optional[int] = None
    name = "column"

    def build(self, shape: Tuple[int, int], num_owners: int) -> Tuple[TileGrid, np.ndarray]:
        """Column panels of near-equal width, owners assigned round-robin."""
        check_positive_int(num_owners, "num_owners")
        rows, cols = int(shape[0]), int(shape[1])
        blocks = num_owners if self.num_blocks is None else \
            check_positive_int(self.num_blocks, "num_blocks")
        grid = TileGrid((0, rows), _block_splits(cols, blocks))
        return grid, _round_robin_owners(grid, num_owners)


@dataclass(frozen=True)
class Block2D(Partition):
    """2-D block partitioning on a process grid.

    Without arguments the owner count is factored into a near-square
    ``pr x pc`` grid (``pr <= pc``); ``grid_rows``/``grid_cols`` pin the grid
    explicitly (the benchmark schemes use this to aspect-match the matrix).
    """

    grid_rows: Optional[int] = None
    grid_cols: Optional[int] = None
    name = "block"

    def _grid_dims(self, num_owners: int) -> Tuple[int, int]:
        if self.grid_rows is not None and self.grid_cols is not None:
            if self.grid_rows * self.grid_cols != num_owners:
                raise PartitionError(
                    f"grid {self.grid_rows}x{self.grid_cols} does not cover "
                    f"{num_owners} owners"
                )
            return int(self.grid_rows), int(self.grid_cols)
        if self.grid_rows is not None:
            if num_owners % self.grid_rows:
                raise PartitionError(
                    f"grid_rows={self.grid_rows} does not divide {num_owners} owners"
                )
            return int(self.grid_rows), num_owners // int(self.grid_rows)
        if self.grid_cols is not None:
            if num_owners % self.grid_cols:
                raise PartitionError(
                    f"grid_cols={self.grid_cols} does not divide {num_owners} owners"
                )
            return num_owners // int(self.grid_cols), int(self.grid_cols)
        return near_square_factors(num_owners)

    def build(self, shape: Tuple[int, int], num_owners: int) -> Tuple[TileGrid, np.ndarray]:
        """One block per grid position, owned by that position (row-major)."""
        check_positive_int(num_owners, "num_owners")
        rows, cols = int(shape[0]), int(shape[1])
        grid_rows, grid_cols = self._grid_dims(num_owners)
        grid = TileGrid(_block_splits(rows, grid_rows), _block_splits(cols, grid_cols))
        # One tile per grid position; tiny extents only clamp the tile count,
        # so positions stay below grid_rows * grid_cols == num_owners.
        owners = (
            np.arange(grid.num_row_tiles, dtype=np.int64)[:, None] * grid_cols
            + np.arange(grid.num_col_tiles, dtype=np.int64)[None, :]
        )
        return grid, owners


@dataclass(frozen=True)
class BlockCyclic(Partition):
    """Fixed-size tiles dealt cyclically over a process grid (ScaLAPACK-style).

    ``tile_shape`` fixes the tile extent (the trailing tiles are clipped to
    the matrix); tile ``(i, j)`` belongs to grid position
    ``(i mod pr, j mod pc)``.
    """

    tile_shape: Tuple[int, int] = (64, 64)
    grid: Optional[Tuple[int, int]] = None
    name = "block_cyclic"

    def build(self, shape: Tuple[int, int], num_owners: int) -> Tuple[TileGrid, np.ndarray]:
        """Fixed ``tile_shape`` tiles dealt cyclically over the process grid."""
        check_positive_int(num_owners, "num_owners")
        rows, cols = int(shape[0]), int(shape[1])
        tile_rows, tile_cols = int(self.tile_shape[0]), int(self.tile_shape[1])
        check_positive_int(tile_rows, "tile rows")
        check_positive_int(tile_cols, "tile cols")
        row_splits = tuple(range(0, rows, tile_rows)) + (rows,)
        col_splits = tuple(range(0, cols, tile_cols)) + (cols,)
        grid = TileGrid(row_splits, col_splits)
        if self.grid is None:
            grid_rows, grid_cols = near_square_factors(num_owners)
        else:
            grid_rows, grid_cols = int(self.grid[0]), int(self.grid[1])
            check_positive_int(grid_rows, "grid rows")
            check_positive_int(grid_cols, "grid cols")
            if grid_rows * grid_cols != num_owners:
                raise PartitionError(
                    f"process grid {grid_rows}x{grid_cols} does not cover "
                    f"{num_owners} owners"
                )
        owners = (
            (np.arange(grid.num_row_tiles, dtype=np.int64)[:, None] % grid_rows) * grid_cols
            + (np.arange(grid.num_col_tiles, dtype=np.int64)[None, :] % grid_cols)
        )
        return grid, owners


class CustomTiles(Partition):
    """Arbitrary tile boundaries supplied directly as split lists.

    The split lists must start at 0 and end at the matrix extent (validated
    against the shape at build time).  Owners are assigned round-robin over
    the row-major tile order, so any tile count works with any owner count.
    """

    name = "custom"

    def __init__(self, row_splits: Sequence[int], col_splits: Sequence[int]) -> None:
        self.row_splits = tuple(int(s) for s in row_splits)
        self.col_splits = tuple(int(s) for s in col_splits)

    def build(self, shape: Tuple[int, int], num_owners: int) -> Tuple[TileGrid, np.ndarray]:
        """The given split lists (checked against ``shape``), owners round-robin."""
        check_positive_int(num_owners, "num_owners")
        grid = TileGrid(self.row_splits, self.col_splits)
        rows, cols = int(shape[0]), int(shape[1])
        if grid.matrix_shape != (rows, cols):
            raise PartitionError(
                f"custom tile splits cover {grid.matrix_shape}, but the matrix "
                f"shape is {(rows, cols)}"
            )
        return grid, _round_robin_owners(grid, num_owners)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CustomTiles):
            return NotImplemented
        return (self.row_splits, self.col_splits) == (other.row_splits, other.col_splits)

    def __hash__(self) -> int:
        return hash((CustomTiles, self.row_splits, self.col_splits))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CustomTiles({list(self.row_splits)}, {list(self.col_splits)})"
