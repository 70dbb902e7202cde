"""The tile grid: an axis-aligned tiling of a matrix into rectangular tiles.

A :class:`TileGrid` is defined by two strictly increasing split lists — one
per axis, each starting at 0 and ending at the matrix extent — whose cross
product induces the tiles.  Tile ``(i, j)`` covers rows
``[row_splits[i], row_splits[i+1])`` and columns
``[col_splits[j], col_splits[j+1])``.

``overlapping_tiles`` is the range query at the heart of the universal
algorithm's slicing step (the ``overlapping_tiles(slice)`` primitive of the
paper's Table 1): given a query rectangle it returns every tile index whose
bounds intersect it.  Because the splits are sorted, the overlapping index
range on each axis is located with :func:`bisect.bisect` in O(log n); the
result is the cross product of the two ranges, so the query costs
O(log n + output) rather than a scan of the whole grid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Sequence, Tuple

from repro.util.indexing import Interval, Rect
from repro.util.validation import PartitionError

TileIndex = Tuple[int, int]


def _validate_splits(splits: Sequence[int], axis: str) -> Tuple[int, ...]:
    cleaned = tuple(int(s) for s in splits)
    if len(cleaned) < 2:
        raise PartitionError(
            f"{axis} splits need at least a start and an end, got {list(cleaned)}"
        )
    if cleaned[0] != 0:
        raise PartitionError(f"{axis} splits must start at 0, got {list(cleaned)}")
    for previous, current in zip(cleaned, cleaned[1:]):
        if current <= previous:
            raise PartitionError(
                f"{axis} splits must be strictly increasing, got {list(cleaned)}"
            )
    return cleaned


class TileGrid:
    """An immutable two-axis tiling described by its split points."""

    __slots__ = ("row_splits", "col_splits")

    def __init__(self, row_splits: Sequence[int], col_splits: Sequence[int]) -> None:
        self.row_splits = _validate_splits(row_splits, "row")
        self.col_splits = _validate_splits(col_splits, "column")

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #
    @property
    def matrix_shape(self) -> Tuple[int, int]:
        """The ``(rows, cols)`` extent of the tiled matrix."""
        return (self.row_splits[-1], self.col_splits[-1])

    @property
    def num_row_tiles(self) -> int:
        """Number of tiles along the row axis."""
        return len(self.row_splits) - 1

    @property
    def num_col_tiles(self) -> int:
        """Number of tiles along the column axis."""
        return len(self.col_splits) - 1

    @property
    def shape(self) -> Tuple[int, int]:
        """Number of tiles along each axis."""
        return (self.num_row_tiles, self.num_col_tiles)

    @property
    def num_tiles(self) -> int:
        """Total number of tiles in the grid."""
        return self.num_row_tiles * self.num_col_tiles

    # ------------------------------------------------------------------ #
    # tile enumeration and bounds
    # ------------------------------------------------------------------ #
    def tiles(self) -> Iterator[TileIndex]:
        """Iterate over all tile indices in row-major order."""
        for i in range(self.num_row_tiles):
            for j in range(self.num_col_tiles):
                yield (i, j)

    def tile_bounds(self, idx: TileIndex) -> Rect:
        """The global index rectangle covered by tile ``idx``."""
        i, j = int(idx[0]), int(idx[1])
        if not (0 <= i < self.num_row_tiles and 0 <= j < self.num_col_tiles):
            raise PartitionError(
                f"tile index ({i}, {j}) out of range for a "
                f"{self.num_row_tiles}x{self.num_col_tiles} grid"
            )
        return Rect(
            Interval(self.row_splits[i], self.row_splits[i + 1]),
            Interval(self.col_splits[j], self.col_splits[j + 1]),
        )

    def tile_shape(self, idx: TileIndex) -> Tuple[int, int]:
        """``(rows, cols)`` extent of tile ``idx``."""
        return self.tile_bounds(idx).shape

    # ------------------------------------------------------------------ #
    # range queries
    # ------------------------------------------------------------------ #
    @staticmethod
    def _axis_range(splits: Tuple[int, ...], interval: Interval) -> range:
        """Half-open range of tile indices on one axis overlapping ``interval``."""
        clipped = interval.intersect(Interval(0, splits[-1]))
        if not clipped:
            return range(0)
        # First tile whose end exceeds clipped.start; its start is the last
        # split point <= clipped.start.
        first = bisect_right(splits, clipped.start) - 1
        # Tiles whose start lies before clipped.stop.
        last = bisect_left(splits, clipped.stop)
        return range(first, last)

    def overlapping_tiles(self, rect: Rect) -> List[TileIndex]:
        """All tile indices whose bounds intersect ``rect`` (possibly empty).

        Runs in O(log n + number of overlapping tiles) thanks to bisection on
        the sorted split lists.
        """
        rows = self._axis_range(self.row_splits, rect.rows)
        if not rows:
            return []
        cols = self._axis_range(self.col_splits, rect.cols)
        return [(i, j) for i in rows for j in cols]

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TileGrid):
            return NotImplemented
        return self.row_splits == other.row_splits and self.col_splits == other.col_splits

    def __hash__(self) -> int:
        return hash((self.row_splits, self.col_splits))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TileGrid({self.num_row_tiles}x{self.num_col_tiles} tiles over "
            f"{self.matrix_shape[0]}x{self.matrix_shape[1]})"
        )
