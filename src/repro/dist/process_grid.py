"""Process grids: factoring a rank count into a 2-D grid and mapping coordinates.

Block partitionings place tile ``(i, j)`` on the process at grid coordinate
``(i, j)`` of a logical process grid.  The grid is row-major: coordinate
``(i, j)`` of a ``rows x cols`` grid is position ``i * cols + j``, which is
the convention every owner map in :mod:`repro.dist.partition` and the aligned
baselines (SUMMA, Cannon) share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.util.validation import check_in_range, check_positive_int


def near_square_factors(count: int) -> Tuple[int, int]:
    """Factor ``count`` into ``(rows, cols)`` with ``rows <= cols``, as square as possible.

    ``rows`` is the largest divisor of ``count`` that does not exceed
    ``sqrt(count)``, so e.g. ``6 -> (2, 3)``, ``12 -> (3, 4)``, ``7 -> (1, 7)``.
    """
    check_positive_int(count, "count")
    rows = 1
    for candidate in range(1, int(math.isqrt(count)) + 1):
        if count % candidate == 0:
            rows = candidate
    return rows, count // rows


@dataclass(frozen=True, slots=True)
class ProcessGrid:
    """A row-major ``rows x cols`` grid of process positions."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        check_positive_int(self.rows, "rows")
        check_positive_int(self.cols, "cols")

    @classmethod
    def near_square(cls, count: int) -> "ProcessGrid":
        """The grid of :func:`near_square_factors` for ``count`` positions."""
        rows, cols = near_square_factors(count)
        return cls(rows, cols)

    @property
    def size(self) -> int:
        """Number of positions, ``rows * cols``."""
        return self.rows * self.cols

    def position_of(self, row: int, col: int) -> int:
        """Linear position of grid coordinate ``(row, col)``."""
        check_in_range(row, 0, self.rows, "row")
        check_in_range(col, 0, self.cols, "col")
        return row * self.cols + col

    def coords_of(self, position: int) -> Tuple[int, int]:
        """Grid coordinate of a linear position (inverse of :meth:`position_of`)."""
        check_in_range(position, 0, self.size, "position")
        return divmod(position, self.cols)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for row in range(self.rows):
            for col in range(self.cols):
                yield (row, col)
