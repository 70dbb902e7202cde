"""The partitioning families ("UA - ...") plotted in the paper's figures.

Each scheme fixes how A, B, and C are partitioned; the replication factors and
the data-movement strategy are swept separately by the harness (the paper
reports the best-performing combination and annotates the replication factor
above each bar).

=============  ==================  ==================  ==================
scheme          A partition         B partition         C partition
=============  ==================  ==================  ==================
column          column blocks (k)   column blocks (n)   column blocks (n)
row             row blocks (m)      row blocks (k)      row blocks (m)
block           2D blocks (aspect)  2D blocks (aspect)  2D blocks (aspect)
inner           row blocks (m)      column blocks (n)   column blocks (n)
outer           column blocks (k)   row blocks (k)      2D blocks
traditional     aligned 2D blocks   aligned 2D blocks   aligned 2D blocks
=============  ==================  ==================  ==================

``column`` and ``inner`` only move the A matrix (B/C tiles are co-located),
which is why they dominate MLP-1; ``outer`` only accumulates C, which is why
it dominates MLP-2 on the bandwidth-starved PVC system; ``block`` moves two
matrices; ``traditional`` is the classical aligned ScaLAPACK layout included
to show the universal algorithm covers it as a special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Block2D, ColumnBlock, Partition, RowBlock
from repro.bench.workloads import Workload
from repro.runtime.runtime import Runtime


def aspect_grid(shape: Tuple[int, int], num_procs: int) -> Tuple[int, int]:
    """Factor ``num_procs`` into a grid whose aspect ratio best matches ``shape``.

    Used by the ``block`` scheme so that, e.g., a short-and-fat matrix gets a
    short-and-fat process grid, keeping tiles as square as possible.
    """
    rows, cols = int(shape[0]), int(shape[1])
    target = rows / cols
    best: Tuple[int, int] = (1, num_procs)
    best_error = float("inf")
    for grid_rows in range(1, num_procs + 1):
        if num_procs % grid_rows:
            continue
        grid_cols = num_procs // grid_rows
        error = abs((grid_rows / grid_cols) - target)
        if error < best_error:
            best_error = error
            best = (grid_rows, grid_cols)
    return best


#: Signature of the per-matrix partition factories: (matrix shape, procs per replica).
PartitionFactory = Callable[[Tuple[int, int], int], Partition]


@dataclass(frozen=True)
class PartitioningScheme:
    """A named (A, B, C) partition combination."""

    name: str
    label: str
    a_factory: PartitionFactory
    b_factory: PartitionFactory
    c_factory: PartitionFactory
    description: str = ""

    def partitions(self, workload: Workload, procs_per_replica_a: int,
                   procs_per_replica_b: int, procs_per_replica_c: int
                   ) -> Tuple[Partition, Partition, Partition]:
        a_shape, b_shape, c_shape = workload.shapes
        return (
            self.a_factory(a_shape, procs_per_replica_a),
            self.b_factory(b_shape, procs_per_replica_b),
            self.c_factory(c_shape, procs_per_replica_c),
        )

    def build_operands(self, runtime: Runtime, workload: Workload,
                       replication: Tuple[int, int, int], dtype=np.float32,
                       materialize: bool = True,
                       ) -> Tuple[DistributedMatrix, DistributedMatrix, DistributedMatrix]:
        """Create A, B and C under this scheme and ``replication`` on ``runtime``."""
        p = runtime.num_ranks
        parts = self.partitions(workload, *(p // rep for rep in replication))
        a, b, c = (
            DistributedMatrix.create(runtime, shape, part, replication=rep, dtype=dtype,
                                     name=name, materialize=materialize)
            for name, shape, part, rep in zip("ABC", workload.shapes, parts, replication)
        )
        return a, b, c


def _column(_shape: Tuple[int, int], _procs: int) -> Partition:
    return ColumnBlock()


def _row(_shape: Tuple[int, int], _procs: int) -> Partition:
    return RowBlock()


def _aspect_block(shape: Tuple[int, int], procs: int) -> Partition:
    rows, cols = aspect_grid(shape, procs)
    return Block2D(grid_rows=rows, grid_cols=cols)


def _square_block(_shape: Tuple[int, int], _procs: int) -> Partition:
    return Block2D()


#: The six universal-algorithm partitioning families of Figures 2-3, built
#: once (the schemes are frozen, so every caller can share them).
_UA_SCHEMES: Tuple[PartitioningScheme, ...] = (
    PartitioningScheme(
        name="column",
        label="UA - Column",
        a_factory=_column, b_factory=_column, c_factory=_column,
        description="all matrices column-block distributed; only A moves",
    ),
    PartitioningScheme(
        name="row",
        label="UA - Row",
        a_factory=_row, b_factory=_row, c_factory=_row,
        description="all matrices row-block distributed; B moves",
    ),
    PartitioningScheme(
        name="block",
        label="UA - Block",
        a_factory=_aspect_block, b_factory=_aspect_block, c_factory=_aspect_block,
        description="2D blocks with aspect-matched process grids; A and C move",
    ),
    PartitioningScheme(
        name="inner",
        label="UA - Inner Prod.",
        a_factory=_row, b_factory=_column, c_factory=_column,
        description="row panels of A times column panels of B; only A moves",
    ),
    PartitioningScheme(
        name="outer",
        label="UA - Outer Prod.",
        a_factory=_column, b_factory=_row, c_factory=_square_block,
        description="k-split outer product; C is accumulated remotely",
    ),
    PartitioningScheme(
        name="traditional",
        label="UA - Traditional",
        a_factory=_square_block, b_factory=_square_block, c_factory=_square_block,
        description="classical aligned 2D blocks on one near-square grid",
    ),
)
_BY_NAME: Dict[str, PartitioningScheme] = {scheme.name: scheme for scheme in _UA_SCHEMES}


def ua_schemes() -> List[PartitioningScheme]:
    """The six universal-algorithm partitioning families of Figures 2-3.

    A fresh list of the shared scheme objects.
    """
    return list(_UA_SCHEMES)


def scheme_by_name(name: str) -> PartitioningScheme:
    """The shared scheme called ``name`` (case-insensitive)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(f"unknown partitioning scheme {name!r}; "
                       f"available: {list(_BY_NAME)}") from None
