"""repro.dist — the distributed-matrix data structure layer.

The layering inside the package is strictly bottom-up:

``tile_grid``
    Pure geometry: split lists, tile bounds, and the O(log n)
    ``overlapping_tiles`` range query.
``process_grid``
    Factoring rank counts into 2-D grids and the row-major coordinate map.
``replication``
    Replica groups and the per-replica ``work_share`` rule.
``partition``
    Strategies mapping (shape, owner count) to a tile grid + owner map.
``matrix``
    :class:`DistributedMatrix` — the Table 1 primitive set, backed by the
    simulated PGAS runtime.
``redistribute``
    Layout conversion through the runtime's one-sided gets, and its price.

Everything above this package (``repro.core``, the baselines, the bench
harness) consumes distributed matrices only through the interfaces exported
here.
"""

from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import (
    Block2D,
    BlockCyclic,
    ColumnBlock,
    CustomTiles,
    Partition,
    RowBlock,
)
from repro.dist.process_grid import ProcessGrid, near_square_factors
from repro.dist.redistribute import redistribute, redistribution_cost
from repro.dist.replication import ReplicationSpec
from repro.dist.tile_grid import TileGrid

__all__ = [
    "Block2D",
    "BlockCyclic",
    "ColumnBlock",
    "CustomTiles",
    "DistributedMatrix",
    "Partition",
    "ProcessGrid",
    "ReplicationSpec",
    "RowBlock",
    "TileGrid",
    "near_square_factors",
    "redistribute",
    "redistribution_cost",
]
