"""The distributed matrix: tiles + owners + replicas on the PGAS runtime.

A :class:`DistributedMatrix` combines

* a :class:`~repro.dist.tile_grid.TileGrid` (where the tiles are),
* an owner map from a :class:`~repro.dist.partition.Partition` (which
  per-replica position holds each tile), and
* a :class:`~repro.dist.replication.ReplicationSpec` (how the ranks divide
  into replica groups),

and materialises each tile as a runtime allocation present on its ``c``
owner ranks — one per replica — addressable from any rank through one-sided
``get``/``put``/``accumulate``.  The method set is the paper's Table 1
primitive set: ``grid_shape``, ``tile``, ``get_tile``, ``get_tile_async``,
``accumulate_tile``, ``broadcast_replica``, ``reduce_replicas``,
``overlapping_tiles``, and ``tile_bounds``.

Data *distribution* helpers (``from_dense``, ``to_dense``, ``fill``,
``fill_random``) write through local heap views without touching the traffic
counters: they model out-of-band data loading, so the
accounted communication of an execution is exactly what the algorithm itself
moved.  ``materialize=False`` builds the metadata only (no allocations),
which is what the simulate-only benchmark sweeps use to explore full-size
problems without the memory footprint.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dist.partition import Partition
from repro.dist.replication import ReplicationSpec
from repro.dist.tile_grid import TileGrid, TileIndex
from repro.runtime.future import Future
from repro.runtime.memory import SymmetricHandle
from repro.runtime.runtime import Runtime
from repro.util.indexing import Rect
from repro.util.validation import (
    CommunicationError,
    PartitionError,
    check_in_range,
    check_matrix,
)


class DistributedMatrix:
    """A dense 2-D matrix tiled and replicated over the ranks of a runtime."""

    def __init__(
        self,
        runtime: Runtime,
        shape: Sequence[int],
        partition: Partition,
        replication: int = 1,
        dtype: Union[np.dtype, type, str] = np.float32,
        name: str = "",
        materialize: bool = True,
    ) -> None:
        self.runtime = runtime
        self.shape: Tuple[int, int] = (int(shape[0]), int(shape[1]))
        if self.shape[0] <= 0 or self.shape[1] <= 0:
            raise PartitionError(f"matrix shape must be positive, got {self.shape}")
        self.partition = partition
        self.dtype = np.dtype(dtype)
        self.name = name or "matrix"
        self.replication = ReplicationSpec(runtime.num_ranks, replication)
        grid, owners = partition.build(self.shape, self.replication.ranks_per_replica)
        if grid.matrix_shape != self.shape:
            raise PartitionError(
                f"partition {partition.name!r} built a grid covering "
                f"{grid.matrix_shape}, expected {self.shape}"
            )
        self.grid: TileGrid = grid
        self._owners = np.asarray(owners, dtype=np.int64)
        if self._owners.shape != grid.shape:
            raise PartitionError(
                f"owner map shape {self._owners.shape} does not match the "
                f"{grid.shape} tile grid"
            )
        positions = self._owners.ravel().tolist()
        ranks_per_replica = self.replication.ranks_per_replica
        ncols = grid.num_col_tiles
        if min(positions) < 0 or max(positions) >= ranks_per_replica:
            flat = next(flat for flat, position in enumerate(positions)
                        if not 0 <= position < ranks_per_replica)
            raise PartitionError(
                f"partition {partition.name!r} puts tile {divmod(flat, ncols)} on "
                f"owner position {positions[flat]}, outside [0, {ranks_per_replica})"
            )
        self._tiles_by_position: Dict[int, List[TileIndex]] = {}
        for flat, position in enumerate(positions):
            self._tiles_by_position.setdefault(position, []).append(divmod(flat, ncols))
        self.materialized = bool(materialize)
        self._freed = False
        self._handles: Dict[TileIndex, SymmetricHandle] = {}
        if self.materialized:
            self._allocate_tiles()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        runtime: Runtime,
        shape: Sequence[int],
        partition: Partition,
        replication: int = 1,
        dtype: Union[np.dtype, type, str] = np.float32,
        name: str = "",
        materialize: bool = True,
    ) -> "DistributedMatrix":
        """Create a zero-initialised distributed matrix (Table 1 ``create``)."""
        return cls(runtime, shape, partition, replication=replication, dtype=dtype,
                   name=name, materialize=materialize)

    @classmethod
    def from_dense(
        cls,
        runtime: Runtime,
        dense: np.ndarray,
        partition: Partition,
        replication: int = 1,
        name: str = "",
    ) -> "DistributedMatrix":
        """Distribute an in-memory dense matrix (out-of-band, no traffic)."""
        dense = check_matrix(dense, name or "dense")
        matrix = cls(runtime, dense.shape, partition, replication=replication,
                     dtype=dense.dtype, name=name, materialize=True)
        matrix._scatter(dense)
        return matrix

    def _allocate_tiles(self) -> None:
        for idx in self.grid.tiles():
            position = int(self._owners[idx])
            owner_ranks = [
                self.replication.rank_of(replica, position)
                for replica in range(self.replication.num_replicas)
            ]
            self._handles[idx] = self.runtime.allocate_on(
                owner_ranks,
                self.grid.tile_shape(idx),
                dtype=self.dtype,
                label=f"{self.name}{idx}",
                fill=0.0,
            )

    def _handle(self, idx: TileIndex) -> SymmetricHandle:
        idx = (int(idx[0]), int(idx[1]))
        try:
            return self._handles[idx]
        except KeyError:
            if not self.materialized:
                reason = ("its tiles were released by free()" if self._freed
                          else "it was created with materialize=False")
                raise CommunicationError(
                    f"matrix {self.name!r} has no tile storage: {reason}"
                ) from None
            self.grid.tile_bounds(idx)  # raises PartitionError on a bad index
            raise

    # ------------------------------------------------------------------ #
    # layout queries (Table 1: grid_shape / tile_bounds / overlapping_tiles)
    # ------------------------------------------------------------------ #
    def grid_shape(self) -> Tuple[int, int]:
        """Shape of the tile grid: ``(row tiles, column tiles)``."""
        return self.grid.shape

    def tiles(self):
        """All tile indices in row-major order."""
        return self.grid.tiles()

    def tile_bounds(self, idx: TileIndex) -> Rect:
        """Global index bounds of tile ``idx``."""
        return self.grid.tile_bounds(idx)

    def overlapping_tiles(self, rect: Rect, replica_idx: int = 0) -> List[TileIndex]:
        """Tiles intersecting a global rectangle (same grid in every replica)."""
        del replica_idx  # all replicas share one tiling
        return self.grid.overlapping_tiles(rect)

    # ------------------------------------------------------------------ #
    # ownership
    # ------------------------------------------------------------------ #
    def owner_rank(self, idx: TileIndex, replica_idx: int) -> int:
        """Global rank holding tile ``idx`` in replica ``replica_idx``."""
        i, j = int(idx[0]), int(idx[1])
        if not (0 <= i < self.grid.num_row_tiles and 0 <= j < self.grid.num_col_tiles):
            raise PartitionError(
                f"tile index ({i}, {j}) out of range for a "
                f"{self.grid.num_row_tiles}x{self.grid.num_col_tiles} grid"
            )
        return self.replication.rank_of(replica_idx, int(self._owners[i, j]))

    def replica_of_rank(self, rank: int) -> int:
        """The replica group ``rank`` belongs to (its local copy)."""
        return self.replication.replica_of_rank(rank)

    def my_tiles(self, rank: int) -> List[TileIndex]:
        """Tile indices owned by ``rank`` within its own replica group."""
        position = self.replication.position_of_rank(rank)
        return list(self._tiles_by_position.get(position, ()))

    # ------------------------------------------------------------------ #
    # tile access (Table 1: tile / get_tile / get_tile_async / accumulate_tile)
    # ------------------------------------------------------------------ #
    def tile(self, idx: TileIndex, replica_idx: int = 0,
             rank: Optional[int] = None) -> np.ndarray:
        """Zero-copy view of a tile, valid only on its owner rank."""
        owner = self.owner_rank(idx, replica_idx)
        if rank is not None and rank != owner:
            raise CommunicationError(
                f"tile{tuple(idx)} of {self.name!r} (replica {replica_idx}) lives on "
                f"rank {owner}; rank {rank} must use get_tile()"
            )
        return self.runtime.local_view(self._handle(idx), owner)

    def get_tile(self, idx: TileIndex, replica_idx: int = 0, *,
                 initiator: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One-sided copy of a tile into the initiator's memory."""
        owner = self.owner_rank(idx, replica_idx)
        return self.runtime.get(self._handle(idx), owner, initiator=initiator, out=out)

    def get_tile_async(self, idx: TileIndex, replica_idx: int = 0, *,
                       initiator: int) -> Future:
        """Asynchronous one-sided tile copy returning a future."""
        owner = self.owner_rank(idx, replica_idx)
        return self.runtime.get_async(self._handle(idx), owner, initiator=initiator)

    def put_tile(self, idx: TileIndex, data: np.ndarray, replica_idx: int = 0, *,
                 initiator: int, region: Optional[Rect] = None) -> None:
        """One-sided write into (a sub-rectangle of) a tile."""
        owner = self.owner_rank(idx, replica_idx)
        self.runtime.put(self._handle(idx), owner, data, initiator=initiator, rect=region)

    def accumulate_tile(self, idx: TileIndex, data: np.ndarray, replica_idx: int = 0, *,
                        initiator: int, region: Optional[Rect] = None) -> None:
        """One-sided atomic ``+=`` into (a sub-rectangle of) a tile."""
        owner = self.owner_rank(idx, replica_idx)
        self.runtime.accumulate(self._handle(idx), owner, data, initiator=initiator,
                                rect=region)

    # ------------------------------------------------------------------ #
    # replica collectives (Table 1: broadcast_replica / reduce_replicas)
    # ------------------------------------------------------------------ #
    def broadcast_replica(self, origin_idx: int = 0) -> None:
        """Copy every tile of replica ``origin_idx`` into all other replicas."""
        check_in_range(origin_idx, 0, self.replication.num_replicas, "origin_idx")
        for idx in self.grid.tiles():
            handle = self._handle(idx)
            origin_owner = self.owner_rank(idx, origin_idx)
            data = self.runtime.local_view(handle, origin_owner)
            for replica in range(self.replication.num_replicas):
                if replica == origin_idx:
                    continue
                self.runtime.put(handle, self.owner_rank(idx, replica), data,
                                 initiator=origin_owner)

    def reduce_replicas(self, origin_idx: int = 0) -> None:
        """Accumulate every replica's tiles into replica ``origin_idx``.

        Each non-origin owner one-sidedly accumulates its copy into the origin
        owner's tile — the replicated-C epilogue of the universal algorithm.
        Non-origin replicas keep their partial values.
        """
        check_in_range(origin_idx, 0, self.replication.num_replicas, "origin_idx")
        for idx in self.grid.tiles():
            handle = self._handle(idx)
            origin_owner = self.owner_rank(idx, origin_idx)
            for replica in range(self.replication.num_replicas):
                if replica == origin_idx:
                    continue
                source_owner = self.owner_rank(idx, replica)
                data = self.runtime.local_view(handle, source_owner)
                self.runtime.accumulate(handle, origin_owner, data,
                                        initiator=source_owner)

    # ------------------------------------------------------------------ #
    # whole-matrix data movement (out-of-band: no traffic)
    # ------------------------------------------------------------------ #
    def _scatter(self, dense: np.ndarray) -> None:
        for idx in self.grid.tiles():
            handle = self._handle(idx)
            block = dense[self.grid.tile_bounds(idx).as_slices()]
            for replica in range(self.replication.num_replicas):
                view = self.runtime.local_view(handle, self.owner_rank(idx, replica))
                np.copyto(view, block)

    def load_dense(self, dense: np.ndarray) -> None:
        """Overwrite the matrix (every replica) with an in-memory dense array."""
        dense = check_matrix(dense, self.name)
        if tuple(dense.shape) != self.shape:
            raise PartitionError(
                f"dense array shape {dense.shape} does not match matrix shape "
                f"{self.shape}"
            )
        self._scatter(dense.astype(self.dtype, copy=False))

    def to_dense(self, replica_idx: int = 0) -> np.ndarray:
        """Assemble the full matrix from one replica's tiles."""
        check_in_range(replica_idx, 0, self.replication.num_replicas, "replica_idx")
        out = np.empty(self.shape, dtype=self.dtype)
        for idx in self.grid.tiles():
            view = self.runtime.local_view(self._handle(idx),
                                           self.owner_rank(idx, replica_idx))
            out[self.grid.tile_bounds(idx).as_slices()] = view
        return out

    def fill(self, value: float) -> None:
        """Set every element (in every replica) to ``value``."""
        for idx in self.grid.tiles():
            handle = self._handle(idx)
            for replica in range(self.replication.num_replicas):
                self.runtime.local_view(handle, self.owner_rank(idx, replica)).fill(value)

    def zero(self) -> None:
        """Reset the matrix to zero in every replica."""
        self.fill(0.0)

    def fill_random(self, seed: int = 0) -> None:
        """Fill with a deterministic standard-normal matrix (replica-consistent)."""
        rng = np.random.default_rng(seed)
        self._scatter(rng.standard_normal(self.shape).astype(self.dtype))

    # ------------------------------------------------------------------ #
    def free(self) -> None:
        """Release all tile allocations (the metadata stays usable)."""
        for handle in self._handles.values():
            self.runtime.free(handle)
        self._handles.clear()
        self.materialized = False
        self._freed = True

    @property
    def nbytes_per_replica(self) -> int:
        """Bytes of tile storage one replica holds (across its ranks)."""
        rows, cols = self.shape
        return rows * cols * self.dtype.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedMatrix({self.name!r}, shape={self.shape}, "
            f"partition={self.partition.name!r}, "
            f"tiles={self.grid.num_row_tiles}x{self.grid.num_col_tiles}, "
            f"replication={self.replication.factor}, dtype={self.dtype.name})"
        )
