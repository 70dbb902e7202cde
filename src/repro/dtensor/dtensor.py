"""The DTensor-like distributed tensor wrapper.

A :class:`DTensor` pairs a global 2-D shape with a placement on a 1-D device
mesh.  It can be *materialized* (each mesh device holds its real NumPy shard,
used by the correctness tests) or *symbolic* (shapes only, used by the
benchmark harness at paper scale).  ``redistribute`` converts between
placements, returning both the new tensor and the modelled cost of the
collective it would require — the same "resharding" cost the paper highlights
as the price SPMD systems pay when no matmul rule matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.collectives.models import (
    allgather_time,
    allreduce_time,
    alltoall_time,
    reduce_scatter_time,
)
from repro.dtensor.device_mesh import DeviceMesh
from repro.dtensor.placement import Partial, Placement, Replicate, Shard
from repro.util.indexing import block_bounds
from repro.util.validation import ShapeError


@dataclass(frozen=True)
class RedistributeCost:
    """Modelled cost of one placement change."""

    collective: str
    time: float
    bytes_moved: int


class DTensor:
    """A 2-D tensor distributed over a 1-D device mesh."""

    def __init__(
        self,
        mesh: DeviceMesh,
        global_shape: Tuple[int, int],
        placement: Placement,
        dtype=np.float32,
        shards: Optional[Dict[int, np.ndarray]] = None,
    ) -> None:
        self.mesh = mesh
        self.global_shape = (int(global_shape[0]), int(global_shape[1]))
        self.placement = placement
        self.dtype = np.dtype(dtype)
        self._shards = shards  # None => symbolic

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, mesh: DeviceMesh, dense: np.ndarray, placement: Placement) -> "DTensor":
        """Distribute a dense array according to ``placement`` (materialized)."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError(f"DTensor only supports 2-D tensors, got ndim={dense.ndim}")
        shards: Dict[int, np.ndarray] = {}
        size = mesh.size
        for position, rank in enumerate(mesh.device_ranks):
            shards[rank] = cls._slice_for(dense, placement, position, size).copy()
        return cls(mesh, dense.shape, placement, dense.dtype, shards)

    @classmethod
    def symbolic(cls, mesh: DeviceMesh, global_shape: Tuple[int, int],
                 placement: Placement, dtype=np.float32) -> "DTensor":
        """A shape-only DTensor for cost modelling at arbitrary scale."""
        return cls(mesh, global_shape, placement, dtype, shards=None)

    @staticmethod
    def _slice_for(dense: np.ndarray, placement: Placement, position: int, size: int) -> np.ndarray:
        if isinstance(placement, Shard):
            bounds = block_bounds(dense.shape[placement.dim], size, position)
            if placement.dim == 0:
                return dense[bounds.as_slice(), :]
            return dense[:, bounds.as_slice()]
        if isinstance(placement, Replicate):
            return dense
        if isinstance(placement, Partial):
            # By convention device 0 holds the full value, others hold zeros,
            # so that the sum across devices equals the logical tensor.
            if position == 0:
                return dense
            return np.zeros_like(dense)
        raise ShapeError(f"unsupported placement {placement!r}")

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def is_materialized(self) -> bool:
        return self._shards is not None

    @property
    def nbytes(self) -> int:
        return self.global_shape[0] * self.global_shape[1] * self.dtype.itemsize

    def local_shape(self, position: int) -> Tuple[int, int]:
        """Shape of the shard held by mesh position ``position``."""
        rows, cols = self.global_shape
        if isinstance(self.placement, Shard):
            bounds = block_bounds(self.global_shape[self.placement.dim], self.mesh.size, position)
            if self.placement.dim == 0:
                return (bounds.extent, cols)
            return (rows, bounds.extent)
        return (rows, cols)

    def shard(self, rank: int) -> np.ndarray:
        if self._shards is None:
            raise ShapeError("this DTensor is symbolic and holds no data")
        return self._shards[rank]

    # ------------------------------------------------------------------ #
    # materialisation helpers
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Reassemble the logical tensor from the shards."""
        if self._shards is None:
            raise ShapeError("this DTensor is symbolic and holds no data")
        ranks = self.mesh.device_ranks
        if isinstance(self.placement, Replicate):
            return self._shards[ranks[0]].copy()
        if isinstance(self.placement, Partial):
            return np.sum([self._shards[rank] for rank in ranks], axis=0)
        axis = self.placement.dim
        return np.concatenate([self._shards[rank] for rank in ranks], axis=axis)

    # ------------------------------------------------------------------ #
    # redistribution
    # ------------------------------------------------------------------ #
    def redistribute(self, placement: Placement) -> Tuple["DTensor", RedistributeCost]:
        """Convert to a different placement, returning the modelled collective cost."""
        cost = self.redistribute_cost(placement)
        if self._shards is None:
            return DTensor.symbolic(self.mesh, self.global_shape, placement, self.dtype), cost
        dense = self.to_dense()
        return DTensor.from_dense(self.mesh, dense, placement), cost

    def redistribute_cost(self, placement: Placement) -> RedistributeCost:
        """Modelled cost of converting this tensor's placement to ``placement``."""
        machine = self.mesh.machine
        ranks = self.mesh.device_ranks
        size = self.mesh.size
        src, dst = self.placement, placement

        if type(src) is type(dst) and (not isinstance(src, Shard) or src.dim == dst.dim):
            return RedistributeCost("none", 0.0, 0)
        if isinstance(src, Replicate) and isinstance(dst, Shard):
            return RedistributeCost("slice", 0.0, 0)
        if isinstance(src, Shard) and isinstance(dst, Replicate):
            return RedistributeCost("all_gather", allgather_time(machine, ranks, self.nbytes),
                                    self.nbytes)
        if isinstance(src, Shard) and isinstance(dst, Shard):
            # True division: flooring nbytes // size**2 priced any tensor
            # smaller than size^2 bytes as a zero-cost reshard, which poisons
            # consumers that use this as an edge weight (graph planning).
            per_pair = self.nbytes / max(size * size, 1)
            return RedistributeCost("all_to_all", alltoall_time(machine, ranks, per_pair),
                                    self.nbytes * (size - 1) // size)
        if isinstance(src, Partial) and isinstance(dst, Shard):
            return RedistributeCost("reduce_scatter",
                                    reduce_scatter_time(machine, ranks, self.nbytes),
                                    self.nbytes)
        if isinstance(src, Partial) and isinstance(dst, Replicate):
            return RedistributeCost("all_reduce", allreduce_time(machine, ranks, self.nbytes),
                                    2 * self.nbytes)
        if isinstance(src, Replicate) and isinstance(dst, Partial):
            return RedistributeCost("none", 0.0, 0)
        raise ShapeError(f"unsupported redistribution {src} -> {dst}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "materialized" if self.is_materialized else "symbolic"
        return (
            f"DTensor(shape={self.global_shape}, placement={self.placement}, "
            f"mesh_size={self.mesh.size}, {kind})"
        )
