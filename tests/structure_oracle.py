"""Test oracle: workload-structure geometry as per-block and per-expert loops.

:class:`repro.core.structure.WorkloadStructure` answers every geometry
question with one exact array pass: a summed-area table over a
:class:`~repro.core.structure.BlockSparse` mask, cumulative expert tokens
for a :class:`~repro.core.structure.MoERagged` batch.  This module keeps the
plain form of the same rules -- Python ints and floats, one rectangle or
cuboid at a time, a loop over the blocks or experts it overlaps -- so the
property suites can hold the array geometry ``==`` to an independent
implementation, and so the pricing, bound and direct-walk oracles take
their geometry from code that is not the one under test.  Import it as
``tests.structure_oracle`` (run pytest from the repository root).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.structure import (
    ROLE_B,
    BlockSparse,
    Dense,
    MoERagged,
    WorkloadStructure,
)
from repro.util.indexing import Interval

_ROLES = ("A", "B", "C")


def _check_role(role: str) -> None:
    if role not in _ROLES:
        raise ValueError(f"unknown operand role {role!r}; expected one of {_ROLES}")


# ---------------------------------------------------------------------- #
# block-sparse weights
# ---------------------------------------------------------------------- #
def interval_block_overlaps(bound: Interval, block: int, count: int):
    """Yield ``(index, overlap_extent)`` for grid blocks intersecting ``bound``."""
    if bound.extent <= 0:
        return
    first = bound.start // block
    last = min(count - 1, (bound.stop - 1) // block)
    for idx in range(first, last + 1):
        lo = max(bound.start, idx * block)
        hi = min(bound.stop, (idx + 1) * block)
        if hi > lo:
            yield idx, hi - lo


def live_blocks(structure: BlockSparse) -> int:
    """Live blocks of the mask, counted one block at a time."""
    return sum(1 for row in structure.mask for live in row if live)


def _block_live_fraction(structure: BlockSparse, role: str, rows: Interval,
                         cols: Interval) -> float:
    _check_role(role)
    if role != ROLE_B:
        return 1.0
    area = rows.extent * cols.extent
    if area <= 0:
        return 0.0
    live = 0
    for k_idx, k_extent in interval_block_overlaps(rows, structure.block_k,
                                                   structure.k_blocks):
        row_mask = structure.mask[k_idx]
        for n_idx, n_extent in interval_block_overlaps(cols, structure.block_n,
                                                       structure.n_blocks):
            if row_mask[n_idx]:
                live += k_extent * n_extent
    return live / area


# ---------------------------------------------------------------------- #
# MoE-ragged batches
# ---------------------------------------------------------------------- #
def live_rows(structure: MoERagged, rows: Interval) -> int:
    """Live (non-padding) token rows of the envelope inside ``rows``."""
    if rows.extent <= 0:
        return 0
    live = 0
    first = rows.start // structure.capacity
    last = min(structure.num_experts - 1, (rows.stop - 1) // structure.capacity)
    for expert in range(first, last + 1):
        lo = max(rows.start, expert * structure.capacity)
        hi = min(rows.stop, expert * structure.capacity + structure.expert_tokens[expert])
        if hi > lo:
            live += hi - lo
    return live


def _moe_live_fraction(structure: MoERagged, role: str, rows: Interval,
                       cols: Interval) -> float:
    _check_role(role)
    if role == ROLE_B:
        return 1.0
    if rows.extent <= 0:
        return 0.0
    return live_rows(structure, rows) / rows.extent


# ---------------------------------------------------------------------- #
# the structure API, one rectangle or cuboid at a time
# ---------------------------------------------------------------------- #
def live_fraction(structure: WorkloadStructure, role: str, rows: Interval,
                  cols: Interval) -> float:
    """Fraction of ``role``'s global rectangle that carries live data."""
    if isinstance(structure, BlockSparse):
        return _block_live_fraction(structure, role, rows, cols)
    if isinstance(structure, MoERagged):
        return _moe_live_fraction(structure, role, rows, cols)
    assert isinstance(structure, Dense), structure
    _check_role(role)
    return 1.0


def op_fractions(structure: WorkloadStructure, m_bound: Interval, k_bound: Interval,
                 n_bound: Interval) -> Tuple[float, float, float, float]:
    """``(flops, a, b, c)`` live fractions of one op's cuboid."""
    if isinstance(structure, BlockSparse):
        b_fraction = _block_live_fraction(structure, ROLE_B, k_bound, n_bound)
        return (b_fraction, 1.0, b_fraction, 1.0)
    if isinstance(structure, MoERagged):
        row_fraction = _moe_live_fraction(structure, "A", m_bound, k_bound)
        return (row_fraction, row_fraction, 1.0, row_fraction)
    assert isinstance(structure, Dense), structure
    return (1.0, 1.0, 1.0, 1.0)


def flops_fraction(structure: WorkloadStructure, m_bound: Interval, k_bound: Interval,
                   n_bound: Interval) -> float:
    """Fraction of the cuboid's elementary products actually computed."""
    return op_fractions(structure, m_bound, k_bound, n_bound)[0]


def gemm_dims(structure: WorkloadStructure, m_bound: Interval, k_bound: Interval,
              n_bound: Interval, flops_frac: float) -> Tuple[float, float, float]:
    """Effective (m, n, k) of the op's live GEMM, for shape efficiency."""
    if isinstance(structure, MoERagged):
        return (flops_frac * m_bound.extent, float(n_bound.extent),
                float(k_bound.extent))
    return (float(m_bound.extent), float(n_bound.extent), float(k_bound.extent))


def cuboid_terms(structure: WorkloadStructure, m_bound: Interval, k_bound: Interval,
                 n_bound: Interval) -> Tuple[float, ...]:
    """The seven pricing terms of one cuboid: fractions, then effective dims."""
    fractions = op_fractions(structure, m_bound, k_bound, n_bound)
    return fractions + gemm_dims(structure, m_bound, k_bound, n_bound, fractions[0])


def effective_flops(structure: WorkloadStructure, m: int, n: int, k: int) -> float:
    """Total live flops of the whole problem."""
    if isinstance(structure, BlockSparse):
        return 2.0 * m * _block_live_fraction(structure, ROLE_B, Interval(0, k),
                                              Interval(0, n)) * k * n
    if isinstance(structure, MoERagged):
        return 2.0 * structure.total_tokens * n * k
    return 2.0 * m * n * k


def tile_fetch_bytes(matrix, role: str,
                     structure: Optional[WorkloadStructure] = None) -> np.ndarray:
    """Bytes of each tile, per flat (row-major) tile index, one tile at a time."""
    grid = matrix.grid
    itemsize = matrix.dtype.itemsize
    if structure is None:
        rows, cols = grid.row_splits, grid.col_splits
        return np.multiply.outer([stop - start for start, stop in zip(rows, rows[1:])],
                                 [(stop - start) * itemsize
                                  for start, stop in zip(cols, cols[1:])]).ravel()
    return np.asarray([
        (r1 - r0) * (c1 - c0) * itemsize
        * live_fraction(structure, role, Interval(r0, r1), Interval(c0, c1))
        for r0, r1 in zip(grid.row_splits, grid.row_splits[1:])
        for c0, c1 in zip(grid.col_splits, grid.col_splits[1:])
    ])
