"""Test-only oracle: the paper's op-generation loops, written as the paper does.

``repro.core.slicing`` builds every op from one vectorized table.  This module
keeps the loop form of paper Algorithm 1 (Stationary C), Algorithm 2
(Stationary B) and the analogous Stationary-A variant, so tests can check the
table op for op against an independent enumeration.  Each loop walks the
rank's stationary tiles, queries ``overlapping_tiles`` on the other two
operands and intersects the bounds.

It also keeps the op-list forms of two table transforms: the iteration
offset (:func:`apply_iteration_offset`, whose table form is
``repro.core.slicing.offset_permutation``) and the structured-row pruning
(:func:`prune_structured_ops`, which ``CostModel.event_columns`` does on
rows).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.core.ops import LocalMatmulOp, OperandRef
from repro.core.stationary import Stationary
from repro.core.structure import WorkloadStructure
from repro.dist.matrix import DistributedMatrix
from repro.util.indexing import Interval, Rect
from repro.util.validation import check_matmul_shapes
from tests import structure_oracle as geometry


def _operand_ref(matrix: DistributedMatrix, tile_idx, rank: int, region: Rect) -> OperandRef:
    replica = matrix.replica_of_rank(rank)
    return OperandRef(
        index=(int(tile_idx[0]), int(tile_idx[1])),
        replica=replica,
        owner=matrix.owner_rank(tile_idx, replica),
        local=region.localize(matrix.tile_bounds(tile_idx)),
    )


def _make_op(rank, a, b, c, a_idx, b_idx, c_idx, m_bound, k_bound, n_bound,
             stationary_index) -> LocalMatmulOp:
    return LocalMatmulOp(
        rank=rank,
        a=_operand_ref(a, a_idx, rank, Rect(m_bound, k_bound)),
        b=_operand_ref(b, b_idx, rank, Rect(k_bound, n_bound)),
        c=_operand_ref(c, c_idx, rank, Rect(m_bound, n_bound)),
        m_bound=m_bound,
        k_bound=k_bound,
        n_bound=n_bound,
        stationary_index=(int(stationary_index[0]), int(stationary_index[1])),
        itemsize=c.dtype.itemsize,
    )


def stationary_c_ops(a, b, c, rank: int) -> List[LocalMatmulOp]:
    """Paper Algorithm 1: ops for the C tiles owned by ``rank``."""
    _, _, k = check_matmul_shapes(a.shape, b.shape, c.shape)
    k_share = Interval(*c.replication.work_share(c.replica_of_rank(rank), k))
    ops = []
    for c_idx in c.my_tiles(rank):
        c_bounds = c.tile_bounds(c_idx)
        for a_idx in a.overlapping_tiles(Rect(c_bounds.rows, k_share)):
            a_bounds = a.tile_bounds(a_idx)
            m_bound = c_bounds.rows.intersect(a_bounds.rows)
            k_bound_a = a_bounds.cols.intersect(k_share)
            if not m_bound or not k_bound_a:
                continue
            for b_idx in b.overlapping_tiles(Rect(k_bound_a, c_bounds.cols)):
                b_bounds = b.tile_bounds(b_idx)
                k_bound = k_bound_a.intersect(b_bounds.rows)
                n_bound = b_bounds.cols.intersect(c_bounds.cols)
                if not k_bound or not n_bound:
                    continue
                ops.append(_make_op(rank, a, b, c, a_idx, b_idx, c_idx,
                                    m_bound, k_bound, n_bound, c_idx))
    return ops


def stationary_b_ops(a, b, c, rank: int) -> List[LocalMatmulOp]:
    """Paper Algorithm 2: ops for the B tiles owned by ``rank``."""
    m, _, _ = check_matmul_shapes(a.shape, b.shape, c.shape)
    m_share = Interval(*b.replication.work_share(b.replica_of_rank(rank), m))
    ops = []
    for b_idx in b.my_tiles(rank):
        b_bounds = b.tile_bounds(b_idx)
        for a_idx in a.overlapping_tiles(Rect(m_share, b_bounds.rows)):
            a_bounds = a.tile_bounds(a_idx)
            m_bound_a = a_bounds.rows.intersect(m_share)
            k_bound = a_bounds.cols.intersect(b_bounds.rows)
            if not m_bound_a or not k_bound:
                continue
            for c_idx in c.overlapping_tiles(Rect(m_bound_a, b_bounds.cols)):
                c_bounds = c.tile_bounds(c_idx)
                m_bound = m_bound_a.intersect(c_bounds.rows)
                n_bound = b_bounds.cols.intersect(c_bounds.cols)
                if not m_bound or not n_bound:
                    continue
                ops.append(_make_op(rank, a, b, c, a_idx, b_idx, c_idx,
                                    m_bound, k_bound, n_bound, b_idx))
    return ops


def stationary_a_ops(a, b, c, rank: int) -> List[LocalMatmulOp]:
    """Stationary-A variant (omitted in the paper; analogous to Algorithm 2)."""
    _, n, _ = check_matmul_shapes(a.shape, b.shape, c.shape)
    n_share = Interval(*a.replication.work_share(a.replica_of_rank(rank), n))
    ops = []
    for a_idx in a.my_tiles(rank):
        a_bounds = a.tile_bounds(a_idx)
        for b_idx in b.overlapping_tiles(Rect(a_bounds.cols, n_share)):
            b_bounds = b.tile_bounds(b_idx)
            k_bound = a_bounds.cols.intersect(b_bounds.rows)
            n_bound_b = b_bounds.cols.intersect(n_share)
            if not k_bound or not n_bound_b:
                continue
            for c_idx in c.overlapping_tiles(Rect(a_bounds.rows, n_bound_b)):
                c_bounds = c.tile_bounds(c_idx)
                m_bound = a_bounds.rows.intersect(c_bounds.rows)
                n_bound = n_bound_b.intersect(c_bounds.cols)
                if not m_bound or not n_bound:
                    continue
                ops.append(_make_op(rank, a, b, c, a_idx, b_idx, c_idx,
                                    m_bound, k_bound, n_bound, a_idx))
    return ops


_LOOPS = {
    Stationary.A: stationary_a_ops,
    Stationary.B: stationary_b_ops,
    Stationary.C: stationary_c_ops,
}


def oracle_all_ops(a: DistributedMatrix, b: DistributedMatrix, c: DistributedMatrix,
                   stationary: Stationary) -> Dict[int, List[LocalMatmulOp]]:
    """``{rank: ops}`` from the loop form, empty ops dropped."""
    loop = _LOOPS[stationary]
    return {
        rank: [op for op in loop(a, b, c, rank) if not op.is_empty]
        for rank in range(a.runtime.num_ranks)
    }


def apply_iteration_offset(ops: Sequence[LocalMatmulOp]) -> List[LocalMatmulOp]:
    """Rotate each stationary tile's op group by the sum of its tile indices.

    Without this offset every process in a grid row or column starts by
    fetching the *same* remote tile at the same time, serialising on that
    tile's owner.  Rotating the execution order by ``i + j`` (as in prior
    one-sided work the paper cites) staggers the accesses (paper §4.2).
    """
    groups: Dict[tuple, List[LocalMatmulOp]] = {}
    order: List[tuple] = []
    for op in ops:
        key = op.stationary_index
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(op)

    result: List[LocalMatmulOp] = []
    for key in order:
        group = groups[key]
        offset = (key[0] + key[1]) % len(group) if group else 0
        result.extend(group[offset:])
        result.extend(group[:offset])
    return result


def prune_structured_ops(per_rank_ops: Mapping[int, Sequence[LocalMatmulOp]],
                         structure: WorkloadStructure) -> Dict[int, List[LocalMatmulOp]]:
    """Drop ops whose entire cuboid is masked/padded (no flops survive)."""
    return {
        rank: [op for op in ops
               if geometry.flops_fraction(structure, op.m_bound, op.k_bound, op.n_bound) > 0.0]
        for rank, ops in per_rank_ops.items()
    }
