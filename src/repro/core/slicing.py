"""Op generation via slicing — the heart of the universal algorithm.

For a chosen data-movement strategy, each process enumerates the local matrix
multiplies that involve its stationary tiles by intersecting index ranges
(paper Algorithms 1 and 2; the Stationary-A variant is analogous).

Replication is handled exactly as the paper describes: when the *stationary*
matrix is replicated with factor ``c``, each replica searches only its ``1/c``
share of the free dimension (the inner dimension ``k`` for Stationary C, the
``m`` dimension for Stationary B, the ``n`` dimension for Stationary A), so
that across replicas every elementary product is computed exactly once.  The
non-stationary operands are always read from — and accumulated into — the
executing rank's *local* replica, which is what lets replication of A, B, or
C "transparently" reduce communication without any algorithm changes.

The slicing is index arithmetic over split points.  On each axis, the split
points of the two operands that share it (A rows and C rows for ``m``; A
columns and B rows for ``k``; B columns and C columns for ``n``), plus the
stationary operand's replica-share cuts on its free axis, cut the extent into
*segments*.  The ops of one stationary tile are the product of the segments
inside its rows, inside its columns, and inside its replica's share of the
free axis — the data of CuPy's ``make_2d_index_map``.  :func:`slice_table`
builds that product for a whole batch of tasks as one array program; the
paper's loop order is recovered with one sort.  :func:`generate_all_ops`
turns the rows into :class:`LocalMatmulOp` objects and :func:`ops_table`
turns op lists back into rows; the executors, the planner's batch evaluator
and the cost-based strategy choice price the rows without building objects.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.ops import LocalMatmulOp, OperandRef
from repro.core.stationary import Stationary
from repro.dist.matrix import DistributedMatrix
from repro.util.indexing import Interval, Rect, block_bounds
from repro.util.validation import ShapeError, check_in_range, check_matmul_shapes


class OperandLayout:
    """Flat geometry of one distributed operand, as :func:`slice_table` reads it."""

    __slots__ = ("row_splits", "col_splits", "ncols", "positions",
                 "ranks_per_replica", "factor", "rank_tiles")

    def __init__(self, matrix: DistributedMatrix) -> None:
        self.row_splits = matrix.grid.row_splits
        self.col_splits = matrix.grid.col_splits
        self.ncols = ncols = matrix.grid.num_col_tiles
        #: Per-replica owner position of each tile, row-major.
        self.positions = matrix._owners.ravel()
        self.ranks_per_replica = rpr = matrix.replication.ranks_per_replica
        self.factor = factor = matrix.replication.factor
        by_position = matrix._tiles_by_position
        owned = [[i * ncols + j for i, j in by_position.get(position, ())]
                 for position in range(rpr)]
        #: ``(rank, flat tile index)`` of every tile each rank owns:
        #: rank-major, and in :meth:`DistributedMatrix.my_tiles` order
        #: within a rank.  Replica ``r`` holds ranks ``r * rpr ...``.
        self.rank_tiles = (
            np.repeat(np.arange(rpr * factor, dtype=np.int64),
                      [len(tiles) for tiles in owned] * factor),
            np.array([flat for tiles in owned for flat in tiles] * factor,
                     dtype=np.int64),
        )


class _Axis:
    """One axis cut into segments by two split lists and replica-share cuts.

    ``segments`` rows are ``(first tile, second tile, start, stop)`` with
    one column per segment: its tile index in the two grids and its bounds.
    ``runs[name]`` rows are ``(first segment, count)`` with one column per
    tile index of that grid (or per share for ``"share"``): the segments of
    one tile or share are contiguous.
    Split lists are short, so plain Python beats numpy's per-call overhead.
    """

    __slots__ = ("segments", "runs")

    def __init__(self, first_splits: Tuple[int, ...], second_splits: Tuple[int, ...],
                 factor: int) -> None:
        extent = first_splits[-1]
        shares = [block_bounds(extent, factor, r).start for r in range(factor)]
        cuts = sorted(set(first_splits).union(second_splits, shares))
        columns: Tuple[List[int], ...] = ([], [], [], [])
        counts = ([0] * (len(first_splits) - 1), [0] * (len(second_splits) - 1),
                  [0] * factor)
        i = j = share = 0
        for start, stop in zip(cuts, cuts[1:]):
            # Every split point is a cut, so a tile index moves by one at most;
            # empty shares (extent < factor) all start at the extent.
            if first_splits[i + 1] <= start:
                i += 1
            if second_splits[j + 1] <= start:
                j += 1
            while share + 1 < factor and shares[share + 1] <= start:
                share += 1
            for column, value in zip(columns, (i, j, start, stop)):
                column.append(value)
            counts[0][i] += 1
            counts[1][j] += 1
            counts[2][share] += 1
        self.segments = np.array(columns, dtype=np.int64)
        self.runs = {}
        for name, count in zip(("first", "second", "share"), counts):
            lo = list(accumulate(count, initial=0))[:-1]
            self.runs[name] = np.array((lo, count), dtype=np.int64)


#: Axis segment lists, shared by every table built in the process (read only).
_axis = lru_cache(maxsize=256)(_Axis)


def stack_distinct(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the distinct (by identity) arrays along their last axis.

    Returns the concatenation and each item's offset along that axis.
    """
    offsets: Dict[int, int] = {}
    parts = []
    starts = []
    total = 0
    for array in arrays:
        start = offsets.get(id(array))
        if start is None:
            start = offsets[id(array)] = total
            parts.append(array)
            total += array.shape[-1]
        starts.append(start)
    return np.concatenate(parts, axis=-1), np.asarray(starts, dtype=np.int64)


#: Per stationary operand, how a block picks its segments on the m, k and n
#: axes: ``(runs name, coordinate)`` with coordinate 0/1 the stationary
#: tile's row/column index and 2 the rank's replica (the free-axis share).
_SELECT = {
    Stationary.C: (("second", 0), ("share", 2), ("second", 1)),
    Stationary.B: (("share", 2), ("second", 0), ("first", 1)),
    Stationary.A: (("first", 0), ("first", 1), ("share", 2)),
}
#: Operand index (A, B, C) of each stationary; the free axis has its index
#: in (m, k, n) order too: B splits m, C splits k, A splits n.
_OPERAND = {Stationary.A: 0, Stationary.B: 1, Stationary.C: 2}
_FREE_AXIS = {Stationary.B: 0, Stationary.C: 1, Stationary.A: 2}


def slice_table(tasks: Sequence[Tuple[OperandLayout, OperandLayout, OperandLayout,
                                      Stationary]]) -> Dict[str, np.ndarray]:
    """The ops of every ``(a, b, c, stationary)`` task as one table of columns.

    Rows are task-major, then rank-major.  Within a rank they follow its
    stationary tiles in row-major order, and within a tile the loop order of
    the paper's algorithms: ``(A row, A col, B row, B col)`` tiles for
    Stationary C, ``(A row, A col, C row, C col)`` for B and ``(B row,
    B col, C row, C col)`` for A.  Columns (all int64): ``task``, ``rank``,
    the bounds ``m0/m1``, ``k0/k1``, ``n0/n1``, tile indices ``a_i/a_j``,
    ``b_i/b_j``, ``c_i/c_j``, flat tile keys ``a_key/b_key/c_key``, owning
    ranks ``a_owner/b_owner/c_owner`` in the executing rank's replica, and
    the stationary tile ``stat_i/stat_j``.

    ``tasks`` must not be empty.
    """
    axes, blk_rank, blk_flat = [], [], []
    for a, b, c, stationary in tasks:
        stat = (a, b, c)[_OPERAND[stationary]]
        factors = [1, 1, 1]
        factors[_FREE_AXIS[stationary]] = stat.factor
        axes.append((_axis(a.row_splits, c.row_splits, factors[0]),
                     _axis(a.col_splits, b.row_splits, factors[1]),
                     _axis(b.col_splits, c.col_splits, factors[2])))
        rank, flat = stat.rank_tiles
        blk_rank.append(rank)
        blk_flat.append(flat)

    # -- blocks: one per (task, rank, stationary tile) ---------------------- #
    blk_task = np.repeat(np.arange(len(tasks)), [part.size for part in blk_rank])
    blk_rank = np.concatenate(blk_rank)
    blk_flat = np.concatenate(blk_flat)

    def per_block(values) -> np.ndarray:
        return np.asarray(values, dtype=np.int64)[blk_task]

    stats = [task[_OPERAND[task[3]]] for task in tasks]
    ncols = per_block([stat.ncols for stat in stats])
    stat_i = blk_flat // ncols
    stat_j = blk_flat - stat_i * ncols
    coords = np.stack((stat_i, stat_j,
                       blk_rank // per_block([s.ranks_per_replica for s in stats])))
    columns = np.arange(blk_task.size)
    lo, cnt, segments = [], [], []
    for x in range(3):
        seg, seg_at = stack_distinct([task_axes[x].segments for task_axes in axes])
        select = [_SELECT[task[3]][x] for task in tasks]
        runs, run_at = stack_distinct([task_axes[x].runs[name] for task_axes, (name, _)
                                       in zip(axes, select)])
        run = runs[:, per_block(run_at) + coords[per_block([c for _, c in select]),
                                                   columns]]
        lo.append(run[0] + per_block(seg_at))
        cnt.append(run[1])
        segments.append(seg)
    size = cnt[0] * cnt[1] * cnt[2]

    # -- rows: expand each block's (m, k, n) segment product --------------- #
    row_blk = np.repeat(columns, size)
    local = np.arange(row_blk.size) - np.repeat(np.cumsum(size) - size, size)
    cm, ck, cn = cnt[0][row_blk], cnt[1][row_blk], cnt[2][row_blk]
    i_n = local % cn
    rest = local // cn
    i_k = rest % ck
    i_m = rest // ck
    gm = lo[0][row_blk] + i_m
    gk = lo[1][row_blk] + i_k
    gn = lo[2][row_blk] + i_n
    kind = per_block([_OPERAND[task[3]] for task in tasks])[row_blk]
    if (kind != 2).any():
        # The (m, k, n) product order is Stationary C's loop order.  B loops
        # (A row, k, C row, n) and A loops (k, B col, m, C col); an A row
        # spans consecutive m segments and a B col consecutive n segments,
        # so one sort on a per-block key restores both.
        a_row = segments[0][0, gm]
        b_col = segments[2][0, gn]
        key = np.where(kind == 1, ((a_row * ck + i_k) * cm + i_m) * cn + i_n,
                       np.where(kind == 0,
                                ((i_k * (int(b_col.max()) + 1) + b_col) * cm + i_m)
                                * cn + i_n,
                                local))
        order = np.lexsort((key, row_blk))
        row_blk, gm, gk, gn = row_blk[order], gm[order], gk[order], gn[order]

    m_seg, k_seg, n_seg = segments[0][:, gm], segments[1][:, gk], segments[2][:, gn]
    table = {
        "task": blk_task[row_blk], "rank": blk_rank[row_blk],
        "m0": m_seg[2], "m1": m_seg[3], "k0": k_seg[2], "k1": k_seg[3],
        "n0": n_seg[2], "n1": n_seg[3],
        "a_i": m_seg[0], "a_j": k_seg[0], "b_i": k_seg[1], "b_j": n_seg[0],
        "c_i": m_seg[1], "c_j": n_seg[1],
        "stat_i": stat_i[row_blk], "stat_j": stat_j[row_blk],
    }
    positions, pos_at = stack_distinct([layout.positions
                                        for task in tasks for layout in task[:3]])
    for x, side in enumerate("abc"):
        layouts = [task[x] for task in tasks]
        rpr = per_block([layout.ranks_per_replica for layout in layouts])
        # Owner = the executing rank's replica base + the tile's position.
        base = (blk_rank // rpr) * rpr
        key = (table[f"{side}_i"] * per_block([layout.ncols for layout in layouts])[row_blk]
               + table[f"{side}_j"])
        table[f"{side}_key"] = key
        table[f"{side}_owner"] = base[row_blk] + positions[pos_at[x::3][blk_task][row_blk]
                                                           + key]
    return table


def first_occurrence(group: np.ndarray, key: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """True at the first row of each ``(group, key)`` pair among masked rows.

    This is the executor's per-rank remote-tile cache seen from the table:
    with ``group`` the rank (or task and rank) and ``key`` a flat tile index,
    a flagged row is the one that fetches the tile.
    """
    flags = np.zeros(mask.shape[0], dtype=bool)
    rows = np.flatnonzero(mask)
    if rows.size:
        combined = group[rows] * (int(key[rows].max()) + 1) + key[rows]
        _, first = np.unique(combined, return_index=True)
        flags[rows[first]] = True
    return flags


def _table_ops(a: DistributedMatrix, b: DistributedMatrix, c: DistributedMatrix,
               table: Dict[str, np.ndarray]) -> Dict[int, List[LocalMatmulOp]]:
    """Materialize table rows as ``{rank: [LocalMatmulOp, ...]}``."""
    per_rank: Dict[int, List[LocalMatmulOp]] = {
        rank: [] for rank in range(a.runtime.num_ranks)}
    itemsize = c.dtype.itemsize
    rpr = [matrix.replication.ranks_per_replica for matrix in (a, b, c)]
    # Local (in-tile) starts of each operand's region.
    origins = []
    for matrix, side, rows, cols in ((a, "a", "m0", "k0"), (b, "b", "k0", "n0"),
                                     (c, "c", "m0", "n0")):
        row_splits = np.asarray(matrix.grid.row_splits, dtype=np.int64)
        col_splits = np.asarray(matrix.grid.col_splits, dtype=np.int64)
        origins.append((table[rows] - row_splits[table[f"{side}_i"]]).tolist())
        origins.append((table[cols] - col_splits[table[f"{side}_j"]]).tolist())
    names = ("rank", "m0", "m1", "k0", "k1", "n0", "n1",
             "a_i", "a_j", "a_owner", "b_i", "b_j", "b_owner",
             "c_i", "c_j", "c_owner", "stat_i", "stat_j")
    intervals: Dict[Tuple[int, int], Interval] = {}

    def interval(start: int, stop: int) -> Interval:
        found = intervals.get((start, stop))
        if found is None:
            found = intervals[(start, stop)] = Interval(start, stop)
        return found

    for (rank, m0, m1, k0, k1, n0, n1, a_i, a_j, a_owner, b_i, b_j, b_owner,
         c_i, c_j, c_owner, stat_i, stat_j, a_r, a_c, b_r, b_c, c_r, c_c) in zip(
            *[table[name].tolist() for name in names], *origins):
        m = m1 - m0
        k = k1 - k0
        n = n1 - n0
        per_rank[rank].append(LocalMatmulOp(
            rank=rank,
            a=OperandRef((a_i, a_j), rank // rpr[0], a_owner,
                         Rect(interval(a_r, a_r + m), interval(a_c, a_c + k))),
            b=OperandRef((b_i, b_j), rank // rpr[1], b_owner,
                         Rect(interval(b_r, b_r + k), interval(b_c, b_c + n))),
            c=OperandRef((c_i, c_j), rank // rpr[2], c_owner,
                         Rect(interval(c_r, c_r + m), interval(c_c, c_c + n))),
            m_bound=interval(m0, m1),
            k_bound=interval(k0, k1),
            n_bound=interval(n0, n1),
            stationary_index=(stat_i, stat_j),
            itemsize=itemsize,
        ))
    return per_rank


#: The slicing-table columns :func:`ops_table` rebuilds from op lists.
_OP_COLUMNS = ("rank", "m0", "m1", "k0", "k1", "n0", "n1", "a_key", "a_owner",
               "b_key", "b_owner", "c_key", "c_owner", "stat_i", "stat_j")


def ops_table(a: DistributedMatrix, b: DistributedMatrix, c: DistributedMatrix,
              per_rank_ops: Dict[int, Sequence[LocalMatmulOp]]) -> Dict[str, np.ndarray]:
    """Op lists as one task's slicing-table rows, the inverse of :func:`generate_all_ops`.

    Rows are rank-major and in list order.  Every op must be an op of the
    rank it is listed for, on that rank's own replicas of A, B and C and
    with C's itemsize, as the slicing generator emits them.
    """
    rows = []
    a_cols, b_cols, c_cols = (matrix.grid.num_col_tiles for matrix in (a, b, c))
    for rank in range(a.runtime.num_ranks):
        expected = [rank, c.dtype.itemsize] + [
            matrix.replica_of_rank(rank) for matrix in (a, b, c)]
        for op in per_rank_ops.get(rank, ()):
            if [op.rank, op.itemsize, op.a.replica, op.b.replica, op.c.replica] != expected:
                raise ValueError(f"op {op.describe()} listed for rank {rank} is not "
                                 "an op of that rank on its own replicas of A, B and C")
            rows.append((rank, op.m_bound.start, op.m_bound.stop, op.k_bound.start,
                         op.k_bound.stop, op.n_bound.start, op.n_bound.stop,
                         op.a.index[0] * a_cols + op.a.index[1], op.a.owner,
                         op.b.index[0] * b_cols + op.b.index[1], op.b.owner,
                         op.c.index[0] * c_cols + op.c.index[1], op.c.owner,
                         *op.stationary_index))
    table = dict(zip(_OP_COLUMNS, np.array(rows, dtype=np.int64)
                     .reshape(-1, len(_OP_COLUMNS)).T))
    table["task"] = np.zeros(len(rows), dtype=np.int64)
    return table


def generate_local_ops(
    a: DistributedMatrix,
    b: DistributedMatrix,
    c: DistributedMatrix,
    stationary: Stationary,
    rank: int,
) -> List[LocalMatmulOp]:
    """Ops a single rank must execute under the given data-movement strategy."""
    rank = check_in_range(rank, 0, a.runtime.num_ranks, "rank")
    return generate_all_ops(a, b, c, stationary)[rank]


def generate_all_ops(
    a: DistributedMatrix,
    b: DistributedMatrix,
    c: DistributedMatrix,
    stationary: Stationary,
) -> Dict[int, List[LocalMatmulOp]]:
    """Ops for every rank: ``{rank: [op, ...]}``."""
    check_matmul_shapes(a.shape, b.shape, c.shape)
    table = slice_table([(OperandLayout(a), OperandLayout(b), OperandLayout(c),
                          stationary)])
    return _table_ops(a, b, c, table)


def offset_permutation(rank: np.ndarray, stat_i: np.ndarray,
                       stat_j: np.ndarray) -> np.ndarray:
    """The iteration offset of rank-major table rows, as an index permutation.

    A stationary tile's ops are one contiguous run of its rank's rows; the
    run is rotated left by ``(i + j) % len(run)``, which staggers the
    ranks of a grid row or column that would otherwise all start by
    fetching the same remote tile from one owner (paper §4.2).
    """
    num = rank.shape[0]
    if num == 0:
        return np.zeros(0, dtype=np.int64)
    new_run = np.ones(num, dtype=bool)
    new_run[1:] = ((rank[1:] != rank[:-1]) | (stat_i[1:] != stat_i[:-1])
                   | (stat_j[1:] != stat_j[:-1]))
    starts = np.flatnonzero(new_run)
    run = np.cumsum(new_run) - 1
    first = starts[run]
    length = np.diff(np.append(starts, num))[run]
    return first + (np.arange(num) - first + (stat_i + stat_j) % length) % length


def check_coverage(
    a: DistributedMatrix,
    b: DistributedMatrix,
    c: DistributedMatrix,
    per_rank_ops: Dict[int, List[LocalMatmulOp]],
) -> None:
    """Verify that the generated ops tile the full m x n x k iteration space exactly once.

    This is the core correctness invariant of the slicing approach: every
    elementary product ``A[i, l] * B[l, j]`` must be contributed to ``C[i, j]``
    by exactly one op across all ranks (partial results in different C
    replicas are later combined by ``reduce_replicas``).  The check runs in
    O(total ops * log) using interval bookkeeping on the m/k/n bounds and is
    intended for tests and ``validate_ops`` mode, not production hot paths.
    """
    m, n, k = check_matmul_shapes(a.shape, b.shape, c.shape)
    bounds = np.asarray(
        [(op.m_bound.start, op.m_bound.stop, op.k_bound.start, op.k_bound.stop,
          op.n_bound.start, op.n_bound.stop)
         for ops in per_rank_ops.values() for op in ops],
        dtype=np.int64,
    ).reshape(-1, 6)
    # A coarse 3-D occupancy grid at tile-boundary granularity: each op adds
    # +-1 at the eight corners of its cell box, and a prefix sum per axis
    # turns the corners into per-cell counts.
    corners = []
    for axis, (extent, splits) in enumerate((
            (m, a.grid.row_splits + c.grid.row_splits),
            (k, a.grid.col_splits + b.grid.row_splits),
            (n, b.grid.col_splits + c.grid.col_splits))):
        starts, stops = bounds[:, 2 * axis], bounds[:, 2 * axis + 1]
        cuts = np.unique(np.concatenate(([0, extent], splits, starts, stops)))
        corners.append((cuts.size, (np.searchsorted(cuts, starts),
                                    np.searchsorted(cuts, stops))))
    diff = np.zeros(tuple(size for size, _ in corners), dtype=np.int64)
    for side in product((0, 1), repeat=3):
        np.add.at(diff, tuple(corners[axis][1][s] for axis, s in enumerate(side)),
                  -1 if sum(side) % 2 else 1)
    counts = diff.cumsum(0).cumsum(1).cumsum(2)[:-1, :-1, :-1]

    if not np.all(counts == 1):
        uncovered = int(np.sum(counts == 0))
        duplicated = int(np.sum(counts > 1))
        raise ShapeError(
            "op generation does not cover the iteration space exactly once: "
            f"{uncovered} uncovered cells, {duplicated} multiply-covered cells"
        )
