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
builds that product for a whole batch of tasks as one array program: it cuts
each distinct axis of the batch once and expands every tile's segments
straight into the paper's loop order.  :func:`generate_all_ops`
turns the rows into :class:`LocalMatmulOp` objects and :func:`ops_table`
turns op lists back into rows; the executors, the planner's batch evaluator
and the cost-based strategy choice price the rows without building objects.
:func:`tile_traffic` runs the same arithmetic at tile granularity: which
tiles each rank's stationary tiles meet, without cutting any axis into
segments; the planner's table-free pre-bound prices it.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.ops import LocalMatmulOp, OperandRef
from repro.core.stationary import Stationary
from repro.dist.matrix import DistributedMatrix
from repro.util.indexing import Interval, Rect
from repro.util.validation import ShapeError, check_in_range, check_matmul_shapes


class OperandLayout:
    """Flat geometry of one distributed operand, as :func:`slice_table` reads it."""

    __slots__ = ("row_splits", "col_splits", "ncols", "positions",
                 "ranks_per_replica", "factor", "rank_tiles")

    def __init__(self, matrix: DistributedMatrix) -> None:
        self.row_splits = matrix.grid.row_splits
        self.col_splits = matrix.grid.col_splits
        self.ncols = matrix.grid.num_col_tiles
        #: Per-replica owner position of each tile, row-major.
        self.positions = positions = matrix._owners.ravel()
        self.ranks_per_replica = rpr = matrix.replication.ranks_per_replica
        self.factor = factor = matrix.replication.factor
        #: ``(rank, flat tile index)`` of every tile each rank owns:
        #: rank-major, and in :meth:`DistributedMatrix.my_tiles` order
        #: (row-major: a stable sort by position) within a rank.  Replica
        #: ``r`` holds ranks ``r * rpr ...``.
        self.rank_tiles = (
            np.repeat(np.arange(rpr * factor, dtype=np.int64),
                      np.concatenate([np.bincount(positions, minlength=rpr)] * factor)),
            np.concatenate([np.argsort(positions, kind="stable")] * factor),
        )


def _starts(counts: np.ndarray) -> np.ndarray:
    """The offset of each run when runs of ``counts`` items are laid end to end."""
    return np.cumsum(counts) - counts


def _expand(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(run, index in run)`` of each item of runs of ``counts`` laid end to end."""
    run = np.repeat(np.arange(counts.size), counts)
    index = np.arange(run.size)
    index -= np.repeat(_starts(counts), counts)
    return run, index


def _cut_axes(split_lists: Sequence[np.ndarray], first: np.ndarray, second: np.ndarray,
              factor: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut the axes ``(split_lists[first], split_lists[second], factor)`` into segments.

    An axis is cut by the split points of the two grids that share it and
    by the starts of its ``factor`` replica shares.  All axes are cut by one
    array program: axis ``x``'s points are offset by ``x * span``, so one
    sorted array per family of points -- the first grid's, the second
    grid's, the share starts -- holds the axes in turn.  Returns

    * ``segments``: rows ``(first tile, second tile, start, stop)``, one
      column per segment, axis-major;
    * ``runs``: rows ``(first segment, count)``, one column per point of
      each family: the segments from that point to the family's next one
      are one tile (or share), or none after a grid's last point;
    * ``run_at``: per family and axis, the run of its tile (or share) 0;
    * ``first_run``: each segment's run in the first grid.
    """
    lengths = np.array([splits.size for splits in split_lists])
    points = np.concatenate(split_lists)
    points_at = _starts(lengths)
    extent = points[points_at[first] + lengths[first] - 1]
    span = int(extent.max()) + 1
    grids = np.concatenate((first, second))
    counts = np.concatenate((lengths[grids], factor))
    # Per family and axis, the index of its first point.
    run_at = _starts(counts).reshape(3, -1)
    owner, at = _expand(counts[:grids.size])
    grid_keys = points[points_at[grids][owner] + at] + owner % first.size * span
    # Share r of extent e in f shares starts at r * (e // f) + min(r, e % f);
    # empty shares (e < f) start at the extent.
    axis, share = _expand(factor)
    keys = np.concatenate((grid_keys, share * (extent // factor)[axis]
                           + np.minimum(share, (extent % factor)[axis]) + axis * span))
    cuts = np.unique(keys)
    inside = cuts[1:] // span == cuts[:-1] // span
    start, stop = cuts[:-1][inside], cuts[1:][inside]
    first_segment = np.searchsorted(start, keys)
    next_first = np.append(first_segment[1:], 0)
    second_at, share_at = run_at[1:, 0].tolist()
    next_first[[second_at - 1, share_at - 1, -1]] = start.size
    # Every point is a cut, so a segment lies in one tile of each grid: the
    # last one starting at or before it.
    first_run = np.searchsorted(grid_keys[:second_at], start, side="right") - 1
    second_run = np.searchsorted(grid_keys[second_at:], start, side="right") - 1
    axis = start // span
    segments = np.stack((first_run - run_at[0][axis],
                         second_run + second_at - run_at[1][axis],
                         start - axis * span, stop - axis * span))
    return segments, np.stack((first_segment, next_first - first_segment)), run_at, first_run


#: Per stationary operand (A, B, C), how a block picks its segments on the
#: m, k and n axes: the run family (0 the first grid, 1 the second, 2 the
#: shares) and the coordinate (0/1 the stationary tile's row/column index,
#: 2 the rank's replica, i.e. its share of the free axis).
_RUN_FAMILY = np.array([(0, 0, 2), (2, 1, 0), (1, 2, 1)])
_RUN_COORD = np.array([(0, 1, 2), (2, 0, 1), (0, 2, 1)])
#: Operand index (A, B, C) of each stationary, and per operand index its
#: free axis in (m, k, n) order: A splits n, B splits m, C splits k.
_OPERAND = {Stationary.A: 0, Stationary.B: 1, Stationary.C: 2}
_FREE_AXIS = np.array([2, 0, 1])
#: Per stationary operand (A, B, C), where a unit's (outer, middle, inner)
#: segment runs come from: 0-2 the block's m, k, n runs, 3 the unit's group
#: (a run of m segments for B, of n segments for A), 4 one k segment.
_UNIT_SOURCES = np.array([(4, 0, 3), (1, 3, 2), (0, 1, 2)])
#: The first and the second grid of the m, k and n axes: per axis, the
#: operand (A, B, C) and dimension (rows, columns) -- A rows and C rows,
#: A columns and B rows, B and C columns.
_AXIS_GRIDS = ((np.array([0, 0, 1]), np.array([0, 1, 1])),
               (np.array([2, 1, 2]), np.array([0, 0, 1])))


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

    The work scales with the batch's distinct layouts and axes: each is
    read or cut once, and tasks index into them.  ``tasks`` must not be
    empty.
    """
    # -- distinct layouts (by identity) and split lists (by value) ---------- #
    given = [layout for task in tasks for layout in task[:3]]
    layouts = list(dict.fromkeys(given))  # layouts hash by identity
    index_of = {layout: index for index, layout in enumerate(layouts)}
    lay = np.fromiter(map(index_of.__getitem__, given), np.int64, len(given)).reshape(-1, 3)
    num_tasks = lay.shape[0]
    kind = np.array([_OPERAND[task[3]] for task in tasks])
    split_at: Dict[Tuple[int, ...], int] = {}
    grids = np.array([(split_at.setdefault(layout.row_splits, len(split_at)),
                       split_at.setdefault(layout.col_splits, len(split_at)))
                      for layout in layouts])
    ncols, rpr, factor = (np.array([getattr(layout, name) for layout in layouts])
                          for name in ("ncols", "ranks_per_replica", "factor"))
    stat = lay[np.arange(num_tasks), kind]

    # -- distinct axes: (first split list, second split list, factor) ------- #
    first, second = (grids[lay[:, operands], dims] for operands, dims in _AXIS_GRIDS)
    factors = np.where(_FREE_AXIS[kind][:, None] == np.arange(3), factor[stat][:, None], 1)
    num_splits, num_factors = len(split_at), int(factor.max()) + 1
    keys = (first * num_splits + second) * num_factors + factors
    distinct, axis = np.unique(keys.ravel(), return_inverse=True)
    segments, runs, run_at, first_run = _cut_axes(
        [np.array(splits, dtype=np.int64) for splits in split_at],
        distinct // num_factors // num_splits, distinct // num_factors % num_splits,
        distinct % num_factors)
    axis = axis.reshape(num_tasks, 3)

    # -- blocks: one per (task, rank, stationary tile) ---------------------- #
    tile_counts = np.array([layout.rank_tiles[0].size for layout in layouts])
    blk_task, blk_at = _expand(tile_counts[stat])
    blk_at += _starts(tile_counts)[stat][blk_task]
    blk_rank = np.concatenate([layout.rank_tiles[0] for layout in layouts])[blk_at]
    blk_flat = np.concatenate([layout.rank_tiles[1] for layout in layouts])[blk_at]
    blk_stat = stat[blk_task]
    stat_i = blk_flat // ncols[blk_stat]
    stat_j = blk_flat - stat_i * ncols[blk_stat]
    blk_kind = kind[blk_task]
    num_blocks = blk_task.size
    # The run each block takes on the m, k and n axes (rows in that order).
    coords = np.concatenate((stat_i, stat_j, blk_rank // rpr[blk_stat]))
    run = (run_at[_RUN_FAMILY[kind], axis][blk_task].T
           + coords[_RUN_COORD[blk_kind].T * num_blocks + np.arange(num_blocks)])
    lo, cnt = np.take(runs, run, axis=1)

    # -- units: runs of a block's rows that are one product of segments ----- #
    # Stationary C loops (A row, A col, B row, B col): its block is one
    # (m, k, n) product of segments.  B loops (A row, A col, C row, C col):
    # per A row -- a run of m segments -- one (k, m, n) product.  A loops
    # (B row, B col, C row, C col): per k segment and B column -- a run of
    # n segments -- one (k, m, n) product with one k segment.  A group is
    # the part of such a run inside the block.
    grouped = np.where(blk_kind == 0, 2 * num_blocks, 0) + np.arange(num_blocks)
    span_lo, span_cnt = lo.ravel()[grouped], cnt.ravel()[grouped]
    filled = cnt.prod(axis=0) > 0
    first_group = first_run[np.where(filled, span_lo, 0)]
    groups = np.where(blk_kind == 2, 1,
                      first_run[np.where(filled, span_lo + span_cnt - 1, 0)]
                      - first_group + 1) * filled
    unit_blk, at = _expand(groups * np.where(blk_kind == 0, cnt[1], 1))
    unit_groups = groups[unit_blk]
    group = first_group[unit_blk] + at % unit_groups
    group_end = span_lo[unit_blk] + span_cnt[unit_blk]
    group_start = np.maximum(runs[0, group], span_lo[unit_blk])
    num_units = unit_blk.size
    unit_kind = blk_kind[unit_blk]
    pick = _UNIT_SOURCES[unit_kind].T * num_units + np.arange(num_units)
    unit_lo = np.concatenate((*np.take(lo, unit_blk, axis=1), group_start,
                              lo[1][unit_blk] + at // unit_groups))[pick]
    unit_cnt = np.concatenate((*np.take(cnt, unit_blk, axis=1),
                               np.minimum(runs[0, group] + runs[1, group], group_end)
                               - group_start, np.ones_like(at)))[pick]

    # -- rows: expand each unit's (outer, middle, inner) product ------------ #
    # Row-length arrays are built in place where they can be: fresh memory
    # costs as much as the arithmetic on it.
    row_unit, outer = _expand(unit_cnt[0] * unit_cnt[1] * unit_cnt[2])
    count = unit_cnt[2][row_unit]
    gn = outer % count
    outer //= count
    gn += unit_lo[2][row_unit]
    np.take(unit_cnt[1], row_unit, out=count)
    middle = outer % count
    outer //= count
    del count
    middle += unit_lo[1][row_unit]
    outer += unit_lo[0][row_unit]
    # C's units run (m, k, n), A's and B's (k, m, n).
    swap = unit_kind[row_unit] != 2
    gm = np.where(swap, middle, outer)
    np.copyto(middle, outer, where=swap)
    gk = middle
    del outer, swap

    first_tile, second_tile, start, stop = segments
    table = {
        "task": blk_task[unit_blk][row_unit], "rank": blk_rank[unit_blk][row_unit],
        "m0": start[gm], "m1": stop[gm], "k0": start[gk], "k1": stop[gk],
        "n0": start[gn], "n1": stop[gn],
        "a_i": first_tile[gm], "a_j": first_tile[gk], "b_i": second_tile[gk],
        "b_j": first_tile[gn], "c_i": second_tile[gm], "c_j": second_tile[gn],
        "stat_i": stat_i[unit_blk][row_unit], "stat_j": stat_j[unit_blk][row_unit],
    }
    del gm, gk, gn
    positions = np.concatenate([layout.positions for layout in layouts])
    positions_at = _starts(np.array([layout.positions.size for layout in layouts]))
    unit_rank = blk_rank[unit_blk]
    for x, side in enumerate("abc"):
        unit_lay = lay[blk_task[unit_blk], x]
        key = ncols[unit_lay][row_unit]
        key *= table[f"{side}_i"]
        key += table[f"{side}_j"]
        table[f"{side}_key"] = key
        # Owner = the executing rank's replica base + the tile's position.
        owner = positions_at[unit_lay][row_unit]
        owner += key
        owner = positions[owner]
        owner += (unit_rank // rpr[unit_lay] * rpr[unit_lay])[row_unit]
        table[f"{side}_owner"] = owner
    return table


def tile_traffic(tasks: Sequence[Tuple[OperandLayout, OperandLayout, OperandLayout,
                                       Stationary]]
                 ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray],
                            Dict[str, np.ndarray], Dict[str, np.ndarray], np.ndarray]:
    """Per task, what each rank computes, reads and accumulates, tile by tile.

    The index arithmetic of :func:`slice_table` at tile granularity.  A
    *block* is a rank's stationary tile cut to the rank's replica share of
    the free axis: one interval on each of m, k and n.  The tiles of an
    operand it meets are the *rectangle* of that operand's tiles
    overlapping two of those intervals (A: m and k, B: k and n, C: m and
    n).  No segment or op is built, so the work scales with the tiles met,
    not with the ops.  Returns four tables of columns and an array:

    * ``blocks``: per block its ``task``, ``rank``, stationary ``tile``
      (flat index) and per axis ``x`` of m, k, n: the interval length
      ``x``, a lower bound ``x_segments`` on the segments it is cut into
      (either operand on the axis has that many tiles in it) and an upper
      bound ``x_longest`` on a segment's length (each lies in one tile of
      either operand).  The block's ops are the product of its segments.
    * ``reads``: one row per distinct ``(task, rank, side, tile)`` of a
      non-stationary A (``side`` 0) or B (1) tile, for the tasks that are
      their own ``reader`` (below): exactly the distinct ``(rank, a_key)``
      and ``(rank, b_key)`` of the task's :func:`slice_table` rows, less
      the stationary operand's own tiles.
    * ``writes``: per block and C tile it meets, the ``block``, the
      ``tile`` and the ``elements`` of the block's m x n product that land
      in it; each of them is accumulated once per k segment.
    * ``tiles``: per tile of the distinct layouts, laid end to end, its
      ``position`` (owner within a replica) and its layout's
      ``ranks_per_replica`` (``tile`` columns index this table).  A rank
      reaches every tile in its own replica: the owner is
      ``rank // ranks_per_replica * ranks_per_replica + position``.  Also
      each tile's ``elements``.
    * ``reader``: per task, the task whose ``reads`` are its reads.  Tasks
      with A or B stationary read the same tiles whatever C's layout is,
      so all those on the same A and B layouts share one task's reads.

    ``tasks`` must not be empty.
    """
    given = [layout for task in tasks for layout in task[:3]]
    layouts = list(dict.fromkeys(given))  # layouts hash by identity
    index_of = {layout: index for index, layout in enumerate(layouts)}
    lay = np.fromiter(map(index_of.__getitem__, given), np.int64, len(given)).reshape(-1, 3)
    num_tasks = lay.shape[0]
    kind = np.array([_OPERAND[task[3]] for task in tasks])
    ncols, rpr, factor = (np.array([getattr(layout, name) for layout in layouts])
                          for name in ("ncols", "ranks_per_replica", "factor"))
    num_tiles = np.array([layout.positions.size for layout in layouts])
    tile_at = _starts(num_tiles)
    p = int(rpr[0] * factor[0])
    # Each task reads as the first task with its stationary, A and B
    # layouts and -- only when C is stationary -- C layout.
    size = len(layouts) + 1
    read_as = ((kind * size + lay[:, 0]) * size + lay[:, 1]) * size + np.where(
        kind == 2, lay[:, 2] + 1, 0)
    _, first_reader, read_as = np.unique(read_as, return_index=True, return_inverse=True)
    reader = first_reader[read_as.reshape(-1)]

    # -- split lists: layout x's rows are list 2x, its columns 2x + 1 ------ #
    # Band t of list l is [low[band_at[l] + t], high[band_at[l] + t]).  For
    # the overlap queries each list is offset by l * span, so one sorted
    # array of band starts (and one of stops) holds every list.
    splits = [s for layout in layouts for s in (layout.row_splits, layout.col_splits)]
    sizes = np.array([len(s) for s in splits])
    points = np.fromiter(chain.from_iterable(splits), np.int64, int(sizes.sum()))
    is_last = np.zeros(points.size, dtype=bool)
    is_last[np.cumsum(sizes) - 1] = True
    low, high = points[~is_last], points[~np.roll(is_last, 1)]
    band_at = _starts(sizes - 1)
    extents = points[is_last]
    span = int(extents.max()) + 1
    offset = np.repeat(np.arange(sizes.size) * span, sizes - 1)
    low_key, high_key = low + offset, high + offset

    # -- blocks: one per (task, rank, stationary tile) ---------------------- #
    stat = lay[np.arange(num_tasks), kind]
    tile_counts = np.array([layout.rank_tiles[0].size for layout in layouts])
    blk_task, blk_at = _expand(tile_counts[stat])
    blk_at += _starts(tile_counts)[stat][blk_task]
    blk_rank = np.concatenate([layout.rank_tiles[0] for layout in layouts])[blk_at]
    blk_flat = np.concatenate([layout.rank_tiles[1] for layout in layouts])[blk_at]
    blk_stat = stat[blk_task]
    blk_kind = kind[blk_task]
    blk_lay = lay[blk_task].T
    # The stationary tile's row and column bands, and the rank's share r of
    # the free axis's extent e in f shares: [r * (e // f) + min(r, e % f), ...).
    stat_i = blk_flat // ncols[blk_stat]
    stat_j = blk_flat - stat_i * ncols[blk_stat]
    rows = band_at[2 * blk_stat] + stat_i
    cols = band_at[2 * blk_stat + 1] + stat_j
    # The free axis's extent: B's columns for n (A stationary), A's rows for
    # m (B stationary), A's columns for k (C stationary).
    is_a, is_b = blk_kind == 0, blk_kind == 1
    extent = extents[np.where(is_a, 2 * blk_lay[1] + 1, 2 * blk_lay[0] + (blk_kind == 2))]
    share = blk_rank // rpr[blk_stat]
    width, extra = np.divmod(extent, factor[blk_stat])
    share_lo = share * width + np.minimum(share, extra)
    share_hi = share_lo + width + (share < extra)
    # (m, k, n) per stationary A, B, C: (rows, cols, share), (share, rows,
    # cols), (rows, share, cols).
    lo, hi = ((np.where(is_b, free, band_rows), np.where(is_a, band_cols, np.where(
                  is_b, band_rows, free)), np.where(is_a, free, band_cols))
              for band_rows, band_cols, free in ((low[rows], low[cols], share_lo),
                                                 (high[rows], high[cols], share_hi)))
    m, k, n = (h - l for l, h in zip(lo, hi))
    live = (m > 0) & (k > 0) & (n > 0)

    # -- rectangles: the tiles of A (m, k), B (k, n) and C (m, n) ----------- #
    # Rows: A rows and columns, B rows and columns, C rows and columns.  The
    # stationary operand's rectangle is its own tile; the others' are
    # searched: a band overlaps [lo, hi) when it stops after lo and starts
    # before hi.
    axis = [0, 1, 1, 2, 0, 2]
    lists_all = 2 * blk_lay.repeat(2, axis=0)
    lists_all[1::2] += 1
    search = np.repeat(np.arange(3), 2)[:, None] != blk_kind
    lists = lists_all[search]
    shift = lists * span
    found = np.searchsorted(high_key, np.stack([lo[x] for x in axis])[search] + shift,
                            side="right")
    first = np.stack((stat_i, stat_j) * 3)
    first[search] = found - band_at[lists]
    count = np.ones_like(first)
    count[search] = np.searchsorted(low_key, np.stack([hi[x] for x in axis])[search]
                                    + shift) - found
    count *= live  # an empty block meets no tile
    # Per axis, the segments: at least as many as either operand has tiles
    # in the interval, and none longer than the interval or either
    # operand's longest tile.
    blocks = {"task": blk_task, "rank": blk_rank, "tile": blk_flat}
    longest = np.maximum.reduceat(high - low, band_at)[lists_all]
    for x, (size, one, other) in enumerate(zip((m, k, n), (0, 1, 3), (4, 2, 5))):
        name = "mkn"[x]
        blocks[name] = size
        blocks[f"{name}_segments"] = np.maximum(count[one], count[other])
        blocks[f"{name}_longest"] = np.minimum(size, np.minimum(longest[one], longest[other]))
    # The stationary operand's own tile is the reading rank's; only the
    # reader of each group of tasks reads.
    count[:4] *= search[:4] & (reader == np.arange(num_tasks))[blk_task]
    first_tile = tile_at[blk_lay] + first[0::2] * ncols[blk_lay] + first[1::2]

    num_blocks = blk_task.size

    def expand(sides):
        """``(side, block, row, column, tile)`` of every tile in the given
        sides' rectangles; row and column count from the rectangle's corner."""
        widths = count[1::2][sides].ravel()
        unit, at = _expand(count[0::2][sides].ravel() * widths)
        side = unit >= num_blocks
        blk = unit - side * num_blocks
        row, col = np.divmod(at, widths[unit])
        tile = (first_tile[sides].ravel()[unit] + col
                + row * ncols[blk_lay[sides].ravel()[unit]])
        return side, blk, row, col, tile

    side, blk, _, _, tile = expand([0, 1])
    task, rank = blk_task[blk], blk_rank[blk]
    # A rank with several stationary tiles may meet a tile more than once;
    # it reads it once.
    group = blk_task * p + blk_rank
    several = np.bincount(group, minlength=num_tasks * p)[group] > 1
    if several.any():
        shared = several[blk]
        keys = ((group[blk] * 2 + side) * int(num_tiles.sum()) + tile)[shared]
        keep = ~shared
        keep[np.flatnonzero(shared)[np.unique(keys, return_index=True)[1]]] = True
        task, rank, side, tile = task[keep], rank[keep], side[keep], tile[keep]
    reads = {"task": task, "rank": rank, "side": side.astype(np.int64), "tile": tile}

    _, blk, row, col, tile = expand([2])
    c_lay = blk_lay[2, blk]
    row += band_at[2 * c_lay] + first[4, blk]
    col += band_at[2 * c_lay + 1] + first[5, blk]
    overlap = ((np.minimum(hi[0][blk], high[row]) - np.maximum(lo[0][blk], low[row]))
               * (np.minimum(hi[2][blk], high[col]) - np.maximum(lo[2][blk], low[col])))
    writes = {"block": blk, "tile": tile, "elements": overlap}

    # -- tiles: every layout's, row-major -------------------------------- #
    tile_lay = np.repeat(np.arange(len(layouts)), num_tiles)
    tile_i, tile_j = np.divmod(np.arange(tile_lay.size) - tile_at[tile_lay], ncols[tile_lay])
    row = band_at[2 * tile_lay] + tile_i
    col = band_at[2 * tile_lay + 1] + tile_j
    tiles = {
        "position": np.concatenate([layout.positions for layout in layouts]),
        "ranks_per_replica": rpr[tile_lay],
        "elements": (high[row] - low[row]) * (high[col] - low[col]),
    }
    return blocks, reads, writes, tiles, reader


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
