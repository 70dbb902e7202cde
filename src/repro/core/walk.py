"""The direct-execution walk: one multiply's priced ops, timed with plain floats.

Paper Section 4.2 executes a multiply's sliced list of local GEMMs
directly.  :func:`walk_columns` is the one contended timing walk of that
list; the direct executor and the planner's batch evaluator both call it.
It reads priced slicing-table columns
(:meth:`~repro.core.cost_model.CostModel.price_rows` rows, rank-major and in
execution order) and, for every op of every rank,

1. issues the gets of the A and B tiles ``prefetch_depth`` ops ahead (a local
   tile needs none; with ``cache_remote_tiles`` each rank fetches a remote
   tile once),
2. runs the local GEMM once both tiles are ready and the asynchronous
   GEMM/accumulate windows allow (synchronously: once the previous
   accumulate is done),
3. accumulates the product into C: on the rank's compute engine when the C
   tile is its own, with a one-sided accumulate on its accumulate queue
   when remote.

Ranks interleave step-major, rank-minor.  Each rank's compute, copy and
accumulate engines are FIFO queues, kept as the time each is next free.
Each device's shared egress and ingress capacity is kept as sorted
``(start, end)`` reservations; a transfer takes the earliest gap that fits
it at or after its ready time, so one-to-many tile fan-out serialises at the
owner's egress and many-to-one accumulate fan-in at the destination's
ingress, whatever order the walk posts them in.  That contention is the
effect the paper's iteration offset exists to mitigate.  A remote accumulate also steals the
machine's interference share of the initiator's compute.

Two things are optional.  Unless ``config.simulate_only`` is set the
operands are materialized, and the walk moves their data through the PGAS
runtime as it goes (views of local tiles, one-sided ``get_tile`` and
``accumulate_tile`` otherwise, fetch buffers from the rank's memory pool),
so C is bit-exact checkable against ``A @ B``.  Given an
:class:`~repro.sim.engine.EventEngine`, the walk also records every fetch,
GEMM and accumulate it timed, with the start and duration it computed (and
a remote accumulate's stolen compute share as an event of its own).  The
engine only records, so its events, critical path and makespan describe
the walk's schedule.  A relaxed engine (``contention=False``) makes the walk
skip the egress/ingress placement, which is the relaxation behind the
planner's critical-path bound.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.config import ExecutionConfig
from repro.sim.events import ACCUMULATE, COMPUTE, COPY, EventKind
from repro.util.indexing import Interval, Rect

#: A tile held for an op is ``(ready time, fetch event, data)``; this is a
#: local tile of a walk that moves no data.
_LOCAL = (0.0, None, None)


class RankTotals(NamedTuple):
    """One walk's per-rank totals: each field is a list indexed by rank.

    The fields are those of :class:`repro.core.result.RankStats`, in its
    order, so ``RankStats(rank, *values)`` rebuilds one rank's record.
    """

    num_ops: List[int]
    flops: List[int]
    remote_get_bytes: List[int]
    remote_accumulate_bytes: List[int]
    compute_time: List[float]
    copy_time: List[float]
    accumulate_time: List[float]
    finish_time: List[float]


def tile_regions(cols: Dict[str, np.ndarray], matrices: Sequence) -> Tuple[list, list]:
    """Per operand (A, B, C): each row's tile index and in-tile region.

    Tiles are ``(i, j)``; regions are ``(r0, r1, c0, c1)`` in the tile's
    local coordinates: the row's bounds minus the tile's origin.
    """
    tiles, regions = [], []
    for side, matrix, row_axis, col_axis in zip("abc", matrices, "mkm", "knn"):
        i, j = np.divmod(cols[f"{side}_key"], matrix.grid.num_col_tiles)
        r0 = cols[f"{row_axis}0"] - np.asarray(matrix.grid.row_splits)[i]
        c0 = cols[f"{col_axis}0"] - np.asarray(matrix.grid.col_splits)[j]
        tiles.append(list(zip(i.tolist(), j.tolist())))
        regions.append(list(zip(r0.tolist(), (r0 + cols[row_axis]).tolist(),
                                c0.tolist(), (c0 + cols[col_axis]).tolist())))
    return tiles, regions


def walk_columns(cols: Dict[str, np.ndarray], matrices: Sequence,
                 config: ExecutionConfig, interference: float, engine=None
                 ) -> Tuple[float, RankTotals]:
    """Walk priced op columns; returns (compute makespan, per-rank totals).

    ``matrices`` are the multiply's A, B and C.  ``interference`` is the
    share of a rank's compute that its remote accumulates steal.  ``engine``,
    an optional :class:`~repro.sim.engine.EventEngine`, records the walk.  Each
    rank's busy times are its events' ``end - start``, summed in posting
    order, and its finish time includes its device's egress and ingress
    ends.  The GEMM window (``max_concurrent_gemms``) never moves a start,
    because GEMMs run FIFO on the compute engine; it only shapes the
    dependency edge a traced run records.
    """
    runtime = matrices[0].runtime
    p = runtime.num_ranks
    depth = config.prefetch_depth
    async_ = config.async_execution
    w_acc = config.max_concurrent_accumulates
    w_g = config.max_concurrent_gemms
    cache_tiles = config.cache_remote_tiles
    materialize = not config.simulate_only
    pooled = materialize and config.use_memory_pool
    contention = engine is None or engine.contention
    bounds = np.searchsorted(cols["rank"], np.arange(p + 1)).tolist()
    # Plain lists: the walk reads one element at a time.
    owners, keys, nbytes, fetch_time, egress_time = (
        [cols[f"{side}_{name}"].tolist() for side in "ab"]
        for name in ("owner", "key", "bytes", "fetch", "egress"))
    gemm_time, flops, c_owner, c_bytes, acc_time, ingress_time = (
        cols[name].tolist() for name in ("gemm", "flops", "c_owner", "c_bytes", "acc",
                                         "ingress"))
    if materialize:
        tiles, regions = tile_regions(cols, matrices)
        replicas = [[matrix.replica_of_rank(rank) for rank in range(p)]
                    for matrix in matrices]
        views: Dict[tuple, np.ndarray] = {}
    if engine is not None:
        col_tiles = [matrix.grid.num_col_tiles for matrix in matrices[:2]]
        gemm_events: List[list] = [[] for _ in range(p)]
        acc_events: List[list] = [[] for _ in range(p)]

    # Per rank: when each FIFO engine is next free, and its busy time.
    compute = [0.0] * p
    copy = [0.0] * p
    accumulate = [0.0] * p
    compute_busy = [0.0] * p
    copy_busy = [0.0] * p
    accumulate_busy = [0.0] * p
    # Shared capacity per device: reservations sorted by start, and the
    # latest end (the device's finish time on that engine).
    egress: List[List[Tuple[float, float]]] = [[] for _ in range(p)]
    ingress: List[List[Tuple[float, float]]] = [[] for _ in range(p)]
    egress_end = [0.0] * p
    ingress_end = [0.0] * p
    flop_sum = [0] * p
    get_bytes = [0] * p
    acc_bytes = [0] * p
    # Remote tiles held per flat tile id, per rank and side (the tile cache),
    # and the pooled buffers the cache holds, in fetch order.
    caches = [({}, {}) for _ in range(p)]
    cached_buffers: List[list] = [[] for _ in range(p)]
    # Issued-but-unconsumed prefetches: op index -> (A tile, B tile).
    pending: List[Dict[int, tuple]] = [{} for _ in range(p)]
    next_pref = [0] * p
    gemm_start: List[List[float]] = [[] for _ in range(p)]
    gemm_end: List[List[float]] = [[] for _ in range(p)]
    acc_end: List[List[float]] = [[] for _ in range(p)]

    def place(slots: List[List[Tuple[float, float]]], ends: List[float],
              device: int, duration: float, earliest: float) -> float:
        """Reserve ``device``'s earliest gap of ``duration`` at or after
        ``earliest``; returns its start."""
        cursor = earliest
        for start, end in slots[device]:
            if start - cursor >= duration:
                break
            if end > cursor:
                cursor = end
        end = cursor + duration
        insort(slots[device], (cursor, end))
        if end > ends[device]:
            ends[device] = end
        return cursor

    def view(x: int, rank: int, row: int) -> np.ndarray:
        """``rank``'s own tile of A, B or C (``x`` = 0, 1, 2), viewed once."""
        key = (x, rank, tiles[x][row])
        data = views.get(key)
        if data is None:
            data = views[key] = matrices[x].tile(tiles[x][row], replicas[x][rank],
                                                 rank=rank)
        return data

    def fetch(rank: int, x: int, row: int, floor: float) -> tuple:
        """Issue one tile's get no earlier than ``floor``; returns the held tile."""
        owner = owners[x][row]
        if owner == rank:
            return (0.0, None, view(x, rank, row)) if materialize else _LOCAL
        key = keys[x][row]
        if cache_tiles:
            tile = caches[rank][x].get(key)
            if tile is not None:
                return tile
        # The get waits for the reader's copy queue (program order), then
        # for a gap in the owner's shared egress capacity.
        earliest = floor if floor > copy[rank] else copy[rank]
        start = (place(egress, egress_end, owner, egress_time[x][row], earliest)
                 if contention else earliest)
        end = copy[rank] = start + fetch_time[x][row]
        copy_busy[rank] += end - start
        get_bytes[rank] += nbytes[x][row]
        event = data = None
        if engine is not None:
            event = engine.record(EventKind.FETCH, rank, COPY, start, fetch_time[x][row],
                                  peer=owner, occupancy=egress_time[x][row],
                                  label=f"get:{'AB'[x]}{divmod(key, col_tiles[x])}")
        if materialize:
            matrix, index = matrices[x], tiles[x][row]
            buffer = (runtime.pool(rank).acquire(matrix.tile_bounds(index).shape,
                                                 matrix.dtype) if pooled else None)
            data = matrix.get_tile(index, replicas[x][rank], initiator=rank, out=buffer)
        tile = (end, event, data)
        if cache_tiles:
            caches[rank][x][key] = tile
            if pooled:
                cached_buffers[rank].append(data)
        return tile

    num = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    for i in range(max(num, default=0)):
        for rank in range(p):
            if i >= num[rank]:
                continue
            lo = bounds[rank]
            row = lo + i
            starts, ends, accs = gemm_start[rank], gemm_end[rank], acc_end[rank]

            # Issue the prefetches of this op and of the lookahead window.
            floor = starts[i - 1] if i > 0 else 0.0
            if not async_ and i > 0 and accs[i - 1] > floor:
                floor = accs[i - 1]
            horizon = i + depth
            if horizon > num[rank] - 1:
                horizon = num[rank] - 1
            waiting = pending[rank]
            while next_pref[rank] <= horizon:
                issue = next_pref[rank]
                a_tile = fetch(rank, 0, lo + issue, floor)
                waiting[issue] = (a_tile, fetch(rank, 1, lo + issue, floor))
                next_pref[rank] = issue + 1
            a_tile, b_tile = waiting.pop(i)

            # ----- local GEMM --------------------------------------------
            earliest = a_tile[0] if a_tile[0] > b_tile[0] else b_tile[0]
            if async_:
                if i >= w_acc and accs[i - w_acc] > earliest:
                    earliest = accs[i - w_acc]
                if i >= w_g and ends[i - w_g] > earliest:
                    earliest = ends[i - w_g]
            elif i > 0 and accs[i - 1] > earliest:
                earliest = accs[i - 1]
            begin = earliest if earliest > compute[rank] else compute[rank]
            finish = compute[rank] = begin + gemm_time[row]
            compute_busy[rank] += finish - begin
            starts.append(begin)
            ends.append(finish)
            flop_sum[rank] += flops[row]
            if engine is not None:
                deps = [a_tile[1], b_tile[1]]
                if async_:
                    if i >= w_acc:
                        deps.append(acc_events[rank][i - w_acc])
                    if i >= w_g:
                        deps.append(gemm_events[rank][i - w_g])
                elif i > 0:
                    deps.append(acc_events[rank][i - 1])
                gemm_event = engine.record(EventKind.GEMM, rank, COMPUTE, begin,
                                           gemm_time[row], deps=deps, label="gemm")
                gemm_events[rank].append(gemm_event)
            if materialize:
                r0, r1, c0, c1 = regions[0][row]
                a_slice = a_tile[2][r0:r1, c0:c1]
                r0, r1, c0, c1 = regions[1][row]
                product = a_slice @ b_tile[2][r0:r1, c0:c1]
                r0, r1, c0, c1 = regions[2][row]

            # ----- accumulate into C -------------------------------------
            owner = c_owner[row]
            if owner != rank:
                # After the GEMM and the rank's accumulate queue, in a gap of
                # the destination's shared ingress capacity.
                earliest = finish if finish > accumulate[rank] else accumulate[rank]
                begin = (place(ingress, ingress_end, owner, ingress_time[row], earliest)
                         if contention else earliest)
                done = accumulate[rank] = begin + acc_time[row]
                accumulate_busy[rank] += done - begin
                acc_bytes[rank] += c_bytes[row]
                if interference > 0.0:
                    stolen = begin if begin > compute[rank] else compute[rank]
                    compute[rank] = stolen + acc_time[row] * interference
                    compute_busy[rank] += compute[rank] - stolen
                if engine is not None:
                    acc_event = engine.record(EventKind.ACCUMULATE, rank, ACCUMULATE,
                                              begin, acc_time[row], peer=owner,
                                              deps=(gemm_event,), label="accumulate",
                                              occupancy=ingress_time[row])
                    if interference > 0.0:
                        # Concurrent with the accumulate: the stolen slice
                        # shares its dependency rather than following it.
                        engine.record(EventKind.ACCUMULATE, rank, COMPUTE, stolen,
                                      acc_time[row] * interference, peer=owner,
                                      deps=(gemm_event,),
                                      label="interference:accumulate")
                if materialize:
                    matrices[2].accumulate_tile(
                        tiles[2][row], product, replica_idx=replicas[2][rank],
                        initiator=rank, region=Rect(Interval(r0, r1), Interval(c0, c1)))
            else:
                begin = finish if finish > compute[rank] else compute[rank]
                done = compute[rank] = begin + acc_time[row]
                compute_busy[rank] += done - begin
                if engine is not None:
                    acc_event = engine.record(EventKind.ACCUMULATE, rank, COMPUTE, begin,
                                              acc_time[row], deps=(gemm_event,),
                                              label="local-accumulate")
                if materialize:
                    view(2, rank, row)[r0:r1, c0:c1] += product
            accs.append(done)
            if engine is not None:
                acc_events[rank].append(acc_event)
            # Return pooled get buffers unless the tile cache keeps them.
            if pooled and not cache_tiles:
                for x, tile in ((0, a_tile), (1, b_tile)):
                    if owners[x][row] != rank:
                        runtime.pool(rank).release(tile[2])

    if pooled:
        for rank in range(p):
            for buffer in cached_buffers[rank]:
                runtime.pool(rank).release(buffer)
    finish = list(map(max, compute, copy, accumulate, egress_end, ingress_end))
    return max(finish), RankTotals(num, flop_sum, get_bytes, acc_bytes, compute_busy,
                                   copy_busy, accumulate_busy, finish)
