"""Direct execution of the sliced ops (paper Section 4.2).

The direct executor walks each rank's ops in order and, for every op,

1. obtains local copies of the A and B tiles (a view when local, a one-sided
   ``get_tile`` otherwise, prefetched ``prefetch_depth`` iterations ahead),
2. runs the local GEMM on the relevant slices,
3. accumulates the result into the C tile — in place when local, with a
   one-sided ``accumulate_tile`` when remote.

The ops arrive as *columns*, one row per op, rank-major and in execution
order: :func:`repro.core.slicing.slice_table` rows priced once by
:meth:`TableExecutor.price` with :meth:`~repro.core.cost_model.CostModel.price_rows`,
the one pricer, which the IR executor and the planner's batch evaluator read
too.  The walk makes no per-op cost-model call.  :meth:`DirectExecutor.execute`
turns ``LocalMatmulOp`` lists into the same rows with
:func:`~repro.core.slicing.ops_table`.

Two things happen at once here: the *data* path really moves NumPy buffers
through the PGAS runtime (so results are bit-exact checkable against
``A @ B``), and the *time* path emits typed fetch/gemm/accumulate events to
the :class:`~repro.sim.engine.EventEngine`, which owns every engine timeline
and the devices' shared ingress/egress capacity.  The interleaved,
step-by-step walk over ranks makes contention for that capacity emerge
naturally, which is exactly the effect the paper's iteration offset exists to
mitigate.  The planner's :meth:`repro.sim.batch.BatchEvaluator.simulate`
walks the same columns with the same state as plain floats (no engine), held
``==`` to this walk by ``tests/property/test_column_walk_properties.py``.

This class is a *front-end*: it decides what happens and in which order, but
never charges time itself.  Handing it a relaxed engine
(``EventEngine(contention=False)``) therefore replays the identical event
stream without cross-device floors — the relaxation behind the planner's
critical-path lower bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel, tile_fetch_bytes
from repro.core.ops import LocalMatmulOp
from repro.core.result import RankStats
from repro.core.slicing import ops_table
from repro.core.structure import ROLE_A, ROLE_B, WorkloadStructure, resolve_structure
from repro.dist.matrix import DistributedMatrix
from repro.runtime.clock import ACCUMULATE, COMPUTE, COPY
from repro.sim.engine import EventEngine
from repro.util.indexing import Interval, Rect


class _FetchedTile:
    """A tile held locally for (at least) one op: its data and fetch event."""

    __slots__ = ("data", "event", "from_pool")

    def __init__(self, data, event=None, from_pool: bool = False) -> None:
        self.data = data
        self.event = event
        self.from_pool = from_pool


#: A local operand in a simulate-only walk: no data, no fetch event.
_LOCAL = _FetchedTile(None)


class _RankState:
    """Mutable per-rank state of the interleaved walk."""

    __slots__ = ("rank", "lo", "num", "next_prefetch", "pending", "caches",
                 "cached", "gemm_events", "acc_events", "stats")

    def __init__(self, rank: int, lo: int, hi: int) -> None:
        self.rank = rank
        self.lo = lo
        self.num = hi - lo
        self.next_prefetch = 0
        #: Issued fetches not yet consumed: op index -> (A tile, B tile).
        self.pending: Dict[int, Tuple[_FetchedTile, _FetchedTile]] = {}
        #: Remote-tile caches of A and B, keyed by flat tile index.
        self.caches: Tuple[dict, dict] = ({}, {})
        #: Every cached tile, in fetch order (released at the end).
        self.cached: List[_FetchedTile] = []
        self.gemm_events: list = []
        self.acc_events: list = []
        self.stats = RankStats(rank=rank, num_ops=self.num)


class TableExecutor:
    """What both executors share: the operands, and their priced table rows.

    :meth:`price` prices one multiply's slicing-table rows with the cost
    model, and :meth:`tile_regions` locates each row's tiles and in-tile
    regions for a materializing walk.
    """

    def __init__(
        self,
        a: DistributedMatrix,
        b: DistributedMatrix,
        c: DistributedMatrix,
        cost_model: CostModel,
        config: Optional[ExecutionConfig] = None,
        engine: Optional[EventEngine] = None,
        structure: Optional[WorkloadStructure] = None,
    ) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.runtime = a.runtime
        self.cost_model = cost_model
        self.config = config or ExecutionConfig()
        self.engine = engine or EventEngine(self.runtime.num_ranks)
        self.clock = self.engine.clock
        # Normalized to None for dense so pricing stays the historical
        # arithmetic (bit-exact with the committed snapshots); non-dense
        # structures scale every emitted event by its live fraction.
        self.structure = resolve_structure(structure)
        if self.structure is not None and not self.config.simulate_only:
            raise ValueError(
                "structured workloads are time-model only: masked blocks and "
                "padding rows carry no real data, so the executor cannot "
                "materialize them — use ExecutionConfig(simulate_only=True)"
            )

    def price(self, table: Dict[str, np.ndarray], prune: bool = True) -> Dict[str, np.ndarray]:
        """Event columns of one task's slicing-table rows, priced for the walk.

        ``prune`` drops the rows of fully masked cuboids of a structured
        workload (no flops survive).
        """
        model = self.cost_model
        itemsize = self.c.dtype.itemsize
        tile_bytes = [(tile_fetch_bytes(self.a, ROLE_A, self.structure),
                       tile_fetch_bytes(self.b, ROLE_B, self.structure))]
        cols = model.event_columns(table, tile_bytes, itemsize, self.structure,
                                   prune=prune)
        cols.update(model.price_rows(cols, itemsize, self.structure))
        return cols

    def tile_regions(self, cols: Dict[str, np.ndarray]) -> Tuple[list, list]:
        """Per operand (A, B, C): each row's tile index and in-tile region.

        Tiles are ``(i, j)``; regions are ``(r0, r1, c0, c1)`` in the tile's
        local coordinates: the row's bounds minus the tile's origin.
        """
        tiles, regions = [], []
        for side, matrix, row_axis, col_axis in zip("abc", (self.a, self.b, self.c),
                                                    "mkm", "knn"):
            i, j = np.divmod(cols[f"{side}_key"], matrix.grid.num_col_tiles)
            r0 = cols[f"{row_axis}0"] - np.asarray(matrix.grid.row_splits)[i]
            c0 = cols[f"{col_axis}0"] - np.asarray(matrix.grid.col_splits)[j]
            tiles.append(list(zip(i.tolist(), j.tolist())))
            regions.append(list(zip(r0.tolist(), (r0 + cols[row_axis]).tolist(),
                                    c0.tolist(), (c0 + cols[col_axis]).tolist())))
        return tiles, regions


class DirectExecutor(TableExecutor):
    """Executes per-rank op streams with the paper's direct-execution optimisations."""

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(self, per_rank_ops: Dict[int, List[LocalMatmulOp]]) -> Tuple[float, Dict[int, RankStats]]:
        """Run all ranks' op lists; returns (compute makespan, per-rank stats).

        The ops must already be in execution order (iteration offset applied
        by the caller when enabled) and be the slicing generator's ops of the
        rank they are listed for.  They are turned into table rows with
        :func:`~repro.core.slicing.ops_table` and walked by
        :meth:`execute_columns`.
        """
        table = ops_table(self.a, self.b, self.c, per_rank_ops)
        return self.execute_columns(self.price(table, prune=False))

    def execute_columns(self, cols: Dict[str, np.ndarray]) -> Tuple[float, Dict[int, RankStats]]:
        """Walk priced op columns; returns (compute makespan, per-rank stats).

        ``cols`` are :meth:`CostModel.event_columns` rows priced by
        :meth:`CostModel.price_rows`, rank-major and in execution order.
        """
        config = self.config
        engine = self.engine
        simulate_only = config.simulate_only
        depth = config.prefetch_depth
        async_execution = config.async_execution
        acc_window = config.max_concurrent_accumulates
        gemm_window = config.max_concurrent_gemms
        cache_tiles = config.cache_remote_tiles
        pooled = config.use_memory_pool and not simulate_only
        release_after_op = pooled and not cache_tiles
        interference = self.cost_model.machine.accumulate_compute_interference
        num_ranks = self.runtime.num_ranks

        bounds = np.searchsorted(cols["rank"], np.arange(num_ranks + 1)).tolist()
        matrices = (self.a, self.b, self.c)
        col_tiles = [matrix.grid.num_col_tiles for matrix in matrices]
        tiles, regions = ([], []) if simulate_only else self.tile_regions(cols)
        # Plain lists: the walk reads one element at a time.
        owners, keys, nbytes, fetch_time, egress = (
            [cols[f"{side}_{name}"].tolist() for side in "ab"]
            for name in ("owner", "key", "bytes", "fetch", "egress"))
        gemm_time, flops, c_owner, c_bytes, acc_time, ingress = (
            cols[name].tolist() for name in ("gemm", "flops", "c_owner", "c_bytes", "acc",
                                             "ingress"))
        replicas = [[matrix.replica_of_rank(rank) for rank in range(num_ranks)]
                    for matrix in matrices]

        own_tiles: Dict[tuple, _FetchedTile] = {}

        def own_tile(x: int, rank: int, row: int) -> _FetchedTile:
            """``rank``'s own tile of A, B or C (``x`` = 0, 1, 2), viewed once."""
            key = (x, rank, tiles[x][row])
            tile = own_tiles.get(key)
            if tile is None:
                tile = own_tiles[key] = _FetchedTile(matrices[x].tile(
                    tiles[x][row], replicas[x][rank], rank=rank))
            return tile

        def fetch(state: _RankState, x: int, row: int, floor: float) -> _FetchedTile:
            rank = state.rank
            owner = owners[x][row]
            if owner == rank:
                return _LOCAL if simulate_only else own_tile(x, rank, row)
            key = keys[x][row]
            if cache_tiles:
                tile = state.caches[x].get(key)
                if tile is not None:
                    return tile
            # The fetch starts once the reader's own copy queue (its ingress
            # bandwidth, processed in program order) is free, and must find an
            # idle slot in the owner's shared egress capacity — one-to-many
            # tile fan-out serialises there.  Both disciplines live in the engine.
            event = engine.fetch(rank, fetch_time[x][row], src=owner,
                                 occupancy=egress[x][row], min_start=floor,
                                 label=f"get:{'AB'[x]}{divmod(key, col_tiles[x])}")
            state.stats.remote_get_bytes += nbytes[x][row]
            if simulate_only:
                tile = _FetchedTile(None, event)
            else:
                index = tiles[x][row]
                matrix = matrices[x]
                if pooled:
                    buffer = self.runtime.pool(rank).acquire(
                        matrix.tile_bounds(index).shape, matrix.dtype)
                    tile = _FetchedTile(matrix.get_tile(index, replicas[x][rank],
                                                        initiator=rank, out=buffer),
                                        event, True)
                else:
                    tile = _FetchedTile(matrix.get_tile(index, replicas[x][rank],
                                                        initiator=rank), event)
            if cache_tiles:
                state.caches[x][key] = tile
                state.cached.append(tile)
            return tile

        def process(state: _RankState, index: int) -> None:
            rank = state.rank
            row = state.lo + index
            gemm_events = state.gemm_events
            acc_events = state.acc_events

            # Issue prefetches for this op (if not yet issued) and the lookahead window.
            floor = gemm_events[index - 1].start if index > 0 else 0.0
            if not async_execution and index > 0:
                floor = max(floor, acc_events[index - 1].end)
            horizon = min(index + depth, state.num - 1)
            while state.next_prefetch <= horizon:
                issue = state.lo + state.next_prefetch
                state.pending[state.next_prefetch] = (fetch(state, 0, issue, floor),
                                                      fetch(state, 1, issue, floor))
                state.next_prefetch += 1
            a_tile, b_tile = state.pending.pop(index)

            # ----- local GEMM --------------------------------------------
            if simulate_only:
                product = None
            else:
                r0, r1, c0, c1 = regions[0][row]
                a_slice = a_tile.data[r0:r1, c0:c1]
                r0, r1, c0, c1 = regions[1][row]
                product = a_slice @ b_tile.data[r0:r1, c0:c1]

            deps = [a_tile.event, b_tile.event]
            if async_execution:
                if index >= acc_window:
                    deps.append(acc_events[index - acc_window])
                if index >= gemm_window:
                    deps.append(gemm_events[index - gemm_window])
            elif index > 0:
                deps.append(acc_events[index - 1])
            gemm_event = engine.gemm(rank, gemm_time[row], deps=deps, label="gemm")
            gemm_events.append(gemm_event)
            state.stats.flops += flops[row]

            # ----- accumulate into C -------------------------------------
            owner = c_owner[row]
            if owner != rank:
                if not simulate_only:
                    r0, r1, c0, c1 = regions[2][row]
                    self.c.accumulate_tile(tiles[2][row], product,
                                           replica_idx=replicas[2][rank], initiator=rank,
                                           region=Rect(Interval(r0, r1), Interval(c0, c1)))
                # The accumulate cannot start before the producing GEMM
                # finished, before the initiator's own accumulate queue
                # drains, and it must find a free slot in the destination's
                # shared ingress capacity (many-to-one fan-in serialises
                # there).  The engine owns all of that — including the compute
                # interference the paper observes.
                acc_event = engine.accumulate(rank, acc_time[row], dst=owner,
                                              occupancy=ingress[row],
                                              interference=interference,
                                              deps=(gemm_event,), label="accumulate")
                state.stats.remote_accumulate_bytes += c_bytes[row]
            else:
                if not simulate_only:
                    r0, r1, c0, c1 = regions[2][row]
                    own_tile(2, rank, row).data[r0:r1, c0:c1] += product
                acc_event = engine.local_accumulate(rank, acc_time[row], deps=(gemm_event,),
                                                    label="local-accumulate")
            acc_events.append(acc_event)

            # Return pooled buffers unless the tile cache keeps them.
            if release_after_op:
                for tile in (a_tile, b_tile):
                    if tile.from_pool:
                        self.runtime.pool(rank).release(tile.data)

        states = [_RankState(rank, bounds[rank], bounds[rank + 1])
                  for rank in range(num_ranks)]
        for step in range(max((state.num for state in states), default=0)):
            for state in states:
                if step < state.num:
                    process(state, step)

        for state in states:
            device = self.clock.device(state.rank)
            state.stats.compute_time = device.busy_time(COMPUTE)
            state.stats.copy_time = device.busy_time(COPY)
            state.stats.accumulate_time = device.busy_time(ACCUMULATE)
            state.stats.finish_time = device.finish_time()
            if pooled:
                pool = self.runtime.pool(state.rank)
                for tile in state.cached:
                    if tile.from_pool:
                        pool.release(tile.data)

        makespan = self.engine.makespan()
        return makespan, {state.rank: state.stats for state in states}
