"""Test oracle: the direct executor as an op-object walk.

An independent implementation of paper Section 4.2's direct execution: it
walks ``LocalMatmulOp`` objects one at a time and prices every op with
the scalar pricing oracle ``tests/pricing_oracle.py`` (prefetch ``prefetch_depth`` ops ahead, bounded
asynchronous GEMM/accumulate windows, the memory pool and the per-rank
remote-tile cache).  The library executor,
:class:`repro.core.direct.DirectExecutor`, walks priced slicing-table
columns; the property suite checks that both emit the same events,
statistics and C bytes.  It schedules every fetch, GEMM and accumulate on
the scheduling engine of ``tests/engine_oracle.py``, so its timing rules are
independent of the walk's.  Import it as ``tests.direct_oracle`` (run pytest
from the repository root).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel
from repro.core.ops import LocalMatmulOp
from repro.core.result import RankStats
from repro.core.structure import WorkloadStructure, resolve_structure
from repro.dist.matrix import DistributedMatrix
from repro.sim.events import ACCUMULATE, COMPUTE, COPY, ScheduledEvent
from tests import structure_oracle as geometry
from tests.engine_oracle import OracleEngine
from tests.pricing_oracle import (
    accumulate_time,
    device_link_time,
    local_accumulate_time,
    structured_op_compute_time,
    transfer_time,
)

_MATRIX_A = "A"
_MATRIX_B = "B"


@dataclass
class _FetchedTile:
    """A tile held locally for the duration of (at least) one op."""

    data: np.ndarray
    ready_time: float
    event: Optional[ScheduledEvent] = None
    from_pool: bool = False


@dataclass
class _RankState:
    """Mutable per-rank execution state used by the interleaved walk."""

    rank: int
    ops: List[LocalMatmulOp]
    next_prefetch: int = 0
    fetched: Dict[Tuple[str, int], _FetchedTile] = field(default_factory=dict)
    cache: Dict[Tuple[str, int, Tuple[int, int]], _FetchedTile] = field(default_factory=dict)
    gemm_events: List[ScheduledEvent] = field(default_factory=list)
    accumulate_events: List[ScheduledEvent] = field(default_factory=list)
    stats: RankStats = None  # type: ignore[assignment]


class OracleExecutor:
    """The object walk: executes per-rank ``LocalMatmulOp`` lists op by op."""

    def __init__(
        self,
        a: DistributedMatrix,
        b: DistributedMatrix,
        c: DistributedMatrix,
        cost_model: CostModel,
        config: Optional[ExecutionConfig] = None,
        engine: Optional[OracleEngine] = None,
        structure: Optional[WorkloadStructure] = None,
    ) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.runtime = a.runtime
        self.cost_model = cost_model
        self.config = config or ExecutionConfig()
        self.engine = engine or OracleEngine(self.runtime.num_ranks)
        self.clock = self.engine.clock
        # Normalized to None for dense so the hot path stays the historical
        # arithmetic (bit-exact with the committed snapshots); non-dense
        # structures scale every emitted event by its live fraction.
        self.structure = resolve_structure(structure)
        if self.structure is not None and not self.config.simulate_only:
            raise ValueError(
                "structured workloads are time-model only: masked blocks and "
                "padding rows carry no real data, so the executor cannot "
                "materialize them — use ExecutionConfig(simulate_only=True)"
            )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(self, per_rank_ops: Dict[int, List[LocalMatmulOp]]) -> Tuple[float, Dict[int, RankStats]]:
        """Run all ranks' op lists; returns (compute makespan, per-rank stats).

        The ops must already be in execution order (iteration offset applied
        by the caller when enabled).
        """
        states: Dict[int, _RankState] = {}
        for rank in range(self.runtime.num_ranks):
            ops = list(per_rank_ops.get(rank, []))
            state = _RankState(rank=rank, ops=ops)
            state.stats = RankStats(rank=rank, num_ops=len(ops))
            states[rank] = state

        max_steps = max((len(state.ops) for state in states.values()), default=0)
        for step in range(max_steps):
            for rank in range(self.runtime.num_ranks):
                state = states[rank]
                if step < len(state.ops):
                    self._process_op(state, step)

        for state in states.values():
            device = self.clock.device(state.rank)
            state.stats.compute_time = device.busy_time(COMPUTE)
            state.stats.copy_time = device.busy_time(COPY)
            state.stats.accumulate_time = device.busy_time(ACCUMULATE)
            state.stats.finish_time = device.finish_time()
            self._release_all(state)

        makespan = self.engine.makespan()
        return makespan, {rank: state.stats for rank, state in states.items()}

    # ------------------------------------------------------------------ #
    # per-op processing
    # ------------------------------------------------------------------ #
    def _process_op(self, state: _RankState, index: int) -> None:
        config = self.config
        op = state.ops[index]

        # Issue prefetches for this op (if not yet issued) and the lookahead window.
        horizon = index + config.prefetch_depth
        issue_floor = state.gemm_events[index - 1].start if index > 0 else 0.0
        if not config.async_execution and index > 0:
            issue_floor = max(issue_floor, state.accumulate_events[index - 1].end)
        while state.next_prefetch <= min(horizon, len(state.ops) - 1):
            self._issue_fetches(state, state.next_prefetch, issue_floor)
            state.next_prefetch += 1
        if state.next_prefetch <= index:
            # prefetch_depth == 0 path: fetch exactly when needed.
            self._issue_fetches(state, index, issue_floor)
            state.next_prefetch = index + 1

        a_tile = state.fetched.pop((_MATRIX_A, index))
        b_tile = state.fetched.pop((_MATRIX_B, index))

        # ----- local GEMM ------------------------------------------------
        if config.simulate_only:
            product = None
        else:
            a_slice = a_tile.data[op.a.local.as_slices()]
            b_slice = b_tile.data[op.b.local.as_slices()]
            product = a_slice @ b_slice

        gemm_deps: List[Optional[ScheduledEvent]] = [a_tile.event, b_tile.event]
        if config.async_execution:
            window = config.max_concurrent_accumulates
            if index >= window:
                gemm_deps.append(state.accumulate_events[index - window])
            gemm_window = config.max_concurrent_gemms
            if index >= gemm_window:
                gemm_deps.append(state.gemm_events[index - gemm_window])
        elif index > 0:
            gemm_deps.append(state.accumulate_events[index - 1])

        if self.structure is None:
            fractions = None
            op_flops = op.flops
            c_bytes = op.c_bytes
        else:
            # One geometry scan per op: the same fractions price the GEMM,
            # the accumulate, and the stats.
            fractions = geometry.op_fractions(self.structure, op.m_bound, op.k_bound,
                                              op.n_bound)
            op_flops = op.flops * fractions[0]
            c_bytes = op.c_bytes * fractions[3]
        gemm_duration = structured_op_compute_time(self.cost_model, op, self.structure,
                                                   fractions)
        gemm_event = self.engine.gemm(state.rank, gemm_duration, deps=gemm_deps,
                                      label="gemm")
        state.gemm_events.append(gemm_event)
        state.stats.flops += op_flops

        # ----- accumulate into C -----------------------------------------
        if op.c_is_remote:
            if not config.simulate_only:
                self.c.accumulate_tile(
                    op.c.index,
                    product,
                    replica_idx=op.c.replica,
                    initiator=state.rank,
                    region=op.c.local,
                )
            duration = accumulate_time(self.cost_model, state.rank, op.c.owner, c_bytes)
            occupancy = device_link_time(self.cost_model, c_bytes, accumulate=True)
            # The accumulate cannot start before the producing GEMM finished,
            # before the initiator's own accumulate queue drains, and it must
            # find a free slot in the destination's shared ingress capacity
            # (many-to-one fan-in serialises there).  The engine owns all of
            # that — including the compute interference the paper observes.
            acc_event = self.engine.accumulate(
                state.rank,
                duration,
                dst=op.c.owner,
                occupancy=occupancy,
                interference=self.cost_model.machine.accumulate_compute_interference,
                deps=(gemm_event,),
                label="accumulate",
            )
            state.stats.remote_accumulate_bytes += c_bytes
        else:
            if not config.simulate_only:
                c_view = self.c.tile(op.c.index, op.c.replica, rank=state.rank)
                c_view[op.c.local.as_slices()] += product
            duration = local_accumulate_time(self.cost_model, c_bytes)
            acc_event = self.engine.local_accumulate(
                state.rank, duration, deps=(gemm_event,), label="local-accumulate"
            )
        state.accumulate_events.append(acc_event)

        self._maybe_release(state, a_tile)
        self._maybe_release(state, b_tile)

    # ------------------------------------------------------------------ #
    # tile fetching
    # ------------------------------------------------------------------ #
    def _issue_fetches(self, state: _RankState, index: int, earliest: float) -> None:
        op = state.ops[index]
        state.fetched[(_MATRIX_A, index)] = self._fetch_operand(
            state, self.a, _MATRIX_A, op.a.index, op.a.replica, op.a.owner, earliest
        )
        state.fetched[(_MATRIX_B, index)] = self._fetch_operand(
            state, self.b, _MATRIX_B, op.b.index, op.b.replica, op.b.owner, earliest
        )

    def _fetch_operand(
        self,
        state: _RankState,
        matrix: DistributedMatrix,
        matrix_key: str,
        tile_idx: Tuple[int, int],
        replica: int,
        owner: int,
        earliest: float,
    ) -> _FetchedTile:
        rank = state.rank
        simulate_only = self.config.simulate_only
        if owner == rank:
            view = None if simulate_only else matrix.tile(tile_idx, replica, rank=rank)
            return _FetchedTile(data=view, ready_time=0.0, from_pool=False)

        cache_key = (matrix_key, replica, tile_idx)
        if self.config.cache_remote_tiles and cache_key in state.cache:
            return state.cache[cache_key]

        bounds = matrix.tile_bounds(tile_idx)
        nbytes = bounds.size * matrix.dtype.itemsize
        if self.structure is not None:
            # Only live data crosses the wire: masked B blocks and padding
            # rows of A are never fetched (a fully masked tile costs 0).
            nbytes *= geometry.live_fraction(self.structure, matrix_key, bounds.rows,
                                            bounds.cols)
        duration = transfer_time(self.cost_model, owner, rank, nbytes)
        occupancy = device_link_time(self.cost_model, nbytes)
        # The fetch starts once the reader's own copy queue (its ingress
        # bandwidth, processed in program order) is free, and must find an
        # idle slot in the owner's shared egress capacity — one-to-many tile
        # fan-out serialises there.  Both disciplines live in the engine.
        event = self.engine.fetch(
            rank,
            duration,
            src=owner,
            occupancy=occupancy,
            min_start=earliest,
            label=f"get:{matrix_key}{tile_idx}",
        )
        ready = event.end
        state.stats.remote_get_bytes += nbytes

        if simulate_only:
            fetched = _FetchedTile(data=None, ready_time=ready, event=event,
                                   from_pool=False)
        elif self.config.use_memory_pool:
            pool = self.runtime.pool(rank)
            buffer = pool.acquire(matrix.tile_bounds(tile_idx).shape, matrix.dtype)
            data = matrix.get_tile(tile_idx, replica, initiator=rank, out=buffer)
            fetched = _FetchedTile(data=data, ready_time=ready, event=event,
                                   from_pool=True)
        else:
            data = matrix.get_tile(tile_idx, replica, initiator=rank)
            fetched = _FetchedTile(data=data, ready_time=ready, event=event,
                                   from_pool=False)

        if self.config.cache_remote_tiles:
            state.cache[cache_key] = fetched
        return fetched

    def _maybe_release(self, state: _RankState, tile: _FetchedTile) -> None:
        """Return a pooled buffer unless it is cached for reuse."""
        if not tile.from_pool:
            return
        if self.config.cache_remote_tiles and any(
            cached is tile for cached in state.cache.values()
        ):
            return
        self.runtime.pool(state.rank).release(tile.data)

    def _release_all(self, state: _RankState) -> None:
        if not self.config.use_memory_pool:
            state.cache.clear()
            return
        pool = self.runtime.pool(state.rank)
        for cached in state.cache.values():
            if cached.from_pool:
                pool.release(cached.data)
        state.cache.clear()
