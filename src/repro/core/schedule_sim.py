"""Execution and time-estimation of IR programs.

Each IR step overlaps its communication with its computation: its comm,
compute and accumulate sums all start at the previous step's barrier, and
the next barrier waits for all three, so the step takes the max of the three
(:func:`step_time`).  The explicit per-step synchronisation is the defining
difference from the free-running direct executor.  The IR never models
cross-rank contention, so a rank's time is its steps' sum.

Two entry points share that rule:

* :func:`estimate_program_time` — one rank's program time from its
  :class:`~repro.core.graph.ComputationGraph`, used inside the
  exhaustive-search lowering.
* :class:`IRExecutor` — executes the programs of all ranks (real data
  movement unless ``simulate_only``), the IR-mode counterpart of
  :class:`repro.core.direct.DirectExecutor`.  Handed an
  :class:`~repro.sim.engine.EventEngine`, it records each step as one
  fetch, one GEMM and one accumulate event (those that take time) gated on
  the previous barrier, and a sync joining them; without one it builds no
  event.

Both read durations the cost model priced once for the whole slicing table
(:meth:`~repro.core.direct.TableExecutor.price`): the GEMM, accumulate and
remote-flag columns of each op and the fetch seconds of each whole tile.
Neither makes a cost-model call per op.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.direct import TableExecutor
from repro.core.graph import ComputationGraph, DataKey
from repro.core.ir import IRProgram
from repro.core.result import RankStats
from repro.core.walk import tile_regions
from repro.sim.events import ACCUMULATE, COMPUTE, COPY, EventKind, ScheduledEvent
from repro.util.indexing import Interval, Rect
from repro.util.validation import SchedulingError


def step_time(comm: float, compute: float, accumulate: float) -> float:
    """One IR step's seconds: its comm, compute and accumulate sums overlap."""
    return max(comm, compute, accumulate)


def estimate_program_time(program: IRProgram, graph: ComputationGraph) -> float:
    """Estimate of one rank's IR program from its priced graph (no cross-rank contention)."""
    total = 0.0
    for step in program.steps:
        comm_time = sum(comm.seconds for comm in step.comms)
        compute_time = 0.0
        accumulate_time = 0.0
        for compute in step.computes:
            index = compute.op_index
            compute_time += graph.gemm[index]
            if graph.c_remote[index]:
                accumulate_time += graph.acc[index]
            else:
                compute_time += graph.acc[index]
        total += step_time(comm_time, compute_time, accumulate_time)
    return total


class IRExecutor(TableExecutor):
    """Executes lowered IR programs for every rank (dense workloads only)."""

    def execute(
        self,
        cols: Mapping[str, np.ndarray],
        programs: Dict[int, IRProgram],
    ) -> Tuple[float, Dict[int, RankStats]]:
        """Run every rank's program over priced table columns.

        ``cols`` are :meth:`price`-d rows, rank-major; op ``i`` of a rank's
        program is that rank's ``i``-th row.  Returns (compute makespan,
        per-rank stats).
        """
        num_ranks = self.runtime.num_ranks
        bounds = np.searchsorted(cols["rank"], np.arange(num_ranks + 1)).tolist()
        tiles, regions = (([], []) if self.config.simulate_only
                          else tile_regions(cols, (self.a, self.b, self.c)))
        rows = {name: cols[name].tolist()
                for name in ("gemm", "acc", "c_owner", "c_bytes", "flops",
                             "a_key", "a_owner", "b_key", "b_owner")}
        makespan = 0.0
        stats: Dict[int, RankStats] = {}
        for rank in range(num_ranks):
            lo, hi = bounds[rank], bounds[rank + 1]
            program = programs.get(rank, IRProgram(rank=rank))
            program.validate(hi - lo)
            finish, rank_stats = self._execute_rank(rank, lo, hi, program, rows,
                                                    tiles, regions)
            stats[rank] = rank_stats
            makespan = max(makespan, finish)
        return makespan, stats

    # ------------------------------------------------------------------ #
    def _execute_rank(self, rank: int, lo: int, hi: int, program: IRProgram,
                      rows: Dict[str, list], tiles: list, regions: list
                      ) -> Tuple[float, RankStats]:
        rank_stats = RankStats(rank=rank, num_ops=hi - lo)
        simulate_only = self.config.simulate_only
        matrices = {"A": self.a, "B": self.b}
        c_replica = self.c.replica_of_rank(rank)
        #: Tiles this rank holds: views of its own, copies of fetched ones.
        held: Dict[DataKey, np.ndarray] = {}

        def hold(key: DataKey, owner: int) -> np.ndarray:
            matrix = matrices[key[0]]
            index = divmod(key[1], matrix.grid.num_col_tiles)
            replica = matrix.replica_of_rank(rank)
            held[key] = (matrix.tile(index, replica, rank=rank) if owner == rank
                         else matrix.get_tile(index, replica, initiator=rank))
            return held[key]

        def operand(key: DataKey, owner: int) -> np.ndarray:
            if key in held:
                return held[key]
            if owner == rank:
                return hold(key, owner)
            raise SchedulingError(
                f"rank {rank} needs tile {key} but it was never fetched by the IR program"
            )

        elapsed = 0.0
        barrier: Optional[ScheduledEvent] = None
        for step_index, step in enumerate(program.steps):
            comm_time = 0.0
            for comm in step.comms:
                if comm.data in held:
                    continue
                if not simulate_only:
                    hold(comm.data, comm.owner)
                if comm.owner != rank:
                    comm_time += comm.seconds
                    rank_stats.remote_get_bytes += comm.nbytes

            compute_time = 0.0
            accumulate_time = 0.0
            for compute in step.computes:
                row = lo + compute.op_index
                if not simulate_only:
                    a_tile = operand(("A", rows["a_key"][row]), rows["a_owner"][row])
                    b_tile = operand(("B", rows["b_key"][row]), rows["b_owner"][row])
                    r0, r1, c0, c1 = regions[0][row]
                    a_slice = a_tile[r0:r1, c0:c1]
                    r0, r1, c0, c1 = regions[1][row]
                    product = a_slice @ b_tile[r0:r1, c0:c1]
                    r0, r1, c0, c1 = regions[2][row]
                compute_time += rows["gemm"][row]
                rank_stats.flops += rows["flops"][row]

                if rows["c_owner"][row] != rank:
                    if not simulate_only:
                        self.c.accumulate_tile(
                            tiles[2][row], product, replica_idx=c_replica,
                            initiator=rank, region=Rect(Interval(r0, r1), Interval(c0, c1)),
                        )
                    accumulate_time += rows["acc"][row]
                    rank_stats.remote_accumulate_bytes += rows["c_bytes"][row]
                else:
                    if not simulate_only:
                        self.c.tile(tiles[2][row], c_replica, rank=rank)[r0:r1, c0:c1] += product
                    compute_time += rows["acc"][row]

            rank_stats.compute_time += compute_time
            rank_stats.copy_time += comm_time
            rank_stats.accumulate_time += accumulate_time

            start = elapsed
            elapsed = start + step_time(comm_time, compute_time, accumulate_time)
            if self.engine is not None:
                barrier = self._record_step(rank, step_index, start, elapsed, barrier,
                                            comm_time, compute_time, accumulate_time)

        rank_stats.finish_time = elapsed
        return elapsed, rank_stats

    def _record_step(self, rank: int, step_index: int, start: float, end: float,
                     barrier: Optional[ScheduledEvent], comm_time: float,
                     compute_time: float, accumulate_time: float
                     ) -> Optional[ScheduledEvent]:
        """Record one step's events from ``start``; returns the new barrier.

        One aggregate event per activity that takes time, each on its
        engine queue and gated on the previous barrier, then a sync at
        ``end`` joining them.  Transfers are charged to the rank's own copy
        queue only.
        """
        step_events: List[Optional[ScheduledEvent]] = [
            self.engine.record(kind, rank, queue, start, seconds, deps=(barrier,),
                               label=f"ir-{name}:step{step_index}")
            for kind, queue, name, seconds in (
                (EventKind.FETCH, COPY, "comm", comm_time),
                (EventKind.GEMM, COMPUTE, "compute", compute_time),
                (EventKind.ACCUMULATE, ACCUMULATE, "accumulate", accumulate_time))
            if seconds > 0.0]
        if not step_events:
            return barrier
        return self.engine.record(EventKind.SYNC, rank, None, end, 0.0,
                                  deps=step_events + [barrier],
                                  label=f"ir-sync:step{step_index}")
