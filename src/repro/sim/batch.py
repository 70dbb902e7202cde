"""Vectorized, memoized candidate evaluation for the planner search.

The planner's cold path used to pay three full op-generation passes per
candidate (eager occupancy bound, lazy critical-path refinement, final
simulation), each one rebuilding ``Runtime``/``DistributedMatrix`` objects
and walking Python ``LocalMatmulOp`` dataclasses.  This module collapses all
of that into a compile-once / price-vectorized / replay-memoized pipeline:

1. **Pre-bound, then candidate compilation**
   (:meth:`BatchEvaluator.frontier_pre_bounds`,
   :meth:`BatchEvaluator.compile`,
   :meth:`BatchEvaluator.frontier_occupancy_bounds`) — the bounds come in
   three stages of rising cost: a table-free pre-bound, the occupancy
   bound, the critical-path bound (item 3).  The pre-bound prices the
   frontier at tile granularity: :func:`repro.core.slicing.tile_traffic`
   gives each rank's blocks, the distinct tiles it reads and the C tiles
   it accumulates into, in one array program over tile rectangles, and
   each engine slot of the occupancy bound gets a lower bound from them.
   It never exceeds the occupancy bound, so the search builds tables only
   for the candidates it cannot prune.  A candidate that needs a table is
   compiled exactly once into a :class:`CandidateProgram`: numpy event
   columns, one row per generated op (rank, shape and bound starts, operand
   owners/tiles/bytes, the remote/first-fetch flags).  The rows come from
   the slicing table generator :func:`repro.core.slicing.slice_table` — the
   same rows ``generate_all_ops`` turns into op objects — and
   :meth:`~BatchEvaluator.frontier_occupancy_bounds` builds a whole prefix
   batch of candidates in one call, because numpy's per-call overhead
   would dominate tables of a few dozen rows built one at a time.
   Structured workloads price the frontier's distinct (m, k, n)
   cuboids in one exact array pass over the structure's geometry
   (:meth:`repro.core.structure.WorkloadStructure.cuboid_terms`) and drop
   fully masked rows before the first-fetch flags are computed.
   Symbolic matrices, their slicing layouts, whole-tile bytes, and the
   replica-reduction term are built once per operand — one (role, partition,
   replication) — and shared by every class and stationary variant that
   places that operand alike, so the frontier table concatenates each
   distinct operand's arrays once.

2. **Vectorized batch pricing**
   (:meth:`BatchEvaluator.frontier_occupancy_bounds`) — the table build also
   prices it with the pricer the direct executor reads
   (:meth:`repro.core.cost_model.CostModel.price_rows`); the terms are laid
   out as (slot, value) pairs in the scalar loop's emission order, and one
   grouped segment-sum (``np.bincount``) followed by a per-device max gives
   every built program's occupancy bound.  The replica-reduction term is
   computed once per C operand, not per candidate.

3. **Memoized relaxed replay** (:meth:`BatchEvaluator.critical_bound`) — the
   critical-path refinement replays the executor's event stream on the
   relaxed (contention-free) engine.  Relaxed ranks are independent, so the
   replay decomposes into per-rank folds over the event table.  A fold reads
   nine priced columns and nothing rank-specific, so its finish time is
   memoized under those columns' exact bytes: a rank stream seen before in
   the same search, on any rank of any candidate, is not replayed again.

4. **Simulation** (:meth:`BatchEvaluator.simulate`) — the program's priced
   execution-order columns go to :func:`repro.core.walk.walk_columns`, the
   one contended direct walk, which ``DirectExecutor.execute_columns`` calls
   too.  It keeps its state as plain floats and lists: per-rank engine free
   times, tile caches and prefetch windows, and per device the shared
   egress/ingress reservations.  No op objects, executor, ``EventEngine`` or
   events are built; the op-object executor ``tests/direct_oracle.py`` on the
   scheduling engine of ``tests/engine_oracle.py`` is its ``==`` oracle
   (``tests/property/test_column_walk_properties.py``).

Correctness bar: every number this module produces is **bit-equal** to the
scalar path (the test oracle ``tests/bound_oracle.py`` and ``run_ua_point``).
That is achieved by pricing with the one pricer,
:class:`repro.core.cost_model.CostModel` (held ``==`` to the scalar oracle
``tests/pricing_oracle.py``), and by emitting summation terms in
the exact order of the scalar accumulation loops — ``np.bincount`` adds its
weights sequentially in input order, so per-slot partial sums round
identically.  The property suite pins this across dense, block-sparse, and
MoE-ragged workloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.sweep import SweepPoint
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel, tile_fetch_bytes
from repro.core.matmul import model_reduce_time
from repro.core.slicing import (
    OperandLayout,
    check_coverage,
    first_occurrence,
    generate_all_ops,
    offset_permutation,
    slice_table,
    tile_traffic,
)
from repro.core.stationary import parse_stationary
from repro.core.structure import ROLE_A, ROLE_B, ROLE_C, resolve_structure
from repro.core.walk import walk_columns
from repro.dist.matrix import DistributedMatrix
from repro.runtime.runtime import Runtime
from repro.topology.machines import MachineSpec
from repro.util.validation import check_matmul_shapes, float_dtype

#: Engine slot layout inside one device's occupancy vector.  The order is
#: arbitrary (the bound takes a max over engines) but must stay fixed.
_E_COMPUTE, _E_COPY, _E_ACCUMULATE, _E_INGRESS, _E_EGRESS = range(5)
_NUM_ENGINES = 5

#: Relative deflation of the pre-bound (:meth:`BatchEvaluator.frontier_pre_bounds`).
#: Its fetch and egress terms add the same per-tile times as the occupancy
#: bound's copy and egress slots, in another order, and its other terms are
#: at most the occupancy terms in exact arithmetic.  A float sum of ``n``
#: non-negative terms is within ``(n - 1)`` units of roundoff (``2**-53``)
#: of the exact sum, relative to it, so this margin keeps the pre-bound at
#: or below the occupancy bound, bit for bit, up to ~4 million terms in
#: one engine slot of one device.
PRE_BOUND_MARGIN = 1e-9

#: The priced columns the relaxed replay reads: one rank's stream of these
#: rows fixes its finish time, so their exact bytes key the replay memo.
_REPLAY_COLUMNS = ("gemm", "c_remote", "acc", "a_remote", "a_key", "a_fetch",
                   "b_remote", "b_key", "b_fetch")


@dataclass
class _ClassData:
    """One (scheme, replication): its three shared operands and their terms."""

    a: DistributedMatrix
    b: DistributedMatrix
    c: DistributedMatrix
    #: The slicing-table layouts of A, B and C.
    layouts: Tuple[OperandLayout, OperandLayout, OperandLayout]
    #: Fetch bytes of A's and B's tiles, per flat tile index.
    tile_bytes: Tuple[np.ndarray, np.ndarray]
    reduce_time: float


class CandidateProgram:
    """One compiled candidate: its priced event table plus lazy derived views.

    The table is in *generation* order (the slicing generator's order,
    rank-major) and is a set of views into the table of the frontier it was
    built with, as are the duration columns priced with it.  Execution-order
    views (iteration offset applied) are derived lazily.
    """

    def __init__(self, candidate, cls: _ClassData, frame: Dict[str, np.ndarray],
                 durations: Dict[str, np.ndarray], lo: int, hi: int,
                 rank_starts: np.ndarray, occupancy: float) -> None:
        self.candidate = candidate
        self.cls = cls
        self.frame = frame
        self.durations = durations
        self.lo = lo
        self.hi = hi
        self.rank_starts = rank_starts
        self.num_ops = hi - lo
        #: Occupancy bound summed in generation order (no reduce term).
        self.occupancy = occupancy
        #: Occupancy floor summed in execution order — the critical-path
        #: bound recomputes its floor over the offset stream, whose different
        #: summation order rounds differently in general.
        self.occupancy_exec: Optional[float] = None
        self._table: Optional[Dict[str, np.ndarray]] = None
        self._col: Optional[Dict[str, np.ndarray]] = None
        self._exec: Dict[bool, Dict[str, np.ndarray]] = {}

    @property
    def table(self) -> Dict[str, np.ndarray]:
        """The event columns of this program's rows."""
        if self._table is None:
            self._table = {name: arr[self.lo:self.hi]
                           for name, arr in self.frame.items()}
        return self._table

    @property
    def col(self) -> Dict[str, np.ndarray]:
        """Event columns plus the priced duration columns."""
        if self._col is None:
            self._col = dict(self.table)
            self._col.update((name, arr[self.lo:self.hi])
                             for name, arr in self.durations.items())
        return self._col

    # ------------------------------------------------------------------ #
    def exec_columns(self, iteration_offset: bool) -> Dict[str, np.ndarray]:
        """Priced columns permuted into execution order (offset applied)."""
        cols = self._exec.get(iteration_offset)
        if cols is None:
            cols = self.col
            if iteration_offset:
                perm = offset_permutation(cols["rank"], cols["stat_i"], cols["stat_j"])
                cols = {name: arr[perm] for name, arr in cols.items()}
                # First-fetch flags depend on stream order: recompute them
                # over the permuted stream, as the executor's per-rank tile
                # cache sees it.  Generation order already has them.
                for side in ("a", "b"):
                    cols[f"{side}_first"] = first_occurrence(
                        cols["rank"], cols[f"{side}_key"], cols[f"{side}_remote"])
            self._exec[iteration_offset] = cols
        return cols


class BatchEvaluator:
    """Compile-once, price-vectorized, replay-memoized candidate evaluator.

    One instance serves one ``search_partitionings`` call: it owns the cached
    candidate programs, the per-operand symbolic matrices, and the memo of
    relaxed per-rank replays.  Only valid for ``simulate_only``
    direct-mode configs — the matrices it shares across candidates carry no
    data.  Operands are floats of ``itemsize`` bytes, as
    :func:`repro.bench.sweep.run_ua_point` builds them.
    """

    def __init__(self, machine: MachineSpec, workload: Workload,
                 config: Optional[ExecutionConfig] = None, itemsize: int = 4) -> None:
        self.machine = machine
        self.workload = workload
        self.config = config or ExecutionConfig(simulate_only=True)
        self.dtype = float_dtype(itemsize)
        if not self.config.simulate_only:
            raise ValueError("BatchEvaluator shares symbolic matrices across "
                             "candidates; it requires simulate_only configs")
        self.cost_model = CostModel(machine)
        self.structure = resolve_structure(workload.structure)
        self.m, self.n, self.k = check_matmul_shapes(*workload.shapes)
        self._structure_validated = False
        # One runtime for every symbolic matrix: unmaterialized creates never
        # touch runtime state, and rebuilding heaps/pools per class is pure
        # overhead on the cold path.
        self._runtime = Runtime(machine=machine)
        #: (role, partition, replication) -> (matrix, layout, per-tile term).
        self._operands: Dict[Tuple[str, object, int],
                             Tuple[DistributedMatrix, OperandLayout, object]] = {}
        self._classes: Dict[Tuple[int, Tuple[int, int, int]], _ClassData] = {}
        self._programs: Dict[Tuple[int, Tuple[int, int, int], str],
                             CandidateProgram] = {}
        #: Relaxed-replay finish time per rank stream (:data:`_REPLAY_COLUMNS`
        #: bytes).  The evaluator lives for one search, so it needs no eviction.
        self._replays: Dict[Tuple[bytes, ...], float] = {}
        #: Seconds spent compiling candidate event tables (op generation).
        self.opgen_seconds = 0.0
        #: Candidate event tables built so far.
        self.num_built = 0
        #: Relaxed-replay counters: cold folds and memo hits.
        self.replay_stats = {"cold": 0, "full": 0}

    # ------------------------------------------------------------------ #
    # candidate compilation
    # ------------------------------------------------------------------ #
    def _operand(self, role: str, shape, partition, replication: int):
        """The shared (matrix, layout, per-tile term) of one operand.

        The term is A's or B's fetch bytes per flat tile, or C's
        replica-reduction time.
        """
        key = (role, partition, replication)
        entry = self._operands.get(key)
        if entry is None:
            matrix = DistributedMatrix.create(
                self._runtime, shape, partition, replication=replication,
                dtype=self.dtype, name=role, materialize=False)
            term = (model_reduce_time(matrix, self.cost_model, structure=self.structure)
                    if role == ROLE_C else
                    tile_fetch_bytes(matrix, role, self.structure))
            entry = self._operands[key] = (matrix, OperandLayout(matrix), term)
        return entry

    def _class_data(self, candidate) -> _ClassData:
        key = (id(candidate.scheme), tuple(candidate.replication))
        data = self._classes.get(key)
        if data is None:
            p = self.machine.num_devices
            parts = candidate.scheme.partitions(
                self.workload, *(p // rep for rep in candidate.replication))
            (a, layout_a, bytes_a), (b, layout_b, bytes_b), (c, layout_c, reduce_time) = (
                self._operand(*operand) for operand in zip(
                    (ROLE_A, ROLE_B, ROLE_C), self.workload.shapes, parts,
                    candidate.replication))
            data = self._classes[key] = _ClassData(
                a=a, b=b, c=c, layouts=(layout_a, layout_b, layout_c),
                tile_bytes=(bytes_a, bytes_b), reduce_time=reduce_time)
        return data

    @staticmethod
    def _program_key(candidate) -> Tuple[int, Tuple[int, int, int], str]:
        return (id(candidate.scheme), tuple(candidate.replication),
                candidate.stationary)

    def compile(self, candidate) -> CandidateProgram:
        """Build (or fetch) the candidate's event table."""
        key = self._program_key(candidate)
        program = self._programs.get(key)
        if program is None:
            self._build([candidate])
            program = self._programs[key]
        return program

    def _build(self, candidates) -> None:
        """Compile and price every not-yet-compiled candidate in one pass.

        One :func:`repro.core.slicing.slice_table` call enumerates every
        candidate's ops; fully masked rows of structured workloads are then
        dropped (no flops survive) before the first-fetch flags are
        computed, and each program keeps views of its own rows.
        The rows are then priced and reduced to each program's occupancy
        bound with one grouped segment-sum: each program's terms land in its
        own slot range, ``np.bincount`` accumulates them sequentially in
        emission order (bit-equal to the scalar loop), and a per-device max
        finishes the bound.
        """
        # Building the symbolic operands is op-generation work too.
        started = time.perf_counter()
        todo: Dict[Tuple[int, Tuple[int, int, int], str], Tuple[object, _ClassData]] = {}
        for candidate in candidates:
            key = self._program_key(candidate)
            if key not in self._programs and key not in todo:
                todo[key] = (candidate, self._class_data(candidate))
        if not todo:
            self.opgen_seconds += time.perf_counter() - started
            return
        entries = list(todo.values())
        self.num_built += len(entries)
        # A frontier names three stationaries: parse each once, not per candidate.
        stationaries = {name: parse_stationary(name)
                        for name in {candidate.stationary for candidate, _ in entries}}
        table = slice_table([cls.layouts + (stationaries[candidate.stationary],)
                             for candidate, cls in entries])
        itemsize = entries[0][1].c.dtype.itemsize
        frame = self.cost_model.event_columns(
            table, [cls.tile_bytes for _, cls in entries], itemsize, self.structure)
        task, rank, flops = frame.pop("task"), frame["rank"], frame.pop("flops")
        del frame["c_key"]  # simulate-only: the walk never views a C tile
        p = self.machine.num_devices
        group = task * p + rank
        for side in ("a", "b"):
            frame[f"{side}_first"] = first_occurrence(group, frame[f"{side}_key"],
                                                      frame[f"{side}_remote"])
        counts = np.bincount(group, minlength=len(entries) * p).reshape(-1, p)
        rank_starts = np.zeros((len(entries), p + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=rank_starts[:, 1:])
        bounds = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum(rank_starts[:, -1], out=bounds[1:])
        self.opgen_seconds += time.perf_counter() - started

        durations = self.cost_model.price_rows(frame, itemsize, self.structure)
        durations["flops"] = flops
        stride = p * _NUM_ENGINES + 1
        # Rows are program-major, so offsetting each row's 7 slots into its
        # program's segment keeps every per-program accumulation order.
        slots, vals = self._occupancy_rows({**frame, **durations}, task * stride)
        totals = np.bincount(slots, weights=vals, minlength=len(entries) * stride)
        occupancy = totals.reshape(len(entries), stride)[:, :p * _NUM_ENGINES].max(axis=1)
        for t, (key, (candidate, cls)) in enumerate(todo.items()):
            self._programs[key] = CandidateProgram(
                candidate, cls, frame, durations, int(bounds[t]), int(bounds[t + 1]),
                rank_starts[t], float(occupancy[t]))

    def _occupancy_rows(self, cols: Dict[str, np.ndarray], offset=0
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """(slot, value) pairs in the scalar occupancy loop's emission order.

        Seven terms per op, row-major, matching the scalar occupancy bound
        of ``tests/bound_oracle.py``:
        GEMM -> accumulate (remote on the accumulate engine, local on
        compute) -> ingress -> fetch A -> egress A -> fetch B -> egress B.
        Terms the scalar loop never adds are routed to a per-candidate trash
        slot with value 0.  ``offset`` (per row, or one for all) is added to
        every slot.
        """
        num = cols["rank"].shape[0]
        p = self.machine.num_devices
        trash = offset + p * _NUM_ENGINES
        slots = np.empty((num, 7), dtype=np.int64)
        vals = np.zeros((num, 7), dtype=np.float64)
        base = cols["rank"] * _NUM_ENGINES + offset
        c_remote = cols["c_remote"]
        slots[:, 0] = base + _E_COMPUTE
        vals[:, 0] = cols["gemm"]
        slots[:, 1] = np.where(c_remote, base + _E_ACCUMULATE, base + _E_COMPUTE)
        vals[:, 1] = cols["acc"]

        def emit_on(column: int, sent: np.ndarray, slot, value: np.ndarray) -> None:
            slots[:, column] = trash
            np.copyto(slots[:, column], slot, where=sent)
            np.copyto(vals[:, column], value, where=sent)

        emit_on(2, c_remote, cols["c_owner"] * _NUM_ENGINES + (offset + _E_INGRESS),
                cols["ingress"])
        cache = self.config.cache_remote_tiles
        for column, side in ((3, "a"), (5, "b")):
            emit = cols[f"{side}_remote"]
            if cache:
                emit = emit & cols[f"{side}_first"]
            emit_on(column, emit, base + _E_COPY, cols[f"{side}_fetch"])
            emit_on(column + 1, emit,
                    cols[f"{side}_owner"] * _NUM_ENGINES + (offset + _E_EGRESS),
                    cols[f"{side}_egress"])
        return slots.reshape(-1), vals.reshape(-1)

    def frontier_occupancy_bounds(self, candidates) -> List[float]:
        """Occupancy bound (+ class reduce term) for a batch of candidates.

        Every not-yet-compiled candidate is built and priced by one
        :meth:`_build` call; the rest reuse their cached programs.  The
        search calls it on prefix batches of the frontier in pre-bound
        order.
        """
        self._build(candidates)
        return [program.occupancy + program.cls.reduce_time
                for program in map(self.compile, candidates)]

    def frontier_pre_bounds(self, candidates) -> np.ndarray:
        """A table-free lower bound on each candidate's occupancy bound.

        :func:`repro.core.slicing.tile_traffic` gives, with one array
        program over the frontier's tile rectangles and no slicing table,
        each rank's blocks, the distinct A and B tiles it reads and the C
        tiles it accumulates into.  Per device, each engine slot of the
        occupancy bound then has a lower bound of the same shape:

        * compute: per block its flops at the shape efficiency of its
          longest possible segments (no op runs more efficiently), or the
          bytes its ops must touch, plus a launch per op it must have; and
          its local accumulates;
        * copy: the fetch time of the distinct remote tiles its rank reads;
        * egress: the egress time of those tiles at their owners;
        * accumulate and ingress: its rank's remote accumulates, and their
          ingress at the C owners, each counted at least as often as the
          block's k axis is cut.

        The max over devices and engines, deflated by
        :data:`PRE_BOUND_MARGIN`, plus the class's replica-reduction term,
        never exceeds :meth:`frontier_occupancy_bounds`.  Structured
        workloads get 0: a tile whose every op is fully masked is never
        fetched, so dense tile counts would overstate them.
        """
        if self.structure is not None or not candidates:
            return np.zeros(len(candidates))
        # Building the symbolic operands is op-generation work.
        started = time.perf_counter()
        classes = [self._class_data(candidate) for candidate in candidates]
        self.opgen_seconds += time.perf_counter() - started
        stationaries = {name: parse_stationary(name)
                        for name in {candidate.stationary for candidate in candidates}}
        blocks, reads, writes, tiles, reader = tile_traffic([
            cls.layouts + (stationaries[candidate.stationary],)
            for candidate, cls in zip(candidates, classes)])
        model = self.cost_model
        p = self.machine.num_devices
        size = len(candidates) * p
        itemsize = self.dtype.itemsize
        # Per (tile, rank): the owner the rank reaches it at, its fetch time
        # and, when remote, its egress time at the owner.
        rpr = tiles["ranks_per_replica"][:, None]
        ranks = np.arange(p)
        owner = tiles["position"][:, None] + ranks // rpr * rpr
        nbytes = tiles["elements"][:, None] * itemsize
        fetch = model.transfer_time(owner, ranks, nbytes)
        egress = np.where(owner != ranks, model.device_link_time(nbytes), 0.0)
        # A task's reads are those of its reader.
        at = reads["tile"] * p + reads["rank"]
        base = reads["task"] * p
        copy = np.bincount(base + reads["rank"], weights=fetch.take(at),
                           minlength=size).reshape(-1, p)[reader]
        sent = np.bincount(base + owner.take(at), weights=egress.take(at),
                           minlength=size).reshape(-1, p)[reader]

        block = writes["block"]
        rank = blocks["rank"].take(block)
        c_owner = owner.take(writes["tile"] * p + rank)
        c_bytes = writes["elements"] * itemsize
        repeats = blocks["k_segments"].take(block)
        remote = c_owner != rank
        base = blocks["task"].take(block) * p
        accumulate = np.bincount(
            base + rank, weights=model.accumulate_time(rank, c_owner, c_bytes) * repeats,
            minlength=size)
        ingress = np.bincount(
            base + c_owner, minlength=size,
            weights=np.where(remote, model.device_link_time(c_bytes, accumulate=True), 0.0)
            * repeats)
        # A block's GEMMs: its flops at the shape efficiency of its longest
        # segments, its bytes with each operand read once per segment of the
        # axis it lacks, and a launch per op.
        m, n, k = blocks["m"], blocks["n"], blocks["k"]
        m_seg, n_seg, k_seg = (blocks[f"{x}_segments"] for x in "mnk")
        ops = m_seg * n_seg * k_seg
        gemm = np.where(ops > 0, model.roofline(
            2.0 * m * n * k,
            float(itemsize) * (m * k * n_seg + k * n * m_seg + 2 * m * n * k_seg),
            *(blocks[f"{x}_longest"] for x in "mnk"))
            + (ops - 1) * self.machine.kernel_launch_overhead, 0.0)
        compute = np.bincount(
            np.concatenate((blocks["task"] * p + blocks["rank"], base + rank)),
            weights=np.concatenate((
                gemm, np.where(remote, 0.0, model.local_accumulate_time(c_bytes) * repeats))),
            minlength=size)
        bound = np.maximum.reduce((compute.reshape(-1, p), copy, accumulate.reshape(-1, p),
                                   ingress.reshape(-1, p), sent))
        return (bound.max(axis=1) * (1.0 - PRE_BOUND_MARGIN)
                + np.array([cls.reduce_time for cls in classes]))

    def _single_occupancy(self, cols: Dict[str, np.ndarray]) -> float:
        slots, vals = self._occupancy_rows(cols)
        p = self.machine.num_devices
        totals = np.bincount(slots, weights=vals,
                             minlength=p * _NUM_ENGINES + 1)
        return float(totals[:p * _NUM_ENGINES].max())

    # ------------------------------------------------------------------ #
    # critical-path refinement (relaxed replay, memoized per rank stream)
    # ------------------------------------------------------------------ #
    def critical_bound(self, candidate) -> float:
        """Critical-path lower bound + reduce term, bit-equal to the scalar path.

        Replays the executor's per-rank event stream (execution order,
        iteration offset applied) on the relaxed timing recurrence; a rank
        stream already replayed by this evaluator, for any rank of any
        candidate, is answered from the memo.  Floored by the occupancy bound
        summed over the same execution-order stream, as the test oracle
        ``tests/bound_oracle.py`` computes it.
        """
        program = self.compile(candidate)
        cols = program.exec_columns(self.config.iteration_offset)
        # Execution order is rank-major (the offset rotates within ranks),
        # so each rank's stream is its generation-order slice.
        boundaries = program.rank_starts.tolist()
        relaxed = 0.0
        for lo, hi in zip(boundaries, boundaries[1:]):
            if lo == hi:
                continue
            key = tuple(cols[name][lo:hi].tobytes() for name in _REPLAY_COLUMNS)
            finish = self._replays.get(key)
            if finish is None:
                self.replay_stats["cold"] += 1
                finish = self._replays[key] = self._fold(cols, lo, hi)
            else:
                self.replay_stats["full"] += 1
            if finish > relaxed:
                relaxed = finish
        if program.occupancy_exec is None:
            program.occupancy_exec = self._single_occupancy(cols)
        occupancy = program.occupancy_exec
        value = relaxed if relaxed > occupancy else occupancy
        return value + program.cls.reduce_time

    def _fold(self, cols: Dict[str, np.ndarray], lo: int, hi: int) -> float:
        """The relaxed-engine timing recurrence for one rank's op stream.

        Mirrors :func:`repro.core.walk.walk_columns` run relaxed (as on an
        ``EventEngine(contention=False)``): prefetch issue floors, the
        per-engine FIFO availability updates, the async accumulate window,
        and the accumulate-compute interference slice.  The GEMM window is
        left out: GEMMs run FIFO on the compute engine, which is free only
        after every earlier GEMM has ended, so it never moves a start.  Reads only the
        :data:`_REPLAY_COLUMNS` rows ``[lo, hi)`` plus the evaluator's config
        and machine, and returns the rank's finish time.  Its contended twin,
        :func:`repro.core.walk.walk_columns`, adds the shared egress/ingress
        capacity, which couples the ranks, so it walks every rank at once and
        is not memoized.  The general walk run relaxed could replace this
        fold, but it costs more per rank stream (``docs/performance.md``).
        """
        config = self.config
        depth = config.prefetch_depth
        async_ = config.async_execution
        w_acc = config.max_concurrent_accumulates
        cache_tiles = config.cache_remote_tiles
        interference = self.machine.accumulate_compute_interference
        num = hi - lo
        gemm_dur = cols["gemm"][lo:hi].tolist()
        c_rem = cols["c_remote"][lo:hi].tolist()
        acc_dur = cols["acc"][lo:hi].tolist()
        a_rem = cols["a_remote"][lo:hi].tolist()
        a_key = cols["a_key"][lo:hi].tolist()
        a_fetch = cols["a_fetch"][lo:hi].tolist()
        b_rem = cols["b_remote"][lo:hi].tolist()
        b_key = cols["b_key"][lo:hi].tolist()
        b_fetch = cols["b_fetch"][lo:hi].tolist()

        avail_c = avail_cp = avail_a = 0.0
        # Remote-tile fetch completion per flat tile id (the executor's cache).
        cache_a: Dict[int, float] = {}
        cache_b: Dict[int, float] = {}
        # Issued-but-unconsumed prefetches: op index -> (a ready, b ready).
        pending: Dict[int, Tuple[float, float]] = {}
        next_pref = 0
        gemm_start: List[float] = []
        acc_end: List[float] = []

        def issue(j: int, floor: float) -> None:
            nonlocal avail_cp
            if a_rem[j]:
                if cache_tiles:
                    end = cache_a.get(a_key[j])
                    if end is None:
                        begin = floor if floor > avail_cp else avail_cp
                        end = begin + a_fetch[j]
                        avail_cp = end
                        cache_a[a_key[j]] = end
                    a_end = end
                else:
                    begin = floor if floor > avail_cp else avail_cp
                    avail_cp = begin + a_fetch[j]
                    a_end = avail_cp
            else:
                a_end = 0.0
            if b_rem[j]:
                if cache_tiles:
                    end = cache_b.get(b_key[j])
                    if end is None:
                        begin = floor if floor > avail_cp else avail_cp
                        end = begin + b_fetch[j]
                        avail_cp = end
                        cache_b[b_key[j]] = end
                    b_end = end
                else:
                    begin = floor if floor > avail_cp else avail_cp
                    avail_cp = begin + b_fetch[j]
                    b_end = avail_cp
            else:
                b_end = 0.0
            pending[j] = (a_end, b_end)

        for i in range(num):
            floor = gemm_start[i - 1] if i > 0 else 0.0
            if not async_ and i > 0 and acc_end[i - 1] > floor:
                floor = acc_end[i - 1]
            horizon = i + depth
            if horizon > num - 1:
                horizon = num - 1
            while next_pref <= horizon:
                issue(next_pref, floor)
                next_pref += 1
            a_end, b_end = pending.pop(i)
            earliest = a_end if a_end > b_end else b_end
            if async_:
                if i >= w_acc and acc_end[i - w_acc] > earliest:
                    earliest = acc_end[i - w_acc]
            elif i > 0 and acc_end[i - 1] > earliest:
                earliest = acc_end[i - 1]
            begin = earliest if earliest > avail_c else avail_c
            finish = begin + gemm_dur[i]
            avail_c = finish
            gemm_start.append(begin)
            if c_rem[i]:
                acc_begin = finish if finish > avail_a else avail_a
                acc_finish = acc_begin + acc_dur[i]
                avail_a = acc_finish
                if interference > 0.0:
                    slice_begin = acc_begin if acc_begin > avail_c else avail_c
                    avail_c = slice_begin + acc_dur[i] * interference
            else:
                acc_begin = finish if finish > avail_c else avail_c
                acc_finish = acc_begin + acc_dur[i]
                avail_c = acc_finish
            acc_end.append(acc_finish)

        finish_time = avail_c
        if avail_cp > finish_time:
            finish_time = avail_cp
        if avail_a > finish_time:
            finish_time = avail_a
        return finish_time

    # ------------------------------------------------------------------ #
    # batch simulation (the contended direct walk of the priced columns)
    # ------------------------------------------------------------------ #
    def simulate(self, candidate) -> SweepPoint:
        """Full contended simulation, bit-equal to ``run_ua_point``.

        Reuses the class's symbolic matrices and walks the program's priced
        execution-order columns with :func:`repro.core.walk.walk_columns`,
        the direct executor's walk, building no runtime, executor, engine or
        events per point.
        """
        program = self.compile(candidate)
        cls = program.cls
        if self.structure is not None and not self._structure_validated:
            self.structure.validate(self.m, self.n, self.k)
            self._structure_validated = True
        if self.config.validate_ops:
            # Coverage is an envelope invariant: checked on the unpruned
            # ops, exactly as universal_matmul does.
            check_coverage(cls.a, cls.b, cls.c, generate_all_ops(
                cls.a, cls.b, cls.c, parse_stationary(candidate.stationary)))
        makespan, totals = walk_columns(
            program.exec_columns(self.config.iteration_offset), (cls.a, cls.b, cls.c),
            self.config, self.machine.accumulate_compute_interference)
        reduce_time = cls.reduce_time if cls.c.replication.num_replicas > 1 else 0.0
        if self.structure is None:
            total_flops = 2 * self.m * self.n * self.k
        else:
            total_flops = self.structure.effective_flops(self.m, self.n, self.k)
        simulated_time = makespan + reduce_time
        extra = {
            "remote_get_bytes": sum(totals.remote_get_bytes),
            "remote_accumulate_bytes": sum(totals.remote_accumulate_bytes),
            "total_ops": program.num_ops,
        }
        if not self.workload.structure.is_dense:
            extra["structure"] = self.workload.structure.signature_token()
        return SweepPoint(
            series=candidate.scheme.label,
            workload=self.workload.name,
            batch=self.workload.m,
            percent_of_peak=self.cost_model.percent_of_peak(total_flops,
                                                            simulated_time),
            simulated_time=simulated_time,
            stationary=parse_stationary(candidate.stationary).value,
            replication=tuple(candidate.replication),
            extra=extra,
        )
