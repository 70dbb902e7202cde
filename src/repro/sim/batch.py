"""Vectorized + incremental candidate evaluation for the planner search.

The planner's cold path used to pay three full op-generation passes per
candidate (eager occupancy bound, lazy critical-path refinement, final
simulation), each one rebuilding ``Runtime``/``DistributedMatrix`` objects
and walking Python ``LocalMatmulOp`` dataclasses.  This module collapses all
of that into a compile-once / price-vectorized / replay-incremental pipeline:

1. **Candidate compilation** (:meth:`BatchEvaluator.compile`,
   :meth:`BatchEvaluator.frontier_occupancy_bounds`) — each (scheme,
   replication, stationary) candidate is compiled exactly once into a
   :class:`CandidateProgram`: numpy event columns, one row per generated op
   (rank, shape and bound starts, operand owners/tiles/bytes, the
   remote/first-fetch flags).  The rows come from the slicing table
   generator :func:`repro.core.slicing.slice_table` — the same rows
   ``generate_all_ops`` turns into op objects — and the frontier pass builds
   every uncompiled candidate of the frontier in one call, because numpy's
   per-call overhead would dominate tables of a few dozen rows built one at
   a time.  Structured workloads price each distinct (m, k, n) cuboid once
   and drop fully masked rows before the first-fetch flags are computed.
   Symbolic matrices, whole-tile bytes, and the replica-reduction term are
   cached per (scheme, replication) class and shared by every stationary
   variant.

2. **Vectorized frontier pricing**
   (:meth:`BatchEvaluator.frontier_occupancy_bounds`) — the table build also
   prices it: every row is priced with the cost model's formulas
   elementwise (identical operation order, so the results are bit-equal to
   the scalar path), the terms are laid out as (slot, value) pairs in the
   scalar loop's emission order, and one grouped segment-sum
   (``np.bincount``) followed by a per-device max gives every built
   program's occupancy bound.  The replica-reduction term is computed once
   per (scheme, replication) class, not per candidate.

3. **Delta re-simulation** (:meth:`BatchEvaluator.critical_bound`) — the
   critical-path refinement replays the executor's event stream on the
   relaxed (contention-free) engine.  Relaxed ranks are independent, so the
   replay decomposes into per-rank folds over the event table; each fold
   records periodic checkpoints, and a later candidate whose per-rank stream
   shares a prefix with a cached trace resumes from the deepest valid
   checkpoint instead of replaying from zero (checkpoint-and-recompute).

Correctness bar: every number this module produces is **bit-equal** to the
scalar path (``candidate_lower_bound`` / ``run_ua_point``).  That is achieved
by mirroring the exact arithmetic (operation and association order) of
:class:`repro.core.cost_model.CostModel` and by emitting summation terms in
the exact order of the scalar accumulation loops — ``np.bincount`` adds its
weights sequentially in input order, so per-slot partial sums round
identically.  The property suite pins this across dense, block-sparse, and
MoE-ragged workloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.sweep import SweepPoint
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel
from repro.core.direct import DirectExecutor
from repro.core.matmul import model_reduce_time
from repro.core.slicing import (
    OperandLayout,
    apply_iteration_offset,
    check_coverage,
    first_occurrence,
    generate_all_ops,
    slice_table,
    stack_distinct,
)
from repro.core.stationary import parse_stationary
from repro.core.structure import (
    ROLE_A,
    ROLE_B,
    ROLE_C,
    prune_structured_ops,
    resolve_structure,
)
from repro.dist.matrix import DistributedMatrix
from repro.runtime.runtime import Runtime
from repro.sim.engine import EventEngine
from repro.topology.machines import MachineSpec
from repro.util.indexing import Interval
from repro.util.validation import check_matmul_shapes

#: Engine slot layout inside one device's occupancy vector.  The order is
#: arbitrary (the bound takes a max over engines) but must stay fixed.
_E_COMPUTE, _E_COPY, _E_ACCUMULATE, _E_INGRESS, _E_EGRESS = range(5)
_NUM_ENGINES = 5

#: Checkpoint interval of the relaxed replay fold (ops between snapshots).
_CHECKPOINT_EVERY = 8
#: Cached relaxed-replay traces kept per rank (oldest evicted first).
_TRACES_PER_RANK = 8


class _OpView:
    """Minimal op stand-in accepted by ``CostModel.structured_op_compute_time``."""

    __slots__ = ("m_bound", "k_bound", "n_bound", "itemsize")

    def __init__(self, m_bound: Interval, k_bound: Interval, n_bound: Interval,
                 itemsize: int) -> None:
        self.m_bound = m_bound
        self.k_bound = k_bound
        self.n_bound = n_bound
        self.itemsize = itemsize

    @property
    def m(self) -> int:
        return self.m_bound.extent

    @property
    def n(self) -> int:
        return self.n_bound.extent

    @property
    def k(self) -> int:
        return self.k_bound.extent


class _MatrixGeom:
    """One operand's table layout plus its whole-tile fetch bytes, built once."""

    __slots__ = ("layout", "tile_bytes")

    def __init__(self, matrix: DistributedMatrix, label: str, structure) -> None:
        self.layout = OperandLayout(matrix)
        grid = matrix.grid
        itemsize = matrix.dtype.itemsize
        # Int bytes per tile, times the live fraction when structured.
        tile_bytes = [
            (r1 - r0) * (c1 - c0) * itemsize if structure is None else
            (r1 - r0) * (c1 - c0) * itemsize
            * structure.live_fraction(label, Interval(r0, r1), Interval(c0, c1))
            for r0, r1 in zip(grid.row_splits, grid.row_splits[1:])
            for c0, c1 in zip(grid.col_splits, grid.col_splits[1:])
        ]
        #: Fetch bytes per flat tile index, row-major.
        self.tile_bytes = np.asarray(tile_bytes, dtype=np.float64)


@dataclass
class _ClassData:
    """State shared by every stationary variant of one (scheme, replication)."""

    a: DistributedMatrix
    b: DistributedMatrix
    c: DistributedMatrix
    a_geom: _MatrixGeom
    b_geom: _MatrixGeom
    c_geom: _MatrixGeom
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
        self._real_ops = None

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
                perm = self._offset_permutation()
                cols = {name: arr[perm] for name, arr in cols.items()}
                # First-fetch flags depend on stream order: recompute them
                # over the permuted stream, as the executor's per-rank tile
                # cache sees it.  Generation order already has them.
                for side in ("a", "b"):
                    cols[f"{side}_first"] = first_occurrence(
                        cols["rank"], cols[f"{side}_key"], cols[f"{side}_remote"])
            self._exec[iteration_offset] = cols
        return cols

    def _offset_permutation(self) -> np.ndarray:
        """Per-rank iteration-offset rotation as an index permutation.

        A stationary tile's ops are one contiguous run of its rank's stream;
        the run is rotated left by ``(i + j) % len(run)``, exactly as
        :func:`repro.core.slicing.apply_iteration_offset` rotates op lists.
        """
        col = self.col
        rank, stat_i, stat_j = col["rank"], col["stat_i"], col["stat_j"]
        num = self.num_ops
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


@dataclass
class _ReplayState:
    """Snapshot of the per-rank relaxed-replay fold after some prefix of ops."""

    avail_compute: float = 0.0
    avail_copy: float = 0.0
    avail_accumulate: float = 0.0
    #: Remote-tile fetch completion per flat tile id (the executor's cache).
    cache_a: Dict[int, float] = field(default_factory=dict)
    cache_b: Dict[int, float] = field(default_factory=dict)
    #: Issued-but-unconsumed prefetches: op index -> (a ready, b ready).
    pending: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    next_prefetch: int = 0
    gemm_start: List[float] = field(default_factory=list)
    gemm_end: List[float] = field(default_factory=list)
    acc_end: List[float] = field(default_factory=list)

    def copy(self) -> "_ReplayState":
        return _ReplayState(
            avail_compute=self.avail_compute,
            avail_copy=self.avail_copy,
            avail_accumulate=self.avail_accumulate,
            cache_a=dict(self.cache_a),
            cache_b=dict(self.cache_b),
            pending=dict(self.pending),
            next_prefetch=self.next_prefetch,
            gemm_start=list(self.gemm_start),
            gemm_end=list(self.gemm_end),
            acc_end=list(self.acc_end),
        )


@dataclass
class _RankTrace:
    """One cached relaxed replay: the stream key, its finish, checkpoints."""

    key: np.ndarray
    finish: float
    checkpoints: List[Tuple[int, _ReplayState]]


class BatchEvaluator:
    """Compile-once, price-vectorized, replay-incremental candidate evaluator.

    One instance serves one ``search_partitionings`` call: it owns the cached
    candidate programs, the per-class symbolic matrices, one reusable
    :class:`EventEngine` (reset between simulations instead of rebuilt), and
    the relaxed-replay trace cache that powers delta re-simulation.  Only
    valid for ``simulate_only`` direct-mode configs — the matrices it shares
    across candidates carry no data.
    """

    def __init__(self, machine: MachineSpec, workload: Workload,
                 config: Optional[ExecutionConfig] = None) -> None:
        self.machine = machine
        self.workload = workload
        self.config = config or ExecutionConfig(simulate_only=True)
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
        #: Axis segment lists of the slicing table, shared across frontiers.
        self._axes: dict = {}
        #: Structured pricing per distinct (m, k, n) cuboid:
        #: bounds -> (any live flops, c bytes, gemm seconds).
        self._cuboids: Dict[Tuple[int, ...], Tuple[bool, float, float]] = {}
        self._classes: Dict[Tuple[int, Tuple[int, int, int]], _ClassData] = {}
        self._programs: Dict[Tuple[int, Tuple[int, int, int], str],
                             CandidateProgram] = {}
        self._engine = EventEngine(machine.num_devices)
        self._replay_cache: Dict[int, List[_RankTrace]] = {}
        # Pairwise latency/bandwidth tables for vectorized pricing.
        topology = machine.topology
        p = machine.num_devices
        self._lat = np.array([[topology.latency(s, d) for d in range(p)]
                              for s in range(p)], dtype=np.float64)
        self._bw = np.array([[topology.bandwidth(s, d) for d in range(p)]
                             for s in range(p)], dtype=np.float64)
        #: Seconds spent compiling candidate event tables (op generation).
        self.opgen_seconds = 0.0
        #: Relaxed-replay reuse counters: cold folds, checkpoint resumes,
        #: and whole-trace hits.
        self.replay_stats = {"cold": 0, "delta": 0, "full": 0}

    # ------------------------------------------------------------------ #
    # candidate compilation
    # ------------------------------------------------------------------ #
    def _class_data(self, candidate) -> _ClassData:
        key = (id(candidate.scheme), tuple(candidate.replication))
        data = self._classes.get(key)
        if data is None:
            runtime = self._runtime
            rep_a, rep_b, rep_c = candidate.replication
            p = self.machine.num_devices
            part_a, part_b, part_c = candidate.scheme.partitions(
                self.workload, p // rep_a, p // rep_b, p // rep_c
            )
            a_shape, b_shape, c_shape = self.workload.shapes
            a = DistributedMatrix.create(runtime, a_shape, part_a, replication=rep_a,
                                         name="A", materialize=False)
            b = DistributedMatrix.create(runtime, b_shape, part_b, replication=rep_b,
                                         name="B", materialize=False)
            c = DistributedMatrix.create(runtime, c_shape, part_c, replication=rep_c,
                                         name="C", materialize=False)
            data = _ClassData(
                a=a, b=b, c=c,
                a_geom=_MatrixGeom(a, ROLE_A, self.structure),
                b_geom=_MatrixGeom(b, ROLE_B, self.structure),
                c_geom=_MatrixGeom(c, ROLE_C, self.structure),
                reduce_time=model_reduce_time(c, self.cost_model,
                                              structure=self.structure),
            )
            self._classes[key] = data
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
        dropped (as ``prune_structured_ops`` does) before the first-fetch
        flags are computed, and each program keeps views of its own rows.
        The rows are then priced and reduced to each program's occupancy
        bound with one grouped segment-sum: each program's terms land in its
        own slot range, ``np.bincount`` accumulates them sequentially in
        emission order (bit-equal to the scalar loop), and a per-device max
        finishes the bound.
        """
        todo: Dict[Tuple[int, Tuple[int, int, int], str], Tuple[object, _ClassData]] = {}
        for candidate in candidates:
            key = self._program_key(candidate)
            if key not in self._programs and key not in todo:
                todo[key] = (candidate, self._class_data(candidate))
        if not todo:
            return
        started = time.perf_counter()
        entries = list(todo.values())
        table = slice_table(
            [(cls.a_geom.layout, cls.b_geom.layout, cls.c_geom.layout,
              parse_stationary(candidate.stationary)) for candidate, cls in entries],
            cache=self._axes,
        )
        itemsize = entries[0][1].c.dtype.itemsize
        m = table["m1"] - table["m0"]
        n = table["n1"] - table["n0"]
        if self.structure is None:
            c_bytes = (m * n * itemsize).astype(np.float64)
            gemm = np.zeros(m.size)  # dense GEMMs are priced vectorized later
        else:
            live, c_bytes, gemm = self._structured_rows(table, itemsize)
            table = {name: arr[live] for name, arr in table.items()}
            m, n, c_bytes, gemm = m[live], n[live], c_bytes[live], gemm[live]
        task, rank = table["task"], table["rank"]
        p = self.machine.num_devices
        frame = {
            "rank": rank, "m": m, "n": n, "k": table["k1"] - table["k0"],
            "m0": table["m0"], "k0": table["k0"], "n0": table["n0"],
            "stat_i": table["stat_i"], "stat_j": table["stat_j"],
            "c_owner": table["c_owner"], "c_remote": table["c_owner"] != rank,
            "c_bytes": c_bytes, "gemm": gemm,
        }
        group = task * p + rank
        for side in ("a", "b"):
            key, owner = table[f"{side}_key"], table[f"{side}_owner"]
            remote = owner != rank
            frame[f"{side}_owner"] = owner
            frame[f"{side}_key"] = key
            frame[f"{side}_remote"] = remote
            frame[f"{side}_first"] = first_occurrence(group, key, remote)
            tile_bytes, at = stack_distinct(
                [getattr(cls, f"{side}_geom").tile_bytes for _, cls in entries])
            frame[f"{side}_bytes"] = tile_bytes[at[task] + key]
        counts = np.bincount(group, minlength=len(entries) * p).reshape(-1, p)
        rank_starts = np.zeros((len(entries), p + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=rank_starts[:, 1:])
        bounds = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum(rank_starts[:, -1], out=bounds[1:])
        self.opgen_seconds += time.perf_counter() - started

        durations = self._duration_columns(frame, float(itemsize))
        stride = p * _NUM_ENGINES + 1
        slots, vals = self._occupancy_rows({**frame, **durations})
        # Rows are program-major, so offsetting each row's 7 slots into its
        # program's segment keeps every per-program accumulation order.
        slots += np.repeat(task * stride, 7)
        totals = np.bincount(slots, weights=vals, minlength=len(entries) * stride)
        occupancy = totals.reshape(len(entries), stride)[:, :p * _NUM_ENGINES].max(axis=1)
        for t, (key, (candidate, cls)) in enumerate(todo.items()):
            self._programs[key] = CandidateProgram(
                candidate, cls, frame, durations, int(bounds[t]), int(bounds[t + 1]),
                rank_starts[t], float(occupancy[t]))

    def _structured_rows(self, table: Dict[str, np.ndarray], itemsize: int):
        """``(live, c_bytes, gemm)`` per row, priced once per distinct cuboid.

        ``live`` is False for fully masked cuboids (no flops survive), the
        rows ``prune_structured_ops`` drops.  The scalar formulas run once
        per distinct ``(m, k, n)`` bounds and are memoized per evaluator.
        """
        ids = []
        for lo, hi in (("m0", "m1"), ("k0", "k1"), ("n0", "n1")):
            packed = table[lo] * (int(table[hi].max(initial=0)) + 1) + table[hi]
            uniq, inverse = np.unique(packed, return_inverse=True)
            ids.append((uniq.size, inverse.reshape(-1)))
        (_, m_id), (nk, k_id), (nn, n_id) = ids
        _, first, inverse = np.unique((m_id * nk + k_id) * nn + n_id,
                                      return_index=True, return_inverse=True)
        structure = self.structure
        priced = []
        for bounds in zip(*[table[name][first].tolist()
                            for name in ("m0", "m1", "k0", "k1", "n0", "n1")]):
            value = self._cuboids.get(bounds)
            if value is None:
                m0, m1, k0, k1, n0, n1 = bounds
                mb, kb, nb = Interval(m0, m1), Interval(k0, k1), Interval(n0, n1)
                if structure.flops_fraction(mb, kb, nb) <= 0.0:
                    value = (False, 0.0, 0.0)
                else:
                    fractions = structure.op_fractions(mb, kb, nb)
                    value = (True,
                             ((m1 - m0) * (n1 - n0) * itemsize) * fractions[3],
                             self.cost_model.structured_op_compute_time(
                                 _OpView(mb, kb, nb, itemsize), structure, fractions))
                self._cuboids[bounds] = value
            priced.append(value)
        inverse = inverse.reshape(-1)
        live = np.array([value[0] for value in priced], dtype=bool)
        c_bytes = np.array([value[1] for value in priced], dtype=np.float64)
        gemm = np.array([value[2] for value in priced], dtype=np.float64)
        return live[inverse], c_bytes[inverse], gemm[inverse]

    # ------------------------------------------------------------------ #
    # vectorized pricing
    # ------------------------------------------------------------------ #
    def _duration_columns(self, col: Dict[str, np.ndarray],
                          c_itemsize: float) -> Dict[str, np.ndarray]:
        """Price one (possibly stacked) column set in a single array pass.

        Every formula below mirrors the corresponding ``CostModel`` method
        operation-for-operation (same association order, same guards), which
        is what makes the vectorized durations bit-equal to the scalar ones.
        """
        machine = self.machine
        shape = self.cost_model.shape_model
        launch = machine.kernel_launch_overhead
        acc_eff = max(machine.accumulate_efficiency, 1.0e-6)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.structure is None:
                # CostModel.gemm_time — the op generator stamps ops with
                # c.dtype.itemsize, shared by the whole workload.
                m, n, k = col["m"], col["n"], col["k"]
                flops = 2.0 * m * n * k
                bytes_touched = c_itemsize * (m * k + k * n + 2 * m * n)
                efficiency = machine.gemm_efficiency * (
                    (m / (m + shape.m_half)) * (n / (n + shape.n_half))
                    * (k / (k + shape.k_half))
                )
                compute_time = flops / (machine.flops_peak
                                        * np.maximum(efficiency, 1.0e-3))
                memory_time = bytes_touched / machine.memory_bandwidth
                gemm = np.maximum(compute_time, memory_time) + launch
            else:
                gemm = col["gemm"]  # priced scalar at compile time

            rank = col["rank"]
            c_owner = col["c_owner"]
            c_bytes = col["c_bytes"]
            c_remote = col["c_remote"]
            # CostModel.accumulate_time(rank, c_owner, c_bytes)
            lat = self._lat[rank, c_owner]
            transfer = lat + c_bytes / self._bw[rank, c_owner]
            remote_acc = launch + lat + (transfer - lat) / acc_eff
            # CostModel.local_accumulate_time(c_bytes)
            local_acc = 3.0 * c_bytes / machine.memory_bandwidth + launch
            acc = np.where(c_bytes <= 0, 0.0,
                           np.where(c_remote, remote_acc, local_acc))
            # CostModel.device_link_time(c_bytes, accumulate=True)
            ingress = np.where(c_bytes <= 0, 0.0,
                               (c_bytes / machine.device_link_bandwidth) / acc_eff)

            fetch: Dict[str, np.ndarray] = {}
            egress: Dict[str, np.ndarray] = {}
            for side in ("a", "b"):
                owner = col[f"{side}_owner"]
                nbytes = col[f"{side}_bytes"]
                # CostModel.transfer_time(owner, rank, nbytes) — only remote
                # rows are ever consumed, so the src == dst guard is subsumed
                # by the remote mask at assembly time.
                duration = self._lat[owner, rank] + nbytes / self._bw[owner, rank]
                fetch[side] = np.where(nbytes <= 0, 0.0, duration)
                # CostModel.device_link_time(nbytes)
                egress[side] = np.where(nbytes <= 0, 0.0,
                                        nbytes / machine.device_link_bandwidth)

        return {"gemm": gemm, "acc": acc, "ingress": ingress,
                "a_fetch": fetch["a"], "b_fetch": fetch["b"],
                "a_egress": egress["a"], "b_egress": egress["b"]}

    def _occupancy_rows(self, cols: Dict[str, np.ndarray]
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """(slot, value) pairs in the scalar occupancy loop's emission order.

        Seven terms per op, row-major, matching ``direct_lower_bound``:
        GEMM -> accumulate (remote on the accumulate engine, local on
        compute) -> ingress -> fetch A -> egress A -> fetch B -> egress B.
        Terms the scalar loop never adds are routed to a per-candidate trash
        slot with value 0.
        """
        num = cols["rank"].shape[0]
        p = self.machine.num_devices
        trash = p * _NUM_ENGINES
        slots = np.empty((num, 7), dtype=np.int64)
        vals = np.zeros((num, 7), dtype=np.float64)
        base = cols["rank"] * _NUM_ENGINES
        c_remote = cols["c_remote"]
        slots[:, 0] = base + _E_COMPUTE
        vals[:, 0] = cols["gemm"]
        slots[:, 1] = np.where(c_remote, base + _E_ACCUMULATE, base + _E_COMPUTE)
        vals[:, 1] = cols["acc"]
        slots[:, 2] = np.where(c_remote,
                               cols["c_owner"] * _NUM_ENGINES + _E_INGRESS, trash)
        vals[:, 2] = np.where(c_remote, cols["ingress"], 0.0)
        cache = self.config.cache_remote_tiles
        for offset, side in ((3, "a"), (5, "b")):
            emit = cols[f"{side}_remote"]
            if cache:
                emit = emit & cols[f"{side}_first"]
            slots[:, offset] = np.where(emit, base + _E_COPY, trash)
            vals[:, offset] = np.where(emit, cols[f"{side}_fetch"], 0.0)
            slots[:, offset + 1] = np.where(
                emit, cols[f"{side}_owner"] * _NUM_ENGINES + _E_EGRESS, trash)
            vals[:, offset + 1] = np.where(emit, cols[f"{side}_egress"], 0.0)
        return slots.reshape(-1), vals.reshape(-1)

    def frontier_occupancy_bounds(self, candidates) -> List[float]:
        """Occupancy bound (+ class reduce term) for a whole frontier at once.

        Every not-yet-compiled candidate is built and priced by one
        :meth:`_build` call; the rest reuse their cached programs.
        """
        self._build(candidates)
        return [program.occupancy + program.cls.reduce_time
                for program in map(self.compile, candidates)]

    def _single_occupancy(self, cols: Dict[str, np.ndarray]) -> float:
        slots, vals = self._occupancy_rows(cols)
        p = self.machine.num_devices
        totals = np.bincount(slots, weights=vals,
                             minlength=p * _NUM_ENGINES + 1)
        return float(totals[:p * _NUM_ENGINES].max())

    # ------------------------------------------------------------------ #
    # critical-path refinement (relaxed replay with delta reuse)
    # ------------------------------------------------------------------ #
    def critical_bound(self, candidate) -> float:
        """Critical-path lower bound + reduce term, bit-equal to the scalar path.

        Replays the executor's per-rank event stream (execution order,
        iteration offset applied) on the relaxed timing recurrence; ranks
        sharing a stream prefix with a cached trace resume from the deepest
        valid checkpoint.  Floored by the occupancy bound summed over the
        same execution-order stream, exactly as
        ``CostModel.critical_path_lower_bound`` computes it.
        """
        program = self.compile(candidate)
        cols = program.exec_columns(self.config.iteration_offset)
        # Execution order is rank-major (the offset rotates within ranks),
        # so each rank's stream is its generation-order slice.
        boundaries = program.rank_starts.tolist()
        relaxed = 0.0
        for device in range(self.machine.num_devices):
            lo, hi = boundaries[device], boundaries[device + 1]
            finish = self._replay_rank(device, cols, lo, hi)
            if finish > relaxed:
                relaxed = finish
        if program.occupancy_exec is None:
            program.occupancy_exec = self._single_occupancy(cols)
        occupancy = program.occupancy_exec
        value = relaxed if relaxed > occupancy else occupancy
        return value + program.cls.reduce_time

    def _replay_rank(self, rank: int, cols: Dict[str, np.ndarray],
                     lo: int, hi: int) -> float:
        num = hi - lo
        if num == 0:
            return 0.0
        key_matrix = np.column_stack([
            cols["gemm"][lo:hi],
            cols["c_remote"][lo:hi].astype(np.float64),
            cols["acc"][lo:hi],
            cols["a_remote"][lo:hi].astype(np.float64),
            cols["a_key"][lo:hi].astype(np.float64),
            cols["a_fetch"][lo:hi],
            cols["b_remote"][lo:hi].astype(np.float64),
            cols["b_key"][lo:hi].astype(np.float64),
            cols["b_fetch"][lo:hi],
        ])
        traces = self._replay_cache.setdefault(rank, [])
        depth = self.config.prefetch_depth
        best_resume = 0
        best_state: Optional[_ReplayState] = None
        best_trace: Optional[_RankTrace] = None
        for trace in traces:
            if trace.key.shape == key_matrix.shape and \
                    np.array_equal(trace.key, key_matrix):
                self.replay_stats["full"] += 1
                return trace.finish
            limit = min(trace.key.shape[0], num)
            if limit == 0:
                continue
            eq = (trace.key[:limit] == key_matrix[:limit]).all(axis=1)
            common = limit if bool(eq.all()) else int(np.argmin(eq))
            for index, state in reversed(trace.checkpoints):
                # A checkpoint taken after op index-1 has consumed stream
                # rows [0, index + depth); it transfers iff those rows are
                # shared with the new stream and the old fold's prefetch
                # horizon was not tail-clamped at that point.
                if index > best_resume and index + depth <= common \
                        and index + depth <= trace.key.shape[0]:
                    best_resume = index
                    best_state = state
                    best_trace = trace
                    break
        if best_state is not None:
            self.replay_stats["delta"] += 1
            state = best_state.copy()
            # Checkpoints of the shared prefix remain valid for this stream.
            inherited = [cp for cp in best_trace.checkpoints
                         if cp[0] <= best_resume]
        else:
            self.replay_stats["cold"] += 1
            state = _ReplayState()
            inherited = []
        finish, checkpoints = self._fold(cols, lo, num, best_resume, state)
        traces.append(_RankTrace(key=key_matrix, finish=finish,
                                 checkpoints=inherited + checkpoints))
        if len(traces) > _TRACES_PER_RANK:
            del traces[0]
        return finish

    def _fold(self, cols: Dict[str, np.ndarray], lo: int, num: int,
              start: int, state: _ReplayState):
        """The relaxed-engine timing recurrence for one rank's op stream.

        Mirrors ``DirectExecutor._process_op`` running on
        ``EventEngine(contention=False)``: prefetch issue floors, the
        per-engine FIFO availability updates, the async concurrency windows,
        and the accumulate-compute interference slice.  Mutates ``state``
        (callers pass a fresh or copied snapshot) and returns the rank finish
        time plus the checkpoints recorded along the way.
        """
        config = self.config
        depth = config.prefetch_depth
        async_ = config.async_execution
        w_acc = config.max_concurrent_accumulates
        w_g = config.max_concurrent_gemms
        cache_tiles = config.cache_remote_tiles
        interference = self.machine.accumulate_compute_interference
        hi = lo + num
        gemm_dur = cols["gemm"][lo:hi].tolist()
        c_rem = cols["c_remote"][lo:hi].tolist()
        acc_dur = cols["acc"][lo:hi].tolist()
        a_rem = cols["a_remote"][lo:hi].tolist()
        a_key = cols["a_key"][lo:hi].tolist()
        a_fetch = cols["a_fetch"][lo:hi].tolist()
        b_rem = cols["b_remote"][lo:hi].tolist()
        b_key = cols["b_key"][lo:hi].tolist()
        b_fetch = cols["b_fetch"][lo:hi].tolist()

        avail_c = state.avail_compute
        avail_cp = state.avail_copy
        avail_a = state.avail_accumulate
        cache_a = state.cache_a
        cache_b = state.cache_b
        pending = state.pending
        next_pref = state.next_prefetch
        gemm_start = state.gemm_start
        gemm_end = state.gemm_end
        acc_end = state.acc_end
        checkpoints: List[Tuple[int, _ReplayState]] = []

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

        for i in range(start, num):
            floor = gemm_start[i - 1] if i > 0 else 0.0
            if not async_ and i > 0 and acc_end[i - 1] > floor:
                floor = acc_end[i - 1]
            horizon = i + depth
            if horizon > num - 1:
                horizon = num - 1
            while next_pref <= horizon:
                issue(next_pref, floor)
                next_pref += 1
            if next_pref <= i:
                # prefetch_depth == 0 path: fetch exactly when needed.
                issue(i, floor)
                next_pref = i + 1
            a_end, b_end = pending.pop(i)
            earliest = a_end if a_end > b_end else b_end
            if async_:
                if i >= w_acc and acc_end[i - w_acc] > earliest:
                    earliest = acc_end[i - w_acc]
                if i >= w_g and gemm_end[i - w_g] > earliest:
                    earliest = gemm_end[i - w_g]
            elif i > 0 and acc_end[i - 1] > earliest:
                earliest = acc_end[i - 1]
            begin = earliest if earliest > avail_c else avail_c
            finish = begin + gemm_dur[i]
            avail_c = finish
            gemm_start.append(begin)
            gemm_end.append(finish)
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
            done = i + 1
            if done % _CHECKPOINT_EVERY == 0 and done < num:
                checkpoints.append((done, _ReplayState(
                    avail_compute=avail_c, avail_copy=avail_cp,
                    avail_accumulate=avail_a,
                    cache_a=dict(cache_a), cache_b=dict(cache_b),
                    pending=dict(pending), next_prefetch=next_pref,
                    gemm_start=list(gemm_start), gemm_end=list(gemm_end),
                    acc_end=list(acc_end),
                )))

        finish_time = avail_c
        if avail_cp > finish_time:
            finish_time = avail_cp
        if avail_a > finish_time:
            finish_time = avail_a
        return finish_time, checkpoints

    # ------------------------------------------------------------------ #
    # batch simulation
    # ------------------------------------------------------------------ #
    def real_ops(self, candidate):
        """The candidate's real (pruned) ``LocalMatmulOp`` lists, cached.

        Only candidates that reach full simulation pay for op-object
        construction; the bound paths never touch this.
        """
        program = self.compile(candidate)
        if program._real_ops is None:
            cls = program.cls
            per_rank_ops = generate_all_ops(
                cls.a, cls.b, cls.c, parse_stationary(candidate.stationary)
            )
            if self.config.validate_ops:
                # Coverage is an envelope invariant: checked pre-pruning,
                # exactly as universal_matmul does.
                check_coverage(cls.a, cls.b, cls.c, per_rank_ops)
            if self.structure is not None:
                per_rank_ops = prune_structured_ops(per_rank_ops, self.structure)
            program._real_ops = per_rank_ops
        return program._real_ops

    def simulate(self, candidate) -> SweepPoint:
        """Full contended simulation, bit-equal to ``run_ua_point``.

        Reuses the class's symbolic matrices and the evaluator's single
        :class:`EventEngine` (``reset()`` between candidates) instead of
        rebuilding ``Runtime``/``DistributedMatrix``/engine per point.
        """
        program = self.compile(candidate)
        cls = program.cls
        if self.structure is not None and not self._structure_validated:
            self.structure.validate(self.m, self.n, self.k)
            self._structure_validated = True
        per_rank_ops = self.real_ops(candidate)
        if self.config.iteration_offset:
            per_rank_ops = {
                rank: apply_iteration_offset(ops)
                for rank, ops in per_rank_ops.items()
            }
        self._engine.reset()
        executor = DirectExecutor(cls.a, cls.b, cls.c, self.cost_model,
                                  self.config, engine=self._engine,
                                  structure=self.structure)
        makespan, per_rank_stats = executor.execute(per_rank_ops)
        reduce_time = cls.reduce_time if cls.c.replication.num_replicas > 1 else 0.0
        if self.structure is None:
            total_flops = 2 * self.m * self.n * self.k
        else:
            total_flops = self.structure.effective_flops(self.m, self.n, self.k)
        simulated_time = makespan + reduce_time
        extra = {
            "remote_get_bytes": sum(s.remote_get_bytes
                                    for s in per_rank_stats.values()),
            "remote_accumulate_bytes": sum(s.remote_accumulate_bytes
                                           for s in per_rank_stats.values()),
            "total_ops": sum(len(ops) for ops in per_rank_ops.values()),
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
