"""Cost model: roofline compute estimates plus bandwidth-based communication.

Section 4.3 of the paper: "The computation cost we estimate using a simple
Roofline model based on the matrix tile size as well as our GPU's arithmetic
peak and memory bandwidth peak.  Communication cost we can estimate by taking
the number of bytes that must be fetched in each communication operation and
dividing it by the bandwidth available between the process and remote tile."

The same model serves three purposes in this library:

1. choosing a data-movement strategy (Stationary A/B/C),
2. driving the cost-model-based IR lowerings, and
3. pricing every event in the execution simulators so that benchmarks can
   report percent-of-peak numbers.
The simulators price whole slicing tables with :meth:`CostModel.price_rows`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.slicing import stack_distinct
from repro.core.structure import WorkloadStructure
from repro.topology.machines import MachineSpec
from repro.util.indexing import Interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ops import LocalMatmulOp
    from repro.dist.matrix import DistributedMatrix

#: Version of the pricing rules below.  Bump whenever a formula, calibration
#: constant, or engine discipline changes in a way that can move simulated
#: times: the persistent plan store invalidates entries stamped with a
#: different fingerprint, so stale plans are never served after a model change.
COST_MODEL_VERSION = 1


@dataclass(frozen=True)
class GemmShapeModel:
    """Shape-dependent efficiency of a local GEMM.

    GPUs lose efficiency when any GEMM dimension is small (underfilled
    compute tiles, low occupancy).  The paper leans on this effect twice: the
    column-block partitioning beats inner-product despite equal communication
    because its local GEMMs are better shaped, and replication helps the
    outer-product partitioning because it enlarges per-replica tiles.  We
    model the effect with a saturating factor per dimension:
    ``dim / (dim + half_size)`` so tiny dimensions are heavily penalised and
    large dimensions approach 1.  The half sizes are calibrated so that a
    dimension of a few hundred elements already runs near full efficiency,
    which is roughly where vendor GEMM libraries saturate for FP32.
    """

    m_half: float = 64.0
    n_half: float = 64.0
    k_half: float = 64.0

    def efficiency(self, m: int, n: int, k: int) -> float:
        if m <= 0 or n <= 0 or k <= 0:
            return 1.0
        factor_m = m / (m + self.m_half)
        factor_n = n / (n + self.n_half)
        factor_k = k / (k + self.k_half)
        return factor_m * factor_n * factor_k


def tile_fetch_bytes(matrix: "DistributedMatrix", role: str,
                     structure: Optional[WorkloadStructure] = None) -> np.ndarray:
    """Bytes one fetch of each tile moves, per flat (row-major) tile index.

    Ints for dense tiles; under a structure only the live fraction moves
    (masked B blocks and padding rows of A are never fetched).
    """
    grid = matrix.grid
    itemsize = matrix.dtype.itemsize
    return np.asarray([
        (r1 - r0) * (c1 - c0) * itemsize if structure is None else
        (r1 - r0) * (c1 - c0) * itemsize
        * structure.live_fraction(role, Interval(r0, r1), Interval(c0, c1))
        for r0, r1 in zip(grid.row_splits, grid.row_splits[1:])
        for c0, c1 in zip(grid.col_splits, grid.col_splits[1:])
    ])


class CostModel:
    """Prices compute, communication, and accumulation on a given machine."""

    def __init__(self, machine: MachineSpec, shape_model: GemmShapeModel | None = None) -> None:
        self.machine = machine
        self.topology = machine.topology
        self.shape_model = shape_model or GemmShapeModel()

    def fingerprint(self) -> str:
        """Stable digest of the pricing rules (version + calibration constants).

        Deliberately excludes the machine: plan-cache keys already carry the
        machine fingerprint, while this digest answers a different question —
        "were these cached times produced by the same cost model build?" —
        which is what the persistent plan store checks on load.
        """
        blob = "|".join(
            repr(part)
            for part in (
                COST_MODEL_VERSION,
                self.shape_model.m_half,
                self.shape_model.n_half,
                self.shape_model.k_half,
            )
        )
        return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]

    # ------------------------------------------------------------------ #
    # compute
    # ------------------------------------------------------------------ #
    def gemm_time(self, m: int, n: int, k: int, itemsize: int = 4) -> float:
        """Roofline estimate of one local GEMM of shape (m x k) @ (k x n)."""
        if m <= 0 or n <= 0 or k <= 0:
            return 0.0
        flops = 2.0 * m * n * k
        bytes_touched = float(itemsize) * (m * k + k * n + 2 * m * n)
        efficiency = self.machine.gemm_efficiency * self.shape_model.efficiency(m, n, k)
        compute_time = flops / (self.machine.flops_peak * max(efficiency, 1.0e-3))
        memory_time = bytes_touched / self.machine.memory_bandwidth
        return max(compute_time, memory_time) + self.machine.kernel_launch_overhead

    def local_accumulate_time(self, nbytes: int) -> float:
        """Time to add a temporary result into a locally owned tile (memory bound)."""
        if nbytes <= 0:
            return 0.0
        # read partial + read/write destination
        return 3.0 * nbytes / self.machine.memory_bandwidth + self.machine.kernel_launch_overhead

    # ------------------------------------------------------------------ #
    # communication
    # ------------------------------------------------------------------ #
    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Time for a one-sided get/put of ``nbytes`` from ``src`` to ``dst``."""
        if nbytes <= 0 or src == dst:
            return 0.0
        return self.topology.transfer_time(src, dst, nbytes)

    def device_link_time(self, nbytes: int, accumulate: bool = False) -> float:
        """Occupancy of a device's aggregate ingress/egress capacity for ``nbytes``.

        The paper's Table 2 quotes per-device unidirectional link bandwidth;
        all traffic entering or leaving one device shares it, which is what
        makes many-to-one fan-in (remote accumulates into one C owner) and
        one-to-many fan-out (everyone fetching the same tile) serialise.
        """
        if nbytes <= 0:
            return 0.0
        time = nbytes / self.machine.device_link_bandwidth
        if accumulate:
            time /= max(self.machine.accumulate_efficiency, 1.0e-6)
        return time

    def accumulate_time(self, src: int, dst: int, nbytes: int) -> float:
        """Time for a one-sided remote accumulate.

        Remote accumulates run as a kernel on the initiating device (hence the
        launch overhead) and reach only ``accumulate_efficiency`` of the copy
        bandwidth (the paper measures ~80% on PVC).
        """
        if nbytes <= 0 or src == dst:
            return 0.0
        latency = self.topology.latency(src, dst)
        payload = self.topology.transfer_time(src, dst, nbytes) - latency
        return (
            self.machine.kernel_launch_overhead
            + latency
            + payload / max(self.machine.accumulate_efficiency, 1.0e-6)
        )

    # ------------------------------------------------------------------ #
    # vectorized pricing of slicing-table rows
    # ------------------------------------------------------------------ #
    def event_columns(self, table: Dict[str, np.ndarray],
                      tile_bytes: Sequence[Tuple[np.ndarray, np.ndarray]], itemsize: int,
                      structure: Optional[WorkloadStructure] = None,
                      cuboids: Optional[dict] = None, prune: bool = True
                      ) -> Dict[str, np.ndarray]:
        """Per-op event columns of :func:`repro.core.slicing.slice_table` rows.

        ``tile_bytes`` holds per task the (A, B) :func:`tile_fetch_bytes`;
        ``itemsize`` is C's.  Columns: ``task``, ``rank``, ``m/n/k``,
        ``m0/k0/n0``, ``stat_i/j``, ``c_key/owner/remote/bytes``, ``gemm`` (zero
        on dense rows, which :meth:`price_rows` prices), ``flops``, and
        ``a_``/``b_`` ``owner/key/remote/bytes``.  Under a structure each
        distinct (m, k, n) cuboid is priced once with the scalar formulas
        (memoized in ``cuboids``); ``prune`` drops fully masked rows, as
        ``prune_structured_ops`` drops their ops.
        """
        m = table["m1"] - table["m0"]
        n = table["n1"] - table["n0"]
        k = table["k1"] - table["k0"]
        if structure is None:
            c_bytes = m * n * itemsize
            gemm = np.zeros(m.size)
            flops = 2 * m * n * k
        else:
            live, c_bytes, gemm, flops = self._price_cuboids(
                table, itemsize, structure, {} if cuboids is None else cuboids)
            if prune:
                table = {name: arr[live] for name, arr in table.items()}
                m, n, k, c_bytes, gemm, flops = (
                    arr[live] for arr in (m, n, k, c_bytes, gemm, flops))
        task, rank = table["task"], table["rank"]
        cols = {
            "task": task, "rank": rank, "m": m, "n": n, "k": k,
            "m0": table["m0"], "k0": table["k0"], "n0": table["n0"],
            "stat_i": table["stat_i"], "stat_j": table["stat_j"],
            "c_key": table["c_key"], "c_owner": table["c_owner"],
            "c_remote": table["c_owner"] != rank,
            "c_bytes": c_bytes, "gemm": gemm, "flops": flops,
        }
        for x, side in enumerate("ab"):
            key, owner = table[f"{side}_key"], table[f"{side}_owner"]
            nbytes, at = stack_distinct([pair[x] for pair in tile_bytes])
            cols.update({f"{side}_owner": owner, f"{side}_key": key,
                         f"{side}_remote": owner != rank,
                         f"{side}_bytes": nbytes[at[task] + key]})
        return cols

    def _price_cuboids(self, table: Dict[str, np.ndarray], itemsize: int,
                       structure: WorkloadStructure, memo: dict):
        """``(live, c_bytes, gemm, flops)`` per row, priced once per cuboid.

        ``live`` is False for fully masked cuboids (no flops survive).
        """
        ids = []
        for lo, hi in (("m0", "m1"), ("k0", "k1"), ("n0", "n1")):
            packed = table[lo] * (int(table[hi].max(initial=0)) + 1) + table[hi]
            uniq, inverse = np.unique(packed, return_inverse=True)
            ids.append((uniq.size, inverse.reshape(-1)))
        (_, m_id), (nk, k_id), (nn, n_id) = ids
        _, first, inverse = np.unique((m_id * nk + k_id) * nn + n_id,
                                      return_index=True, return_inverse=True)
        priced: List[tuple] = []
        for bounds in zip(*[table[name][first].tolist()
                            for name in ("m0", "m1", "k0", "k1", "n0", "n1")]):
            value = memo.get(bounds)
            if value is None:
                m0, m1, k0, k1, n0, n1 = bounds
                cuboid = Interval(m0, m1), Interval(k0, k1), Interval(n0, n1)
                fractions = structure.op_fractions(*cuboid)
                # The op's c_bytes (m * n * itemsize) and flops (2 * m * n * k),
                # scaled by their live fractions.
                value = memo[bounds] = (
                    fractions[0] > 0.0, (m1 - m0) * (n1 - n0) * itemsize * fractions[3],
                    self._live_gemm_time(*cuboid, itemsize, structure, fractions),
                    2 * (m1 - m0) * (n1 - n0) * (k1 - k0) * fractions[0])
            priced.append(value)
        inverse = inverse.reshape(-1)
        return tuple(np.array(column)[inverse] for column in zip(*priced)) \
            if priced else (np.zeros(0, dtype=bool),) + (np.zeros(0),) * 3

    def price_rows(self, cols: Dict[str, np.ndarray], itemsize: int,
                   structure: Optional[WorkloadStructure] = None) -> Dict[str, np.ndarray]:
        """Price :meth:`event_columns` rows in one array pass.

        Returns the ``gemm``, ``acc`` (remote or local accumulate), ``ingress``
        and per side ``fetch``/``egress`` seconds of every row.  Every
        formula below mirrors the corresponding scalar method
        operation-for-operation (same association order, same guards), which
        is what makes the vectorized durations bit-equal to the scalar ones.
        Structured rows keep the GEMM times :meth:`event_columns` priced.
        """
        machine = self.machine
        shape = self.shape_model
        launch = machine.kernel_launch_overhead
        acc_eff = max(machine.accumulate_efficiency, 1.0e-6)
        lat, bw = self.topology.pair_tables()
        with np.errstate(divide="ignore", invalid="ignore"):
            if structure is None:
                # gemm_time — the op generator stamps every op with C's itemsize.
                m, n, k = cols["m"], cols["n"], cols["k"]
                flops = 2.0 * m * n * k
                bytes_touched = float(itemsize) * (m * k + k * n + 2 * m * n)
                efficiency = machine.gemm_efficiency * (
                    (m / (m + shape.m_half)) * (n / (n + shape.n_half))
                    * (k / (k + shape.k_half))
                )
                compute_time = flops / (machine.flops_peak
                                        * np.maximum(efficiency, 1.0e-3))
                memory_time = bytes_touched / machine.memory_bandwidth
                gemm = np.where((m <= 0) | (n <= 0) | (k <= 0), 0.0,
                                np.maximum(compute_time, memory_time) + launch)
            else:
                gemm = cols["gemm"]

            rank = cols["rank"]
            c_owner = cols["c_owner"]
            c_bytes = cols["c_bytes"]
            # accumulate_time(rank, c_owner, c_bytes)
            latency = lat[rank, c_owner]
            transfer = latency + c_bytes / bw[rank, c_owner]
            remote_acc = launch + latency + (transfer - latency) / acc_eff
            # local_accumulate_time(c_bytes)
            local_acc = 3.0 * c_bytes / machine.memory_bandwidth + launch
            priced = {
                "gemm": gemm,
                "acc": np.where(c_bytes <= 0, 0.0,
                                np.where(cols["c_remote"], remote_acc, local_acc)),
                # device_link_time(c_bytes, accumulate=True)
                "ingress": np.where(c_bytes <= 0, 0.0,
                                    (c_bytes / machine.device_link_bandwidth) / acc_eff),
            }
            for side in ("a", "b"):
                owner = cols[f"{side}_owner"]
                nbytes = cols[f"{side}_bytes"]
                # transfer_time(owner, rank, nbytes) — only remote rows are
                # ever consumed, so the src == dst guard is left to them.
                priced[f"{side}_fetch"] = np.where(
                    nbytes <= 0, 0.0, lat[owner, rank] + nbytes / bw[owner, rank])
                # device_link_time(nbytes)
                priced[f"{side}_egress"] = np.where(
                    nbytes <= 0, 0.0, nbytes / machine.device_link_bandwidth)
        return priced

    # ------------------------------------------------------------------ #
    # op-level helpers
    # ------------------------------------------------------------------ #
    def op_compute_time(self, op: "LocalMatmulOp") -> float:
        return self.gemm_time(op.m, op.n, op.k, op.itemsize)

    def structured_op_compute_time(
        self,
        op: "LocalMatmulOp",
        structure: Optional[WorkloadStructure],
        fractions: Optional[Tuple[float, float, float, float]] = None,
    ) -> float:
        """Roofline time of one op's *live* GEMM under a workload structure.

        Dense structures fall through to :meth:`op_compute_time` untouched
        (bit-exact with the historical pricing).  Otherwise flops and bytes
        are scaled by the live fractions of the op's global cuboid, and the
        shape-efficiency term is evaluated at the live effective dimensions —
        a ragged expert batch really runs a skinnier, less efficient GEMM.
        Every scale factor is in ``[0, 1]``, so a structured op never prices
        above its dense envelope (the dominance the planner's bounds and the
        property harness rely on).

        ``fractions`` is the op's ``structure.op_fractions(...)`` tuple when
        the caller already computed it (the executor and the occupancy bound
        both need the C fraction too) — passing it avoids a second scan of
        the mask/raggedness geometry.
        """
        if structure is None or structure.is_dense:
            return self.op_compute_time(op)
        return self._live_gemm_time(op.m_bound, op.k_bound, op.n_bound, op.itemsize,
                                    structure, fractions)

    def _live_gemm_time(self, m_bound: Interval, k_bound: Interval, n_bound: Interval,
                        itemsize: int, structure: WorkloadStructure,
                        fractions: Optional[Tuple[float, float, float, float]] = None
                        ) -> float:
        if fractions is None:
            fractions = structure.op_fractions(m_bound, k_bound, n_bound)
        flops_frac, a_frac, b_frac, c_frac = fractions
        if flops_frac <= 0.0:
            return 0.0
        m, n, k = m_bound.extent, n_bound.extent, k_bound.extent
        flops = 2.0 * m * n * k * flops_frac
        bytes_touched = float(itemsize) * (
            a_frac * (m * k) + b_frac * (k * n) + 2.0 * c_frac * (m * n)
        )
        m_eff, n_eff, k_eff = structure.gemm_dims(m_bound, k_bound, n_bound, flops_frac)
        efficiency = self.machine.gemm_efficiency * self.shape_model.efficiency(
            m_eff, n_eff, k_eff
        )
        compute_time = flops / (self.machine.flops_peak * max(efficiency, 1.0e-3))
        memory_time = bytes_touched / self.machine.memory_bandwidth
        return max(compute_time, memory_time) + self.machine.kernel_launch_overhead

    def op_fetch_time(self, op: "LocalMatmulOp") -> float:
        """Time to fetch the (whole) remote tiles the op depends on."""
        total = 0.0
        if op.a_is_remote:
            total += self.transfer_time(op.a.owner, op.rank, op.a_bytes)
        if op.b_is_remote:
            total += self.transfer_time(op.b.owner, op.rank, op.b_bytes)
        return total

    def op_accumulate_time(self, op: "LocalMatmulOp") -> float:
        if op.c_is_remote:
            return self.accumulate_time(op.rank, op.c.owner, op.c_bytes)
        return self.local_accumulate_time(op.c_bytes)

    # ------------------------------------------------------------------ #
    # schedule-level estimates
    # ------------------------------------------------------------------ #
    def estimate_op_list(self, ops: Sequence["LocalMatmulOp"]) -> float:
        """Optimistic overlap-aware estimate of one rank's execution time.

        Communication and computation overlap perfectly in the limit, so the
        rank needs at least ``max(total_compute, total_fetch)``; remote
        accumulates ride on a separate engine and add the same way; a small
        serial term accounts for the pipeline fill of the first fetch.
        """
        if not ops:
            return 0.0
        compute = sum(self.op_compute_time(op) for op in ops)
        fetch = sum(self.op_fetch_time(op) for op in ops)
        accumulate = sum(
            self.accumulate_time(op.rank, op.c.owner, op.c_bytes)
            for op in ops
            if op.c_is_remote
        )
        local_accumulate = sum(
            self.local_accumulate_time(op.c_bytes) for op in ops if not op.c_is_remote
        )
        pipeline_fill = self.op_fetch_time(ops[0])
        return max(compute + local_accumulate, fetch, accumulate) + pipeline_fill

    def estimate_op_lists(self, per_rank_ops: Mapping[int, Sequence["LocalMatmulOp"]]) -> float:
        """Estimated makespan: the slowest rank's estimate."""
        if not per_rank_ops:
            return 0.0
        return max(self.estimate_op_list(ops) for ops in per_rank_ops.values())

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def percent_of_peak(self, total_flops: float, elapsed: float) -> float:
        """Achieved fraction of the machine's aggregate FP32 peak, as a percentage."""
        if elapsed <= 0.0:
            return 0.0
        achieved = total_flops / elapsed
        return 100.0 * achieved / self.machine.total_peak()
