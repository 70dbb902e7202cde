"""Cost model: roofline compute estimates plus bandwidth-based communication.

Section 4.3 of the paper: "The computation cost we estimate using a simple
Roofline model based on the matrix tile size as well as our GPU's arithmetic
peak and memory bandwidth peak.  Communication cost we can estimate by taking
the number of bytes that must be fetched in each communication operation and
dividing it by the bandwidth available between the process and remote tile."

:class:`CostModel` writes each of those formulas once, elementwise over
NumPy arrays (a scalar argument prices one event).  It is the only pricer in
the library: :meth:`CostModel.event_columns` and :meth:`CostModel.price_rows`
turn the rows of :func:`repro.core.slicing.slice_table` into per-op
durations, and the direct executor, the IR lowering and executor, the
planner's batch evaluator and the cost-based Stationary A/B/C choice all read
those columns.  The scalar, one-op-at-a-time form of the same rules is the
test oracle ``tests/pricing_oracle.py``; the property suites hold the two
``==``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.structure import WorkloadStructure
from repro.topology.machines import MachineSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dist.matrix import DistributedMatrix

#: Version of the pricing rules below.  Bump whenever a formula, calibration
#: constant, or engine discipline changes in a way that can move simulated
#: times: the persistent plan store invalidates entries stamped with a
#: different fingerprint, so stale plans are never served after a model change.
COST_MODEL_VERSION = 2


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

    def efficiency(self, m, n, k) -> np.ndarray:
        """The efficiency factor, elementwise; 1 where any dimension is empty."""
        return np.where((m <= 0) | (n <= 0) | (k <= 0), 1.0,
                        (m / (m + self.m_half)) * (n / (n + self.n_half))
                        * (k / (k + self.k_half)))


def tile_fetch_bytes(matrix: "DistributedMatrix", role: str,
                     structure: Optional[WorkloadStructure] = None) -> np.ndarray:
    """Bytes of each tile, per flat (row-major) tile index.

    What one fetch (A, B) or one replica accumulate (C) of the tile moves:
    ints for dense tiles; under a structure only the live fraction moves
    (masked B blocks and padding rows are never sent).
    """
    grid = matrix.grid
    itemsize = matrix.dtype.itemsize
    rows, cols = grid.row_splits, grid.col_splits
    if structure is None:
        return np.multiply.outer([stop - start for start, stop in zip(rows, rows[1:])],
                                 [(stop - start) * itemsize
                                  for start, stop in zip(cols, cols[1:])]).ravel()
    rows, cols = np.asarray(rows), np.asarray(cols)
    # Every (row band, column band) rectangle, row-major.
    r0, r1 = (np.repeat(bounds, cols.size - 1) for bounds in (rows[:-1], rows[1:]))
    c0, c1 = (np.tile(bounds, rows.size - 1) for bounds in (cols[:-1], cols[1:]))
    return (r1 - r0) * (c1 - c0) * itemsize * structure.live_fractions(role, r0, r1, c0, c1)


def _stack_distinct(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
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


class CostModel:
    """Prices compute, communication, and accumulation on a given machine.

    Every pricing method works elementwise: pass arrays to price many
    events in one call, or scalars to price one (the result is then a 0-d
    array; wrap it in ``float`` where a Python float is needed).
    """

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
    def roofline(self, flops, bytes_touched, m, n, k) -> np.ndarray:
        """Launch overhead plus the slower of compute and memory time.

        Compute runs at the machine's GEMM efficiency scaled by the shape
        efficiency of the (m, n, k) the kernel really runs.  The shape
        efficiency rises with each dimension, so pricing ``flops`` at
        dimensions no smaller than a kernel's never overstates its time.
        """
        machine = self.machine
        efficiency = machine.gemm_efficiency * self.shape_model.efficiency(m, n, k)
        compute_time = flops / (machine.flops_peak * np.maximum(efficiency, 1.0e-3))
        memory_time = bytes_touched / machine.memory_bandwidth
        return np.maximum(compute_time, memory_time) + machine.kernel_launch_overhead

    def gemm_time(self, m, n, k, itemsize: int = 4) -> np.ndarray:
        """Roofline estimate of local GEMMs of shape (m x k) @ (k x n)."""
        flops = 2.0 * m * n * k
        bytes_touched = float(itemsize) * (m * k + k * n + 2 * m * n)
        return np.where((m <= 0) | (n <= 0) | (k <= 0), 0.0,
                        self.roofline(flops, bytes_touched, m, n, k))

    def live_gemm_time(self, m, n, k, itemsize: int,
                       fractions: Sequence, dims: Sequence) -> np.ndarray:
        """Roofline time of the *live* GEMMs of (m, n, k) cuboids under a structure.

        ``fractions`` are the cuboids' ``(flops, a, b, c)`` live fractions
        and ``dims`` their effective ``(m, n, k)``, rows 0-3 and 4-6 of
        :meth:`~repro.core.structure.WorkloadStructure.cuboid_terms`.  Flops
        and bytes scale by the fractions, and the shape efficiency is taken
        at the effective dimensions — a ragged expert batch really runs a
        skinnier, less efficient GEMM.  Every scale factor is in ``[0, 1]``,
        so a structured op never prices above its dense envelope (the
        dominance the planner's bounds rely on).
        """
        flops_frac, a_frac, b_frac, c_frac = fractions
        flops = 2.0 * m * n * k * flops_frac
        bytes_touched = float(itemsize) * (
            a_frac * (m * k) + b_frac * (k * n) + 2.0 * c_frac * (m * n)
        )
        return np.where(flops_frac <= 0.0, 0.0, self.roofline(flops, bytes_touched, *dims))

    def local_accumulate_time(self, nbytes) -> np.ndarray:
        """Time to add a temporary result into a locally owned tile (memory bound)."""
        machine = self.machine
        # read partial + read/write destination
        return np.where(nbytes <= 0, 0.0, 3.0 * nbytes / machine.memory_bandwidth
                        + machine.kernel_launch_overhead)

    # ------------------------------------------------------------------ #
    # communication
    # ------------------------------------------------------------------ #
    def _link(self, src, dst, nbytes) -> Tuple[np.ndarray, np.ndarray]:
        """``(latency, latency + nbytes / bandwidth)`` of the ``src -> dst`` links."""
        latency, bandwidth = self.topology.pair_tables()
        # One flat index for both tables: cheaper than two 2-D gathers.
        pair = src * latency.shape[1] + dst
        latency = latency.take(pair)
        return latency, latency + nbytes / bandwidth.take(pair)

    def transfer_time(self, src, dst, nbytes) -> np.ndarray:
        """Time for one-sided gets/puts of ``nbytes`` from ``src`` to ``dst``."""
        _, transfer = self._link(src, dst, nbytes)
        return np.where((nbytes <= 0) | (src == dst), 0.0, transfer)

    def device_link_time(self, nbytes, accumulate: bool = False) -> np.ndarray:
        """Occupancy of a device's aggregate ingress/egress capacity for ``nbytes``.

        The paper's Table 2 quotes per-device unidirectional link bandwidth;
        all traffic entering or leaving one device shares it, which is what
        makes many-to-one fan-in (remote accumulates into one C owner) and
        one-to-many fan-out (everyone fetching the same tile) serialise.
        """
        time = nbytes / self.machine.device_link_bandwidth
        if accumulate:
            time = time / max(self.machine.accumulate_efficiency, 1.0e-6)
        return np.where(nbytes <= 0, 0.0, time)

    def accumulate_time(self, src, dst, nbytes) -> np.ndarray:
        """Time for one-sided remote accumulates from ``src`` into ``dst``.

        Remote accumulates run as a kernel on the initiating device (hence the
        launch overhead) and reach only ``accumulate_efficiency`` of the copy
        bandwidth (the paper measures ~80% on PVC).
        """
        machine = self.machine
        latency, transfer = self._link(src, dst, nbytes)
        return np.where(
            (nbytes <= 0) | (src == dst), 0.0,
            machine.kernel_launch_overhead + latency
            + (transfer - latency) / max(machine.accumulate_efficiency, 1.0e-6))

    # ------------------------------------------------------------------ #
    # slicing-table rows
    # ------------------------------------------------------------------ #
    def event_columns(self, table: Dict[str, np.ndarray],
                      tile_bytes: Sequence[Tuple[np.ndarray, np.ndarray]], itemsize: int,
                      structure: Optional[WorkloadStructure] = None, prune: bool = True
                      ) -> Dict[str, np.ndarray]:
        """Per-op event columns of :func:`repro.core.slicing.slice_table` rows.

        ``tile_bytes`` holds per task the (A, B) :func:`tile_fetch_bytes`;
        ``itemsize`` is C's.  Columns: ``task``, ``rank``, ``m/n/k``,
        ``m0/k0/n0``, ``stat_i/j``, ``c_key/owner/remote/bytes``, ``gemm`` (zero
        on dense rows, which :meth:`price_rows` prices), ``flops``, and
        ``a_``/``b_`` ``owner/key/remote/bytes``.  Under a structure the
        distinct (m, k, n) cuboids of the table are priced in one array pass;
        ``prune`` drops fully masked rows (no flops survive).
        """
        m = table["m1"] - table["m0"]
        n = table["n1"] - table["n0"]
        k = table["k1"] - table["k0"]
        if structure is None:
            c_bytes = m * n * itemsize
            gemm = np.zeros(m.size)
            flops = 2 * m * n * k
        else:
            live, c_bytes, gemm, flops = self._price_cuboids(table, itemsize, structure)
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
            nbytes, at = _stack_distinct([pair[x] for pair in tile_bytes])
            cols.update({f"{side}_owner": owner, f"{side}_key": key,
                         f"{side}_remote": owner != rank,
                         f"{side}_bytes": nbytes[at[task] + key]})
        return cols

    def _price_cuboids(self, table: Dict[str, np.ndarray], itemsize: int,
                       structure: WorkloadStructure):
        """``(live, c_bytes, gemm, flops)`` per row, priced once per distinct cuboid.

        ``live`` is False for fully masked cuboids (no flops survive).  The
        structure's geometry
        (:meth:`~repro.core.structure.WorkloadStructure.cuboid_terms`) and
        the pricing are each one array pass over the distinct cuboids.
        """
        ids = []
        for lo, hi in (("m0", "m1"), ("k0", "k1"), ("n0", "n1")):
            packed = table[lo] * (int(table[hi].max(initial=0)) + 1) + table[hi]
            uniq, inverse = np.unique(packed, return_inverse=True)
            ids.append((uniq.size, inverse.reshape(-1)))
        (_, m_id), (nk, k_id), (nn, n_id) = ids
        _, first, inverse = np.unique((m_id * nk + k_id) * nn + n_id,
                                      return_index=True, return_inverse=True)
        bounds = {name: table[name][first] for name in ("m0", "m1", "k0", "k1", "n0", "n1")}
        # Per cuboid: (flops, a, b, c) live fractions, then effective (m, n, k).
        terms = structure.cuboid_terms(*bounds.values())
        m, n, k = (bounds[f"{axis}1"] - bounds[f"{axis}0"] for axis in "mnk")
        flops_frac, c_frac = terms[0], terms[3]
        # The op's c_bytes (m * n * itemsize) and flops (2 * m * n * k), scaled
        # by their live fractions.
        priced = (flops_frac > 0.0, m * n * itemsize * c_frac,
                  self.live_gemm_time(m, n, k, itemsize, terms[:4], terms[4:]),
                  2 * m * n * k * flops_frac)
        inverse = inverse.reshape(-1)
        return tuple(column[inverse] for column in priced)

    def price_rows(self, cols: Dict[str, np.ndarray], itemsize: int,
                   structure: Optional[WorkloadStructure] = None) -> Dict[str, np.ndarray]:
        """Price :meth:`event_columns` rows with the methods above.

        Returns the ``gemm``, ``acc`` (remote or local accumulate), ``ingress``
        and per side ``fetch``/``egress`` seconds of every row.  Dense GEMMs
        are priced at C's ``itemsize``; structured rows keep the GEMM times
        :meth:`event_columns` priced.
        """
        rank, c_owner, c_bytes = cols["rank"], cols["c_owner"], cols["c_bytes"]
        priced = {
            "gemm": (self.gemm_time(cols["m"], cols["n"], cols["k"], itemsize)
                     if structure is None else cols["gemm"]),
            "acc": np.where(cols["c_remote"], self.accumulate_time(rank, c_owner, c_bytes),
                            self.local_accumulate_time(c_bytes)),
            "ingress": self.device_link_time(c_bytes, accumulate=True),
        }
        for side in ("a", "b"):
            nbytes = cols[f"{side}_bytes"]
            priced[f"{side}_fetch"] = self.transfer_time(cols[f"{side}_owner"], rank, nbytes)
            priced[f"{side}_egress"] = self.device_link_time(nbytes)
        return priced

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def percent_of_peak(self, total_flops: float, elapsed: float) -> float:
        """Achieved fraction of the machine's aggregate FP32 peak, as a percentage."""
        if elapsed <= 0.0:
            return 0.0
        achieved = total_flops / elapsed
        return 100.0 * achieved / self.machine.total_peak()
