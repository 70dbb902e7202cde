"""Test oracle: the cost model's pricing rules as scalar, one-op-at-a-time functions.

:class:`repro.core.cost_model.CostModel` writes every pricing formula once,
over arrays, and the library prices whole slicing-table columns with it.
This module keeps the plain scalar form of the same rules -- Python floats,
one call per op, the ``LocalMatmulOp`` helpers and the per-rank
overlap-aware estimate -- so the property suites can hold the array pricer
``==`` to an independent implementation.  Every function takes the
``CostModel`` only for its machine, topology and shape model.  Import it as
``tests.pricing_oracle`` (run pytest from the repository root).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.cost_model import CostModel, GemmShapeModel
from repro.core.ops import LocalMatmulOp
from repro.core.structure import ROLE_C, WorkloadStructure, resolve_structure
from repro.dist.matrix import DistributedMatrix
from repro.util.indexing import Interval
from tests import structure_oracle as geometry


# ---------------------------------------------------------------------- #
# compute
# ---------------------------------------------------------------------- #
def efficiency(shape: GemmShapeModel, m: float, n: float, k: float) -> float:
    """``GemmShapeModel.efficiency``: a saturating factor per dimension."""
    if m <= 0 or n <= 0 or k <= 0:
        return 1.0
    factor_m = m / (m + shape.m_half)
    factor_n = n / (n + shape.n_half)
    factor_k = k / (k + shape.k_half)
    return factor_m * factor_n * factor_k


def gemm_time(model: CostModel, m: int, n: int, k: int, itemsize: int = 4) -> float:
    """Roofline estimate of one local GEMM of shape (m x k) @ (k x n)."""
    if m <= 0 or n <= 0 or k <= 0:
        return 0.0
    machine = model.machine
    flops = 2.0 * m * n * k
    bytes_touched = float(itemsize) * (m * k + k * n + 2 * m * n)
    eff = machine.gemm_efficiency * efficiency(model.shape_model, m, n, k)
    compute_time = flops / (machine.flops_peak * max(eff, 1.0e-3))
    memory_time = bytes_touched / machine.memory_bandwidth
    return max(compute_time, memory_time) + machine.kernel_launch_overhead


def live_gemm_time(model: CostModel, m_bound: Interval, k_bound: Interval,
                   n_bound: Interval, itemsize: int, structure: WorkloadStructure,
                   fractions: Optional[Tuple[float, float, float, float]] = None) -> float:
    """Roofline time of one cuboid's *live* GEMM under a workload structure.

    Flops and bytes are scaled by the cuboid's live fractions, and the shape
    efficiency is evaluated at the live effective dimensions.
    """
    if fractions is None:
        fractions = geometry.op_fractions(structure, m_bound, k_bound, n_bound)
    flops_frac, a_frac, b_frac, c_frac = fractions
    if flops_frac <= 0.0:
        return 0.0
    machine = model.machine
    m, n, k = m_bound.extent, n_bound.extent, k_bound.extent
    flops = 2.0 * m * n * k * flops_frac
    bytes_touched = float(itemsize) * (
        a_frac * (m * k) + b_frac * (k * n) + 2.0 * c_frac * (m * n)
    )
    m_eff, n_eff, k_eff = geometry.gemm_dims(structure, m_bound, k_bound, n_bound,
                                             flops_frac)
    eff = machine.gemm_efficiency * efficiency(model.shape_model, m_eff, n_eff, k_eff)
    compute_time = flops / (machine.flops_peak * max(eff, 1.0e-3))
    memory_time = bytes_touched / machine.memory_bandwidth
    return max(compute_time, memory_time) + machine.kernel_launch_overhead


def local_accumulate_time(model: CostModel, nbytes: float) -> float:
    """Add a temporary result into a locally owned tile (memory bound)."""
    if nbytes <= 0:
        return 0.0
    machine = model.machine
    return 3.0 * nbytes / machine.memory_bandwidth + machine.kernel_launch_overhead


# ---------------------------------------------------------------------- #
# communication
# ---------------------------------------------------------------------- #
def transfer_time(model: CostModel, src: int, dst: int, nbytes: float) -> float:
    """A one-sided get/put of ``nbytes`` from ``src`` to ``dst``."""
    if nbytes <= 0 or src == dst:
        return 0.0
    return model.topology.transfer_time(src, dst, nbytes)


def device_link_time(model: CostModel, nbytes: float, accumulate: bool = False) -> float:
    """Occupancy of a device's aggregate ingress/egress capacity."""
    if nbytes <= 0:
        return 0.0
    machine = model.machine
    time = nbytes / machine.device_link_bandwidth
    if accumulate:
        time /= max(machine.accumulate_efficiency, 1.0e-6)
    return time


def accumulate_time(model: CostModel, src: int, dst: int, nbytes: float) -> float:
    """A one-sided remote accumulate: a kernel at accumulate efficiency."""
    if nbytes <= 0 or src == dst:
        return 0.0
    machine = model.machine
    latency = model.topology.latency(src, dst)
    payload = model.topology.transfer_time(src, dst, nbytes) - latency
    return (
        machine.kernel_launch_overhead
        + latency
        + payload / max(machine.accumulate_efficiency, 1.0e-6)
    )


# ---------------------------------------------------------------------- #
# op-level helpers
# ---------------------------------------------------------------------- #
def op_compute_time(model: CostModel, op: LocalMatmulOp) -> float:
    return gemm_time(model, op.m, op.n, op.k, op.itemsize)


def structured_op_compute_time(
    model: CostModel,
    op: LocalMatmulOp,
    structure: Optional[WorkloadStructure],
    fractions: Optional[Tuple[float, float, float, float]] = None,
) -> float:
    """One op's GEMM time: dense, or its live GEMM under a structure."""
    if structure is None or structure.is_dense:
        return op_compute_time(model, op)
    return live_gemm_time(model, op.m_bound, op.k_bound, op.n_bound, op.itemsize,
                          structure, fractions)


def op_fetch_time(model: CostModel, op: LocalMatmulOp) -> float:
    """Time to fetch the remote slices the op reads."""
    total = 0.0
    if op.a_is_remote:
        total += transfer_time(model, op.a.owner, op.rank, op.a_bytes)
    if op.b_is_remote:
        total += transfer_time(model, op.b.owner, op.rank, op.b_bytes)
    return total


def op_accumulate_time(model: CostModel, op: LocalMatmulOp) -> float:
    if op.c_is_remote:
        return accumulate_time(model, op.rank, op.c.owner, op.c_bytes)
    return local_accumulate_time(model, op.c_bytes)


# ---------------------------------------------------------------------- #
# schedule-level estimates
# ---------------------------------------------------------------------- #
def estimate_op_list(model: CostModel, ops: Sequence[LocalMatmulOp]) -> float:
    """Optimistic overlap-aware estimate of one rank's execution time.

    The rank needs at least ``max(compute, fetch, remote accumulate)``, plus
    the first op's fetch as the pipeline fill.
    """
    if not ops:
        return 0.0
    compute = sum(op_compute_time(model, op) for op in ops)
    fetch = sum(op_fetch_time(model, op) for op in ops)
    accumulate = sum(
        accumulate_time(model, op.rank, op.c.owner, op.c_bytes)
        for op in ops
        if op.c_is_remote
    )
    local_accumulate = sum(
        local_accumulate_time(model, op.c_bytes) for op in ops if not op.c_is_remote
    )
    pipeline_fill = op_fetch_time(model, ops[0])
    return max(compute + local_accumulate, fetch, accumulate) + pipeline_fill


def estimate_op_lists(model: CostModel,
                      per_rank_ops: Mapping[int, Sequence[LocalMatmulOp]]) -> float:
    """Estimated makespan: the slowest rank's estimate."""
    if not per_rank_ops:
        return 0.0
    return max(estimate_op_list(model, ops) for ops in per_rank_ops.values())


def reduce_time(model: CostModel, c: DistributedMatrix, origin: int = 0,
                structure: Optional[WorkloadStructure] = None) -> float:
    """``model_reduce_time`` as a loop: accumulates serialise per origin owner."""
    if c.replication.num_replicas == 1:
        return 0.0
    structure = resolve_structure(structure)
    per_owner: Dict[int, float] = {}
    for tile_idx in c.grid.tiles():
        bounds = c.tile_bounds(tile_idx)
        nbytes = bounds.size * c.dtype.itemsize
        if structure is not None:
            nbytes *= geometry.live_fraction(structure, ROLE_C, bounds.rows, bounds.cols)
        dst_owner = c.owner_rank(tile_idx, origin)
        for replica in range(c.replication.num_replicas):
            if replica == origin:
                continue
            src_owner = c.owner_rank(tile_idx, replica)
            per_owner[dst_owner] = per_owner.get(dst_owner, 0.0) + accumulate_time(
                model, src_owner, dst_owner, nbytes)
    return max(per_owner.values(), default=0.0)
