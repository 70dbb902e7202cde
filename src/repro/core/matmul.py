"""Top-level entry point: the universal one-sided distributed matrix multiply.

:func:`universal_matmul` ties the pieces together exactly as Section 4 of the
paper describes:

1. pick a data-movement strategy (Stationary A/B/C) — by the largest-matrix
   heuristic, by the cost model, or as dictated by the caller;
2. have every rank generate its local ops by slicing;
3. price the slicing table once, apply the iteration offset, and execute
   the priced rows either directly (prefetching, asynchronous
   GEMM/accumulate, and the memory pool) or by lowering each rank's rows to
   the optimized IR with one of the scheduling strategies;
4. if C is replicated, reduce the partial results across replicas.

The function returns an :class:`~repro.core.result.ExecutionResult` carrying
the modelled execution time, the percent-of-peak figure used throughout the
paper's evaluation, and communication statistics.  The *data* in C is
genuinely computed, so callers can (and the tests do) compare
``C.to_dense()`` against a NumPy reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.config import ExecutionConfig, ExecutionMode
from repro.core.cost_model import CostModel, tile_fetch_bytes
from repro.core.direct import DirectExecutor
from repro.core.lowering import lower_all_ranks
from repro.core.ops import LocalMatmulOp
from repro.core.result import ExecutionResult
from repro.core.schedule_sim import IRExecutor
from repro.core.slicing import (
    OperandLayout,
    check_coverage,
    generate_all_ops,
    offset_permutation,
    slice_table,
)
from repro.core.stationary import (
    Stationary,
    choose_stationary_by_cost,
    choose_stationary_by_size,
    parse_stationary,
)
from repro.core.structure import (
    ROLE_C,
    WorkloadStructure,
    resolve_structure,
)
from repro.dist.matrix import DistributedMatrix
from repro.util.validation import ShapeError, check_in_range, check_matmul_shapes


def plan_ops(
    a: DistributedMatrix,
    b: DistributedMatrix,
    c: DistributedMatrix,
    stationary: Optional[Union[str, Stationary]] = None,
    cost_model: Optional[CostModel] = None,
) -> Dict[int, List[LocalMatmulOp]]:
    """Generate (but do not execute) the per-rank op lists for a multiply."""
    resolved = _resolve_stationary(a, b, c, stationary, cost_model)
    return generate_all_ops(a, b, c, resolved)


def _resolve_stationary(
    a: DistributedMatrix,
    b: DistributedMatrix,
    c: DistributedMatrix,
    stationary: Optional[Union[str, Stationary]],
    cost_model: Optional[CostModel],
    structure: Optional[WorkloadStructure] = None,
) -> Stationary:
    if stationary is None or (isinstance(stationary, str) and stationary.lower() == "auto"):
        return choose_stationary_by_size(a, b, c)
    if isinstance(stationary, str) and stationary.lower() in ("cost", "auto-cost", "auto_cost"):
        model = cost_model or CostModel(a.runtime.machine)
        return choose_stationary_by_cost(a, b, c, model, structure)
    return parse_stationary(stationary)


def model_reduce_time(c: DistributedMatrix, cost_model: CostModel, origin: int = 0,
                      structure: Optional[WorkloadStructure] = None) -> float:
    """Modelled time of ``reduce_replicas``: incoming accumulates serialise at each origin owner.

    Public because the planner's pruning bound needs the exact same replica
    reduction term that :func:`universal_matmul` adds to its makespan.
    ``structure`` scales each tile to its live bytes (padding rows of a
    ragged C are not reduced); dense structures change nothing.
    """
    replicas = c.replication.num_replicas
    if replicas == 1:
        return 0.0
    # Every (tile, non-origin replica) pair, tile-major: each accumulates the
    # tile into its origin owner, and each owner adds its incoming times in
    # that order (np.bincount sums its weights sequentially).  Replica r's
    # copy of a tile lives on rank r * ranks_per_replica + its position.
    owners = (np.arange(replicas) * c.replication.ranks_per_replica
              + c._owners.reshape(-1, 1))
    others = [replica for replica in range(replicas) if replica != origin]
    dst = np.repeat(owners[:, origin], len(others))
    nbytes = np.repeat(tile_fetch_bytes(c, ROLE_C, resolve_structure(structure)),
                       len(others))
    times = cost_model.accumulate_time(owners[:, others].reshape(-1), dst, nbytes)
    return float(np.bincount(dst, weights=times).max(initial=0.0))


def universal_matmul(
    a: DistributedMatrix,
    b: DistributedMatrix,
    c: DistributedMatrix,
    stationary: Optional[Union[str, Stationary]] = None,
    config: Optional[ExecutionConfig] = None,
    cost_model: Optional[CostModel] = None,
    reduce_origin: int = 0,
    structure: Optional[WorkloadStructure] = None,
) -> ExecutionResult:
    """Compute ``C += A @ B`` for distributed matrices with any partitionings.

    Parameters
    ----------
    a, b, c:
        Distributed operands.  ``c`` is accumulated into (callers wanting a
        plain product should zero it first); any combination of partitionings
        and replication factors is accepted.
    stationary:
        ``None``/"auto" (largest matrix stays put), "cost" (cost-model
        selection), or an explicit :class:`Stationary`/"A"/"B"/"C".
    config:
        Execution configuration (direct vs IR, prefetch depth, concurrency
        limits, ...).  Defaults to the paper's direct-execution settings.
    cost_model:
        Cost model used for timing; defaults to one built from the runtime's
        machine spec.
    reduce_origin:
        Replica of C that ends up holding ``C + A @ B`` (the other replicas
        hold partial sums); must index one of C's replicas.
    structure:
        Optional :class:`~repro.core.structure.WorkloadStructure` describing
        which parts of the envelope are live (block-sparse B, MoE-ragged m).
        Non-dense structures are time-model only: they require the direct
        execution mode with ``simulate_only=True``, fully masked ops are
        skipped, and every emitted event is scaled to its live work.

    Returns
    -------
    ExecutionResult
        Modelled time, percent of peak, and communication statistics.
    """
    if a.runtime is not b.runtime or a.runtime is not c.runtime:
        raise ShapeError("A, B, and C must live in the same runtime")
    m, n, k = check_matmul_shapes(a.shape, b.shape, c.shape)
    check_in_range(reduce_origin, 0, c.replication.num_replicas, "reduce_origin")
    config = config or ExecutionConfig()
    cost_model = cost_model or CostModel(a.runtime.machine)
    structure = resolve_structure(structure)
    if structure is not None:
        structure.validate(m, n, k)
        if config.mode is not ExecutionMode.DIRECT:
            raise ValueError(
                "structured workloads are only supported under the direct "
                "execution mode (the IR lowering prices dense envelopes)"
            )
        if not config.simulate_only:
            raise ValueError(
                "structured workloads are time-model only: use "
                "ExecutionConfig(simulate_only=True)"
            )

    resolved = _resolve_stationary(a, b, c, stationary, cost_model, structure)
    if config.validate_ops:
        # Coverage is an envelope invariant, so it is checked before the
        # structure drops the all-masked ops.
        check_coverage(a, b, c, generate_all_ops(a, b, c, resolved))
    if c.replication.num_replicas > 1 and not config.simulate_only:
        # Every replica starts as a copy of C, and the reduction sums them
        # all: only the origin keeps C's contents.  Out of band, no time.
        for idx in c.grid.tiles():
            for replica in range(c.replication.num_replicas):
                if replica != reduce_origin:
                    c.tile(idx, replica).fill(0)

    direct = config.mode is ExecutionMode.DIRECT
    executor = (DirectExecutor(a, b, c, cost_model, config, structure=structure) if direct
                else IRExecutor(a, b, c, cost_model, config))
    cols = executor.price(slice_table([(OperandLayout(a), OperandLayout(b),
                                        OperandLayout(c), resolved)]))
    if config.iteration_offset:
        order = offset_permutation(cols["rank"], cols["stat_i"], cols["stat_j"])
        cols = {name: column[order] for name, column in cols.items()}
    if direct:
        makespan, per_rank_stats = executor.execute_columns(cols)
        lowering_name = None
    else:
        makespan, per_rank_stats = executor.execute(cols, lower_all_ranks(cols, config))
        lowering_name = config.lowering.value

    reduce_time = 0.0
    if c.replication.num_replicas > 1:
        if not config.simulate_only:
            c.reduce_replicas(origin_idx=reduce_origin)
        reduce_time = model_reduce_time(c, cost_model, reduce_origin,
                                        structure=structure)

    total_flops = 2 * m * n * k if structure is None else structure.effective_flops(m, n, k)
    simulated_time = makespan + reduce_time
    result = ExecutionResult(
        stationary=resolved,
        total_flops=total_flops,
        simulated_time=simulated_time,
        compute_makespan=makespan,
        reduce_time=reduce_time,
        percent_of_peak=cost_model.percent_of_peak(total_flops, simulated_time),
        total_ops=sum(s.num_ops for s in per_rank_stats.values()),
        remote_get_bytes=sum(s.remote_get_bytes for s in per_rank_stats.values()),
        remote_accumulate_bytes=sum(
            s.remote_accumulate_bytes for s in per_rank_stats.values()
        ),
        per_rank=per_rank_stats,
        mode=config.mode.value,
        lowering=lowering_name,
        metadata={
            "m": m,
            "n": n,
            "k": k,
            "replication": {
                "A": a.replication.factor,
                "B": b.replication.factor,
                "C": c.replication.factor,
            },
            "partitions": {
                "A": a.partition.name,
                "B": b.partition.name,
                "C": c.partition.name,
            },
        },
    )
    if structure is not None:
        result.metadata["structure"] = structure.to_dict()
    return result
