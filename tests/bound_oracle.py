"""Test oracle: the planner's pruning bounds as scalar op-list loops.

The planner prices its bounds with :class:`repro.sim.batch.BatchEvaluator`:
a vectorized occupancy pass over the slicing table and a memoized fold of
the relaxed replay.  This module computes the same two bounds the plain way,
from ``LocalMatmulOp`` lists of the paper-loop oracle
(``tests/slicing_oracle.py``), priced by the scalar pricing oracle
(``tests/pricing_oracle.py``):

* :func:`direct_lower_bound` sums every engine's occupancy per device;
* :func:`critical_path_lower_bound` replays the op lists on the relaxed
  (contention-free) engine with the object-walk oracle
  (``tests/direct_oracle.py``), floored by the occupancy bound;
* :func:`candidate_lower_bound` builds one candidate's op lists and adds the
  replica-reduction term, as the evaluator's bounds do.

The property suites hold the evaluator's bounds ``==`` to these, and hold
the pruned search's answer ``==`` to :func:`exhaustive_ranking`, which
simulates every candidate with no bound at all.  Import it
as ``tests.bound_oracle`` (run pytest from the repository root).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.schemes import ua_schemes
from repro.bench.sweep import run_ua_point, valid_replication_factors
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel
from repro.core.ops import LocalMatmulOp
from repro.core.stationary import parse_stationary
from repro.core.structure import ROLE_A, ROLE_B, WorkloadStructure, resolve_structure
from repro.dist.matrix import DistributedMatrix
from repro.planner.search import enumerate_candidates
from repro.runtime.runtime import Runtime
from repro.topology.machines import MachineSpec
from repro.util.validation import float_dtype
from tests.direct_oracle import OracleExecutor
from tests.engine_oracle import OracleEngine
from tests.pricing_oracle import (
    accumulate_time,
    device_link_time,
    local_accumulate_time,
    reduce_time,
    structured_op_compute_time,
    transfer_time,
)
from tests.slicing_oracle import apply_iteration_offset, oracle_all_ops, prune_structured_ops
from tests import structure_oracle as geometry

#: The engine-occupancy bound: per-engine summed busy time.
BOUND_OCCUPANCY = "occupancy"
#: The event-DAG bound: relaxed-engine makespan, floored by occupancy.
BOUND_CRITICAL_PATH = "critical_path"


def direct_lower_bound(
    cost_model: CostModel,
    a: DistributedMatrix,
    b: DistributedMatrix,
    c: DistributedMatrix,
    per_rank_ops: Mapping[int, Sequence[LocalMatmulOp]],
    cache_remote_tiles: bool = True,
    structure: Optional[WorkloadStructure] = None,
) -> float:
    """An occupancy lower bound on the direct executor's makespan.

    The direct executor reserves, per device,

    * every GEMM and local accumulate on the compute engine,
    * every remote-tile fetch on the reader's copy engine (deduplicated
      when ``cache_remote_tiles`` is on, exactly as the executor does),
    * every remote accumulate on the initiator's accumulate engine,
    * the shared ingress (accumulate fan-in) and egress (fetch fan-out)
      occupancies on the destination/source device,

    and engine reservations never overlap, so each device finishes no
    earlier than any single engine's summed occupancy.  The makespan is the
    slowest device, hence the max-of-max below.  ``structure`` scales every
    term as the executor's event stream does; pass the same *filtered* op
    lists the executor runs.
    """
    structure = resolve_structure(structure)
    num_devices = cost_model.machine.num_devices
    compute = [0.0] * num_devices
    copy = [0.0] * num_devices
    accumulate = [0.0] * num_devices
    ingress = [0.0] * num_devices
    egress = [0.0] * num_devices
    tile_bytes: Dict[tuple, float] = {}

    def full_tile_bytes(label: str, matrix, tile_idx) -> float:
        key = (label, tile_idx)
        if key not in tile_bytes:
            bounds = matrix.tile_bounds(tile_idx)
            nbytes = bounds.size * matrix.dtype.itemsize
            if structure is not None:
                nbytes *= geometry.live_fraction(structure, label, bounds.rows, bounds.cols)
            tile_bytes[key] = nbytes
        return tile_bytes[key]

    for rank, ops in per_rank_ops.items():
        fetched: set = set()
        for op in ops:
            if structure is None:
                fractions = None
                c_bytes = op.c_bytes
            else:
                fractions = geometry.op_fractions(structure, op.m_bound, op.k_bound,
                                                  op.n_bound)
                c_bytes = op.c_bytes * fractions[3]
            compute[rank] += structured_op_compute_time(cost_model, op, structure,
                                                        fractions)
            if op.c_is_remote:
                accumulate[rank] += accumulate_time(cost_model, rank, op.c.owner, c_bytes)
                ingress[op.c.owner] += device_link_time(cost_model, c_bytes,
                                                        accumulate=True)
            else:
                compute[rank] += local_accumulate_time(cost_model, c_bytes)
            for label, matrix, ref in ((ROLE_A, a, op.a), (ROLE_B, b, op.b)):
                if ref.owner == rank:
                    continue
                cache_key = (label, ref.replica, ref.index)
                if cache_remote_tiles and cache_key in fetched:
                    continue
                fetched.add(cache_key)
                nbytes = full_tile_bytes(label, matrix, ref.index)
                copy[rank] += transfer_time(cost_model, ref.owner, rank, nbytes)
                egress[ref.owner] += device_link_time(cost_model, nbytes)

    per_device = (
        max(compute[d], copy[d], accumulate[d], ingress[d], egress[d])
        for d in range(num_devices)
    )
    return max(per_device, default=0.0)


def critical_path_lower_bound(
    cost_model: CostModel,
    a: DistributedMatrix,
    b: DistributedMatrix,
    c: DistributedMatrix,
    per_rank_ops: Mapping[int, Sequence[LocalMatmulOp]],
    config: Optional[ExecutionConfig] = None,
    structure: Optional[WorkloadStructure] = None,
) -> float:
    """A critical-path lower bound on the direct executor's makespan.

    Replays the executor's event stream — same ops, same order, same
    per-rank fetch/gemm/accumulate chains and engine queues — on a *relaxed*
    engine with every cross-device floor removed, so every relaxed event
    ends no later than its contended counterpart.  The occupancy bound is
    taken as a floor.  ``per_rank_ops`` must be in *execution* order: apply
    the iteration offset first when the config enables it.
    """
    config = (config or ExecutionConfig(simulate_only=True)).evolve(simulate_only=True)
    engine = OracleEngine(cost_model.machine.num_devices, contention=False)
    OracleExecutor(a, b, c, cost_model, config=config, engine=engine,
                   structure=structure).execute(
        {rank: list(ops) for rank, ops in per_rank_ops.items()})
    occupancy = direct_lower_bound(cost_model, a, b, c, per_rank_ops,
                                   cache_remote_tiles=config.cache_remote_tiles,
                                   structure=structure)
    return max(engine.makespan(), occupancy)


def candidate_lower_bound(
    machine: MachineSpec,
    workload: Workload,
    candidate,
    config: Optional[ExecutionConfig] = None,
    bound: str = BOUND_CRITICAL_PATH,
    itemsize: int = 4,
) -> float:
    """One search candidate's bound plus its replica-reduction term.

    ``candidate`` is a :class:`repro.planner.search.Candidate`; ``bound`` is
    :data:`BOUND_OCCUPANCY` or :data:`BOUND_CRITICAL_PATH`.  Fully masked ops
    of a structured workload are dropped first, as the simulation drops
    them, and the critical-path replay sees the execution order.
    """
    if bound not in (BOUND_OCCUPANCY, BOUND_CRITICAL_PATH):
        raise ValueError(f"unknown bound {bound!r}")
    config = config or ExecutionConfig(simulate_only=True)
    a, b, c = candidate.scheme.build_operands(
        Runtime(machine=machine), workload, candidate.replication,
        float_dtype(itemsize), materialize=False)
    per_rank_ops = oracle_all_ops(a, b, c, parse_stationary(candidate.stationary))
    structure = resolve_structure(workload.structure)
    if structure is not None:
        per_rank_ops = prune_structured_ops(per_rank_ops, structure)
    cost_model = CostModel(machine)
    if bound == BOUND_CRITICAL_PATH:
        if config.iteration_offset:
            per_rank_ops = {rank: apply_iteration_offset(ops)
                            for rank, ops in per_rank_ops.items()}
        value = critical_path_lower_bound(cost_model, a, b, c, per_rank_ops, config,
                                          structure=structure)
    else:
        value = direct_lower_bound(cost_model, a, b, c, per_rank_ops,
                                   cache_remote_tiles=config.cache_remote_tiles,
                                   structure=structure)
    return value + reduce_time(cost_model, c, structure=structure)


def exhaustive_ranking(
    machine: MachineSpec,
    workload: Workload,
    top_k: int = 1,
    config: Optional[ExecutionConfig] = None,
    itemsize: int = 4,
) -> List[Tuple]:
    """The top ``top_k`` of ``search_partitionings``'s default design space,
    found by simulating every candidate with ``run_ua_point``.

    Ranked by (-percent_of_peak, enumeration index); each entry is
    (scheme name, replication, stationary, percent_of_peak, simulated_time,
    memory_per_device).
    """
    candidates, _ = enumerate_candidates(
        machine, workload, machine.memory_capacity, ua_schemes(),
        valid_replication_factors(machine.num_devices), ("A", "B", "C"), itemsize)
    ranked = []
    for candidate in candidates:
        point = run_ua_point(machine, workload, candidate.scheme, candidate.replication,
                             candidate.stationary, config, itemsize)
        ranked.append(((-point.percent_of_peak, candidate.index),
                       (candidate.scheme.name, candidate.replication,
                        candidate.stationary, point.percent_of_peak,
                        point.simulated_time, candidate.memory_per_device)))
    ranked.sort(key=lambda pair: pair[0])
    return [entry for _, entry in ranked[:top_k]]


def as_ranking(recommendations) -> List[Tuple]:
    """Recommendations in :func:`exhaustive_ranking`'s entry format."""
    return [(rec.scheme.name, rec.replication, rec.stationary, rec.percent_of_peak,
             rec.simulated_time, rec.memory_per_device) for rec in recommendations]
