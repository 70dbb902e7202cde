"""Lowering priced op rows to the optimized IR (paper Section 4.3).

Three strategies are provided, matching the paper:

* **greedy** — in each output IR op, schedule any compute whose dependencies
  are satisfied (up to the compute limit), then any outstanding communication
  (up to the communication limit).
* **cost-greedy** — the same loop, but the priced durations decide *which*
  compute and communication to pick: computes are ordered longest-first to
  keep the pipe full, communications by how much compute time they unlock
  per second of transfer.
* **exhaustive** — enumerate candidate op orderings, evaluate each complete
  schedule with :func:`~repro.core.schedule_sim.estimate_program_time`, and
  keep the cheapest.  The search space is
  factorial, so it is only attempted when the number of orderings fits under
  ``exhaustive_search_limit``; otherwise it falls back to cost-greedy (the
  paper likewise only applies it to small problems).

Every duration comes from the :class:`~repro.core.graph.ComputationGraph`,
which carries the rank's rows as :class:`~repro.core.cost_model.CostModel`
priced them; the lowering makes no cost-model call of its own.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.core.config import ExecutionConfig, LoweringStrategy
from repro.core.graph import ComputationGraph, DataKey
from repro.core.ir import IRCommOp, IRComputeOp, IRProgram, IRStep
from repro.util.validation import SchedulingError


def lower_to_ir(
    graph: ComputationGraph,
    config: Optional[ExecutionConfig] = None,
    strategy: Optional[LoweringStrategy] = None,
) -> IRProgram:
    """Lower one rank's computation graph to an IR program."""
    config = config or ExecutionConfig()
    strategy = strategy or config.lowering
    if strategy is LoweringStrategy.GREEDY:
        return _greedy_lowering(graph, config, by_cost=False)
    if strategy is LoweringStrategy.COST_GREEDY:
        return _greedy_lowering(graph, config, by_cost=True)
    if strategy is LoweringStrategy.EXHAUSTIVE:
        return _exhaustive_lowering(graph, config)
    raise SchedulingError(f"unknown lowering strategy {strategy!r}")


def lower_all_ranks(
    cols: Mapping[str, np.ndarray],
    config: Optional[ExecutionConfig] = None,
    strategy: Optional[LoweringStrategy] = None,
) -> Dict[int, IRProgram]:
    """Lower every rank of priced table columns, returning ``{rank: IRProgram}``.

    Each rank's ops are its rows, in row order (see
    :meth:`ComputationGraph.build`).
    """
    return {rank: lower_to_ir(ComputationGraph.build(rank, cols), config, strategy)
            for rank in np.unique(cols["rank"]).tolist()}


def _comm(graph: ComputationGraph, key: DataKey) -> IRCommOp:
    node = graph.data_nodes[key]
    return IRCommOp(data=key, owner=node.owner, nbytes=node.nbytes, seconds=node.fetch)


# ---------------------------------------------------------------------- #
# greedy / cost-greedy
# ---------------------------------------------------------------------- #
def _greedy_lowering(graph: ComputationGraph, config: ExecutionConfig,
                     by_cost: bool) -> IRProgram:
    program = IRProgram(rank=graph.rank)
    satisfied: Set[DataKey] = set(graph.initially_satisfied)
    in_flight: Set[DataKey] = set()
    pending: List[int] = list(range(graph.num_ops))
    comm_limit = max(1, config.prefetch_depth) * 2  # A and B per lookahead slot

    # Guard against infinite loops: every iteration must make progress.
    while pending or in_flight:
        # Communication issued in earlier steps is now satisfied.
        satisfied |= in_flight
        in_flight = set()

        ready = [index for index in pending if graph.is_ready(index, satisfied)]
        if by_cost:
            ready.sort(key=lambda index: graph.gemm[index], reverse=True)
        computes = ready[: config.max_concurrent_gemms]

        # Candidate communications: unsatisfied deps of remaining pending ops,
        # in op order (greedy) or by unlocked-compute-per-transfer-second
        # (cost-greedy).
        remaining = [index for index in pending if index not in computes]
        candidates: List[DataKey] = []
        seen: Set[DataKey] = set()
        for index in remaining:
            for key in graph.unsatisfied_deps(index, satisfied):
                if key not in seen:
                    seen.add(key)
                    candidates.append(key)

        if by_cost and candidates:
            def priority(key: DataKey) -> float:
                transfer = max(graph.data_nodes[key].fetch, 1.0e-9)
                unlocked = sum(graph.gemm[i] for i in graph.ops_depending_on(key))
                return unlocked / transfer

            candidates.sort(key=priority, reverse=True)

        comms = [_comm(graph, key) for key in candidates[:comm_limit]]

        if not computes and not comms:
            raise SchedulingError(
                f"greedy lowering for rank {graph.rank} made no progress with "
                f"{len(pending)} ops pending"
            )

        program.steps.append(
            IRStep(computes=[IRComputeOp(op_index=i) for i in computes], comms=comms)
        )
        in_flight = {comm.data for comm in comms}
        pending = [index for index in pending if index not in computes]

    return program


# ---------------------------------------------------------------------- #
# exhaustive search
# ---------------------------------------------------------------------- #
def _schedule_from_order(
    graph: ComputationGraph, order: Sequence[int], config: ExecutionConfig
) -> IRProgram:
    """Build a pipelined schedule that executes ops in the given order.

    Step ``s`` computes op ``order[s]`` while fetching the data needed by the
    next op(s), which is the canonical software-pipelining shape the
    exhaustive search explores orderings of.
    """
    program = IRProgram(rank=graph.rank)
    satisfied: Set[DataKey] = set(graph.initially_satisfied)
    fetched: Set[DataKey] = set(graph.initially_satisfied)
    lookahead = max(1, config.prefetch_depth)

    # Pre-step: fetch whatever the first op needs.
    first_needs = [key for key in graph.dependencies[order[0]] if key not in fetched]
    if first_needs:
        program.steps.append(IRStep(comms=[_comm(graph, key) for key in first_needs]))
        fetched |= set(first_needs)
        satisfied |= set(first_needs)

    for position, op_index in enumerate(order):
        comms: List[IRCommOp] = []
        for ahead in range(1, lookahead + 1):
            if position + ahead < len(order):
                upcoming = order[position + ahead]
                for key in graph.dependencies[upcoming]:
                    if key not in fetched:
                        comms.append(_comm(graph, key))
                        fetched.add(key)
        program.steps.append(
            IRStep(computes=[IRComputeOp(op_index=op_index)], comms=comms)
        )
    return program


def _exhaustive_lowering(graph: ComputationGraph, config: ExecutionConfig) -> IRProgram:
    from repro.core.schedule_sim import estimate_program_time

    num_ops = graph.num_ops
    if num_ops == 0:
        return IRProgram(rank=graph.rank)

    num_orderings = 1
    for value in range(2, num_ops + 1):
        num_orderings *= value
        if num_orderings > config.exhaustive_search_limit:
            break

    if num_orderings > config.exhaustive_search_limit:
        # Too large to enumerate: fall back to the cost-model greedy result,
        # which the paper found to be nearly optimal anyway.
        return _greedy_lowering(graph, config, by_cost=True)

    best_program: Optional[IRProgram] = None
    best_cost = float("inf")
    for order in itertools.permutations(range(num_ops)):
        program = _schedule_from_order(graph, order, config)
        cost = estimate_program_time(program, graph)
        if cost < best_cost:
            best_cost = cost
            best_program = program
    assert best_program is not None
    return best_program
