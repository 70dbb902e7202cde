"""Joint layout planning over op graphs (linear chains and small DAGs).

The single-op planner picks the best ``(scheme, replication, stationary)``
layout for one matmul in isolation.  Real models run *sequences* of matmuls —
an MLP block is ``X @ W1 @ W2``, attention is QKV projection → score → value —
and the output layout of one op becomes the input layout of the next.  Picking
each op's layout greedily ignores the reshard between consecutive ops: the
per-op winner can force two expensive redistributions that a slightly slower
middle layout would have avoided entirely.

This module plans the whole graph jointly.  Per op it builds a **layout
lattice** (the top-``lattice_size`` recommendations from the existing pruned
search, with their exact simulated times), prices every producer→consumer
layout transition with :func:`repro.dist.redistribute.redistribution_cost`,
and minimizes the end-to-end makespan under the shared critical-path rule
:func:`repro.sim.graphtime.dag_makespan`:

* **Linear chains** are solved exactly by dynamic programming over the layout
  lattice (state = the candidate chosen for op *i*; transition = reshard cost
  plus the next op's simulated time).
* **Small DAGs** are solved by best-first branch-and-bound: partial
  assignments in topological order, bounded by the critical-path makespan of
  the optimistically-completed graph (an admissible bound, so the first
  complete assignment popped is optimal).

Both solvers, the exhaustive test reference, and the greedy baseline all
score assignments through the *same* :func:`assignment_timing` function, so
the reported improvement of joint over greedy is priced consistently.

Quickstart::

    from repro.core.graph import mlp_chain
    from repro.planner.graph import plan_graph_layouts
    from repro.topology.machines import uniform_system

    plan, stats = plan_graph_layouts(uniform_system(4), mlp_chain(96, 64))
    print(plan.makespan, "vs greedy", plan.greedy_makespan)
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.schemes import PartitioningScheme
from repro.bench.selector import PartitioningRecommendation
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.graph import GraphOp, OpGraph
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Partition
from repro.dist.redistribute import redistribution_cost
from repro.obs.tracing import NULL_TRACER
from repro.planner.cache import PlanEntry, register_entry_decoder
from repro.planner.search import SearchStats, search_partitionings
from repro.runtime.runtime import Runtime
from repro.sim.graphtime import GraphTiming, dag_makespan
from repro.topology.machines import MachineSpec
from repro.util.validation import float_dtype

#: Default per-op lattice width: how many top recommendations the joint
#: planner considers per op.  Small on purpose — the chain DP is
#: ``O(ops * L^2)`` and the searches dominate anyway.
DEFAULT_LATTICE_SIZE = 4

#: ``GraphPlan.method`` values.
METHOD_CHAIN_DP = "chain_dp"
METHOD_BRANCH_AND_BOUND = "branch_and_bound"

#: ``kind`` discriminator for graph entries in the persistent plan store.
GRAPH_ENTRY_KIND = "graph"


def op_workload(op: GraphOp) -> Workload:
    """The dense :class:`Workload` a graph op stands for."""
    return Workload(op.name, op.m, op.n, op.k)


@dataclass(frozen=True)
class OpLattice:
    """One op's layout lattice: its top-ranked layouts with exact times."""

    #: The workload the lattice was searched for.
    workload: Workload
    #: Ranked recommendations; index 0 is the op's greedy (isolated) winner.
    recommendations: Tuple[PartitioningRecommendation, ...]

    def __len__(self) -> int:
        return len(self.recommendations)


def candidate_layout(machine: MachineSpec, workload: Workload,
                     recommendation: PartitioningRecommendation,
                     slot: int) -> Tuple[Partition, int]:
    """The ``(partition, replication)`` layout of one matrix slot.

    ``slot`` indexes the matmul's matrices: 0 = operand A, 1 = operand B,
    2 = output C.  This is the layout the executor would actually place that
    matrix in under the recommendation — the graph planner prices edge
    reshards between exactly these layouts.
    """
    rep = recommendation.replication
    procs = machine.num_devices
    parts = recommendation.scheme.partitions(
        workload, procs // rep[0], procs // rep[1], procs // rep[2]
    )
    return parts[slot], rep[slot]


def edge_reshard_cost(runtime: Runtime, shape: Tuple[int, int],
                      src_layout: Tuple[Partition, int],
                      dst_layout: Tuple[Partition, int],
                      itemsize: int = 4) -> Tuple[float, int]:
    """Price moving a ``shape`` matrix of ``itemsize``-byte floats between layouts.

    Returns ``(modelled_seconds, moved_bytes)`` from
    :func:`repro.dist.redistribute.redistribution_cost`; identical layouts
    co-locate every region and price to exactly zero.
    """
    src_part, src_rep = src_layout
    dst_part, dst_rep = dst_layout
    matrix = DistributedMatrix.create(runtime, shape, src_part,
                                      replication=src_rep, dtype=float_dtype(itemsize),
                                      name="edge-src", materialize=False)
    cost = redistribution_cost(matrix, dst_part, replication=dst_rep)
    return float(cost["modelled_time_s"]), int(cost["moved_bytes"])


def build_edge_tables(machine: MachineSpec, graph: OpGraph,
                      lattices: Sequence[OpLattice],
                      itemsize: int = 4) -> List[List[List[float]]]:
    """Per-edge reshard-time tables between every candidate layout pair.

    ``tables[e][i][j]`` is the modelled seconds to reshard edge ``e``'s
    tensor from the producer's candidate-``i`` output layout onto the
    consumer's candidate-``j`` operand layout.  One symbolic runtime prices
    every entry (:func:`redistribution_cost` never advances its clock), and
    each distinct (shape, src layout, dst layout) is priced once: lattice
    candidates often differ only in stationary and share their layouts.
    """
    runtime = Runtime(machine=machine)
    priced: Dict[tuple, float] = {}

    def cost(shape, src, dst) -> float:
        key = (shape, src, dst)
        if key not in priced:
            priced[key] = edge_reshard_cost(runtime, shape, src, dst, itemsize)[0]
        return priced[key]

    tables: List[List[List[float]]] = []
    for edge in graph.edges:
        src_lattice, dst_lattice = lattices[edge.src], lattices[edge.dst]
        shape = (src_lattice.workload.m, src_lattice.workload.n)
        slot = 0 if edge.operand == "A" else 1
        src_layouts = [
            candidate_layout(machine, src_lattice.workload, rec, 2)
            for rec in src_lattice.recommendations
        ]
        dst_layouts = [
            candidate_layout(machine, dst_lattice.workload, rec, slot)
            for rec in dst_lattice.recommendations
        ]
        tables.append([
            [cost(shape, src, dst) for dst in dst_layouts]
            for src in src_layouts
        ])
    return tables


def assignment_timing(graph: OpGraph, lattices: Sequence[OpLattice],
                      edge_tables: Sequence[Sequence[Sequence[float]]],
                      assignment: Sequence[int]) -> GraphTiming:
    """Score one joint assignment (candidate index per op) end to end.

    This is the single scoring rule shared by the DP, the branch-and-bound,
    the greedy baseline, and the exhaustive reference — all four price an
    assignment as the :func:`~repro.sim.graphtime.dag_makespan` of the graph
    with the assignment's op times and reshard edge times.
    """
    op_times = [
        lattices[i].recommendations[assignment[i]].simulated_time
        for i in range(len(graph.ops))
    ]
    edge_times = [
        edge_tables[pos][assignment[edge.src]][assignment[edge.dst]]
        for pos, edge in enumerate(graph.edges)
    ]
    pairs = [(edge.src, edge.dst) for edge in graph.edges]
    return dag_makespan(len(graph.ops), pairs, op_times, edge_times)


def _solve_chain_dp(graph: OpGraph, lattices: Sequence[OpLattice],
                    edge_tables: Sequence[Sequence[Sequence[float]]],
                    ) -> Tuple[Tuple[int, ...], float]:
    """Exact DP over a chain's layout lattice; returns (assignment, makespan).

    State after step *t* is the candidate chosen for the *t*-th op in chain
    order; the transition adds the reshard between consecutive ops plus the
    next op's simulated time.  Ascending-index iteration with strict ``<``
    keeps the tie-break deterministic (lowest-ranked candidates win ties).
    """
    order = graph.topological_order()
    edge_position = {(edge.src, edge.dst): pos
                     for pos, edge in enumerate(graph.edges)}
    first = order[0]
    best = [lattices[first].recommendations[c].simulated_time
            for c in range(len(lattices[first]))]
    back: List[List[int]] = []
    for step in range(1, len(order)):
        prev_op, this_op = order[step - 1], order[step]
        table = edge_tables[edge_position[(prev_op, this_op)]]
        current: List[float] = []
        pointers: List[int] = []
        for cand in range(len(lattices[this_op])):
            op_time = lattices[this_op].recommendations[cand].simulated_time
            best_time: Optional[float] = None
            best_prev = 0
            for prev_cand in range(len(lattices[prev_op])):
                total = best[prev_cand] + table[prev_cand][cand] + op_time
                if best_time is None or total < best_time:
                    best_time, best_prev = total, prev_cand
            current.append(best_time if best_time is not None else op_time)
            pointers.append(best_prev)
        best = current
        back.append(pointers)
    final = min(range(len(best)), key=lambda c: (best[c], c))
    makespan = best[final]
    chain_choice = [final]
    for pointers in reversed(back):
        chain_choice.append(pointers[chain_choice[-1]])
    chain_choice.reverse()
    assignment = [0] * len(graph.ops)
    for position, op_index in enumerate(order):
        assignment[op_index] = chain_choice[position]
    return tuple(assignment), makespan


def _solve_dag_branch_and_bound(
    graph: OpGraph, lattices: Sequence[OpLattice],
    edge_tables: Sequence[Sequence[Sequence[float]]],
) -> Tuple[Tuple[int, ...], float, int]:
    """Best-first branch-and-bound over a DAG's joint layout space.

    Expands partial assignments in topological order.  The priority is the
    critical-path makespan of the graph where every unassigned op takes its
    *cheapest* candidate time and every not-fully-assigned edge its cheapest
    compatible reshard — a lower bound on any completion (makespan is
    monotone in the weights), and exact once the assignment is complete, so
    the first complete assignment popped is optimal (A*).

    Returns ``(assignment, makespan, nodes_expanded)``.
    """
    order = graph.topological_order()
    num_ops = len(graph.ops)
    pairs = [(edge.src, edge.dst) for edge in graph.edges]
    min_op = [min(rec.simulated_time for rec in lat.recommendations)
              for lat in lattices]
    min_by_src = [[min(row) for row in table] for table in edge_tables]
    min_by_dst = [[min(table[i][j] for i in range(len(table)))
                   for j in range(len(table[0]))] for table in edge_tables]
    min_any = [min(row_min for row_min in by_src) for by_src in min_by_src]

    def bound(prefix: Tuple[int, ...]) -> float:
        assigned: Dict[int, int] = {order[i]: prefix[i] for i in range(len(prefix))}
        op_times = [
            lattices[i].recommendations[assigned[i]].simulated_time
            if i in assigned else min_op[i]
            for i in range(num_ops)
        ]
        edge_times = []
        for pos, (src, dst) in enumerate(pairs):
            if src in assigned and dst in assigned:
                edge_times.append(edge_tables[pos][assigned[src]][assigned[dst]])
            elif src in assigned:
                edge_times.append(min_by_src[pos][assigned[src]])
            elif dst in assigned:
                edge_times.append(min_by_dst[pos][assigned[dst]])
            else:
                edge_times.append(min_any[pos])
        return dag_makespan(num_ops, pairs, op_times, edge_times).makespan

    heap: List[Tuple[float, Tuple[int, ...]]] = [(bound(()), ())]
    expanded = 0
    while heap:
        priority, prefix = heapq.heappop(heap)
        if len(prefix) == num_ops:
            assignment = [0] * num_ops
            for position, op_index in enumerate(order):
                assignment[op_index] = prefix[position]
            return tuple(assignment), priority, expanded
        expanded += 1
        for cand in range(len(lattices[order[len(prefix)]])):
            child = prefix + (cand,)
            heapq.heappush(heap, (bound(child), child))
    raise RuntimeError("branch-and-bound exhausted the heap without a solution")


def exhaustive_joint_plan(graph: OpGraph, lattices: Sequence[OpLattice],
                          edge_tables: Sequence[Sequence[Sequence[float]]],
                          ) -> Tuple[Tuple[int, ...], float]:
    """Brute-force reference: score every joint assignment, keep the best.

    Strict ``<`` keeps the first (lexicographically smallest) minimizer, the
    same tie-break direction as the DP and branch-and-bound solvers.  Only
    for tests and benchmarks — ``L^ops`` assignments.
    """
    ranges = [range(len(lat)) for lat in lattices]
    best_assignment: Optional[Tuple[int, ...]] = None
    best_time: Optional[float] = None
    for assignment in itertools.product(*ranges):
        makespan = assignment_timing(graph, lattices, edge_tables, assignment).makespan
        if best_time is None or makespan < best_time:
            best_time, best_assignment = makespan, assignment
    if best_assignment is None or best_time is None:
        raise ValueError("graph has an empty layout lattice")
    return best_assignment, best_time


@dataclass(frozen=True)
class GraphPlan:
    """The joint planner's answer for one op graph."""

    #: The planned graph (the bucketed representative under a service).
    graph: OpGraph
    #: Chosen candidate index per op (into each op's lattice).
    assignment: Tuple[int, ...]
    #: The chosen recommendation per op, aligned with ``graph.ops``.
    recommendations: Tuple[PartitioningRecommendation, ...]
    #: End-to-end modelled makespan of the joint assignment.
    makespan: float
    #: Per-op simulated times under the joint assignment.
    op_times: Tuple[float, ...]
    #: Per-edge reshard times under the joint assignment (``graph.edges`` order).
    edge_times: Tuple[float, ...]
    #: The per-op greedy baseline (every op's isolated winner) and its makespan.
    greedy_assignment: Tuple[int, ...]
    greedy_makespan: float
    #: Which solver produced the assignment (chain DP or branch-and-bound).
    method: str

    @property
    def improvement(self) -> float:
        """Seconds the joint plan saves over the per-op greedy baseline."""
        return self.greedy_makespan - self.makespan


@dataclass
class GraphPlanEntry(PlanEntry):
    """A cached joint graph plan (persists with ``kind="graph"``).

    Duck-types :class:`PlanEntry` — ``recommendations`` holds the chosen
    per-op layouts in op order, so the cache's size accounting, best-entry
    access, and store round-trip all work unchanged.
    """

    graph: Optional[OpGraph] = None
    assignment: Tuple[int, ...] = ()
    makespan: float = 0.0
    greedy_makespan: float = 0.0
    method: str = ""

    @classmethod
    def from_plan(cls, plan: GraphPlan, *, num_simulated: int = 0,
                  num_pruned: int = 0,
                  fingerprint: Optional[str] = None) -> "GraphPlanEntry":
        """Build a cacheable entry from a solved :class:`GraphPlan`."""
        return cls(
            recommendations=list(plan.recommendations),
            workload=None,
            num_simulated=num_simulated,
            num_pruned=num_pruned,
            fingerprint=fingerprint,
            graph=plan.graph,
            assignment=plan.assignment,
            makespan=plan.makespan,
            greedy_makespan=plan.greedy_makespan,
            method=plan.method,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON form; the ``kind`` key routes decoding back to this class."""
        payload = super().to_dict()
        payload["kind"] = GRAPH_ENTRY_KIND
        payload["graph"] = self.graph.to_dict() if self.graph is not None else None
        payload["assignment"] = list(self.assignment)
        payload["makespan"] = self.makespan
        payload["greedy_makespan"] = self.greedy_makespan
        payload["method"] = self.method
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GraphPlanEntry":
        """Rebuild an entry from :meth:`to_dict` output."""
        base = PlanEntry.from_dict(payload)
        graph = payload.get("graph")
        return cls(
            recommendations=base.recommendations,
            workload=base.workload,
            num_simulated=base.num_simulated,
            num_pruned=base.num_pruned,
            fingerprint=base.fingerprint,
            graph=OpGraph.from_dict(graph) if graph else None,  # type: ignore[arg-type]
            assignment=tuple(int(x) for x in payload.get("assignment", ())),  # type: ignore[union-attr]
            makespan=float(payload.get("makespan", 0.0)),  # type: ignore[arg-type]
            greedy_makespan=float(payload.get("greedy_makespan", 0.0)),  # type: ignore[arg-type]
            method=str(payload.get("method", "")),
        )


register_entry_decoder(GRAPH_ENTRY_KIND, GraphPlanEntry.from_dict)


def plan_graph_layouts(
    machine: MachineSpec,
    graph: OpGraph,
    *,
    lattice_size: int = DEFAULT_LATTICE_SIZE,
    memory_budget_bytes: Optional[float] = None,
    schemes: Optional[Sequence[PartitioningScheme]] = None,
    replication_factors: Optional[Sequence[int]] = None,
    stationary_options: Sequence[str] = ("A", "B", "C"),
    itemsize: int = 4,
    config: Optional[ExecutionConfig] = None,
    prune: bool = True,
    tracer=None,
) -> Tuple[GraphPlan, SearchStats]:
    """Jointly plan layouts for every op of ``graph``; returns (plan, stats).

    Three stages, each traced as a child span when ``tracer`` is given:
    ``graph.lattice`` runs the existing pruned per-op search (``top_k =
    lattice_size``) for every op, ``graph.edges`` prices every candidate
    layout transition along every edge, and ``graph.solve`` runs the chain DP
    (exact for chains) or branch-and-bound (exact for DAGs) plus the greedy
    baseline.  The returned :class:`SearchStats` accumulates the per-op
    search counters.

    Raises :class:`ValueError` if any op has no feasible layout under the
    memory budget (an empty lattice cannot be planned around).
    """
    if lattice_size < 1:
        raise ValueError(f"lattice_size must be >= 1, got {lattice_size}")
    tracer = tracer if tracer is not None else NULL_TRACER
    stats = SearchStats()
    lattices: List[OpLattice] = []
    with tracer.span("graph.lattice", ops=len(graph.ops),
                     lattice_size=lattice_size):
        for op in graph.ops:
            workload = op_workload(op)
            recommendations, op_stats = search_partitionings(
                machine,
                workload,
                memory_budget_bytes=memory_budget_bytes,
                schemes=schemes,
                replication_factors=replication_factors,
                stationary_options=stationary_options,
                top_k=lattice_size,
                itemsize=itemsize,
                config=config,
                prune=prune,
                tracer=tracer,
            )
            if not recommendations:
                raise ValueError(
                    f"no feasible layout for op {op.name!r} under the memory budget"
                )
            stats.merge(op_stats)
            lattices.append(OpLattice(workload, tuple(recommendations)))
    with tracer.span("graph.edges", edges=len(graph.edges)):
        edge_tables = build_edge_tables(machine, graph, lattices, itemsize)
    with tracer.span("graph.solve") as span:
        if graph.is_chain:
            assignment, _ = _solve_chain_dp(graph, lattices, edge_tables)
            method = METHOD_CHAIN_DP
        else:
            assignment, _, _ = _solve_dag_branch_and_bound(graph, lattices,
                                                           edge_tables)
            method = METHOD_BRANCH_AND_BOUND
        timing = assignment_timing(graph, lattices, edge_tables, assignment)
        greedy = tuple(0 for _ in graph.ops)
        greedy_timing = assignment_timing(graph, lattices, edge_tables, greedy)
        span.set(method=method, makespan=timing.makespan,
                 greedy_makespan=greedy_timing.makespan)
    plan = GraphPlan(
        graph=graph,
        assignment=assignment,
        recommendations=tuple(
            lattices[i].recommendations[assignment[i]]
            for i in range(len(graph.ops))
        ),
        makespan=timing.makespan,
        op_times=tuple(
            lattices[i].recommendations[assignment[i]].simulated_time
            for i in range(len(graph.ops))
        ),
        edge_times=tuple(
            edge_tables[pos][assignment[edge.src]][assignment[edge.dst]]
            for pos, edge in enumerate(graph.edges)
        ),
        greedy_assignment=greedy,
        greedy_makespan=greedy_timing.makespan,
        method=method,
    )
    return plan, stats
