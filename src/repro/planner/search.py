"""Cost-bound-pruned search over the partitioning design space.

The exhaustive selector simulates every (scheme, replication, stationary)
candidate.  Simulation is the expensive part: the direct executor walks every
generated op through the per-engine clock.  This module keeps the exhaustive
enumeration but adds branch-and-bound pruning on top of the *admissible*
bounds of :class:`repro.sim.batch.BatchEvaluator` — the one bound path, in
three stages of rising cost:

1. a table-free *pre-bound* for the whole frontier at once, priced from the
   tiles each rank meets (no slicing table is built);
2. the per-engine *occupancy bound*, priced from a candidate's slicing
   table.  Unbuilt candidates wait in (pre-bound, index) order; whenever
   the next one would precede the heap top, a *prefix batch* of them is
   built (``max(8, n // 8)`` candidates, doubling each time, plus every
   candidate tied with the batch's last) and their occupancy bounds join
   the heap.  A pre-bound never exceeds the occupancy bound, so the heap
   pops exactly what it would pop with every table built;
3. the *critical-path bound* (a relaxed replay of the event stream), for
   candidates that reach the top of the heap.

Every bound never exceeds the simulated makespan, so:

* a candidate whose bound is already worse than the incumbent's **simulated**
  time cannot win and is skipped without simulating it (or, when its
  pre-bound is, without building its table);
* candidates are visited in ascending-bound order, so a strong incumbent is
  found early and prunes most of the space;
* strict inequality at the threshold guarantees the pruned search returns the
  *identical* ranked recommendations as the exhaustive search, ties included.

Pruning is only applied under the direct execution mode (the bounds are
proved against the direct executor's reservation discipline); IR-mode
searches fall back to exhaustive automatically.
"""

from __future__ import annotations

import bisect
import heapq
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.schemes import PartitioningScheme, ua_schemes
from repro.bench.selector import PartitioningRecommendation
from repro.bench.sweep import run_ua_point, valid_replication_factors
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig, ExecutionMode
from repro.core.structure import resolve_structure
from repro.obs.tracing import NULL_TRACER
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import MachineSpec
from repro.util.validation import float_dtype


@dataclass(frozen=True)
class Candidate:
    """One fully specified point of the design space."""

    #: Enumeration index — the exhaustive search's tie-break order.
    index: int
    scheme: PartitioningScheme
    replication: Tuple[int, int, int]
    stationary: str
    memory_per_device: int


@dataclass
class SearchStats:
    """Bookkeeping for one search run (pruning effectiveness, timings)."""

    num_candidates: int = 0
    num_memory_rejected: int = 0
    num_simulated: int = 0
    num_pruned: int = 0
    #: Candidates that survived the cheap occupancy gate and had the
    #: expensive critical-path bound computed for them.
    num_refined: int = 0
    #: Candidates whose slicing table was built: those the table-free
    #: pre-bound could not prune, plus the rest of their prefix batches.
    num_built: int = 0
    pruning_enabled: bool = True
    #: Seconds compiling candidate op streams (batch evaluator only).
    opgen_seconds: float = 0.0
    #: Seconds pricing the pre-bound and the prefix batches' occupancy bounds.
    bound_seconds: float = 0.0
    #: Seconds refining heap-top candidates with the critical-path bound.
    refine_seconds: float = 0.0
    simulate_seconds: float = 0.0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another run's counters into this one (service aggregation)."""
        self.num_candidates += other.num_candidates
        self.num_memory_rejected += other.num_memory_rejected
        self.num_simulated += other.num_simulated
        self.num_pruned += other.num_pruned
        self.num_refined += other.num_refined
        self.num_built += other.num_built
        self.opgen_seconds += other.opgen_seconds
        self.bound_seconds += other.bound_seconds
        self.refine_seconds += other.refine_seconds
        self.simulate_seconds += other.simulate_seconds


def memory_per_device(workload: Workload, replication: Tuple[int, int, int],
                      num_devices: int, itemsize: int = 4) -> int:
    """Worst-case bytes of A+B+C tile storage on one device.

    Structure-aware: a block-sparse B stores only its live blocks and a
    ragged A/C stores only its live token rows, so one device can never hold
    more than the matrix's total live bytes — but also never less than we
    can guarantee below its dense share (an adversarial mask can concentrate
    every live block on one device), hence the ``min`` of the two.  Dense
    workloads reduce to the historical envelope formula exactly.
    """
    (am, ak), (bk, bn), (cm, cn) = workload.shapes
    rep_a, rep_b, rep_c = replication
    structure = resolve_structure(workload.structure)
    per_device = 0
    for role, (rows, cols), factor in (("A", (am, ak), rep_a), ("B", (bk, bn), rep_b),
                                       ("C", (cm, cn), rep_c)):
        procs_per_replica = max(1, num_devices // factor)
        share = -(-rows * cols // procs_per_replica) * itemsize
        if structure is not None:
            share = min(share, structure.storage_bytes(role, rows, cols, itemsize))
        per_device += share
    return per_device


def enumerate_candidates(
    machine: MachineSpec,
    workload: Workload,
    memory_budget_bytes: float,
    schemes: Sequence[PartitioningScheme],
    factors: Sequence[int],
    stationary_options: Sequence[str],
    itemsize: int = 4,
) -> Tuple[List[Candidate], int]:
    """Enumerate the design space in the exhaustive selector's order.

    Returns the memory-feasible candidates plus the count of configurations
    rejected by the per-device budget.
    """
    candidates: List[Candidate] = []
    rejected = 0
    index = 0
    for scheme in schemes:
        for factor in factors:
            for c_factor in factors:
                replication = (factor, factor, c_factor)
                footprint = memory_per_device(workload, replication,
                                              machine.num_devices, itemsize)
                if footprint > memory_budget_bytes:
                    rejected += len(stationary_options)
                    continue
                for stationary in stationary_options:
                    candidates.append(
                        Candidate(index=index, scheme=scheme, replication=replication,
                                  stationary=stationary, memory_per_device=footprint)
                    )
                    index += 1
    return candidates, rejected


def search_partitionings(
    machine: MachineSpec,
    workload: Workload,
    *,
    memory_budget_bytes: Optional[float] = None,
    schemes: Optional[Sequence[PartitioningScheme]] = None,
    replication_factors: Optional[Sequence[int]] = None,
    stationary_options: Sequence[str] = ("A", "B", "C"),
    top_k: int = 1,
    itemsize: int = 4,
    config: Optional[ExecutionConfig] = None,
    prune: bool = True,
    tracer=None,
) -> Tuple[List[PartitioningRecommendation], SearchStats]:
    """Search the design space; returns (ranked recommendations, search stats).

    With ``prune=False`` this is exactly the exhaustive selector.  With
    ``prune=True`` (and direct execution mode) the result is guaranteed
    identical while strictly fewer candidates are simulated whenever any
    candidate's lower bound exceeds the eventual top-k threshold.

    Every bound comes from one :class:`repro.sim.batch.BatchEvaluator`, built
    for any direct-mode config: bounds read no data, so a materializing
    config is bounded with its ``simulate_only`` twin.  The bounds are staged
    by cost (lazy best-first refinement): the table-free pre-bound is priced
    for the whole frontier in one vectorized pass, occupancy bounds for
    prefix batches of it as the search reaches them, and candidates are
    visited through a min-heap keyed by their best-known bound.  When an
    *unrefined* candidate reaches the top, its critical-path bound — a
    relaxed replay of the whole event stream, memoized per rank stream — is
    computed and the candidate is pushed back; only candidates that surface
    again are simulated.  The visit order therefore converges to the
    tight-bound order (strong incumbents found early) while candidates
    prunable by a cheaper bound never pay for a dearer one.  The search
    stops when the smaller of the heap top and the next unbuilt pre-bound
    exceeds the top-k threshold.
    Simulate-only configs are simulated by the same evaluator, which shares
    each candidate's compiled program between its bounds and its simulation;
    materializing configs and IR mode (which is never pruned) simulate with
    :func:`repro.bench.sweep.run_ua_point`.

    ``top_k`` (at least 1) is the number of recommendations returned, and
    ``itemsize`` (2, 4 or 8 bytes) sizes the memory budget and picks the
    float dtype every candidate is priced at; any other value of either
    raises :class:`ValueError` before any work.

    ``tracer`` (a :class:`repro.obs.tracing.Tracer`) opens child spans for the
    search phases — the pre-bound and every prefix build (``search.bound``),
    refinement and simulation — so a traced request shows where its planning
    time went.
    ``None`` (the default) uses the disabled tracer, which records nothing.
    """
    float_dtype(itemsize)  # reject an unsupported element size before any work
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    tracer = tracer if tracer is not None else NULL_TRACER
    if memory_budget_bytes is None:
        memory_budget_bytes = machine.memory_capacity
    schemes = list(schemes) if schemes is not None else ua_schemes()
    factors = valid_replication_factors(machine.num_devices, replication_factors)
    config = config or ExecutionConfig(simulate_only=True)

    candidates, rejected = enumerate_candidates(
        machine, workload, memory_budget_bytes, schemes, factors,
        stationary_options, itemsize,
    )
    prune = prune and config.mode is ExecutionMode.DIRECT
    stats = SearchStats(num_candidates=len(candidates), num_memory_rejected=rejected,
                        pruning_enabled=prune)
    if not candidates:
        raise ValueError(
            "no partitioning fits the per-device memory budget "
            f"({memory_budget_bytes / 1e9:.2f} GB)"
        )

    # The evaluator shares symbolic (data-free) matrices across candidates:
    # sound for every bound, but it simulates only when nothing materializes.
    evaluator: Optional[BatchEvaluator] = None
    if config.mode is ExecutionMode.DIRECT:
        evaluator = BatchEvaluator(machine, workload,
                                   config.evolve(simulate_only=True), itemsize=itemsize)
    simulator = evaluator if evaluator is not None and config.simulate_only else None

    bound_seconds = 0.0  # the pre-bound and the prefix builds
    bound_opgen = 0.0  # the op generation inside them
    if prune:
        started = time.perf_counter()
        with tracer.span("search.bound", candidates=len(candidates)):
            pre = evaluator.frontier_pre_bounds(candidates)
        # Unbuilt candidates wait in (pre-bound, index) order: `order[built:]`.
        order = np.argsort(pre, kind="stable")
        waiting = pre[order]
        bound_seconds = time.perf_counter() - started
        bound_opgen = evaluator.opgen_seconds
        heap: List[Tuple[float, int, bool]] = []
    else:
        order = waiting = np.zeros(0)
        heap = [(0.0, candidate.index, True) for candidate in candidates]
    built = 0
    batch = max(8, len(order) // 8)

    results: List[Tuple[int, PartitioningRecommendation]] = []
    best_times: List[float] = []  # k smallest simulated times seen so far
    threshold = float("inf")
    refine_seconds = 0.0
    build_seconds = 0.0  # prefix builds inside the loop
    started = time.perf_counter()

    def simulate(candidate: Candidate) -> None:
        """Simulate one candidate and fold it into the incumbent top-k."""
        nonlocal threshold
        with tracer.span("search.simulate", candidate=candidate.index):
            if simulator is not None:
                point = simulator.simulate(candidate)
            else:
                point = run_ua_point(machine, workload, candidate.scheme,
                                     candidate.replication, candidate.stationary,
                                     config, itemsize)
        stats.num_simulated += 1
        results.append(
            (
                candidate.index,
                PartitioningRecommendation(
                    scheme=candidate.scheme,
                    replication=candidate.replication,
                    stationary=candidate.stationary,
                    percent_of_peak=point.percent_of_peak,
                    simulated_time=point.simulated_time,
                    memory_per_device=candidate.memory_per_device,
                ),
            )
        )
        bisect.insort(best_times, point.simulated_time)
        del best_times[top_k:]
        if len(best_times) == top_k:
            threshold = best_times[-1]

    while True:
        if built < len(order) and (not heap or (float(waiting[built]), int(order[built]))
                                   < heap[0][:2]):
            # The next unbuilt candidate would precede the heap top, so its
            # occupancy bound might too: build a prefix batch.  A pre-bound
            # never exceeds the occupancy bound, so every candidate still
            # waiting after it follows it in the heap order as well.
            if waiting[built] > threshold:
                stats.num_pruned += len(heap) + len(order) - built
                break
            # The batch takes every candidate tied with its last member.
            end = int(np.searchsorted(waiting, waiting[min(built + batch, len(order)) - 1],
                                      side="right"))
            batch_started = time.perf_counter()
            opgen_before = evaluator.opgen_seconds
            with tracer.span("search.bound", candidates=end - built):
                prefix = [candidates[index] for index in order[built:end].tolist()]
                for bound, candidate in zip(evaluator.frontier_occupancy_bounds(prefix),
                                            prefix):
                    # `False`: not yet refined to the critical-path bound.
                    heapq.heappush(heap, (bound, candidate.index, False))
            build_seconds += time.perf_counter() - batch_started
            bound_opgen += evaluator.opgen_seconds - opgen_before
            built = end
            batch *= 2
            continue
        if not heap:
            break
        value, index, refined = heapq.heappop(heap)
        # Strict inequality keeps ties simulated, which is what makes the
        # pruned ranking provably identical to the exhaustive one.  Every
        # entry still in the heap, and every candidate still unbuilt,
        # carries an admissible bound >= this one, so once the smallest
        # exceeds the threshold the rest follow.
        if prune and value > threshold:
            stats.num_pruned += 1 + len(heap) + len(order) - built
            break
        candidate = candidates[index]  # an enumeration index is a position
        if not refined:
            refine_started = time.perf_counter()
            with tracer.span("search.refine", candidate=index):
                tight = evaluator.critical_bound(candidate)
            stats.num_refined += 1
            refine_seconds += time.perf_counter() - refine_started
            heapq.heappush(heap, (tight, index, True))
            continue
        simulate(candidate)
    # Prefix builds and refinements run inside the loop but are bound work,
    # not simulation work; likewise compile time incurred during the loop
    # (exhaustive runs compile lazily inside simulate) is op-gen work.
    loop_seconds = time.perf_counter() - started - build_seconds - refine_seconds
    if evaluator is not None:
        stats.opgen_seconds = evaluator.opgen_seconds
        stats.num_built = evaluator.num_built
        loop_seconds -= evaluator.opgen_seconds - bound_opgen
    stats.bound_seconds = bound_seconds + build_seconds - bound_opgen
    stats.refine_seconds = refine_seconds
    stats.simulate_seconds = loop_seconds

    # Exhaustive order: percent-of-peak descending, enumeration order on ties.
    results.sort(key=lambda pair: (-pair[1].percent_of_peak, pair[0]))
    return [rec for _, rec in results[:top_k]], stats
