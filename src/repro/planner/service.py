"""PlannerService: the serving brain in front of the design-space search.

``plan()`` answers "how should I partition this problem on this machine?"
with the same ranked recommendations the exhaustive selector would produce,
but production-shaped:

* **memoized** — answers come from the LRU plan cache keyed by canonical
  problem signatures (machine fingerprint + bucketed shape + budget +
  search-options digest), so near-identical requests cost one dict lookup;
* **pruned** — cache misses run the branch-and-bound search, simulating only
  candidates whose cost-model lower bound can still win;
* **single-flight** — concurrent identical requests are coalesced: one
  thread computes, the rest wait on the same in-flight result instead of
  duplicating the search;
* **warm-startable** — a JSON plan store persists the cache across
  processes (load at boot, save on demand or automatically per new plan);
* **observable** — serving counters (requests, hits, coalesced waits,
  simulations, pruning) are aggregated across the service's lifetime, and a
  service constructed with a metrics registry / tracer / request log
  (:mod:`repro.obs`) publishes per-request telemetry: outcome counters
  (exported from :class:`ServiceStats`, the one store) and latency
  histograms, one span tree per request, one log line per request;
* **adaptive** — :meth:`~PlannerService.refresh` recomputes one signature
  off the request path (sharing the single-flight table with foreground
  ``plan()`` calls).
  With a grace window configured (``cache_grace_seconds``) the service
  serves **stale-while-revalidate**: a just-expired plan answers
  immediately (``stale=True``) while the refresher recomputes it, and with
  ``refresh_options`` set the service owns a
  :class:`~repro.planner.refresh.BackgroundRefresher` that re-plans stale
  serves and keeps observed plans warm before TTL expiry — so under steady
  traffic zero cold plans execute on the request path.

``plan_many()`` fans a batch of requests over a thread pool, which both
exercises and benefits from single-flight dedup when the batch repeats
signatures.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.schemes import PartitioningScheme
from repro.bench.selector import PartitioningRecommendation
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Samples,
    instrument_name,
)
from repro.obs.reqlog import RequestRecord
from repro.obs.tracing import NULL_TRACER, current_trace_id
from repro.core.graph import OpGraph
from repro.planner.cache import PlanCache, PlanEntry
from repro.planner.graph import (
    DEFAULT_LATTICE_SIZE,
    GraphPlanEntry,
    plan_graph_layouts,
)
from repro.planner.search import SearchStats, search_partitionings
from repro.planner.signature import (
    DEFAULT_BUCKET_RATIO,
    GraphSignature,
    ProblemSignature,
    SignatureFactory,
)
from repro.topology.machines import MachineSpec


@dataclass
class PlanResponse:
    """One served planning answer."""

    signature: ProblemSignature
    recommendations: List[PartitioningRecommendation]
    #: True when the answer came from the plan cache (or the warm-start store).
    cache_hit: bool
    #: True when this request waited on an identical in-flight computation.
    coalesced: bool
    #: Wall-clock seconds this request spent being answered.
    planning_time: float
    #: Age in seconds of the served plan at serve time (0.0 for plans
    #: computed by — or coalesced onto — this very request).
    plan_age: float = 0.0
    #: True when the served plan's TTL had expired but the entry was still
    #: inside the cache's grace window (stale-while-revalidate): the answer
    #: is the previous plan, served immediately while a background refresh
    #: recomputes it off-path.  Always implies ``cache_hit``.
    stale: bool = False
    #: Search bookkeeping; ``None`` for cache hits and coalesced waits.
    search_stats: Optional[SearchStats] = None
    #: The cached entry this answer serves (its wire reply is memoised on it).
    entry: Optional[PlanEntry] = field(default=None, repr=False, compare=False)

    @property
    def recommendation(self) -> PartitioningRecommendation:
        """The best plan."""
        return self.recommendations[0]

    @classmethod
    def _from_entry(cls, signature, entry: PlanEntry, *, cache_hit, coalesced,
                    planning_time, plan_age, stale, search_stats) -> "PlanResponse":
        """The response serving ``entry`` with the request's outcome fields."""
        return cls(signature=signature,
                   recommendations=list(entry.recommendations),
                   cache_hit=cache_hit, coalesced=coalesced,
                   planning_time=planning_time, plan_age=plan_age, stale=stale,
                   search_stats=search_stats, entry=entry)


@dataclass
class GraphPlanResponse(PlanResponse):
    """One served joint graph-planning answer: a plan plus the graph fields.

    ``signature`` is a :class:`~repro.planner.signature.GraphSignature` and
    ``recommendations`` holds the chosen layout per op, aligned with
    ``graph.ops``; everything else is served, counted, and logged exactly as
    for a single-op :class:`PlanResponse`.
    """

    #: The (bucketed) graph the joint plan was computed for.
    graph: Optional[OpGraph] = None
    #: Chosen candidate index per op (into each op's layout lattice).
    assignment: Tuple[int, ...] = ()
    #: End-to-end modelled makespan of the joint assignment.
    makespan: float = 0.0
    #: Makespan of the per-op greedy baseline (every op's isolated winner).
    greedy_makespan: float = 0.0
    #: Which solver produced the assignment (chain DP or branch-and-bound).
    method: str = ""

    @classmethod
    def _from_entry(cls, signature, entry, *, cache_hit, coalesced,
                    planning_time, plan_age, stale,
                    search_stats) -> "GraphPlanResponse":
        return cls(signature=signature,
                   recommendations=list(entry.recommendations),
                   cache_hit=cache_hit, coalesced=coalesced,
                   planning_time=planning_time, plan_age=plan_age, stale=stale,
                   search_stats=search_stats, entry=entry, graph=entry.graph,
                   assignment=entry.assignment, makespan=entry.makespan,
                   greedy_makespan=entry.greedy_makespan, method=entry.method)


@dataclass
class ServiceStats:
    """Lifetime serving counters (snapshot via :meth:`PlannerService.stats`)."""

    requests: int = 0
    cache_hits: int = 0
    plans_computed: int = 0
    coalesced_requests: int = 0
    candidates_simulated: int = 0
    candidates_pruned: int = 0
    #: Candidates whose slicing table a search built (``SearchStats.num_built``).
    candidates_built: int = 0
    total_planning_time: float = 0.0
    #: Slowest single request observed (an extreme, not a sum — fleet
    #: aggregation must take the max of per-worker values).
    max_planning_time: float = 0.0
    warm_start_entries: int = 0
    #: Cache hits that served an expired-but-in-grace plan (a subset of
    #: ``cache_hits``; each should have triggered a background refresh).
    stale_hits: int = 0
    #: Plans recomputed off the request path (:meth:`PlannerService.refresh`);
    #: a subset of ``plans_computed``.
    background_refreshes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from the plan cache (0.0 when idle)."""
        return self.cache_hits / self.requests if self.requests else 0.0


class _InFlight:
    """Rendezvous for one in-progress plan computation (single-flight)."""

    __slots__ = ("event", "entry", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.entry: Optional[PlanEntry] = None
        self.error: Optional[BaseException] = None


def _outcome_of(response: "PlanResponse") -> str:
    """The telemetry outcome label for one served response."""
    if response.cache_hit:
        return "stale" if response.stale else "hit"
    return "coalesced" if response.coalesced else "computed"


class _Telemetry:
    """Observability sink for one service (constructed only when enabled).

    Bundles the live instruments, the tracer, and the request log so the
    serving path pays exactly one ``is None`` check when observability is
    off, and holds pre-created instruments so the enabled path never pays a
    registry lookup per request.  Request counts live in :class:`ServiceStats`.
    """

    __slots__ = ("registry", "tracer", "request_log", "worker_index", "clock",
                 "_latency", "_phase")

    _OUTCOMES = ("hit", "stale", "computed", "coalesced")
    _PHASES = ("opgen", "bound", "refine", "simulate")

    def __init__(self, metrics, tracer, request_log, worker_index: int,
                 clock=time.time) -> None:
        self.registry = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.request_log = request_log
        self.worker_index = worker_index
        # The service's injected clock: request-log timestamps must tick on
        # the same clock as TTL/grace/plan-age accounting, or fake-clock
        # replays log wall-clock times the cache state never saw.
        self.clock = clock
        self._latency = {
            outcome: self.registry.histogram(
                "repro_planner_latency_seconds",
                "End-to-end planning latency in seconds, by outcome.",
                buckets=DEFAULT_LATENCY_BUCKETS, outcome=outcome)
            for outcome in self._OUTCOMES
        }
        self._phase = {
            phase: self.registry.counter(
                "repro_search_phase_seconds_total",
                "Cumulative seconds spent per search phase.", phase=phase)
            for phase in self._PHASES
        }

    def record(self, response: "PlanResponse", workload_name: str) -> None:
        """Publish one served request to every enabled backend."""
        outcome = _outcome_of(response)
        self._latency[outcome].observe(response.planning_time)
        phases: Dict[str, float] = {}
        stats = response.search_stats
        if stats is not None:
            phases = {"opgen": stats.opgen_seconds,
                      "bound": stats.bound_seconds,
                      "refine": stats.refine_seconds,
                      "simulate": stats.simulate_seconds}
            for phase, seconds in phases.items():
                self._phase[phase].inc(seconds)
        if self.request_log is not None:
            self.request_log.append(RequestRecord(
                ts=self.clock(),
                signature=response.signature.key(),
                workload=workload_name,
                outcome=outcome,
                plan_age=response.plan_age,
                latency=response.planning_time,
                phases=phases,
                worker=self.worker_index,
                pid=os.getpid(),
                trace_id=current_trace_id(),
            ))


class PlannerService:
    """Plan-serving facade over the cache + pruned search (see module docs)."""

    def __init__(
        self,
        machine: MachineSpec,
        *,
        top_k: int = 1,
        memory_budget_bytes: Optional[float] = None,
        schemes: Optional[Sequence[PartitioningScheme]] = None,
        replication_factors: Optional[Sequence[int]] = None,
        stationary_options: Sequence[str] = ("A", "B", "C"),
        itemsize: int = 4,
        bucket_ratio: float = DEFAULT_BUCKET_RATIO,
        prune: bool = True,
        config: Optional[ExecutionConfig] = None,
        cache_capacity: int = 256,
        cache_max_bytes: Optional[int] = None,
        cache_ttl_seconds: Optional[float] = None,
        cache_grace_seconds: Optional[float] = None,
        clock=None,
        store_path: Optional[str] = None,
        autosave: bool = False,
        max_workers: int = 4,
        metrics=None,
        tracer=None,
        request_log=None,
        worker_index: int = -1,
        refresh_options: Optional[Dict[str, object]] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.machine = machine
        self.top_k = top_k
        self.memory_budget_bytes = memory_budget_bytes
        self.schemes = list(schemes) if schemes is not None else None
        self.replication_factors = (
            list(replication_factors) if replication_factors is not None else None
        )
        self.stationary_options = tuple(stationary_options)
        self.itemsize = itemsize
        self.bucket_ratio = bucket_ratio
        self.prune = prune
        self.config = config or ExecutionConfig(simulate_only=True)
        self.clock = clock if clock is not None else time.time
        self.cache = PlanCache(cache_capacity, max_bytes=cache_max_bytes,
                               ttl_seconds=cache_ttl_seconds,
                               grace_seconds=cache_grace_seconds,
                               clock=self.clock, metrics=metrics)
        self.store_path = store_path
        self.autosave = autosave
        # One sink object when ANY observability backend is enabled; None
        # otherwise, so the serving path's disabled cost is a single check.
        self._telemetry: Optional[_Telemetry] = None
        if metrics is not None or tracer is not None or request_log is not None:
            self._telemetry = _Telemetry(metrics, tracer, request_log,
                                         worker_index, clock=self.clock)
        self._tracer = (self._telemetry.tracer if self._telemetry is not None
                        else NULL_TRACER)
        # Observation hook for the background refresher (``set_observer``):
        # None when no refresher is attached, so the request path's cost for
        # the disabled feature is one attribute check — the same discipline
        # as the telemetry sink above.
        self._observer = None
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._inflight: Dict[str, _InFlight] = {}
        self._stats = ServiceStats()
        self.metrics_registry.add_source(self._samples, {
            "repro_planner_requests_total":
                "Planning requests served, by outcome.",
            "repro_planner_tables_built_total":
                "Candidate slicing tables built by plan searches."})
        # The machine and search options are fixed for the service's lifetime,
        # so their digests are computed once — the warm path must stay a dict
        # lookup, not an O(devices^2) hash per request.
        self._signatures = SignatureFactory(
            machine,
            top_k=top_k,
            memory_budget_bytes=memory_budget_bytes,
            schemes=self.schemes,
            replication_factors=self.replication_factors,
            stationary_options=self.stationary_options,
            itemsize=itemsize,
            bucket_ratio=bucket_ratio,
            config=self.config,
        )
        # Plans are priced by the search's default cost model for this
        # machine; its digest stamps every entry so a warm-start store written
        # under a different pricing build invalidates itself on load.
        self.cost_model_fingerprint = CostModel(machine).fingerprint()
        if store_path is not None:
            self._stats.warm_start_entries = self.cache.load(
                store_path, fingerprint=self.cost_model_fingerprint
            )
        # The adaptive refresh engine is owned by the service when asked for:
        # ``refresh_options`` (kwargs for BackgroundRefresher) builds and
        # starts one, and close() stops it.  The import is lazy because
        # refresh.py drives *this* class — the one intentional cycle.
        self.refresher = None
        if refresh_options is not None:
            from repro.planner.refresh import BackgroundRefresher

            self.refresher = BackgroundRefresher(self, **refresh_options)  # type: ignore[arg-type]
            self.refresher.start()

    # ------------------------------------------------------------------ #
    # signatures
    # ------------------------------------------------------------------ #
    def signature_for(self, workload: Workload, top_k: Optional[int] = None) -> ProblemSignature:
        """Canonical signature a request maps to (its cache identity).

        Delegates to the service's
        :class:`~repro.planner.signature.SignatureFactory`.
        """
        return self._signatures.signature_for(workload, top_k)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def plan(self, workload: Workload, *, top_k: Optional[int] = None) -> PlanResponse:
        """Serve one planning request (cache -> single-flight -> search).

        With observability enabled the request runs inside a
        ``planner.plan`` span (joining any ambient trace context, e.g. the
        serving worker's) and is recorded to the metrics registry and the
        request log on completion.

        Raises:
            ValueError: if ``top_k < 1`` (before any signature or cache work).
        """
        if top_k is None:
            top_k = self.top_k
        elif top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        telemetry = self._telemetry
        if telemetry is None:
            return self._serve(PlannerService.signature_for, workload, top_k,
                               PlannerService._compute_plan, PlanResponse,
                               self._observer)
        with telemetry.tracer.span("planner.plan",
                                   workload=workload.name) as span:
            response = self._serve(PlannerService.signature_for, workload,
                                   top_k, PlannerService._compute_plan,
                                   PlanResponse, self._observer)
            span.set(signature=response.signature.key(),
                     outcome=_outcome_of(response))
            telemetry.record(response, workload.name)
        return response

    def graph_signature_for(self, graph: OpGraph,
                            lattice_size: Optional[int] = None) -> GraphSignature:
        """Canonical signature of one joint graph-planning request.

        Delegates to the service's
        :class:`~repro.planner.signature.SignatureFactory`, exactly as
        :meth:`signature_for` does for single ops.
        """
        return self._signatures.graph_signature_for(graph, lattice_size)

    def plan_graph(self, graph: OpGraph, *,
                   lattice_size: Optional[int] = None) -> GraphPlanResponse:
        """Serve one joint graph-planning request (cache -> single-flight -> solve).

        The same request path as :meth:`plan` — memoized on the graph
        signature, coalesced across concurrent identical requests, recorded
        to the metrics registry / request log / tracer when observability is
        enabled (span ``planner.plan_graph``).  The background refresher is
        not fed: it re-plans single-op signatures only, so graph entries
        renew through this foreground path.
        """
        if lattice_size is None:
            lattice_size = DEFAULT_LATTICE_SIZE
        telemetry = self._telemetry
        if telemetry is None:
            return self._serve(PlannerService.graph_signature_for, graph,
                               lattice_size, PlannerService._compute_graph,
                               GraphPlanResponse, None)
        with telemetry.tracer.span("planner.plan_graph",
                                   graph=graph.name,
                                   ops=len(graph.ops)) as span:
            response = self._serve(PlannerService.graph_signature_for, graph,
                                   lattice_size, PlannerService._compute_graph,
                                   GraphPlanResponse, None)
            span.set(signature=response.signature.key(),
                     outcome=_outcome_of(response),
                     method=response.method)
            telemetry.record(response, graph.name)
        return response

    def _serve(self, sign, subject, option, compute, response_type,
               observer) -> PlanResponse:
        """The one request path behind :meth:`plan` and :meth:`plan_graph`.

        ``sign(self, subject, option)`` gives the signature (inside the
        timed span, so ``planning_time`` covers it).  Cache lookup, then
        single-flight: the first miss on a key leads and runs
        ``compute(self, signature, subject, option)`` (see :meth:`_lead`),
        identical concurrent misses wait on its flight and share its entry
        or its error.  Every request is counted once; ``observer`` (the
        refresher hook, or ``None``) sees each answer.
        """
        started = time.perf_counter()
        signature = sign(self, subject, option)
        key = signature.key()
        leader = False
        flight: Optional[_InFlight] = None
        with self._lock:
            self._stats.requests += 1
            found = self.cache.get_for_serving(key)
            if found is None:
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _InFlight()
                    leader = True
        plan_age, stale, search_stats = 0.0, False, None
        if found is not None:
            entry, plan_age, stale = found
        elif leader:
            entry, search_stats = self._lead(key, flight, compute, signature,
                                             subject, option)
        else:
            flight.event.wait()
            entry = flight.entry
        elapsed = time.perf_counter() - started
        coalesced = found is None and not leader
        with self._lock:
            stats = self._stats
            if found is not None:
                stats.cache_hits += 1
                if stale:
                    stats.stale_hits += 1
            elif coalesced:
                stats.coalesced_requests += 1
            stats.total_planning_time += elapsed
            if elapsed > stats.max_planning_time:
                stats.max_planning_time = elapsed
        if entry is None:
            raise flight.error  # the leader failed; every waiter re-raises
        if observer is not None:
            observer.observe_request(signature, option, stale=stale)
        return response_type._from_entry(
            signature, entry, cache_hit=found is not None, coalesced=coalesced,
            planning_time=elapsed, plan_age=plan_age, stale=stale,
            search_stats=search_stats)

    def _lead(self, key: str, flight: _InFlight, compute, signature, subject,
              option, background: bool = False) -> Tuple[PlanEntry, SearchStats]:
        """Compute and cache ``key``'s entry as the single-flight leader.

        Waiters parked on ``flight`` wake with the entry or the error, and
        the key leaves the in-flight table either way, so a failed flight
        never poisons it.  Counts the computed plan (a ``background``
        refresh in the same locked block, so no snapshot sees it as a
        foreground computation) and autosaves.
        """
        try:
            entry, search_stats = compute(self, signature, subject, option)
            self.cache.put(key, entry)
            flight.entry = entry
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
        with self._lock:
            self._stats.plans_computed += 1
            if background:
                self._stats.background_refreshes += 1
            self._stats.candidates_simulated += search_stats.num_simulated
            self._stats.candidates_pruned += search_stats.num_pruned
            self._stats.candidates_built += search_stats.num_built
        if self.autosave and self.store_path is not None:
            self.cache.save(self.store_path)
        return entry, search_stats

    def _compute_plan(self, signature: ProblemSignature,
                      workload: Optional[Workload],
                      top_k: int) -> Tuple[PlanEntry, SearchStats]:
        """Miss step of :meth:`plan` (and :meth:`refresh`, with no workload).

        Plans for the bucket's representative (its upper corner), not the
        raw request: every member of the bucket then receives the same
        deterministic answer regardless of arrival order, and the memory
        budget was checked against the largest shape the bucket admits.
        """
        planning_workload = (signature.representative_workload() if workload is None
                             else signature.representative_workload(name=workload.name))
        recommendations, search_stats = search_partitionings(
            self.machine,
            planning_workload,
            memory_budget_bytes=self.memory_budget_bytes,
            schemes=self.schemes,
            replication_factors=self.replication_factors,
            stationary_options=self.stationary_options,
            top_k=top_k,
            itemsize=self.itemsize,
            config=self.config,
            prune=self.prune,
            tracer=self._tracer,
        )
        return PlanEntry(recommendations=recommendations,
                         workload=planning_workload,
                         num_simulated=search_stats.num_simulated,
                         num_pruned=search_stats.num_pruned,
                         fingerprint=self.cost_model_fingerprint), search_stats

    def _compute_graph(self, signature: GraphSignature, _graph: OpGraph,
                       lattice_size: int) -> Tuple[GraphPlanEntry, SearchStats]:
        """Miss step of :meth:`plan_graph`: solve the bucket-corner graph,
        the same representative discipline as single-op serving."""
        plan, search_stats = plan_graph_layouts(
            self.machine,
            signature.representative_graph(),
            lattice_size=lattice_size,
            memory_budget_bytes=self.memory_budget_bytes,
            schemes=self.schemes,
            replication_factors=self.replication_factors,
            stationary_options=self.stationary_options,
            itemsize=self.itemsize,
            config=self.config,
            prune=self.prune,
            tracer=self._tracer,
        )
        return GraphPlanEntry.from_plan(
            plan,
            num_simulated=search_stats.num_simulated,
            num_pruned=search_stats.num_pruned,
            fingerprint=self.cost_model_fingerprint,
        ), search_stats

    def plan_many(self, workloads: Sequence[Workload], *,
                  top_k: Optional[int] = None) -> List[PlanResponse]:
        """Serve a batch concurrently over the worker pool (order preserved)."""
        if not workloads:
            return []
        if len(workloads) == 1:
            return [self.plan(workloads[0], top_k=top_k)]
        pool = self._ensure_pool()
        return list(pool.map(lambda w: self.plan(w, top_k=top_k), workloads))

    # ------------------------------------------------------------------ #
    # lifecycle / observability
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="planner",
                )
            return self._pool

    def stats(self) -> ServiceStats:
        """Snapshot of the lifetime serving counters."""
        with self._lock:
            return replace(self._stats)

    def _samples(self) -> Samples:
        """The registry source: requests by outcome (a background refresh is
        a computed plan no request asked for) and tables built, from one
        :meth:`stats`."""
        stats = self.stats()
        counts = {"hit": stats.cache_hits - stats.stale_hits,
                  "stale": stats.stale_hits,
                  "coalesced": stats.coalesced_requests,
                  "computed": stats.plans_computed - stats.background_refreshes}
        counters = {
            instrument_name("repro_planner_requests_total", {"outcome": outcome}): count
            for outcome, count in counts.items()}
        counters["repro_planner_tables_built_total"] = stats.candidates_built
        return {"counters": counters}

    @property
    def metrics_registry(self):
        """The registry requests are instrumented on (no-op when disabled)."""
        return (self._telemetry.registry if self._telemetry is not None
                else NULL_REGISTRY)

    def set_observer(self, observer) -> None:
        """Install (or clear, with ``None``) the request-observation hook.

        The observer sees every served request as
        ``observe_request(signature, top_k, stale=...)`` — the feed a
        :class:`~repro.planner.refresh.BackgroundRefresher` uses for
        stale-triggered and pre-TTL refreshes.  Calls happen outside the
        service lock, after the response is accounted; the observer must be
        cheap and must not call back into ``plan()``.
        """
        self._observer = observer

    # ------------------------------------------------------------------ #
    # background refresh
    # ------------------------------------------------------------------ #
    def refresh(self, signature: ProblemSignature, *,
                top_k: Optional[int] = None) -> bool:
        """Recompute one signature's plan off the request path.

        The background half of single-flight: the refresh registers itself
        in the same in-flight table foreground ``plan()`` calls rendezvous
        on, so a request arriving mid-refresh coalesces onto it instead of
        running a duplicate search — and a refresh finding the key already
        in flight (a foreground leader got there first) skips.  The computed
        entry replaces the cached one with a fresh TTL epoch; the search is
        deterministic per signature, so a refresh never changes *what* is
        recommended, only *when* it was computed.

        Args:
            signature: the (bucketed) signature to re-plan — its
                representative corner workload is searched, exactly as a
                foreground miss would.
            top_k: ranked plans to keep; must match the ``top_k`` the
                signature's options digest was built with (observers learn
                it from :meth:`set_observer` callbacks).

        Returns:
            True if this call computed the plan; False if it was skipped
            because an identical computation was already in flight.
        """
        key = signature.key()
        flight = _InFlight()
        with self._lock:
            if key in self._inflight:
                return False
            self._inflight[key] = flight
        self._lead(key, flight, PlannerService._compute_plan, signature, None,
                   self.top_k if top_k is None else top_k, background=True)
        return True

    def cache_stats(self):
        """Snapshot of the underlying plan cache's counters."""
        return self.cache.stats()

    def save_store(self, path: Optional[str] = None) -> str:
        """Persist the plan cache to ``path`` (default: the configured store)."""
        target = path or self.store_path
        if target is None:
            raise ValueError("no store path configured and none given")
        return self.cache.save(target)

    def close(self) -> None:
        """Shut the refresher and worker pool down (autosaving if configured)."""
        if self.refresher is not None:
            self.refresher.close()
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self.autosave and self.store_path is not None:
            self.cache.save(self.store_path)

    def __enter__(self) -> "PlannerService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
