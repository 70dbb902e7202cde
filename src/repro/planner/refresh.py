"""Background refresh engine: keep the plan cache warm off the request path.

A warm plan-cache hit is microseconds; a cold plan is tens of milliseconds —
a ~7000x p99 spike whenever one lands on the request path.  This module owns
every reason a cold plan used to run synchronously and moves it to a small
background pool:

* **stale-triggered refresh** — when the service serves an
  expired-but-in-grace entry (stale-while-revalidate,
  :meth:`~repro.planner.cache.PlanCache.get_for_serving`), the observation
  hook enqueues the signature at the highest priority, so the *next* request
  gets a fresh plan;
* **pre-TTL refresh** — resident entries whose remaining lifetime fell under
  the refresh margin are recomputed *before* expiry, so steady traffic never
  even sees the grace window;
* **rollup-driven refresh** — :meth:`PlannerService.refresh_candidates`
  names hot-by-telemetry signatures that are aging or missing;
* **predictive prewarming** — a first-order :class:`TransitionTable` over
  the observed signature sequence enqueues likely-next signatures at the
  lowest priority, so even first-seen-by-this-worker buckets are often warm;
* **drift-triggered re-planning** — a :class:`DriftTracker` watches the live
  structure statistics (MoE routed-token totals, block-sparse live-block
  counts) behind each structured signature family; when the smoothed live
  level crosses into a different bucket than the one traffic is being served
  from, the old entry is invalidated and the drifted bucket is planned
  off-path before traffic arrives there.

All refresh work funnels through :meth:`PlannerService.refresh`, which
shares the foreground single-flight table: a request arriving mid-refresh
coalesces onto it, and a refresh finding a foreground leader in flight
skips.  The search is deterministic per signature, so the refresher can
never change *what* is recommended — only *when* it is computed.

The engine is **off by default** and costs nothing when off: the service's
observation hook is ``None`` (one attribute check per request), and no
thread exists.  When on, everything is observable through
:meth:`BackgroundRefresher.stats`, which the service's metrics registry
exports (task counters by kind, completed and skipped counters, a
queue-depth gauge) beside a live refresh-latency histogram.

Thread and fork semantics: ``start()`` spawns one scheduler plus a bounded
worker pool, all daemon threads; ``stop()``/``close()`` are idempotent and
join them.  Threads do not survive ``fork()`` — a refresher inherited by a
forked child reports itself stopped (the recorded pid differs) and can
simply be ``start()``-ed again, which is how per-worker refreshers in a
pre-forked :class:`~repro.serve.server.PlanServer` fleet come up.  For
deterministic tests and benchmarks, :meth:`BackgroundRefresher.run_once`
drives one full schedule-and-drain cycle synchronously with no threads at
all.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.bench.workloads import Workload
from repro.core.structure import BlockSparse, MoERagged, even_spread_mask
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, Samples, instrument_name
from repro.obs.reqlog import iter_records
from repro.planner.signature import ProblemSignature
from repro.util.logging import get_logger, log_event

_LOG = get_logger("planner.refresh")

#: Task kinds in priority order (lower number = more urgent).  A stale serve
#: means a request already saw an expired plan, so it outranks everything;
#: prewarming is speculative, so it yields to all confirmed work.
KIND_STALE = "stale"
KIND_DRIFT = "drift"
KIND_TTL = "ttl"
KIND_ROLLUP = "rollup"
KIND_PREWARM = "prewarm"

_PRIORITY = {KIND_STALE: 0, KIND_DRIFT: 1, KIND_TTL: 2,
             KIND_ROLLUP: 3, KIND_PREWARM: 4}

#: Help text of every sample :meth:`BackgroundRefresher._samples` exports.
_HELP = {
    "repro_refresh_tasks_total": "Background refresh tasks scheduled, by kind.",
    "repro_refresh_completed_total":
        "Background refreshes that installed a fresh plan.",
    "repro_refresh_skipped_total":
        "Refresh tasks skipped (already in flight or already fresh).",
    "repro_refresh_queue_depth": "Pending background refresh tasks.",
}

#: Kinds that are speculative: skipped at execution time if the key became
#: resident (fresh) in the meantime — recomputing would be pure waste.
_SPECULATIVE = frozenset({KIND_ROLLUP, KIND_PREWARM})


@dataclass
class RefreshStats:
    """Counter snapshot returned by :meth:`BackgroundRefresher.stats`."""

    #: Tasks enqueued, by kind (stale / drift / ttl / rollup / prewarm).
    scheduled: Dict[str, int] = field(default_factory=dict)
    #: Tasks that ran a search and installed a fresh entry.
    completed: int = 0
    #: Tasks whose search raised (logged; the refresher keeps running).
    failed: int = 0
    #: Tasks skipped because an identical computation was already in flight
    #: (foreground single-flight parity).
    skipped_inflight: int = 0
    #: Speculative tasks skipped because the key was already fresh by the
    #: time they were dequeued.
    skipped_fresh: int = 0
    #: Tasks dropped by queue-bound pressure (lowest priority goes first).
    dropped: int = 0
    #: Entries invalidated because their structure bucket drifted away.
    drift_invalidations: int = 0
    #: Requests seen through the observation hook.
    observed_requests: int = 0
    #: Pending tasks at snapshot time.
    queue_depth: int = 0

    @property
    def total_scheduled(self) -> int:
        """Tasks enqueued across all kinds."""
        return sum(self.scheduled.values())


class TransitionTable:
    """First-order Markov counts over the observed signature-key sequence.

    ``observe(prev, nxt)`` increments the ``prev -> nxt`` edge;
    ``predict(key)`` returns the most frequent successors, deterministically
    ordered (count descending, key ascending).  Both sides are bounded:
    at most ``max_keys`` source keys are retained (least recently updated
    evicted first) and at most ``max_successors`` edges per source (lowest
    count evicted, so the hot successors survive).
    """

    def __init__(self, max_keys: int = 256, max_successors: int = 8) -> None:
        if max_keys < 1 or max_successors < 1:
            raise ValueError("transition-table bounds must be >= 1")
        self.max_keys = max_keys
        self.max_successors = max_successors
        self._edges: "OrderedDict[str, Dict[str, int]]" = OrderedDict()

    def observe(self, prev: str, nxt: str) -> None:
        """Record one observed transition ``prev -> nxt``."""
        successors = self._edges.get(prev)
        if successors is None:
            successors = self._edges[prev] = {}
        else:
            self._edges.move_to_end(prev)
        successors[nxt] = successors.get(nxt, 0) + 1
        if len(successors) > self.max_successors:
            victim = min(successors.items(), key=lambda item: (item[1], item[0]))
            del successors[victim[0]]
        while len(self._edges) > self.max_keys:
            self._edges.popitem(last=False)

    def predict(self, key: str, top_n: int = 2) -> List[str]:
        """The up-to-``top_n`` most likely successors of ``key`` (may be empty)."""
        successors = self._edges.get(key)
        if not successors:
            return []
        ranked = sorted(successors.items(), key=lambda item: (-item[1], item[0]))
        return [nxt for nxt, _count in ranked[:top_n] if nxt != key][:top_n]

    @property
    def num_edges(self) -> int:
        """Distinct transitions currently retained."""
        return sum(len(successors) for successors in self._edges.values())


class _FamilyState:
    """Drift-tracker state for one structured signature family.

    A *family* is the signature key minus its structure token — everything
    that stays fixed while the live geometry moves (envelope bucket, dtype,
    machine, budget, options).
    """

    __slots__ = ("ewma", "workload", "planned_key", "top_k", "projected_key")

    def __init__(self, level: float, workload: Workload, planned_key: str,
                 top_k: int) -> None:
        self.ewma = level
        self.workload = workload
        #: The bucket the family's smoothed level currently lives in — what
        #: its traffic is "planned under".  Updated when a crossing fires.
        self.planned_key = planned_key
        self.top_k = top_k
        #: The lookahead bucket we last pre-planned, so approaching an edge
        #: enqueues the neighbor once, not every tick.
        self.projected_key: Optional[str] = None


def _family_key(signature_key: str, structured: bool) -> Optional[str]:
    """The drift family of a signature key (``None`` for dense keys).

    Structured keys append the structure token as a sixth ``|``-separated
    part; stripping it leaves the stable family identity raw requests keep
    while their live counts move between buckets.
    """
    if not structured:
        return None
    return signature_key.rsplit("|", 1)[0]


def _live_level(workload: Workload) -> Optional[float]:
    """The drift metric of a raw structured workload (``None`` when dense).

    MoE-ragged batches drift in their routed-token total; block-sparse
    weights drift in their live-block count.  Skew *within* a bucket (which
    expert is hot, which blocks are live) is canonicalized away by bucketing
    and therefore cannot change a signature — only the level can.
    """
    structure = workload.structure
    if isinstance(structure, MoERagged):
        return float(structure.total_tokens)
    if isinstance(structure, BlockSparse):
        return float(structure.live_blocks)
    return None


def _drifted_workload(workload: Workload, level: float) -> Optional[Workload]:
    """A copy of ``workload`` whose live level is moved to ``level``.

    The synthetic workload exists only to be passed through
    :meth:`PlannerService.signature_for` — bucketing then decides whether
    the smoothed level lands in a different bucket than live traffic.
    Counts are clamped to the structure's feasible range and spread evenly
    (the same canonical spread bucketing itself uses).
    """
    structure = workload.structure
    if isinstance(structure, MoERagged):
        experts = structure.num_experts
        total = int(round(level))
        total = max(1, min(experts * structure.capacity, total))
        base, extra = divmod(total, experts)
        tokens = tuple(base + 1 if index < extra else base
                       for index in range(experts))
        drifted = MoERagged(expert_tokens=tokens, capacity=structure.capacity)
    elif isinstance(structure, BlockSparse):
        grid = structure.k_blocks * structure.n_blocks
        live = max(1, min(grid, int(round(level))))
        drifted = BlockSparse(block_k=structure.block_k,
                              block_n=structure.block_n,
                              mask=even_spread_mask(structure.k_blocks,
                                                    structure.n_blocks, live))
    else:
        return None
    return Workload(name=workload.name, m=workload.m, n=workload.n,
                    k=workload.k, structure=drifted)


class DriftTracker:
    """EWMA watcher that notices a family's live level leaving its bucket.

    Every observed structured request folds its raw live level (routed
    tokens / live blocks) into a per-family exponentially weighted moving
    average.  :meth:`tick` re-buckets the smoothed level two ways:

    * **crossing** — the smoothed level now maps to a different signature
      than the bucket the family was planned under: traffic's center of
      mass has left that bucket, so the old entry is reported for
      invalidation and the new bucket for off-path re-planning.  Each
      crossing fires once (the planned bucket then follows the level), so a
      family hovering at an edge cannot flap the refresher.
    * **lookahead** — the level projected ``±lookahead`` (e.g. 10%) maps to
      a *neighboring* bucket: the family is approaching an edge, so the
      neighbor is pre-planned *before* the first request lands in it —
      gradual density drift then never produces a request-path cold plan.
    """

    def __init__(self, alpha: float = 0.3, lookahead: float = 0.1,
                 max_families: int = 256) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= lookahead < 1.0:
            raise ValueError(f"lookahead must be in [0, 1), got {lookahead}")
        if max_families < 1:
            raise ValueError("max_families must be >= 1")
        self.alpha = alpha
        self.lookahead = lookahead
        self.max_families = max_families
        self._families: "OrderedDict[str, _FamilyState]" = OrderedDict()

    def observe(self, key: str, workload: Workload, top_k: int) -> None:
        """Fold one raw structured request into its family's moving average."""
        level = _live_level(workload)
        if level is None:
            return
        family = _family_key(key, structured=True)
        assert family is not None
        state = self._families.get(family)
        if state is None:
            self._families[family] = _FamilyState(level, workload, key, top_k)
            while len(self._families) > self.max_families:
                self._families.popitem(last=False)
            return
        self._families.move_to_end(family)
        state.ewma += self.alpha * (level - state.ewma)
        state.workload = workload
        state.top_k = top_k

    def tick(self, signature_for) -> "_DriftReport":
        """Re-bucket every family's smoothed level; see the class docs.

        Args:
            signature_for: callable ``(workload, top_k) -> ProblemSignature``
                (the owning service's bucketing, so drift and serving can
                never disagree about bucket edges).

        Returns:
            A :class:`_DriftReport` with the fired crossings and lookahead
            pre-plans.
        """
        report = _DriftReport()
        for state in self._families.values():
            workload = _drifted_workload(state.workload, state.ewma)
            if workload is None:
                continue
            signature = signature_for(workload, state.top_k)
            key = signature.key()
            if key != state.planned_key:
                report.crossings.append((state.planned_key, signature,
                                         state.top_k))
                state.planned_key = key
                state.projected_key = None
            if self.lookahead <= 0.0:
                continue
            for direction in (1.0 + self.lookahead, 1.0 - self.lookahead):
                ahead = _drifted_workload(state.workload,
                                          state.ewma * direction)
                if ahead is None:
                    continue
                neighbor = signature_for(ahead, state.top_k)
                neighbor_key = neighbor.key()
                if neighbor_key == key or neighbor_key == state.projected_key:
                    continue
                state.projected_key = neighbor_key
                report.lookaheads.append((neighbor, state.top_k))
                break
        return report

    @property
    def num_families(self) -> int:
        """Structured families currently tracked."""
        return len(self._families)


@dataclass
class _DriftReport:
    """One :meth:`DriftTracker.tick` outcome (crossings + lookahead pre-plans)."""

    #: ``(old_key, new_signature, top_k)`` — invalidate old, plan new.
    crossings: List[Tuple[str, ProblemSignature, int]] = field(default_factory=list)
    #: ``(neighbor_signature, top_k)`` — pre-plan an approaching bucket.
    lookaheads: List[Tuple[ProblemSignature, int]] = field(default_factory=list)


class _Task:
    """One queued refresh: priority-ordered, deduplicated by signature key."""

    __slots__ = ("priority", "seq", "kind", "key", "signature", "top_k")

    def __init__(self, seq: int, kind: str, key: str,
                 signature: ProblemSignature, top_k: int) -> None:
        self.priority = _PRIORITY[kind]
        self.seq = seq
        self.kind = kind
        self.key = key
        self.signature = signature
        self.top_k = top_k

    def __lt__(self, other: "_Task") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class BackgroundRefresher:
    """Daemon refresh engine owned by one :class:`PlannerService`.

    Construction wires the observation hook
    (:meth:`PlannerService.set_observer`) but starts no threads;
    :meth:`start` spawns the scheduler and worker pool, and
    :meth:`run_once` drives everything synchronously instead when
    determinism matters more than concurrency.

    Args:
        service: the planner service whose cache this refresher keeps warm.
        interval_seconds: scheduler cadence for the periodic passes
            (pre-TTL, rollup, drift, prewarm); stale serves wake it early.
        num_threads: size of the planning worker pool (>= 1).  Searches are
            CPU-bound, so more than a couple only adds contention.
        max_queue: pending-task bound; on overflow the lowest-priority
            (then newest) pending task is dropped and counted.
        refresh_margin: fraction of the cache TTL treated as the pre-expiry
            refresh window — an entry older than ``ttl * (1 - margin)`` is
            re-planned ahead of expiry.  Ignored without a TTL.
        prewarm: enable transition-table prewarming of likely-next
            signatures.
        prewarm_top_n: successors enqueued per observed key.
        drift: enable drift-triggered re-planning of structured families.
        drift_alpha: EWMA smoothing factor for the drift metric.
        rollup_top_n: how many :meth:`PlannerService.refresh_candidates`
            entries each periodic pass considers.
        max_signatures: bound on the observed key -> signature map (least
            recently served evicted first; only observed signatures can be
            refreshed, since only they carry a plannable signature object).
    """

    def __init__(
        self,
        service,
        *,
        interval_seconds: float = 1.0,
        num_threads: int = 1,
        max_queue: int = 64,
        refresh_margin: float = 0.25,
        prewarm: bool = True,
        prewarm_top_n: int = 2,
        drift: bool = True,
        drift_alpha: float = 0.3,
        rollup_top_n: int = 8,
        max_signatures: int = 1024,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if not 0.0 < refresh_margin < 1.0:
            raise ValueError(f"refresh_margin must be in (0, 1), got {refresh_margin}")
        self.service = service
        self.interval_seconds = interval_seconds
        self.num_threads = num_threads
        self.max_queue = max_queue
        self.refresh_margin = refresh_margin
        self.prewarm_enabled = prewarm
        self.prewarm_top_n = prewarm_top_n
        self.drift_enabled = drift
        self.rollup_top_n = rollup_top_n
        self.max_signatures = max_signatures
        self.transitions = TransitionTable()
        self.drift = DriftTracker(alpha=drift_alpha) if drift else None

        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._wake = threading.Event()
        self._heap: List[_Task] = []
        self._enqueued: set = set()
        self._active: set = set()
        self._signatures: "OrderedDict[str, Tuple[ProblemSignature, int]]" = OrderedDict()
        self._last_key: Optional[str] = None
        self._seq = 0
        self._stats = RefreshStats(scheduled={kind: 0 for kind in _PRIORITY})
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self._pid: Optional[int] = None

        registry = service.metrics_registry
        registry.add_source(self._samples, _HELP)
        self._m_latency = registry.histogram(
            "repro_refresh_latency_seconds",
            "Background refresh (search) latency in seconds.",
            buckets=DEFAULT_LATENCY_BUCKETS)
        service.set_observer(self)

    # ------------------------------------------------------------------ #
    # observation feed (called from the service's request path)
    # ------------------------------------------------------------------ #
    def observe_request(self, signature: ProblemSignature, top_k: int,
                        workload: Workload, *, stale: bool) -> None:
        """Fold one served request into the refresher's models.

        Cheap by design (dict/heap updates under one lock): remembers the
        signature so it can be re-planned later, feeds the transition table
        and drift tracker, and — when the request was served stale — enqueues
        an immediate refresh and wakes the scheduler.
        """
        key = signature.key()
        with self._lock:
            self._stats.observed_requests += 1
            self._signatures[key] = (signature, top_k)
            self._signatures.move_to_end(key)
            while len(self._signatures) > self.max_signatures:
                self._signatures.popitem(last=False)
            if self.prewarm_enabled and self._last_key is not None:
                self.transitions.observe(self._last_key, key)
            self._last_key = key
            if self.drift is not None and not workload.structure.is_dense:
                self.drift.observe(key, workload, top_k)
            if stale:
                self._enqueue_locked(KIND_STALE, key, signature, top_k)
        if stale:
            self._wake.set()

    def feed_request_log(self, target) -> int:
        """Seed the transition table from a recorded request log.

        Only transition *counts* can be learned from a log (records carry
        signature keys, not plannable signature objects), so predictions
        become actionable once live traffic has shown the keys to this
        process.  Returns how many records were consumed.
        """
        count = 0
        prev: Optional[str] = None
        with self._lock:
            for record in iter_records(target):
                if prev is not None:
                    self.transitions.observe(prev, record.signature)
                prev = record.signature
                count += 1
        return count

    # ------------------------------------------------------------------ #
    # queue
    # ------------------------------------------------------------------ #
    def _enqueue_locked(self, kind: str, key: str,
                        signature: ProblemSignature, top_k: int) -> bool:
        """Enqueue one task (caller holds the lock); False when deduplicated."""
        if key in self._enqueued or key in self._active:
            return False
        self._seq += 1
        heapq.heappush(self._heap,
                       _Task(self._seq, kind, key, signature, top_k))
        self._enqueued.add(key)
        self._stats.scheduled[kind] += 1
        if len(self._heap) > self.max_queue:
            victim = max(self._heap, key=lambda task: (task.priority, task.seq))
            self._heap.remove(victim)
            heapq.heapify(self._heap)
            self._enqueued.discard(victim.key)
            self._stats.dropped += 1
            if victim.key == key:
                return False
        self._work_ready.notify()
        return True

    def _pop_task_locked(self) -> Optional[_Task]:
        """Take the most urgent pending task (caller holds the lock)."""
        if not self._heap:
            return None
        task = heapq.heappop(self._heap)
        self._enqueued.discard(task.key)
        self._active.add(task.key)
        return task

    def _execute(self, task: _Task) -> None:
        """Run one refresh task (no locks held; exceptions are absorbed)."""
        try:
            if task.kind in _SPECULATIVE and task.key in self.service.cache:
                with self._lock:
                    self._stats.skipped_fresh += 1
                return
            started = time.perf_counter()
            computed = self.service.refresh(task.signature, top_k=task.top_k)
            elapsed = time.perf_counter() - started
            with self._lock:
                if computed:
                    self._stats.completed += 1
                else:
                    self._stats.skipped_inflight += 1
            if computed:
                self._m_latency.observe(elapsed)
        except Exception as error:  # noqa: BLE001 - the pool must survive
            with self._lock:
                self._stats.failed += 1
            log_event(_LOG, "refresh.task.failed", kind=task.kind,
                      key=task.key, error=f"{type(error).__name__}: {error}")
        finally:
            with self._lock:
                self._active.discard(task.key)

    # ------------------------------------------------------------------ #
    # scheduling passes
    # ------------------------------------------------------------------ #
    def _schedule_pass(self) -> int:
        """Run every periodic scan once; returns how many tasks were enqueued.

        Order matters only for queue-bound pressure: drift first (it also
        invalidates), then pre-TTL, then rollup, then speculative prewarm.
        """
        scheduled = 0
        scheduled += self._schedule_drift()
        scheduled += self._schedule_ttl()
        scheduled += self._schedule_rollup()
        scheduled += self._schedule_prewarm()
        return scheduled

    def _schedule_ttl(self) -> int:
        """Enqueue observed entries inside the pre-expiry refresh window."""
        ttl = self.service.cache.ttl_seconds
        if ttl is None:
            return 0
        threshold = ttl * (1.0 - self.refresh_margin)
        scheduled = 0
        ages = self.service.cache.entry_ages()
        with self._lock:
            for key, age in ages.items():
                if age < threshold:
                    continue
                known = self._signatures.get(key)
                if known is None:
                    continue  # warm-start entry never observed here: no signature
                kind = KIND_STALE if age > ttl else KIND_TTL
                if self._enqueue_locked(kind, key, known[0], known[1]):
                    scheduled += 1
        return scheduled

    def _schedule_rollup(self) -> int:
        """Enqueue hot-by-telemetry signatures that are aging or missing."""
        ttl = self.service.cache.ttl_seconds
        min_age = ttl * (1.0 - self.refresh_margin) if ttl is not None else 0.0
        candidates = self.service.refresh_candidates(
            self.rollup_top_n, min_age_seconds=min_age)
        scheduled = 0
        with self._lock:
            for key, _requests, age in candidates:
                known = self._signatures.get(key)
                if known is None:
                    continue
                if age is None and key in self.service.cache:
                    continue  # raced: something repopulated it already
                if age is not None and ttl is None:
                    continue  # resident and unexpiring: nothing to refresh
                if self._enqueue_locked(KIND_ROLLUP, key, known[0], known[1]):
                    scheduled += 1
        return scheduled

    def _schedule_prewarm(self) -> int:
        """Enqueue predicted-next signatures that are not resident."""
        if not self.prewarm_enabled:
            return 0
        scheduled = 0
        with self._lock:
            last = self._last_key
            if last is None:
                return 0
            for key in self.transitions.predict(last, self.prewarm_top_n):
                known = self._signatures.get(key)
                if known is None or key in self.service.cache:
                    continue
                if self._enqueue_locked(KIND_PREWARM, key, known[0], known[1]):
                    scheduled += 1
        return scheduled

    def _schedule_drift(self) -> int:
        """Invalidate drifted families and pre-plan the buckets they enter."""
        if self.drift is None:
            return 0
        with self._lock:
            report = self.drift.tick(self.service.signature_for)
            scheduled = 0
            for old_key, signature, top_k in report.crossings:
                if self.service.cache.invalidate(old_key):
                    self._stats.drift_invalidations += 1
                new_key = signature.key()
                self._signatures[new_key] = (signature, top_k)
                if new_key not in self.service.cache and self._enqueue_locked(
                        KIND_DRIFT, new_key, signature, top_k):
                    scheduled += 1
                log_event(_LOG, "refresh.drift", old=old_key, new=new_key)
            for signature, top_k in report.lookaheads:
                key = signature.key()
                self._signatures[key] = (signature, top_k)
                if key in self.service.cache:
                    continue
                if self._enqueue_locked(KIND_DRIFT, key, signature, top_k):
                    scheduled += 1
        return scheduled

    # ------------------------------------------------------------------ #
    # synchronous drive (tests / benchmarks)
    # ------------------------------------------------------------------ #
    def run_once(self, *, drain: bool = True) -> int:
        """One synchronous schedule-and-drain cycle in the calling thread.

        Runs every periodic pass, then (with ``drain``) executes pending
        tasks inline until the queue is empty.  Usable whether or not the
        threads are running — with them running it simply competes for the
        same queue.  Returns how many tasks this call executed.
        """
        self._schedule_pass()
        executed = 0
        while drain:
            with self._lock:
                task = self._pop_task_locked()
            if task is None:
                break
            self._execute(task)
            executed += 1
        return executed

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        """True while this process's scheduler/worker threads are alive."""
        return bool(self._threads) and self._pid == os.getpid()

    def start(self) -> None:
        """Spawn the scheduler and worker threads (idempotent).

        A refresher inherited across ``fork()`` counts as stopped (threads
        never survive a fork); calling ``start()`` in the child spawns a
        fresh set for the child's own service.
        """
        with self._lock:
            if self.running:
                return
            self._threads = []
            self._stopping = False
            self._pid = os.getpid()
            scheduler = threading.Thread(target=self._scheduler_loop,
                                         name="plan-refresh-scheduler",
                                         daemon=True)
            self._threads.append(scheduler)
            for index in range(self.num_threads):
                worker = threading.Thread(target=self._worker_loop,
                                          name=f"plan-refresh-{index}",
                                          daemon=True)
                self._threads.append(worker)
        for thread in self._threads:
            thread.start()
        log_event(_LOG, "refresh.start", pid=os.getpid(),
                  threads=self.num_threads,
                  interval=self.interval_seconds)

    def stop(self) -> None:
        """Stop and join the threads (idempotent; safe after ``fork()``)."""
        with self._lock:
            threads, self._threads = self._threads, []
            self._stopping = True
            self._work_ready.notify_all()
        self._wake.set()
        same_process = self._pid == os.getpid()
        for thread in threads:
            if same_process and thread.is_alive():
                thread.join(timeout=10.0)
        self._pid = None
        if threads:
            log_event(_LOG, "refresh.stop", pid=os.getpid())

    def close(self) -> None:
        """Detach from the service and stop the threads."""
        self.stop()
        if getattr(self.service, "_observer", None) is self:
            self.service.set_observer(None)

    def __enter__(self) -> "BackgroundRefresher":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> RefreshStats:
        """Snapshot of the refresh counters."""
        with self._lock:
            snapshot = replace(self._stats, scheduled=dict(self._stats.scheduled))
            snapshot.queue_depth = len(self._heap)
            return snapshot

    def _samples(self) -> Samples:
        """The registry source: the exported counters from one :meth:`stats`."""
        stats = self.stats()
        counters = {instrument_name("repro_refresh_tasks_total", {"kind": kind}): count
                    for kind, count in stats.scheduled.items()}
        counters["repro_refresh_completed_total"] = stats.completed
        counters["repro_refresh_skipped_total"] = (stats.skipped_inflight
                                                   + stats.skipped_fresh)
        return {"counters": counters,
                "gauges": {"repro_refresh_queue_depth": stats.queue_depth}}

    # ------------------------------------------------------------------ #
    # threads
    # ------------------------------------------------------------------ #
    def _scheduler_loop(self) -> None:
        """Periodic pass driver: ticks every interval, earlier when woken."""
        while True:
            self._wake.wait(timeout=self.interval_seconds)
            self._wake.clear()
            with self._lock:
                if self._stopping:
                    return
            try:
                self._schedule_pass()
            except Exception as error:  # noqa: BLE001 - keep scheduling
                log_event(_LOG, "refresh.schedule.failed",
                          error=f"{type(error).__name__}: {error}")

    def _worker_loop(self) -> None:
        """Worker: drain the priority queue until told to stop."""
        while True:
            with self._lock:
                while not self._heap and not self._stopping:
                    self._work_ready.wait(timeout=self.interval_seconds)
                if self._stopping:
                    return
                task = self._pop_task_locked()
            if task is not None:
                self._execute(task)
