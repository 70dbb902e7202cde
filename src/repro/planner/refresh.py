"""Background refresh engine: keep the plan cache warm off the request path.

A warm plan-cache hit is microseconds; a cold plan is tens of milliseconds —
a ~7000x p99 spike whenever one lands on the request path.  This module
moves the two expiry-driven reasons for a cold plan to a small background
pool:

* **stale-triggered refresh** — when the service serves an
  expired-but-in-grace entry (stale-while-revalidate,
  :meth:`~repro.planner.cache.PlanCache.get_for_serving`), the observation
  hook enqueues the signature at the highest priority, so the *next* request
  gets a fresh plan;
* **pre-TTL refresh** — resident entries whose remaining lifetime fell under
  the refresh margin are recomputed *before* expiry, so steady traffic never
  even sees the grace window.

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

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, Samples, instrument_name
from repro.planner.signature import ProblemSignature
from repro.util.logging import get_logger, log_event

_LOG = get_logger("planner.refresh")

#: Task kinds in priority order (lower number = more urgent).  A stale serve
#: means a request already saw an expired plan, so it outranks a plan that
#: is merely about to expire.
KIND_STALE = "stale"
KIND_TTL = "ttl"

_PRIORITY = {KIND_STALE: 0, KIND_TTL: 1}

#: Size of the planning worker pool.  Searches are CPU-bound, so more than a
#: couple only adds contention.
NUM_THREADS = 1

#: Pending-task bound; on overflow the lowest-priority (then newest) pending
#: task is dropped and counted.
MAX_QUEUE = 64

#: Bound on the observed key -> signature map (least recently served evicted
#: first; only observed signatures can be refreshed, since only they carry a
#: plannable signature object).
MAX_SIGNATURES = 1024

#: Help text of every sample :meth:`BackgroundRefresher._samples` exports.
_HELP = {
    "repro_refresh_tasks_total": "Background refresh tasks scheduled, by kind.",
    "repro_refresh_completed_total":
        "Background refreshes that installed a fresh plan.",
    "repro_refresh_skipped_total":
        "Refresh tasks skipped because the same plan was already in flight.",
    "repro_refresh_queue_depth": "Pending background refresh tasks.",
}


@dataclass
class RefreshStats:
    """Counter snapshot returned by :meth:`BackgroundRefresher.stats`."""

    #: Tasks enqueued, by kind (stale / ttl).
    scheduled: Dict[str, int] = field(default_factory=dict)
    #: Tasks that ran a search and installed a fresh entry.
    completed: int = 0
    #: Tasks whose search raised (logged; the refresher keeps running).
    failed: int = 0
    #: Tasks skipped because an identical computation was already in flight
    #: (foreground single-flight parity).
    skipped_inflight: int = 0
    #: Tasks dropped by queue-bound pressure (lowest priority goes first).
    dropped: int = 0
    #: Requests seen through the observation hook.
    observed_requests: int = 0
    #: Pending tasks at snapshot time.
    queue_depth: int = 0

    @property
    def total_scheduled(self) -> int:
        """Tasks enqueued across all kinds."""
        return sum(self.scheduled.values())


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
        interval_seconds: scheduler cadence for the periodic pre-TTL pass;
            stale serves wake it early.
        refresh_margin: fraction of the cache TTL treated as the pre-expiry
            refresh window — an entry older than ``ttl * (1 - margin)`` is
            re-planned ahead of expiry.  Ignored without a TTL.

    The pool size, queue bound and signature-map bound are the module
    constants :data:`NUM_THREADS`, :data:`MAX_QUEUE` and
    :data:`MAX_SIGNATURES`.
    """

    def __init__(
        self,
        service,
        *,
        interval_seconds: float = 1.0,
        refresh_margin: float = 0.25,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
        if not 0.0 < refresh_margin < 1.0:
            raise ValueError(f"refresh_margin must be in (0, 1), got {refresh_margin}")
        self.service = service
        self.interval_seconds = interval_seconds
        self.refresh_margin = refresh_margin

        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._wake = threading.Event()
        self._heap: List[_Task] = []
        self._enqueued: set = set()
        self._active: set = set()
        self._signatures: "OrderedDict[str, Tuple[ProblemSignature, int]]" = OrderedDict()
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
    def observe_request(self, signature: ProblemSignature, top_k: int, *,
                        stale: bool) -> None:
        """Fold one served request into the refresher's signature map.

        Cheap by design (dict/heap updates under one lock): remembers the
        signature so the pre-TTL pass can re-plan it later, and — when the
        request was served stale — enqueues an immediate refresh and wakes
        the scheduler.
        """
        key = signature.key()
        with self._lock:
            self._stats.observed_requests += 1
            self._signatures[key] = (signature, top_k)
            self._signatures.move_to_end(key)
            while len(self._signatures) > MAX_SIGNATURES:
                self._signatures.popitem(last=False)
            if stale:
                self._enqueue_locked(KIND_STALE, key, signature, top_k)
        if stale:
            self._wake.set()

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
        if len(self._heap) > MAX_QUEUE:
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
    # scheduling pass
    # ------------------------------------------------------------------ #
    def _schedule_pass(self) -> None:
        """Enqueue observed entries inside the pre-expiry refresh window.

        An entry already past its TTL (served stale, or not requested since
        it expired) is enqueued as a stale refresh, ahead of the merely
        aging ones.
        """
        ttl = self.service.cache.ttl_seconds
        if ttl is None:
            return
        threshold = ttl * (1.0 - self.refresh_margin)
        ages = self.service.cache.entry_ages()
        with self._lock:
            for key, age in ages.items():
                if age < threshold:
                    continue
                known = self._signatures.get(key)
                if known is None:
                    continue  # warm-start entry never observed here: no signature
                kind = KIND_STALE if age > ttl else KIND_TTL
                self._enqueue_locked(kind, key, known[0], known[1])

    # ------------------------------------------------------------------ #
    # synchronous drive (tests / benchmarks)
    # ------------------------------------------------------------------ #
    def run_once(self, *, drain: bool = True) -> int:
        """One synchronous schedule-and-drain cycle in the calling thread.

        Runs the periodic pre-TTL pass, then (with ``drain``) executes pending
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
            for index in range(NUM_THREADS):
                worker = threading.Thread(target=self._worker_loop,
                                          name=f"plan-refresh-{index}",
                                          daemon=True)
                self._threads.append(worker)
        for thread in self._threads:
            thread.start()
        log_event(_LOG, "refresh.start", pid=os.getpid(),
                  threads=NUM_THREADS,
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
        counters["repro_refresh_skipped_total"] = stats.skipped_inflight
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
