"""Cross-worker serving statistics: per-worker snapshots and their aggregate.

Each :class:`~repro.serve.server.PlanServer` worker is shared-nothing — it
owns a private :class:`~repro.planner.service.PlannerService` whose counters
(:class:`~repro.planner.service.ServiceStats`) and plan-cache counters
(:class:`~repro.planner.cache.CacheStats`) describe only that worker's
traffic; they are the one store of those counters, which the worker's
metrics registry only exports.  This module carries the snapshots across
the process boundary (plain dicts in the dataclass field layout; parent
and workers are one build, so a missing or unknown field is a
:class:`~repro.serve.protocol.ProtocolError`) and sums them into the
fleet-wide view: total requests, total hits, how traffic spread.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.planner.cache import CacheStats
from repro.planner.service import ServiceStats
from repro.serve.protocol import ProtocolError


@dataclass
class WorkerStats:
    """One worker's identity plus its serving and cache counter snapshots."""

    worker: int
    pid: int
    service: ServiceStats
    cache: CacheStats

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (inverse of :meth:`from_dict`)."""
        return {
            "worker": self.worker,
            "pid": self.pid,
            "service": dataclasses.asdict(self.service),
            "cache": dataclasses.asdict(self.cache),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "WorkerStats":
        """Rebuild a snapshot from :meth:`to_dict` output.

        Raises:
            ProtocolError: when a field is missing, unknown or malformed.
        """
        try:
            return cls(worker=int(payload["worker"]),  # type: ignore[arg-type]
                       pid=int(payload["pid"]),  # type: ignore[arg-type]
                       service=ServiceStats(**payload["service"]),  # type: ignore[arg-type]
                       cache=CacheStats(**payload["cache"]))  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed stats reply: "
                                f"{type(error).__name__}: {error}") from error


#: ServiceStats fields that are extremes, not sums — aggregating them by
#: addition would fabricate a latency no single worker ever observed.
_MAX_FIELDS = frozenset({"max_planning_time"})


def aggregate_service_stats(parts: Sequence[ServiceStats]) -> ServiceStats:
    """Combine serving counters across workers.

    Additive counters (requests, hits, planning time totals...) sum;
    extremes (``max_planning_time``) take the max, so the fleet view
    preserves the slowest single request any worker actually served.

    Args:
        parts: per-worker :class:`ServiceStats` snapshots.

    Returns:
        One :class:`ServiceStats` holding the fleet totals (the derived
        ``hit_rate`` property then reads as the fleet-wide rate).
    """
    total = ServiceStats()
    for part in parts:
        for field in dataclasses.fields(ServiceStats):
            if field.name in _MAX_FIELDS:
                setattr(total, field.name,
                        max(getattr(total, field.name), getattr(part, field.name)))
            else:
                setattr(total, field.name,
                        getattr(total, field.name) + getattr(part, field.name))
    return total


@dataclass
class ServerStats:
    """The fleet view: per-worker snapshots plus their summed totals."""

    workers: List[WorkerStats]
    totals: ServiceStats
    #: Supervised restarts per worker index (parent-side accounting: a
    #: restarted worker starts its counters from zero, so its deaths are
    #: only visible here).  Empty when supervision never restarted anyone.
    restarts: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_workers(cls, workers: Sequence[WorkerStats],
                     restarts: Optional[Dict[int, int]] = None) -> "ServerStats":
        """Aggregate a set of per-worker snapshots.

        Args:
            workers: the per-worker counter snapshots that answered.
            restarts: the parent's per-worker restart counts, when the
                server runs supervised (``None`` keeps the field empty).
        """
        ordered = sorted(workers, key=lambda w: w.worker)
        return cls(workers=list(ordered),
                   totals=aggregate_service_stats([w.service for w in ordered]),
                   restarts=dict(restarts or {}))

    @property
    def num_workers(self) -> int:
        """How many workers reported."""
        return len(self.workers)

    @property
    def total_restarts(self) -> int:
        """Supervised worker restarts across the fleet's lifetime."""
        return sum(self.restarts.values())

    @property
    def workers_with_hits(self) -> int:
        """How many workers served at least one cache hit (traffic spread)."""
        return sum(1 for w in self.workers if w.service.cache_hits > 0)

    @property
    def workers_with_requests(self) -> int:
        """How many workers served at least one request."""
        return sum(1 for w in self.workers if w.service.requests > 0)

    @property
    def max_planning_time(self) -> float:
        """Slowest single request any worker served (a fleet extreme)."""
        return self.totals.max_planning_time

    @property
    def oldest_plan_age(self) -> Optional[float]:
        """Age of the oldest plan resident on any worker (``None`` when all
        caches are empty or predate age reporting)."""
        ages = [w.cache.oldest_age_seconds for w in self.workers
                if w.cache.oldest_age_seconds is not None]
        return max(ages) if ages else None

    def describe(self) -> str:
        """Human-readable multi-line summary (one row per worker + totals)."""
        lines = []
        for snap in self.workers:
            svc = snap.service
            restarted = self.restarts.get(snap.worker, 0)
            suffix = f", {restarted} restarts" if restarted else ""
            lines.append(
                f"worker {snap.worker} (pid {snap.pid}): {svc.requests} requests, "
                f"{svc.plans_computed} planned, {svc.cache_hits} hits "
                f"({svc.hit_rate:.0%}), {svc.coalesced_requests} coalesced, "
                f"cache {snap.cache.size}/{snap.cache.capacity} entries{suffix}"
            )
        totals = self.totals
        restart_note = (f", {self.total_restarts} worker restarts"
                        if self.total_restarts else "")
        lines.append(
            f"fleet ({self.num_workers} workers): {totals.requests} requests, "
            f"{totals.plans_computed} planned, {totals.cache_hits} hits "
            f"({totals.hit_rate:.0%}), {totals.candidates_pruned} of "
            f"{totals.candidates_pruned + totals.candidates_simulated} "
            f"candidate simulations pruned{restart_note}"
        )
        return "\n".join(lines)
