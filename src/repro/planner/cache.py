"""Plan cache: a bounded, TTL-evicting LRU store with JSON persistence.

The cache maps :meth:`ProblemSignature.key` strings to :class:`PlanEntry`
values (the ranked recommendations computed by the search).  Serving traffic
is read-heavy and highly repetitive, so the hot path is a single ordered-dict
lookup under a lock; hit/miss/eviction counters make cache sizing observable.
They are kept once, here; a metrics registry exports :meth:`PlanCache.stats`.

Long-lived serving workers mean the store must be **bounded**: in addition to
the entry-count capacity, the cache can enforce a byte budget (``max_bytes``,
measured as the JSON-serialized footprint of each entry — the same bytes the
on-disk store would occupy) and a per-entry time-to-live (``ttl_seconds``).
Over-budget inserts evict in LRU order; expired entries are dropped lazily on
access and eagerly on load, and both show up in the counters
(:attr:`CacheStats.evictions` / :attr:`CacheStats.expirations`).

A **grace window** (``grace_seconds``) softens TTL expiry for serving:
:meth:`~PlanCache.get_for_serving` keeps answering with an expired entry for
up to ``grace_seconds`` past its TTL, flagging the answer stale so the caller
can revalidate in the background (stale-while-revalidate).  The plain
:meth:`~PlanCache.get` path is unchanged — expiry there still means a miss —
so callers that never opt in see the historical behavior bit for bit.

The JSON store gives warm starts across processes: a service can
:meth:`~PlanCache.save` its cache on shutdown and :meth:`~PlanCache.load` it
at boot, skipping every simulation for previously planned signatures.  The
store mirrors the in-memory bounds: entries persist in LRU-to-MRU order with
their creation timestamps (schema v3), so a reloaded cache evicts and expires
exactly as the original would have.  Version-2 stores (which predate the
timestamps) migrate on load — their entries are re-stamped at load time.
Entries referencing partitioning schemes unknown to this build (e.g. a store
written by a newer version) are skipped rather than failing the load.

Plans are only as good as the cost model that priced them, so entries are
stamped with a **cost-model fingerprint**
(:meth:`repro.core.cost_model.CostModel.fingerprint`).  Loading with an
expected fingerprint silently drops entries stamped differently (or not at
all): after a pricing change, stale plans invalidate themselves instead of
being served.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.bench.schemes import scheme_by_name
from repro.bench.selector import PartitioningRecommendation
from repro.bench.workloads import Workload
from repro.obs.metrics import NULL_REGISTRY, Samples, instrument_name

#: Schema version of the persistent plan store.  Version 3 added per-entry
#: creation timestamps (for TTL eviction across processes); version 2 added
#: the cost-model fingerprint stamps.  Version-2 stores still load (their
#: entries are re-stamped at load time); version-1 stores predate the
#: fingerprints and are treated as entirely stale.
STORE_VERSION = 3

#: Older schema versions :meth:`PlanCache.load` still accepts (by migration).
LEGACY_STORE_VERSIONS = (2,)


def recommendation_to_dict(rec: PartitioningRecommendation) -> Dict[str, object]:
    """JSON-friendly form of one recommendation (scheme stored by name)."""
    return {
        "scheme": rec.scheme.name,
        "replication": list(rec.replication),
        "stationary": rec.stationary,
        "percent_of_peak": rec.percent_of_peak,
        "simulated_time": rec.simulated_time,
        "memory_per_device": rec.memory_per_device,
    }


def recommendation_from_dict(payload: Dict[str, object]) -> PartitioningRecommendation:
    """Inverse of :func:`recommendation_to_dict` (raises KeyError on unknown schemes)."""
    return PartitioningRecommendation(
        scheme=scheme_by_name(str(payload["scheme"])),
        replication=tuple(int(x) for x in payload["replication"]),  # type: ignore[union-attr]
        stationary=str(payload["stationary"]),
        percent_of_peak=float(payload["percent_of_peak"]),  # type: ignore[arg-type]
        simulated_time=float(payload["simulated_time"]),  # type: ignore[arg-type]
        memory_per_device=int(payload["memory_per_device"]),  # type: ignore[arg-type]
    )


@dataclass
class PlanEntry:
    """One cached planning outcome: the ranked plans for a signature bucket."""

    recommendations: List[PartitioningRecommendation]
    #: The workload the plan was actually computed for (the shape bucket's
    #: representative when bucketing is enabled).
    workload: Optional[Workload] = None
    num_simulated: int = 0
    num_pruned: int = 0
    #: Digest of the cost model that priced this plan
    #: (:meth:`repro.core.cost_model.CostModel.fingerprint`); ``None`` for
    #: entries built outside a service context.
    fingerprint: Optional[str] = None
    #: The encoded entry-invariant runs of this entry's wire reply, filled
    #: by :func:`repro.serve.protocol.reply_frame` the first time the entry
    #: is served over the wire; never persisted.  A refreshed or replaced
    #: entry is a new object, so its memo goes with it.
    wire_parts: Optional[List[bytes]] = field(default=None, init=False,
                                              repr=False, compare=False)

    @property
    def best(self) -> PartitioningRecommendation:
        """The top-ranked recommendation."""
        return self.recommendations[0]

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form of the entry (inverse of :meth:`from_dict`)."""
        return {
            "recommendations": [recommendation_to_dict(r) for r in self.recommendations],
            "workload": self.workload.to_dict() if self.workload is not None else None,
            "num_simulated": self.num_simulated,
            "num_pruned": self.num_pruned,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PlanEntry":
        """Rebuild an entry from :meth:`to_dict` output (raises on unknown schemes)."""
        workload = payload.get("workload")
        fingerprint = payload.get("fingerprint")
        return cls(
            recommendations=[
                recommendation_from_dict(item) for item in payload["recommendations"]  # type: ignore[union-attr]
            ],
            workload=Workload.from_dict(workload) if workload else None,  # type: ignore[arg-type]
            num_simulated=int(payload.get("num_simulated", 0)),  # type: ignore[arg-type]
            num_pruned=int(payload.get("num_pruned", 0)),  # type: ignore[arg-type]
            fingerprint=str(fingerprint) if fingerprint is not None else None,
        )


#: Decoders for specialized entry payloads in the persistent store, keyed by
#: the payload's ``"kind"`` discriminator.  Plain :class:`PlanEntry` payloads
#: carry no kind and keep their historical decoding; subclasses (the graph
#: planner's :class:`~repro.planner.graph.GraphPlanEntry`) register here at
#: import time so :meth:`PlanCache.load` can round-trip them.  Payloads with
#: an unregistered kind are skipped, exactly like unknown-scheme entries.
_ENTRY_DECODERS: Dict[str, Callable[[Dict[str, object]], PlanEntry]] = {}


def register_entry_decoder(kind: str,
                           decoder: Callable[[Dict[str, object]], PlanEntry]) -> None:
    """Register the ``from_dict`` for one specialized plan-entry ``kind``."""
    _ENTRY_DECODERS[str(kind)] = decoder


def decode_entry(payload: Dict[str, object]) -> Optional[PlanEntry]:
    """Decode one persisted entry payload, dispatching on its ``kind``.

    Returns ``None`` for unregistered kinds (forward compatibility: a store
    written by a newer build must not fail the whole load).  Raises the same
    ``KeyError``/``ValueError`` family as :meth:`PlanEntry.from_dict` for
    malformed payloads — :meth:`PlanCache.load` already tolerates those.
    """
    kind = payload.get("kind")
    if kind is None:
        return PlanEntry.from_dict(payload)
    decoder = _ENTRY_DECODERS.get(str(kind))
    return decoder(payload) if decoder is not None else None


@dataclass
class CacheStats:
    """Counter snapshot returned by :meth:`PlanCache.stats`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    #: Entries dropped because their TTL elapsed (on access or on load).
    expirations: int = 0
    size: int = 0
    capacity: int = 0
    #: Serialized footprint of all resident entries, in bytes.
    total_bytes: int = 0
    #: The configured byte budget (``None`` means unbounded).
    max_bytes: Optional[int] = None
    #: The configured per-entry time-to-live (``None`` means entries never expire).
    ttl_seconds: Optional[float] = None
    #: Age in seconds of the oldest resident entry (``None`` when empty).
    oldest_age_seconds: Optional[float] = None
    #: Expired-but-in-grace entries served by :meth:`PlanCache.get_for_serving`
    #: (each also counts as a hit — the caller got an answer).
    stale_serves: int = 0
    #: The configured stale-while-revalidate window (``None`` means expiry
    #: is hard even on the serving path).
    grace_seconds: Optional[float] = None

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_LOOKUPS = "repro_plan_cache_lookups_total"

#: Help text of every sample :meth:`PlanCache._samples` exports.
_HELP = {
    "repro_plan_cache_lookups_total": "Plan-cache lookups by result.",
    "repro_plan_cache_puts_total": "Plan-cache inserts.",
    "repro_plan_cache_evictions_total": "Entries evicted by capacity/byte pressure.",
    "repro_plan_cache_expirations_total": "Entries dropped by TTL.",
    "repro_plan_cache_stale_serves_total":
        "Expired-but-in-grace entries served pending a refresh.",
    "repro_plan_cache_entries": "Resident plan-cache entries.",
    "repro_plan_cache_bytes": "Serialized bytes of resident entries.",
}


class _Slot:
    """Internal cache slot: the entry plus its bookkeeping (age and footprint)."""

    __slots__ = ("entry", "created_at", "size_bytes")

    def __init__(self, entry: PlanEntry, created_at: float, size_bytes: int) -> None:
        self.entry = entry
        self.created_at = created_at
        self.size_bytes = size_bytes


def entry_size_bytes(entry: PlanEntry) -> int:
    """Serialized footprint of one entry — the bytes it would occupy on disk.

    This is the unit the ``max_bytes`` budget is charged in, so the in-memory
    bound and the persistent store's size agree (up to the fixed framing
    overhead of the store envelope).
    """
    return len(json.dumps(entry.to_dict(), separators=(",", ":")).encode("utf-8"))


class PlanCache:
    """Thread-safe bounded LRU cache of :class:`PlanEntry` keyed by signatures.

    Three independent bounds keep long-lived workers from growing without
    limit; any combination may be active:

    * ``capacity`` — maximum number of resident entries (LRU eviction);
    * ``max_bytes`` — maximum summed :func:`entry_size_bytes` footprint
      (LRU eviction; the most recent insert itself is always admitted, so a
      single oversized entry occupies the cache alone rather than deadlocking
      every put);
    * ``ttl_seconds`` — per-entry time-to-live measured from insertion;
      expired entries are dropped lazily on :meth:`get` and eagerly on
      :meth:`load`, and count as misses (plus the ``expirations`` counter).

    ``grace_seconds`` opts the *serving* lookup path
    (:meth:`get_for_serving`) into stale-while-revalidate: an entry expired
    less than ``grace_seconds`` ago is still returned (flagged stale) instead
    of dropped, so the caller can answer immediately and refresh off-path.
    The window only matters with a TTL set, and never affects :meth:`get`.

    ``clock`` is injectable for tests; it must return seconds as a float and
    defaults to :func:`time.time` (wall clock, so TTLs survive the on-disk
    round trip across processes).

    ``metrics`` optionally exports the counters (lookups by result, puts,
    evictions, expirations, stale serves) and resident entry/byte gauges on
    a :class:`~repro.obs.metrics.MetricsRegistry`, read from :meth:`stats`
    at snapshot time.
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        max_bytes: Optional[int] = None,
        ttl_seconds: Optional[float] = None,
        grace_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.time,
        metrics=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        if grace_seconds is not None and grace_seconds <= 0:
            raise ValueError(f"grace_seconds must be > 0, got {grace_seconds}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self.grace_seconds = grace_seconds
        self._clock = clock
        self._entries: "OrderedDict[str, _Slot]" = OrderedDict()
        self._total_bytes = 0
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        self._expirations = 0
        self._stale_serves = 0
        (metrics if metrics is not None else NULL_REGISTRY).add_source(
            self._samples, _HELP)

    # ------------------------------------------------------------------ #
    # lookup / insert
    # ------------------------------------------------------------------ #
    def _expired(self, slot: _Slot, now: float) -> bool:
        return self.ttl_seconds is not None and now - slot.created_at > self.ttl_seconds

    def _drop(self, key: str) -> None:
        slot = self._entries.pop(key)
        self._total_bytes -= slot.size_bytes

    def get(self, key: str) -> Optional[PlanEntry]:
        """Return the entry for ``key`` (refreshing its recency) or ``None``.

        An entry whose TTL has elapsed is dropped and reported as a miss —
        the caller re-plans exactly as it would for a key never seen (the
        grace window never applies here).
        """
        found = self._lookup(key, None)
        return found[0] if found is not None else None

    def get_for_serving(self, key: str) -> Optional[tuple]:
        """Serving lookup: ``(entry, age_seconds, stale)`` or ``None``.

        The age is measured from the entry's insertion (or its persisted
        ``created_at`` after a store round trip) — the "plan age" serving
        telemetry reports per request.  A fresh entry is returned with
        ``stale=False``.  An entry whose TTL elapsed less than
        ``grace_seconds`` ago is *kept and returned* with ``stale=True`` —
        the caller should serve it immediately and enqueue a background
        refresh — and counts as a hit plus a stale serve.  Past
        ``ttl + grace`` (or with no grace window configured) expiry is hard:
        the entry is dropped and the lookup is a miss, exactly as
        :meth:`get`.
        """
        return self._lookup(key, self.grace_seconds)

    def _lookup(self, key: str, grace: Optional[float]) -> Optional[tuple]:
        """The one lookup body: hit, miss and expiry are counted here."""
        with self._lock:
            slot = self._entries.get(key)
            if slot is None:
                self._misses += 1
                return None
            now = self._clock()
            age = now - slot.created_at
            stale = self._expired(slot, now)
            if stale and (grace is None or age - self.ttl_seconds > grace):
                self._drop(key)
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            if stale:
                self._stale_serves += 1
            return (slot.entry, max(0.0, age), stale)

    def put(self, key: str, entry: PlanEntry, *, created_at: Optional[float] = None) -> None:
        """Insert/refresh an entry, evicting least-recently-used beyond the bounds.

        Args:
            key: the signature key the entry is cached under.
            entry: the planning outcome to cache.
            created_at: TTL epoch for the entry; defaults to "now".  The load
                path passes the persisted timestamp through so an entry's age
                survives the on-disk round trip.
        """
        size = entry_size_bytes(entry)
        with self._lock:
            if key in self._entries:
                self._drop(key)
            self._entries[key] = _Slot(entry, self._clock() if created_at is None else created_at,
                                       size)
            self._total_bytes += size
            self._puts += 1
            while len(self._entries) > self.capacity or (
                self.max_bytes is not None
                and self._total_bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                self._drop(next(iter(self._entries)))
                self._evictions += 1

    def prune_expired(self) -> int:
        """Eagerly drop every expired entry; returns how many were dropped.

        :meth:`get` already drops lazily, so calling this is optional — it
        exists for long-idle services that want ``stats().size`` to reflect
        only live entries (e.g. before a :meth:`save`).
        """
        with self._lock:
            now = self._clock()
            stale = [key for key, slot in self._entries.items() if self._expired(slot, now)]
            for key in stale:
                self._drop(key)
            self._expirations += len(stale)
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Presence check that does not touch recency or counters.

        Expired-but-not-yet-collected entries count as absent.
        """
        with self._lock:
            slot = self._entries.get(key)
            return slot is not None and not self._expired(slot, self._clock())

    def keys(self) -> List[str]:
        """Keys in LRU-to-MRU order (the order persisted by :meth:`save`)."""
        with self._lock:
            return list(self._entries.keys())

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._total_bytes = 0

    def entry_ages(self) -> Dict[str, float]:
        """Age in seconds of every resident entry (no recency/counter effects)."""
        with self._lock:
            now = self._clock()
            return {key: max(0.0, now - slot.created_at)
                    for key, slot in self._entries.items()}

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction/expiration counters and bounds."""
        with self._lock:
            oldest: Optional[float] = None
            if self._entries:
                now = self._clock()
                oldest = max(max(0.0, now - slot.created_at)
                             for slot in self._entries.values())
            return CacheStats(hits=self._hits, misses=self._misses, puts=self._puts,
                              evictions=self._evictions, expirations=self._expirations,
                              size=len(self._entries), capacity=self.capacity,
                              total_bytes=self._total_bytes, max_bytes=self.max_bytes,
                              ttl_seconds=self.ttl_seconds,
                              oldest_age_seconds=oldest,
                              stale_serves=self._stale_serves,
                              grace_seconds=self.grace_seconds)

    def _samples(self) -> Samples:
        """The registry source: every exported sample from one :meth:`stats`."""
        stats = self.stats()
        return {
            "counters": {
                instrument_name(_LOOKUPS, {"result": "hit"}): stats.hits,
                instrument_name(_LOOKUPS, {"result": "miss"}): stats.misses,
                "repro_plan_cache_puts_total": stats.puts,
                "repro_plan_cache_evictions_total": stats.evictions,
                "repro_plan_cache_expirations_total": stats.expirations,
                "repro_plan_cache_stale_serves_total": stats.stale_serves,
            },
            "gauges": {"repro_plan_cache_entries": stats.size,
                       "repro_plan_cache_bytes": stats.total_bytes},
        }

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str) -> str:
        """Write all entries to a JSON store (atomically via rename).

        Entries persist in LRU-to-MRU order with their creation timestamps,
        so a cache reloaded from the store evicts and expires in the same
        order the original would have.

        Args:
            path: destination file (parent directories are created).

        Returns:
            The path written.
        """
        with self._lock:
            payload = {
                "version": STORE_VERSION,
                "saved_at": self._clock(),
                "entries": [
                    {"key": key, "created_at": slot.created_at, "plan": slot.entry.to_dict()}
                    for key, slot in self._entries.items()
                ],
            }
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        # A per-call temp file keeps concurrent saves (e.g. two autosaving
        # service threads) from clobbering each other's staging file; the
        # final os.replace is atomic, so last-writer-wins cleanly.
        fd, tmp_path = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                        suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # Compact separators keep the on-disk size aligned with the
                # max_bytes accounting (entry_size_bytes measures compact
                # JSON); pretty-printing would inflate the store well past
                # the configured budget.
                json.dump(payload, handle, separators=(",", ":"))
                handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path

    def load(self, path: str, fingerprint: Optional[str] = None) -> int:
        """Merge entries from a JSON store; returns how many were loaded.

        Missing files, version mismatches, and malformed/unknown-scheme
        entries are tolerated (a cold cache is always a safe fallback).
        Version-2 stores (no timestamps) migrate transparently: their entries
        are stamped ``created_at = now``, so a TTL measures from the load.

        When ``fingerprint`` is given (the serving cost model's digest),
        entries stamped with a *different* fingerprint — or none at all — are
        stale and silently skipped: a cached plan priced by an older cost
        model must not be served as if it were current.

        Entries whose TTL already elapsed (per this cache's ``ttl_seconds``
        and the persisted ``created_at``) are dropped on load and counted as
        expirations rather than occupying space only to expire on first
        access.  Entries load in store order (LRU first), so the merged cache
        preserves the saved recency ranking and the usual bounds apply.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return 0
        if not isinstance(payload, dict):
            return 0
        version = payload.get("version")
        if version != STORE_VERSION and version not in LEGACY_STORE_VERSIONS:
            return 0
        now = self._clock()
        loaded = 0
        for item in payload.get("entries", []):
            try:
                key = item["key"]
                entry = decode_entry(item["plan"])
            except (KeyError, TypeError, ValueError):
                continue
            if entry is None or not entry.recommendations:
                continue
            if fingerprint is not None and entry.fingerprint != fingerprint:
                continue
            raw_created = item.get("created_at")
            try:
                created_at = now if raw_created is None else float(raw_created)
            except (TypeError, ValueError):
                created_at = now
            if self.ttl_seconds is not None and now - created_at > self.ttl_seconds:
                with self._lock:
                    self._expirations += 1
                continue
            self.put(str(key), entry, created_at=created_at)
            loaded += 1
        return loaded
