"""Rollup pass: compact raw request logs into per-signature aggregates.

The append-only request log (:mod:`repro.obs.reqlog`) records every served
request; this module is the compaction stage that turns that raw stream into
a per-signature report for operators:

* request counts, hit/computed/coalesced splits, and hit ratios;
* plan-age percentiles at serve time ("how stale is what we serve?");
* latency percentiles;
* which workers served the signature (traffic spread).

A :class:`Rollup` is itself JSON-persistable, so compaction can run
out-of-band (a cron pass over the log directory) and the serving processes
load only the compact artifact.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.obs.reqlog import RequestRecord, iter_records


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending sequence (linear interp)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return float(sorted_values[low] * (1.0 - fraction)
                 + sorted_values[high] * fraction)


@dataclass
class SignatureRollup:
    """Aggregated serving telemetry for one signature key."""

    signature: str
    #: A sampled workload name (human-readable handle for the signature).
    workload: str = ""
    requests: int = 0
    hits: int = 0
    computed: int = 0
    coalesced: int = 0
    #: Hits that served an expired-but-in-grace plan (stale-while-revalidate;
    #: a subset of ``hits``).
    stale: int = 0
    first_ts: float = 0.0
    last_ts: float = 0.0
    #: Plan-age-at-serve percentiles, seconds.
    age_p50: float = 0.0
    age_p90: float = 0.0
    age_max: float = 0.0
    #: End-to-end latency percentiles, seconds.
    latency_p50: float = 0.0
    latency_p90: float = 0.0
    latency_max: float = 0.0
    #: Distinct workers that served this signature.
    workers: int = 0
    #: Raw samples kept only while aggregating (dropped from the dict form).
    _ages: List[float] = field(default_factory=list, repr=False)
    _latencies: List[float] = field(default_factory=list, repr=False)
    _workers: Set[int] = field(default_factory=set, repr=False)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from a cache (0.0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    def absorb(self, record: RequestRecord) -> None:
        """Fold one raw request record into the aggregate."""
        self.requests += 1
        if record.outcome == "hit":
            self.hits += 1
        elif record.outcome == "stale":
            # A stale serve IS a cache hit (the caller got an answer from
            # the cache); the dedicated counter tracks how many rode the
            # grace window.
            self.hits += 1
            self.stale += 1
        elif record.outcome == "coalesced":
            self.coalesced += 1
        else:
            self.computed += 1
        if not self.workload:
            self.workload = record.workload
        if self.first_ts == 0.0 or record.ts < self.first_ts:
            self.first_ts = record.ts
        self.last_ts = max(self.last_ts, record.ts)
        self._ages.append(record.plan_age)
        self._latencies.append(record.latency)
        self._workers.add(record.worker)

    def finalize(self) -> None:
        """Compute percentiles from the absorbed samples and drop them."""
        ages = sorted(self._ages)
        latencies = sorted(self._latencies)
        self.age_p50 = percentile(ages, 0.50)
        self.age_p90 = percentile(ages, 0.90)
        self.age_max = ages[-1] if ages else 0.0
        self.latency_p50 = percentile(latencies, 0.50)
        self.latency_p90 = percentile(latencies, 0.90)
        self.latency_max = latencies[-1] if latencies else 0.0
        self.workers = len(self._workers)
        self._ages = []
        self._latencies = []
        self._workers = set()

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (samples excluded; call :meth:`finalize` first)."""
        return {
            "signature": self.signature, "workload": self.workload,
            "requests": self.requests, "hits": self.hits,
            "computed": self.computed, "coalesced": self.coalesced,
            "stale": self.stale,
            "first_ts": self.first_ts, "last_ts": self.last_ts,
            "age_p50": self.age_p50, "age_p90": self.age_p90,
            "age_max": self.age_max, "latency_p50": self.latency_p50,
            "latency_p90": self.latency_p90, "latency_max": self.latency_max,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SignatureRollup":
        """Rebuild an aggregate from :meth:`to_dict` output."""
        known = {f: payload[f] for f in (
            "signature", "workload", "requests", "hits", "computed",
            "coalesced", "stale", "first_ts", "last_ts", "age_p50", "age_p90",
            "age_max", "latency_p50", "latency_p90", "latency_max", "workers",
        ) if f in payload}
        return cls(**known)  # type: ignore[arg-type]


#: Schema version of the persisted rollup artifact.
ROLLUP_VERSION = 1


@dataclass
class Rollup:
    """Per-signature aggregates over one compaction window."""

    signatures: Dict[str, SignatureRollup] = field(default_factory=dict)
    #: How many raw records the window covered.
    records: int = 0

    def top(self, n: int = 5, by: str = "requests") -> List[SignatureRollup]:
        """The ``n`` largest aggregates by a numeric field (default: traffic).

        Ordering is fully deterministic: descending by the field, ties broken
        by ascending signature key — dict insertion order (which depends on
        log-replay order) never leaks into reports built from it.
        """
        return sorted(self.signatures.values(),
                      key=lambda agg: (-getattr(agg, by), agg.signature))[:n]

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (inverse of :meth:`from_dict`)."""
        return {
            "version": ROLLUP_VERSION,
            "records": self.records,
            "signatures": {key: agg.to_dict()
                           for key, agg in self.signatures.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Rollup":
        """Rebuild a rollup from :meth:`to_dict` output."""
        signatures = {
            str(key): SignatureRollup.from_dict(item)
            for key, item in (payload.get("signatures") or {}).items()  # type: ignore[union-attr]
        }
        return cls(signatures=signatures,
                   records=int(payload.get("records", 0)))  # type: ignore[arg-type]

    def save(self, path: str) -> str:
        """Persist the rollup as JSON (atomically via rename)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        # A per-call staging file: concurrent saves to one path must not
        # move each other's staging file away before its os.replace.
        fd, tmp_path = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                        suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, separators=(",", ":"))
                handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str) -> "Rollup":
        """Load a persisted rollup; a missing/corrupt file yields an empty one."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return cls()
        if not isinstance(payload, dict):
            return cls()
        if payload.get("version") != ROLLUP_VERSION:
            return cls()
        return cls.from_dict(payload)


def rollup_requests(target: Union[str, Sequence[str]],
                    *, since_ts: Optional[float] = None) -> Rollup:
    """Compact raw request logs into a :class:`Rollup`.

    Args:
        target: a log directory, one log file, or a list of either
            (rotated generations are discovered automatically).
        since_ts: when given, records older than this epoch timestamp are
            excluded — a sliding compaction window.

    Returns:
        The per-signature aggregates, percentiles finalized.
    """
    rollup = Rollup()
    for record in iter_records(target):
        if since_ts is not None and record.ts < since_ts:
            continue
        aggregate = rollup.signatures.get(record.signature)
        if aggregate is None:
            aggregate = rollup.signatures[record.signature] = SignatureRollup(
                signature=record.signature)
        aggregate.absorb(record)
        rollup.records += 1
    for aggregate in rollup.signatures.values():
        aggregate.finalize()
    return rollup
