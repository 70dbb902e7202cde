"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the one export point for every layer's telemetry.  A count
a component keeps (plan-cache hits, served requests, refresh tasks) stays
in that component, which exports it through one *source*
(:meth:`MetricsRegistry.add_source`) read at snapshot time; only values no
component keeps — latency histograms, search-phase timers — are live
instruments here.  Three properties drive the design:

* **cheap on the hot path** — a source costs serving nothing, and a live
  instrument's ``inc()`` / ``observe()`` is one short lock-protected
  arithmetic op on an object created once at init.  A component wired to
  :data:`NULL_REGISTRY` gets no-op instruments and registers no source, so
  disabled observability costs a single attribute call;
* **mergeable** — :meth:`MetricsRegistry.snapshot` is a plain dict and
  :func:`merge_snapshots` sums any number of them, so per-worker snapshots
  from a pre-forked fleet aggregate into one view without shared memory;
* **scrapeable** — :func:`render_prometheus` formats a snapshot (merged or
  not) as Prometheus text exposition, so the fleet is one HTTP handler away
  from a real monitoring stack.

Samples are identified by a base name plus optional label key/values
(:func:`instrument_name`: ``repro_plan_cache_lookups_total{result="hit"}``);
the same (name, labels) pair always returns the same instrument.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

#: Default histogram bucket upper bounds for latencies, in seconds.  Log-ish
#: spacing from microseconds (warm cache hits) to tens of seconds (worst-case
#: exhaustive searches); observations above the last bound land in +Inf.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 1e-5, 2.5e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3,
    1e-2, 2.5e-2, 1e-1, 2.5e-1, 1.0, 2.5, 10.0,
)


def instrument_name(name: str, labels: Mapping[str, str]) -> str:
    """Full identity of an instrument: ``name{k="v",...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_instrument_name(full: str) -> Tuple[str, str]:
    """Inverse-ish of :func:`instrument_name`: ``(base, label_body)``."""
    if full.endswith("}") and "{" in full:
        base, _, rest = full.partition("{")
        return base, rest[:-1]
    return full, ""


class Counter:
    """A monotonically increasing value (requests served, bytes written...)."""

    __slots__ = ("full_name", "_value", "_lock")

    def __init__(self, full_name: str) -> None:
        self.full_name = full_name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (resident cache entries, queue depth)."""

    __slots__ = ("full_name", "_value", "_lock")

    def __init__(self, full_name: str) -> None:
        self.full_name = full_name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram (cumulative-on-export, Prometheus-style).

    ``observe()`` is one bisect plus two adds under a lock; bucket bounds are
    fixed at construction so per-worker histograms merge by summing counts.
    """

    __slots__ = ("full_name", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, full_name: str,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.full_name = full_name
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """How many observations were recorded."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def state(self) -> Dict[str, object]:
        """Point-in-time dict form (per-bucket counts, sum, count)."""
        with self._lock:
            return {"buckets": list(self.bounds), "counts": list(self._counts),
                    "sum": self._sum, "count": self._count}


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind (disabled registry)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def set(self, value: float) -> None:
        """Discard the value."""

    def observe(self, value: float) -> None:
        """Discard the observation."""


#: The one null instrument every :data:`NULL_REGISTRY` lookup returns.
NULL_INSTRUMENT = _NullInstrument()


Samples = Dict[str, Dict[str, float]]  #: ``{"counters": {name: v}, "gauges": {...}}``

def empty_snapshot() -> Dict[str, object]:
    """A snapshot with no samples (what a disabled registry exports)."""
    return {"counters": {}, "gauges": {}, "histograms": {}, "help": {}}


class MetricsRegistry:
    """Process-local instrument registry (see module docs for the contract)."""

    #: Disabled registries hand out no-op instruments; this one is live.
    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: List[Callable[[], Samples]] = []
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # instrument creation (memoized by full name)
    # ------------------------------------------------------------------ #
    def _remember_help(self, name: str, help: str) -> None:
        if help and name not in self._help:
            self._help[name] = help

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        full = instrument_name(name, labels)
        with self._lock:
            instrument = self._counters.get(full)
            if instrument is None:
                instrument = self._counters[full] = Counter(full)
            self._remember_help(name, help)
            return instrument

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        full = instrument_name(name, labels)
        with self._lock:
            instrument = self._gauges.get(full)
            if instrument is None:
                instrument = self._gauges[full] = Gauge(full)
            self._remember_help(name, help)
            return instrument

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels: str) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        full = instrument_name(name, labels)
        with self._lock:
            instrument = self._histograms.get(full)
            if instrument is None:
                instrument = self._histograms[full] = Histogram(full, buckets)
            self._remember_help(name, help)
            return instrument

    def add_source(self, read: Callable[[], Samples],
                   help: Mapping[str, str]) -> None:
        """Export counters and gauges that a component keeps itself.

        ``read()`` returns a :data:`Samples` dict with names built by
        :func:`instrument_name`, read under the owner's own lock so one
        snapshot is consistent across them; :meth:`snapshot` calls it
        outside the registry lock.  ``help`` maps base names to help text.
        A source stays registered for the registry's lifetime, so exported
        counters never decrease.
        """
        with self._lock:
            self._sources.append(read)
            for name, text in help.items():
                self._remember_help(name, text)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Point-in-time dict of every sample (JSON-safe, mergeable); live
        instruments and source samples share the dicts, same names adding up.

        Layout::

            {"counters":   {full_name: value},
             "gauges":     {full_name: value},
             "histograms": {full_name: {"buckets": [...], "counts": [...],
                                        "sum": s, "count": n}},
             "help":       {base_name: help_text}}
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            sources = list(self._sources)
            help_text = dict(self._help)
        exported = {"counters": {c.full_name: c.value for c in counters},
                    "gauges": {g.full_name: g.value for g in gauges}}
        for read in sources:
            for kind, samples in read().items():
                into = exported[kind]
                for name, value in samples.items():
                    into[name] = into.get(name, 0.0) + float(value)
        return {
            **exported,
            "histograms": {h.full_name: h.state() for h in histograms},
            "help": help_text,
        }


class NullMetricsRegistry:
    """Registry stand-in whose instruments discard everything.

    Components take ``metrics or NULL_REGISTRY`` so their hot paths always
    call real methods — just ones that do nothing when observability is off.
    """

    enabled = False

    def counter(self, name: str, help: str = "", **labels: str) -> _NullInstrument:
        """A shared no-op instrument."""
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels: str) -> _NullInstrument:
        """A shared no-op instrument."""
        return NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels: str) -> _NullInstrument:
        """A shared no-op instrument."""
        return NULL_INSTRUMENT

    def add_source(self, read: Callable[[], Samples],
                   help: Mapping[str, str]) -> None:
        """Ignore the source (a disabled registry exports nothing)."""

    def snapshot(self) -> Dict[str, object]:
        """Always empty."""
        return empty_snapshot()


#: Process-wide disabled registry (no samples, no cost).
NULL_REGISTRY = NullMetricsRegistry()


def merge_snapshots(snapshots: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Sum any number of registry snapshots into one fleet view.

    Counters and gauges add; histograms add bucket-by-bucket (their bounds
    must agree — per-worker instruments created from the same code always
    do).  Help text merges first-writer-wins.

    Raises:
        ValueError: when two histograms with the same name disagree on
            bucket bounds (merging them would silently mis-bin samples).
    """
    merged = empty_snapshot()
    counters: Dict[str, float] = merged["counters"]  # type: ignore[assignment]
    gauges: Dict[str, float] = merged["gauges"]  # type: ignore[assignment]
    histograms: Dict[str, Dict[str, object]] = merged["histograms"]  # type: ignore[assignment]
    help_text: Dict[str, str] = merged["help"]  # type: ignore[assignment]
    for snapshot in snapshots:
        for name, value in (snapshot.get("counters") or {}).items():  # type: ignore[union-attr]
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in (snapshot.get("gauges") or {}).items():  # type: ignore[union-attr]
            gauges[name] = gauges.get(name, 0.0) + float(value)
        for name, state in (snapshot.get("histograms") or {}).items():  # type: ignore[union-attr]
            existing = histograms.get(name)
            if existing is None:
                histograms[name] = {"buckets": list(state["buckets"]),
                                    "counts": list(state["counts"]),
                                    "sum": float(state["sum"]),
                                    "count": int(state["count"])}
                continue
            if list(existing["buckets"]) != list(state["buckets"]):
                raise ValueError(f"histogram {name!r}: bucket bounds differ "
                                 "across snapshots; refusing to merge")
            existing["counts"] = [a + b for a, b in zip(existing["counts"],
                                                        state["counts"])]
            existing["sum"] = float(existing["sum"]) + float(state["sum"])
            existing["count"] = int(existing["count"]) + int(state["count"])
        for name, text in (snapshot.get("help") or {}).items():  # type: ignore[union-attr]
            help_text.setdefault(name, text)
    return merged


def _format_value(value: float) -> str:
    """Prometheus sample formatting (integers render without a fraction)."""
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _labeled(base: str, label_body: str, extra: str = "") -> str:
    """Reattach label text (plus an optional extra label) to a base name."""
    parts = [part for part in (label_body, extra) if part]
    if not parts:
        return base
    return f"{base}{{{','.join(parts)}}}"


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Format one (possibly merged) snapshot as Prometheus text exposition.

    Counters and gauges render one sample line each; histograms render the
    conventional ``_bucket`` (cumulative, with ``le`` labels including
    ``+Inf``), ``_sum``, and ``_count`` series.
    """
    help_text: Dict[str, str] = dict(snapshot.get("help") or {})  # type: ignore[arg-type]
    lines: List[str] = []
    seen_header: set = set()

    def header(base: str, kind: str) -> None:
        if base in seen_header:
            return
        seen_header.add(base)
        if base in help_text:
            lines.append(f"# HELP {base} {help_text[base]}")
        lines.append(f"# TYPE {base} {kind}")

    for full, value in sorted((snapshot.get("counters") or {}).items()):  # type: ignore[union-attr]
        base, label_body = split_instrument_name(full)
        header(base, "counter")
        lines.append(f"{_labeled(base, label_body)} {_format_value(value)}")
    for full, value in sorted((snapshot.get("gauges") or {}).items()):  # type: ignore[union-attr]
        base, label_body = split_instrument_name(full)
        header(base, "gauge")
        lines.append(f"{_labeled(base, label_body)} {_format_value(value)}")
    for full, state in sorted((snapshot.get("histograms") or {}).items()):  # type: ignore[union-attr]
        base, label_body = split_instrument_name(full)
        header(base, "histogram")
        cumulative = 0
        for bound, count in zip(state["buckets"], state["counts"]):
            cumulative += count
            le_label = 'le="' + repr(bound) + '"'
            lines.append(f"{_labeled(base + '_bucket', label_body, le_label)} "
                         f"{cumulative}")
        cumulative += state["counts"][-1]
        inf_label = 'le="+Inf"'
        lines.append(f"{_labeled(base + '_bucket', label_body, inf_label)} "
                     f"{cumulative}")
        lines.append(f"{_labeled(base + '_sum', label_body)} "
                     f"{_format_value(state['sum'])}")
        lines.append(f"{_labeled(base + '_count', label_body)} {state['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
