"""The four workloads of the end-to-end benchmark.

Each driver is a closed loop: the caller waits for every answer before it
sends the next request.  A driver

* ``prepare()``s the operands a caller brings (``matmul_direct`` only) --
  not counted in ``setup_s``;
* ``setup()``s what a user pays before the first useful request -- service
  or server construction, prewarm and an untimed warm-up pass;
* runs timed ``window()``s, checking every answer as it arrives;
* ``finish()``es with the checks that need a whole run (pinned reference
  answers, re-simulation of cold winners, the in-process answers the wire
  must match).  It runs after ``peak_rss_mb`` is read, so the checker's
  memory is not counted;
* ``trace()``s: an untraced window, then the same requests with the layer
  wrappers installed, which yields the per-layer ledger.

The load is at most two threads and two connections, matching a two-core
box: one thread for ``cold_mix``, ``warm_inproc`` and ``matmul_direct``,
and two single-threaded client processes for ``wire_warm``.

Interference from outside the benchmark -- other tenants of the host
sharing its cores -- slows everything the process does, by up to about
1.8x on a small shared box, in episodes that last from a second to many
runs.  So every timed window also times a *yardstick*, a fixed piece of
interpreter work run in short chunks between the requests, taking a fixed
share of the window.  Its mean chunk time over its nominal time is the
host's slowdown during that window, and the gated latencies and rates
are divided (rates multiplied) by it: they read as at the host's full
speed, and a change to the program moves them while the host's level
does not.  The raw values are kept beside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import random
import sys
import time
from collections import Counter
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Tuple

import numpy as np

import gen
from layers import Ledger
from repro.bench.schemes import scheme_by_name
from repro.bench.sweep import run_ua_point
from repro.bench.workloads import Workload
from repro.core import matmul
from repro.core.config import ExecutionConfig
from repro.core.graph import OpGraph
from repro.dist import matrix
from repro.dist.partition import Block2D, ColumnBlock, CustomTiles, RowBlock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.planner.graph import op_workload
from repro.planner.search import Candidate
from repro.planner.service import PlannerService
from repro.runtime.runtime import Runtime
from repro.serve import protocol
from repro.serve.client import PlanClient
from repro.serve.protocol import RemoteGraphPlanResponse, RemotePlanResponse
from repro.serve.server import PlanServer
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import pvc_system, uniform_system

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: Planner options per machine of ``cold_mix``; the uniform machine keeps
#: the defaults.
SERVICE_OPTIONS = {gen.UNIFORM8: {}, gen.PVC12: {"replication_factors": [1, 2]}}
#: Planner options of the warm workloads.  A warm hit does the same work
#: whatever the options; the narrower search only shortens the prewarm, so
#: that three set-ups per run fit the time every run of the benchmark has.
WARM_OPTIONS = {"replication_factors": [1], "stationary_options": ("C",)}
#: Share of a ``--trace 1`` run's seconds spent in the untraced window.
UNTRACED_SHARE = 0.4
#: Untimed warm-up requests after a warm prewarm (per client on the wire).
WARM_WARMUP_REQUESTS = 2000
WIRE_WARMUP_REQUESTS = 500
#: Repeats of each payload in the codec replay (the median is kept).
CODEC_REPEATS = 25
#: Tolerance of the NumPy check: float32 operands (the paper's FP32) summed
#: over k <= 768 against a float64 product of the same inputs.  A missing or
#: doubled tile contribution is of order 1.
MATMUL_RTOL, MATMUL_ATOL = 1e-4, 1e-3
#: Failure messages kept per run (the count is always exact).
MAX_MESSAGES = 20
#: Rounds of one yardstick chunk, and the seconds one round takes on an
#: idle core of the reference box (x86_64 Xeon, Python 3.11): the scale the
#: gated latencies read in.
YARDSTICK_ROUNDS = 2000
YARDSTICK_ROUND_SECONDS = 1.15e-7
#: Untimed rounds before each burst of chunks (see ``Window.record``).
YARDSTICK_WARMUP_ROUNDS = 50
#: Share of a timed window's time the yardstick takes.
YARDSTICK_SHARE = 0.1
#: Yardstick chunks timed before and after each set-up (for ``setup_s``).
SETUP_YARDSTICK_CHUNKS = 200

Metrics = Dict[str, Tuple[float, str]]
#: Number of values each percentile metric is taken over.
Samples = Dict[str, int]


def machine(key: str):
    """The machine model a request key names."""
    return uniform_system(8) if key == gen.UNIFORM8 else pvc_system(12)


def load_reference() -> dict:
    """Pinned answers (``run.py --write-reference``); empty when absent."""
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def answer_of(response) -> list:
    """A plan answer as plain JSON data: every ranked layout, plus makespan."""
    answer = [[rec.scheme.name, list(rec.replication), rec.stationary,
               rec.simulated_time, rec.percent_of_peak]
              for rec in response.recommendations]
    if hasattr(response, "makespan"):
        answer.append(response.makespan)
    return answer


def serve(planner, request: gen.PlanRequest):
    """Ask a ``PlannerService`` or a ``PlanClient`` for one request's plan."""
    if request.graph is not None:
        return planner.plan_graph(request.graph)
    return planner.plan(request.workload)


class Histogram:
    """Latency counts, each latency rounded down to 10 significant bits of
    its nanoseconds: percentiles within 0.2%, in memory that grows with the
    spread of the latencies, not with their number -- so ``peak_rss_mb``
    does not rise with the request rate."""

    BITS = 10

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.total = 0

    def add(self, seconds: float) -> None:
        ns = int(seconds * 1e9)
        shift = ns.bit_length() - self.BITS
        key = ns >> shift << shift if shift > 0 else ns
        self.counts[key] = self.counts.get(key, 0) + 1
        self.total += 1

    def update(self, other: "Histogram") -> None:
        for key, count in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + count
        self.total += other.total

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile in seconds, the middle of its bucket."""
        if not self.total:
            return math.nan
        rank = q / 100.0 * (self.total - 1)
        seen = 0
        for key in sorted(self.counts):
            seen += self.counts[key]
            if seen > rank:
                break
        return (key + (1 << max(key.bit_length() - self.BITS, 0)) / 2.0) * 1e-9


def yardstick(rounds: int = YARDSTICK_ROUNDS) -> int:
    """A fixed piece of interpreter work: list indexing and integer
    arithmetic, no allocation the collector tracks beyond one small list."""
    table = [0] * 256
    acc = 7
    for i in range(rounds):
        j = (acc ^ i) & 255
        acc = (acc * 31 + table[j] + i) & 0xFFFFF
        table[j] = acc
    return acc


def time_yardstick(chunks: int = SETUP_YARDSTICK_CHUNKS) -> Tuple[float, int]:
    """Time ``chunks`` yardstick chunks back to back: (seconds, chunks)."""
    yardstick(YARDSTICK_WARMUP_ROUNDS)
    began = time.perf_counter()
    for _ in range(chunks):
        yardstick()
    return time.perf_counter() - began, chunks


def slowdown_of(seconds: float, chunks: int) -> float:
    """Mean yardstick chunk time over its nominal time."""
    return seconds / chunks / (YARDSTICK_ROUNDS * YARDSTICK_ROUND_SECONDS)


class Window:
    """Latencies and outcomes of one timed window, and its yardstick."""

    def __init__(self) -> None:
        #: Every latency of the window.
        self.latencies = Histogram()
        #: Total seconds and number of repeats of every request id.
        self.seconds: Dict[str, float] = {}
        self.repeats: Counter = Counter()
        #: Seconds of the recorded requests, and of the yardstick chunks
        #: timed among them.
        self.busy = 0.0
        self.yard_seconds = 0.0
        self.yard_chunks = 0
        self.attempted = 0
        self.failed = 0

    def record(self, seconds: float, key: str) -> None:
        """Add one request's latency, then time yardstick chunks until they
        have taken ``YARDSTICK_SHARE`` of the window so far."""
        self.latencies.add(seconds)
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.repeats[key] += 1
        self.busy += seconds
        target = YARDSTICK_SHARE / (1.0 - YARDSTICK_SHARE) * self.busy
        if self.yard_seconds < target:
            perf = time.perf_counter
            # Untimed: brings the yardstick back into the caches the request
            # used, so that how much memory the program touches does not
            # change the yardstick's time.
            yardstick(YARDSTICK_WARMUP_ROUNDS)
            while self.yard_seconds < target:
                began = perf()
                yardstick()
                self.yard_seconds += perf() - began
                self.yard_chunks += 1

    def update(self, other: "Window") -> None:
        """Add the window of another client of the same traffic."""
        self.latencies.update(other.latencies)
        for key, seconds in other.seconds.items():
            self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.repeats.update(other.repeats)
        self.busy += other.busy
        self.yard_seconds += other.yard_seconds
        self.yard_chunks += other.yard_chunks
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def samples(self) -> int:
        return self.latencies.total

    @property
    def slowdown(self) -> float:
        return slowdown_of(self.yard_seconds, self.yard_chunks) if self.yard_chunks else 1.0


def window_metrics(win: Window, traffic: Counter,
                   clients: int) -> Tuple[Metrics, Samples, Metrics]:
    """The gated metrics of a window, the number of values behind each, and
    the same metrics before the yardstick's correction.

    A request id's latency is its mean over its repeats; the p50 is the
    median of those over the traffic, each id counted as often as
    ``traffic`` sends it, and the rate is that of ``clients`` closed loops
    at those latencies.  Both are then read at the host's full speed.
    Beside them, the p95 and p99 over every latency of the window (not
    corrected, not gated: see README.md).
    """
    keys = sorted(win.seconds, key=lambda key: win.seconds[key] / win.repeats[key])
    means = np.array([win.seconds[key] / win.repeats[key] for key in keys])
    weights = np.array([traffic[key] for key in keys], dtype=float)
    if keys:
        half = np.searchsorted(np.cumsum(weights) / weights.sum(), 0.5)
        p50 = float(means[min(int(half), len(keys) - 1)])
        rate = clients * weights.sum() / float(weights @ means)
    else:
        p50, rate = math.nan, 0.0
    slowdown = win.slowdown
    pooled = win.latencies
    metrics = {"latency_p50_ms": (p50 / slowdown * 1e3, "ms"),
               "throughput_rps": (rate * slowdown, "1/s"),
               "latency_p95_all_ms": (pooled.percentile(95) * 1e3, "ms"),
               "latency_p99_all_ms": (pooled.percentile(99) * 1e3, "ms")}
    samples = {"latency_p50_ms": len(keys),
               "latency_p95_all_ms": pooled.total, "latency_p99_all_ms": pooled.total}
    raw = {"latency_p50_ms": (p50 * 1e3, "ms"), "throughput_rps": (rate, "1/s"),
           "slowdown": (slowdown, "x")}
    return metrics, samples, raw


class Driver:
    """Shared bookkeeping; subclasses implement the four phases."""

    name = ""
    #: Closed loops the load comes from.
    clients = 1

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        #: How often the traffic sends each request id.
        self.traffic: Counter = Counter()
        self.messages: List[str] = []
        self.failures = 0

    def fail(self, message: str) -> None:
        self.failures += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def prepare(self) -> None:
        """Make the caller's operands (not part of ``setup_s``)."""

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    def window(self, seconds: float, ledger: Optional[Ledger] = None) -> Window:
        raise NotImplementedError

    def finish(self) -> int:
        """Whole-run checks; returns how many answered requests they failed."""
        return 0

    def counts(self) -> Metrics:
        """Per-layer counts of this workload (``--trace 1`` only)."""
        return {}

    def summarize(self, win: Window) -> Tuple[Metrics, Samples, Metrics]:
        """The end-to-end metrics of a window (see :func:`window_metrics`)."""
        return window_metrics(win, self.traffic, self.clients)

    def overhead_pct(self, slower: Window, plain: Window) -> float:
        """p50 of ``slower`` over p50 of ``plain``, as a percentage increase."""
        ratio = (self.summarize(slower)[0]["latency_p50_ms"][0]
                 / self.summarize(plain)[0]["latency_p50_ms"][0])
        return (ratio - 1.0) * 100.0

    def trace(self, seconds: float) -> Tuple[Metrics, Ledger, List[Window]]:
        """Untraced window, then the traced one; their ledger and metrics."""
        self.prepare()
        self.setup()
        plain = self.window(seconds * UNTRACED_SHARE)
        ledger = Ledger()
        with ledger.installed():
            traced = self.window(seconds * (1.0 - UNTRACED_SHARE), ledger)
        metrics = ledger.metrics()
        metrics["obs.trace_overhead_pct"] = (self.overhead_pct(traced, plain), "%")
        metrics.update(self.counts())
        return metrics, ledger, [plain, traced]


# ---------------------------------------------------------------------- #
# cold_mix
# ---------------------------------------------------------------------- #
class ColdMix(Driver):
    """40 distinct cold plans per pass, each pass on fresh services."""

    name = "cold_mix"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.requests = gen.cold_mix(seed)
        self.traffic.update(request.id for request in self.requests)
        self._order = random.Random(f"cold_mix_order:{seed}")
        # One request of every family warms process-level state untimed.
        firsts: Dict[str, gen.PlanRequest] = {}
        for request in self.requests:
            firsts.setdefault(request.family, request)
        self.warmup = list(firsts.values())
        self.first: Dict[str, tuple] = {}
        self.seen: Counter = Counter()
        self.hits = 0
        self.traced_counts: Dict[str, Dict[str, float]] = {}

    @staticmethod
    def _services() -> Dict[str, PlannerService]:
        return {key: PlannerService(machine(key), **options)
                for key, options in SERVICE_OPTIONS.items()}

    def setup(self) -> None:
        services = self._services()
        for request in self.warmup:
            serve(services[request.machine], request)
        for service in services.values():
            service.close()

    def window(self, seconds: float, ledger: Optional[Ledger] = None) -> Window:
        win = Window()
        perf = time.perf_counter
        deadline = perf() + seconds
        while perf() < deadline:
            services = self._services()
            order = list(self.requests)
            self._order.shuffle(order)
            try:
                for request in order:
                    if perf() >= deadline:
                        break
                    win.attempted += 1
                    if ledger is not None:
                        ledger.begin()
                    began = perf()
                    try:
                        response = serve(services[request.machine], request)
                    except Exception as error:  # noqa: BLE001 - counted, run fails
                        win.failed += 1
                        self.fail(f"{request.id}: {error!r}")
                        continue
                    elapsed = perf() - began
                    win.record(elapsed, request.id)
                    if ledger is not None:
                        ledger.end(elapsed)
                        self._count_traced(request, response, ledger)
                    if not self._accept(request, response):
                        win.failed += 1
            finally:
                for service in services.values():
                    service.close()
        return win

    def _accept(self, request: gen.PlanRequest, response) -> bool:
        self.seen[request.id] += 1
        if response.cache_hit:
            self.hits += 1
            self.fail(f"{request.id}: a fresh service answered from its cache")
            return False
        answer = answer_of(response)
        first = self.first.setdefault(request.id, (response, answer))
        if first[1] != answer:
            self.fail(f"{request.id}: answer changed between passes")
            return False
        return True

    def _count_traced(self, request: gen.PlanRequest, response, ledger: Ledger) -> None:
        if request.id in self.traced_counts:
            return
        stats = response.search_stats
        replays: Counter = Counter()
        for evaluator in ledger.evaluators.values():
            replays.update(evaluator.replay_stats)
        self.traced_counts[request.id] = {
            "candidates": stats.num_candidates, "simulated": stats.num_simulated,
            "refined": stats.num_refined, "pruned": stats.num_pruned,
            "compile_calls": ledger.calls["sim.batch.compile"][-1],
            "ops_compiled": sum(ledger.programs.values()),
            "replays": sum(replays.values()), "delta_replays": replays["delta"],
        }

    def counts(self) -> Metrics:
        rows = list(self.traced_counts.values())
        if not rows:
            return {}

        def mean(field: str) -> float:
            return sum(row[field] for row in rows) / len(rows)

        candidates = sum(row["candidates"] for row in rows)
        replays = sum(row["replays"] for row in rows)
        return {
            "planner.search.candidates": (mean("candidates"), "count"),
            "planner.search.simulated": (mean("simulated"), "count"),
            "planner.search.refined": (mean("refined"), "count"),
            "planner.search.pruned": (mean("pruned"), "count"),
            "planner.search.prune_ratio": (
                sum(row["pruned"] for row in rows) / candidates if candidates else 0.0,
                "ratio"),
            "planner.hit_ratio": (self.hits / max(1, sum(self.seen.values())), "ratio"),
            "sim.batch.compile.calls": (mean("compile_calls"), "count"),
            "sim.batch.ops_compiled": (mean("ops_compiled"), "count"),
            "sim.batch.replay_delta_ratio": (
                sum(row["delta_replays"] for row in rows) / replays if replays else 0.0,
                "ratio"),
        }

    def finish(self) -> int:
        bad = set()
        pinned = load_reference().get(self.name, {}).get(str(self.seed))
        for request_id, (_, answer) in self.first.items():
            if pinned is not None and pinned.get(request_id) != answer:
                self.fail(f"{request_id}: answer differs from reference.json")
                bad.add(request_id)
        for request in self.requests:
            if request.id in self.first and not self._resimulates(request):
                bad.add(request.id)
        return sum(self.seen[request_id] for request_id in bad)

    def _resimulates(self, request: gen.PlanRequest) -> bool:
        """Re-price every served layout on the scalar path: times must be equal."""
        response = self.first[request.id][0]
        if request.graph is None:
            workloads = [response.signature.representative_workload(
                name=request.workload.name)] * len(response.recommendations)
        else:
            workloads = [op_workload(op) for op in response.graph.ops]
        config = ExecutionConfig(simulate_only=True)
        for workload, rec in zip(workloads, response.recommendations):
            point = run_ua_point(machine(request.machine), workload, rec.scheme,
                                 rec.replication, rec.stationary, config)
            if (point.simulated_time, point.percent_of_peak) != (
                    rec.simulated_time, rec.percent_of_peak):
                self.fail(f"{request.id}: {rec.scheme.name} re-simulates to "
                          f"{point.simulated_time!r}, served {rec.simulated_time!r}")
                return False
        return True


def cold_reference(seed: int) -> Dict[str, list]:
    """Every ``cold_mix`` answer for ``seed``, each on a fresh service."""
    answers = {}
    for request in gen.cold_mix(seed):
        with PlannerService(machine(request.machine),
                            **SERVICE_OPTIONS[request.machine]) as service:
            answers[request.id] = answer_of(serve(service, request))
    return answers


# ---------------------------------------------------------------------- #
# warm_inproc
# ---------------------------------------------------------------------- #
class WarmInproc(Driver):
    """Zipf traffic over a prewarmed in-process service (every request a hit)."""

    name = "warm_inproc"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        singles, graphs = gen.warm_working_set(seed)
        self.working_set = singles + graphs
        self.stream = gen.warm_stream(seed)
        self.traffic.update(request.id for request in self.stream)
        self.expected: Optional[Dict[str, list]] = None
        self.service: Optional[PlannerService] = None
        self.cursor = 0
        self.misses = 0

    def setup(self) -> None:
        service = PlannerService(machine(gen.UNIFORM8), **WARM_OPTIONS)
        self.expected = {request.id: serve(service, request).recommendations
                         for request in self.working_set}
        self.service = service
        self._loop(service, count=WARM_WARMUP_REQUESTS)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def window(self, seconds: float, ledger: Optional[Ledger] = None) -> Window:
        return self._loop(self.service, seconds=seconds, ledger=ledger)

    def _loop(self, service: PlannerService, *, seconds: float = math.inf,
              count: Optional[int] = None, ledger: Optional[Ledger] = None,
              tracer: Optional[Tracer] = None) -> Window:
        win = Window()
        stream, expected = self.stream, self.expected
        length = len(stream)
        plan, plan_graph = service.plan, service.plan_graph
        record = win.record
        perf = time.perf_counter
        position = self.cursor
        stop = position + count if count is not None else None
        deadline = perf() + seconds
        while True:
            request = stream[position % length]
            position += 1
            if ledger is not None:
                ledger.begin()
            began = perf()
            try:
                if request.graph is not None:
                    response = plan_graph(request.graph)
                else:
                    response = plan(request.workload)
            except Exception as error:  # noqa: BLE001 - counted, run fails
                win.failed += 1
                self.fail(f"{request.id}: {error!r}")
                response = None
            finished = perf()
            if response is not None:
                elapsed = finished - began
                record(elapsed, request.id)
                if ledger is not None:
                    ledger.end(elapsed)
                if not response.cache_hit:
                    self.misses += 1
                if not response.cache_hit or response.recommendations != expected[request.id]:
                    win.failed += 1
                    self.fail(f"{request.id}: warm answer is not the prewarm answer")
            if tracer is not None and not position & 1023:
                tracer.clear()
            if finished >= deadline or position == stop:
                break
        win.attempted = position - self.cursor
        self.cursor = position
        return win

    def trace(self, seconds: float) -> Tuple[Metrics, Ledger, List[Window]]:
        """Adds a third window: the same traffic with telemetry on."""
        metrics, ledger, windows = super().trace(seconds * 2.0 / 3.0)
        store = os.path.join(self.scratch, "warm-store.json")
        self.service.save_store(store)
        tracer = Tracer()
        with PlannerService(machine(gen.UNIFORM8), metrics=MetricsRegistry(),
                            tracer=tracer, store_path=store, **WARM_OPTIONS) as telemetry:
            self._loop(telemetry, count=WARM_WARMUP_REQUESTS, tracer=tracer)
            observed = self._loop(telemetry, seconds=seconds / 3.0, tracer=tracer)
        metrics["obs.warm_telemetry_overhead_pct"] = (
            self.overhead_pct(observed, windows[0]), "%")
        return metrics, ledger, windows + [observed]

    def counts(self) -> Metrics:
        return {"planner.hit_ratio": (1.0 - self.misses / max(1, self.cursor), "ratio")}


# ---------------------------------------------------------------------- #
# wire_warm
# ---------------------------------------------------------------------- #
def _span_seconds(spans: list, prefix: str) -> float:
    return sum(s["duration"] for s in spans if str(s["name"]).startswith(prefix))


def _median_seconds(fn) -> float:
    perf = time.perf_counter
    samples = []
    for _ in range(CODEC_REPEATS):
        began = perf()
        fn()
        samples.append(perf() - began)
    return float(np.median(samples))


class WireWarm(Driver):
    """The ``warm_inproc`` traffic through a two-worker ``PlanServer``.

    The load comes from two client processes, one thread and one connection
    each, each connection dealt to its own worker.  Two client threads in
    one process would wait on each other's interpreter lock: on the
    reference box that added about 55 us to the p50 and most of the
    run-to-run spread of the tails, a cost no caller in its own process pays.
    """

    name = "wire_warm"
    WORKERS = 2
    clients = WORKERS

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        singles, graphs = gen.warm_working_set(seed)
        self.working_set = singles + graphs
        self.stream = gen.warm_stream(seed)
        self.traffic.update(request.id for request in self.stream)
        self.server: Optional[PlanServer] = None
        #: (process, pipe) of every client process.
        self.callers: List[Tuple[multiprocessing.Process, Connection]] = []
        #: The server's first answers (its prewarm); every later answer must
        #: repeat them, and ``finish()`` holds them to the in-process planner.
        self.expected: Optional[Dict[str, list]] = None
        self.inproc: Optional[Dict[str, object]] = None
        self.seen: Counter = Counter()
        self.served_by: Counter = Counter()
        self.hits = 0
        self.answered = 0
        self.retries = 0
        self.sample_spans: Dict[str, list] = {}
        self._servers = 0
        # State of a client process (set there, unused in the benchmark's).
        self.index = 0
        self.client: Optional[PlanClient] = None
        self.tracer: Optional[Tracer] = None
        self.cursor = 0

    def _reference(self) -> None:
        """In-process answers of the working set, their warm responses, and a store."""
        if self.inproc is not None:
            return
        with PlannerService(machine(gen.UNIFORM8), **WARM_OPTIONS) as service:
            for request in self.working_set:
                serve(service, request)
            self.inproc = {request.id: serve(service, request)
                           for request in self.working_set}
            self.store = os.path.join(self.scratch, "wire-store.json")
            service.save_store(self.store)

    def setup(self, store: Optional[str] = None, tracing: bool = False) -> None:
        """Start the client processes and the fleet, and prewarm both workers.

        ``store`` boots the workers from the reference plan store instead
        (``--trace 1`` only, where set-up time is not reported).
        """
        # The clients fork first, from a process with no server threads yet.
        sys.stdout.flush()
        context = multiprocessing.get_context("fork")
        for index in range(self.WORKERS):
            here, there = context.Pipe()
            process = context.Process(target=self._caller, args=(there, index), daemon=True)
            process.start()
            there.close()
            self.callers.append((process, here))
        self._servers += 1
        self.server = PlanServer(
            machine(gen.UNIFORM8), num_workers=self.WORKERS,
            address=os.path.join(self.scratch, f"plan-{self._servers}.sock"),
            service_options={**WARM_OPTIONS, "store_path": store},
            enable_tracing=tracing)
        self.server.start()
        self._call("connect", self.server.address, tracing)
        prewarmed = self._call("prewarm")
        workers = sorted(worker for worker, _ in prewarmed)
        if workers != list(range(self.WORKERS)):
            self.fail(f"clients were not pinned to distinct workers: {workers}")
        for _, answers in prewarmed:
            if self.expected is None:
                self.expected = answers
            elif answers != self.expected:
                self.fail("the workers planned the working set differently")
        self._run(count=WIRE_WARMUP_REQUESTS)

    def finish(self) -> int:
        """Hold the served answers to the in-process planner's."""
        if self.expected is None:
            return 0
        self._reference()
        wrong = [key for key, answer in self.expected.items()
                 if answer != self.inproc[key].recommendations]
        for key in wrong:
            self.fail(f"{key}: served plan differs from in-process")
        return sum(self.seen[key] for key in wrong)

    def teardown(self) -> None:
        try:
            if self.callers:
                self.retries += sum(self._call("disconnect"))
        finally:
            for process, pipe in self.callers:
                with contextlib.suppress(OSError):
                    pipe.send(("exit", ()))
                process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()
                    process.join()
                pipe.close()
            self.callers = []
            if self.server is not None:
                self.server.stop()
                self.server = None

    def window(self, seconds: float, ledger: Optional[Ledger] = None) -> Window:
        return self._run(seconds=seconds, ledger=ledger)

    # -- the client processes ---------------------------------------------
    def _call(self, command: str, *args) -> list:
        """Run ``command`` in every client process at once; their results."""
        for _, pipe in self.callers:
            pipe.send((command, args))
        results = []
        for _, pipe in self.callers:
            result, messages, failures = pipe.recv()
            self.failures += failures
            self.messages.extend(messages[:MAX_MESSAGES - len(self.messages)])
            results.append(result)
        return results

    def _caller(self, pipe: Connection, index: int) -> None:
        """Body of client process ``index``: runs the commands it is sent."""
        commands = {"connect": self._connect, "prewarm": self._prewarm,
                    "drive": self._drive, "disconnect": self._disconnect}
        self.index = index
        self.cursor = index * len(self.stream) // self.WORKERS
        while True:
            command, args = pipe.recv()
            if command == "exit":
                break
            self.messages, self.failures = [], 0
            pipe.send((commands[command](*args), self.messages, self.failures))
        pipe.close()

    def _connect(self, address: str, tracing: bool) -> None:
        self.tracer = Tracer(role=f"client-{self.index}") if tracing else None
        self.client = PlanClient(address, pool_size=1, tracer=self.tracer)

    def _disconnect(self) -> int:
        retries = self.client.transport_retries
        self.client.close()
        return retries

    def _prewarm(self) -> Tuple[int, Dict[str, list]]:
        """Plan the working set once; later answers must repeat these."""
        workers, answers = set(), {}
        for request in self.working_set:
            response = serve(self.client, request)
            workers.add(response.worker)
            answers[request.id] = response.recommendations
        if len(workers) != 1:
            self.fail(f"one client reached workers {sorted(workers)}")
        self.expected = answers
        return min(workers), answers

    def _run(self, *, seconds: float = math.inf, count: Optional[int] = None,
             ledger: Optional[Ledger] = None) -> Window:
        parts = self._call("drive", time.perf_counter() + seconds, count, ledger is not None)
        win = Window()
        for part, _, _ in parts:
            win.update(part)
        if count is None:
            for part, _, (served_by, seen, hits, sample_spans) in parts:
                self.served_by.update(served_by)
                self.seen.update(seen)
                self.hits += hits
                self.answered += part.samples
                for key, spans in sample_spans.items():
                    self.sample_spans.setdefault(key, spans)
        if ledger is not None:
            self._fill_ledger(ledger, [row for _, rows, _ in parts for row in rows])
        return win

    def _drive(self, deadline: float, count: Optional[int], traced: bool):
        """One client's closed loop: (window, ledger rows, tallies)."""
        win = Window()
        client, tracer = self.client, self.tracer
        stream, expected = self.stream, self.expected
        length = len(stream)
        record = win.record
        perf = time.perf_counter
        served_by: Counter = Counter()
        seen: Counter = Counter()
        hits = 0
        sample_spans: Dict[str, list] = {}
        rows = []
        position = self.cursor
        stop = position + count if count is not None else None
        if tracer is not None:
            tracer.clear()
        while position != stop:
            request = stream[position % length]
            position += 1
            win.attempted += 1
            began = perf()
            try:
                response = serve(client, request)
            except Exception as error:  # noqa: BLE001 - counted, run fails
                win.failed += 1
                self.fail(f"{request.id}: {error!r}")
                response = None
            finished = perf()
            if response is not None:
                elapsed = finished - began
                record(elapsed, request.id)
                served_by[response.worker] += 1
                seen[request.id] += 1
                hits += response.cache_hit
                if not response.cache_hit or response.recommendations != expected[request.id]:
                    win.failed += 1
                    self.fail(f"{request.id}: wire answer is not the prewarm answer")
                if traced:
                    sample_spans.setdefault(request.id, response.spans)
                    spans = tracer.drain()
                    rows.append((request.id, elapsed, _span_seconds(spans, "client.plan"),
                                 _span_seconds(spans, "worker.plan")))
            if finished >= deadline:
                break
        self.cursor = position
        return win, rows, (served_by, seen, hits, sample_spans)

    # -- the traced ledger ------------------------------------------------
    def _replay(self, traced: bool) -> Dict[str, Dict[str, float]]:
        """Median codec seconds per working-set item, and frame sizes.

        Replays the request and response payloads through the same protocol
        functions the client and the workers call.  ``traced`` payloads carry
        the trace context and the worker spans, as in the traced window.
        """
        context = {"trace_id": "0" * 16, "parent_span_id": "1" * 16} if traced else None
        trace_id = context["trace_id"] if context else None
        pid = os.getpid()
        out = {}
        for request in self.working_set:
            response = self.inproc[request.id]
            spans = self.sample_spans.get(request.id, []) if traced else None
            if request.graph is not None:
                build, subject = protocol.plan_graph_request, request.graph
                parse = lambda message: OpGraph.from_dict(message["graph"])  # noqa: E731
                payload, remote = protocol.graph_plan_response_payload, RemoteGraphPlanResponse
            else:
                build, subject = protocol.plan_request, request.workload
                parse = lambda message: Workload.from_dict(message["workload"])  # noqa: E731
                payload, remote = protocol.plan_response_payload, RemotePlanResponse

            def encode_request():
                return protocol.encode_frame(build(subject, None, trace=context))

            def encode_response():
                return protocol.encode_frame(protocol.ok_response(
                    payload(response, 0, pid, trace_id=trace_id, spans=spans)))

            frame, reply = encode_request(), encode_response()
            stages = {
                "serve.codec.client_encode": encode_request,
                "serve.codec.worker_decode":
                    lambda: parse(protocol.FrameDecoder().feed(frame)[0]),
                "serve.codec.worker_encode": encode_response,
                "serve.codec.client_decode":
                    lambda: remote.from_dict(protocol.FrameDecoder().feed(reply)[0]["result"]),
            }
            if traced:
                stages["obs.span_absorb"] = lambda: Tracer().absorb(spans)
            timings = {layer: _median_seconds(fn) for layer, fn in stages.items()}
            timings["request_bytes"] = float(len(frame))
            timings["response_bytes"] = float(len(reply))
            out[request.id] = timings
        return out

    def _fill_ledger(self, ledger: Ledger, rows: list) -> None:
        """Ledger rows from the spans of each traced request plus the replay.

        ``serve.transport`` is what remains of the client span once the
        worker span, the codec and span absorption are taken out: socket
        hops, the parent's selector loop and scheduling.
        """
        replay = self._replay(traced=True)
        for request_id, wall, client, worker in rows:
            ledger.begin()
            codec = 0.0
            for layer, seconds in replay[request_id].items():
                if not layer.endswith("_bytes"):
                    ledger.add(layer, seconds)
                    codec += seconds
            ledger.add("serve.worker.plan", worker)
            ledger.add("serve.transport", client - worker - codec)
            ledger.end(wall)

    def trace(self, seconds: float) -> Tuple[Metrics, Ledger, List[Window]]:
        self._reference()
        self.setup(store=self.store)
        plain = self.window(seconds * UNTRACED_SHARE)
        self.teardown()
        self.setup(store=self.store, tracing=True)
        ledger = Ledger()
        traced = self.window(seconds * (1.0 - UNTRACED_SHARE), ledger)
        self.teardown()
        metrics = ledger.metrics()
        metrics["obs.trace_overhead_pct"] = (self.overhead_pct(traced, plain), "%")
        weights = Counter(request.id for request in self.stream)
        total = sum(weights.values())
        untraced = self._replay(traced=False)

        def weighted(field: str, scale: float = 1.0) -> float:
            return sum(untraced[key][field] * n for key, n in weights.items()) / total * scale

        for stage in ("client_encode", "worker_decode", "worker_encode", "client_decode"):
            metrics[f"serve.codec.{stage}_us"] = (
                weighted(f"serve.codec.{stage}", 1e6), "us")
        metrics["serve.request_bytes"] = (weighted("request_bytes"), "bytes")
        metrics["serve.response_bytes"] = (weighted("response_bytes"), "bytes")
        metrics["serve.transport_retries"] = (float(self.retries), "count")
        metrics["serve.busiest_worker_share"] = (
            max(self.served_by.values()) / sum(self.served_by.values()), "ratio")
        metrics["planner.hit_ratio"] = (self.hits / max(1, self.answered), "ratio")
        return metrics, ledger, [plain, traced]


# ---------------------------------------------------------------------- #
# matmul_direct
# ---------------------------------------------------------------------- #
def _partition(spec: tuple, owners: int):
    kind = spec[0]
    if kind == "custom":
        return CustomTiles(spec[1], spec[2])
    if kind == "block":
        return Block2D()
    blocks = spec[1] * owners if spec[1] > 1 else None
    return RowBlock(num_blocks=blocks) if kind == "row" else ColumnBlock(num_blocks=blocks)


def _simulated_answer(result) -> list:
    return [result.simulated_time, result.remote_get_bytes, result.remote_accumulate_bytes]


class MatmulDirect(Driver):
    """``universal_matmul`` with no planner: one materialized and one
    simulate-only multiply per request."""

    name = "matmul_direct"
    WARMUP_PAIRS = 6

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.pairs = gen.matmul_direct(seed)
        self.traffic.update(pair.id for pair in self.pairs)
        self.machine = pvc_system(gen.MATMUL_DEVICES)
        self.config = ExecutionConfig(simulate_only=True)
        self.first: Dict[str, tuple] = {}
        self.seen: Counter = Counter()

    def prepare(self) -> None:
        self.inputs = []
        for pair in self.pairs:
            spec = pair.materialized
            rng = np.random.default_rng(spec.data_seed)
            a = rng.standard_normal((spec.m, spec.k), dtype=np.float32)
            b = rng.standard_normal((spec.k, spec.n), dtype=np.float32)
            self.inputs.append((a, b))

    def setup(self) -> None:
        for index in range(self.WARMUP_PAIRS):
            self._multiply(index)

    def _multiply(self, index: int):
        """One request: the materialized multiply, then the simulated one."""
        pair = self.pairs[index]
        spec = pair.materialized
        a_dense, b_dense = self.inputs[index]
        devices = gen.MATMUL_DEVICES
        rep_a, rep_b, rep_c = spec.replication
        part_a, part_b, part_c = (_partition(p, devices // r)
                                  for p, r in zip(spec.partitions, spec.replication))
        runtime = Runtime(machine=self.machine)
        a = matrix.DistributedMatrix.from_dense(runtime, a_dense, part_a,
                                                replication=rep_a, name="A")
        b = matrix.DistributedMatrix.from_dense(runtime, b_dense, part_b,
                                                replication=rep_b, name="B")
        c = matrix.DistributedMatrix.create(runtime, (spec.m, spec.n), part_c,
                                            replication=rep_c, name="C")
        materialized = matmul.universal_matmul(a, b, c)
        product = c.to_dense()

        sim = pair.simulated
        workload = sim.workload()
        rep_a, rep_b, rep_c = sim.replication
        part_a, part_b, part_c = scheme_by_name(sim.scheme).partitions(
            workload, devices // rep_a, devices // rep_b, devices // rep_c)
        runtime = Runtime(machine=self.machine)
        shapes = workload.shapes
        a = matrix.DistributedMatrix.create(runtime, shapes[0], part_a, replication=rep_a,
                                            name="A", materialize=False)
        b = matrix.DistributedMatrix.create(runtime, shapes[1], part_b, replication=rep_b,
                                            name="B", materialize=False)
        c = matrix.DistributedMatrix.create(runtime, shapes[2], part_c, replication=rep_c,
                                            name="C", materialize=False)
        simulated = matmul.universal_matmul(a, b, c, stationary=sim.stationary,
                                            config=self.config)
        return product, materialized, simulated

    def window(self, seconds: float, ledger: Optional[Ledger] = None) -> Window:
        win = Window()
        perf = time.perf_counter
        deadline = perf() + seconds
        finished = -math.inf
        while finished < deadline:
            for index, pair in enumerate(self.pairs):
                win.attempted += 1
                if ledger is not None:
                    ledger.begin()
                began = perf()
                try:
                    product, materialized, simulated = self._multiply(index)
                except Exception as error:  # noqa: BLE001 - counted, run fails
                    finished = perf()
                    win.failed += 1
                    self.fail(f"{pair.id}: {error!r}")
                    continue
                finished = perf()
                win.record(finished - began, pair.id)
                if ledger is not None:
                    ledger.end(finished - began)
                if not self._accept(index, product, materialized, simulated):
                    win.failed += 1
                if finished >= deadline:
                    break
        return win

    def _accept(self, index: int, product, materialized, simulated) -> bool:
        pair = self.pairs[index]
        self.seen[pair.id] += 1
        answer = _simulated_answer(simulated)
        digest = hashlib.blake2b(product.tobytes(), digest_size=16).digest()
        first = self.first.get(pair.id)
        if first is None:
            # Only a pair's first product is held to NumPy, and the reference
            # is dropped at once so it never counts in peak_rss_mb; later
            # repeats must equal that first product bit for bit.
            a, b = self.inputs[index]
            agrees = np.allclose(product, a.astype(np.float64) @ b.astype(np.float64),
                                 rtol=MATMUL_RTOL, atol=MATMUL_ATOL)
            if not agrees:
                self.fail(f"{pair.id}: materialized product differs from NumPy")
            self.first[pair.id] = (answer, digest, agrees, materialized, simulated)
            return agrees
        ok = first[2]
        if first[1] != digest:
            self.fail(f"{pair.id}: materialized product changed between calls")
            ok = False
        if first[0] != answer:
            self.fail(f"{pair.id}: simulate-only answer changed between calls")
            ok = False
        return ok

    def finish(self) -> int:
        bad = set()
        pinned = load_reference().get(self.name, {}).get(str(self.seed))
        for pair in self.pairs:
            if pair.id not in self.first:
                continue
            answer = self.first[pair.id][0]
            if pinned is not None and pinned.get(pair.id) != answer:
                self.fail(f"{pair.id}: simulate-only answer differs from reference.json")
                bad.add(pair.id)
            sim = pair.simulated
            candidate = Candidate(index=0, scheme=scheme_by_name(sim.scheme),
                                  replication=sim.replication, stationary=sim.stationary,
                                  memory_per_device=0)
            point = BatchEvaluator(self.machine, sim.workload(), self.config).simulate(candidate)
            batch = [point.simulated_time, point.extra["remote_get_bytes"],
                     point.extra["remote_accumulate_bytes"]]
            if batch != answer:
                self.fail(f"{pair.id}: universal_matmul {answer} != batch evaluator {batch}")
                bad.add(pair.id)
        return sum(self.seen[pair_id] for pair_id in bad)

    def counts(self) -> Metrics:
        results = [(m, s) for _, _, _, m, s in self.first.values()]
        if not results:
            return {}
        calls = 2.0 * len(results)
        return {
            "core.slicing.ops_per_call": (
                sum(m.total_ops + s.total_ops for m, s in results) / calls, "count"),
            "dist.remote_get_mb": (
                sum(m.remote_get_bytes + s.remote_get_bytes for m, s in results)
                / calls / 1e6, "MB"),
            "dist.remote_accumulate_mb": (
                sum(m.remote_accumulate_bytes + s.remote_accumulate_bytes
                    for m, s in results) / calls / 1e6, "MB"),
        }


def matmul_reference(seed: int) -> Dict[str, list]:
    """Every simulate-only ``matmul_direct`` answer for ``seed``."""
    driver = MatmulDirect(seed, scratch="")
    driver.prepare()
    return {pair.id: _simulated_answer(driver._multiply(index)[2])
            for index, pair in enumerate(driver.pairs)}


DRIVERS = {driver.name: driver for driver in (ColdMix, WarmInproc, WireWarm, MatmulDirect)}
