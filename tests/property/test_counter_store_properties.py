"""One store per counter: what a registry exports equals what its owner keeps.

The plan cache, the planner service and the background refresher keep their
counters in their own stats records; a :class:`MetricsRegistry` only reads
them at snapshot time.  These properties drive random plan-cache histories
and scripted service histories and check, after every step, that each
exported counter and gauge equals the matching stats field.
"""

import os
import sys
import tempfile
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.schemes import scheme_by_name
from repro.bench.selector import PartitioningRecommendation
from repro.bench.workloads import Workload
from repro.obs.metrics import MetricsRegistry, empty_snapshot
from repro.obs.tracing import Tracer
from repro.planner import PlannerService
from repro.planner.cache import PlanCache, PlanEntry
from repro.topology.machines import uniform_system

KEYS = ("k0", "k1", "k2", "k3")
SCHEMES = ("row", "column", "outer", "inner")
MACHINE = uniform_system(2)
SERVICE_OPTIONS = {"replication_factors": [1]}


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def make_entry(scheme: str, plans: int) -> PlanEntry:
    rec = PartitioningRecommendation(
        scheme=scheme_by_name(scheme), replication=(1, 1, 1), stationary="C",
        percent_of_peak=50.0, simulated_time=1.0, memory_per_device=1 << 20)
    return PlanEntry(recommendations=[rec] * plans,
                     workload=Workload("w", 96, 80, 64))


def cache_samples(stats):
    """The samples a cache with these stats must export."""
    counters = {
        'repro_plan_cache_lookups_total{result="hit"}': stats.hits,
        'repro_plan_cache_lookups_total{result="miss"}': stats.misses,
        "repro_plan_cache_puts_total": stats.puts,
        "repro_plan_cache_evictions_total": stats.evictions,
        "repro_plan_cache_expirations_total": stats.expirations,
        "repro_plan_cache_stale_serves_total": stats.stale_serves,
    }
    gauges = {"repro_plan_cache_entries": stats.size,
              "repro_plan_cache_bytes": stats.total_bytes}
    return ({name: float(value) for name, value in counters.items()},
            {name: float(value) for name, value in gauges.items()})


ops = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.sampled_from(SCHEMES),
              st.integers(1, 3)),
    st.tuples(st.just("get"), st.sampled_from(KEYS)),
    st.tuples(st.just("get_for_serving"), st.sampled_from(KEYS)),
    st.tuples(st.just("prune_expired")),
    st.tuples(st.just("clear")),
    st.tuples(st.just("save_load")),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 5.0, 12.0, 40.0])),
)


@settings(max_examples=60, deadline=None)
@given(
    history=st.lists(ops, min_size=1, max_size=25),
    capacity=st.integers(1, 4),
    max_bytes=st.one_of(st.none(), st.integers(200, 1200)),
    ttl=st.one_of(st.none(), st.sampled_from([10.0, 30.0])),
    grace=st.one_of(st.none(), st.sampled_from([5.0, 20.0])),
)
def test_cache_exports_exactly_its_stats_after_every_step(history, capacity,
                                                           max_bytes, ttl, grace):
    clock = FakeClock()
    registry = MetricsRegistry()
    cache = PlanCache(capacity, max_bytes=max_bytes, ttl_seconds=ttl,
                      grace_seconds=grace, clock=clock, metrics=registry)
    previous = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "plans.json")
        for op in history:
            name = op[0]
            if name == "put":
                cache.put(op[1], make_entry(op[2], op[3]))
            elif name == "advance":
                clock.now += op[1]
            elif name == "save_load":
                cache.save(store)
                cache.load(store)
            elif name in ("prune_expired", "clear"):
                getattr(cache, name)()
            else:
                getattr(cache, name)(op[1])
            snapshot = registry.snapshot()
            counters, gauges = cache_samples(cache.stats())
            assert snapshot["counters"] == counters
            assert snapshot["gauges"] == gauges
            # Exported counters never decrease.
            assert all(value >= previous.get(key, 0.0)
                       for key, value in counters.items())
            previous = counters
    assert set(snapshot["help"]) == {
        "repro_plan_cache_lookups_total", "repro_plan_cache_puts_total",
        "repro_plan_cache_evictions_total", "repro_plan_cache_expirations_total",
        "repro_plan_cache_stale_serves_total", "repro_plan_cache_entries",
        "repro_plan_cache_bytes"}


# ---------------------------------------------------------------------- #
# scripted services: the four request-outcome identities
# ---------------------------------------------------------------------- #
def requests(registry):
    counters = registry.snapshot()["counters"]
    return {outcome: counters[f'repro_planner_requests_total{{outcome="{outcome}"}}']
            for outcome in ("hit", "stale", "coalesced", "computed")}


def tables_built(registry):
    return registry.snapshot()["counters"]["repro_planner_tables_built_total"]


def identities(stats):
    return {"hit": stats.cache_hits - stats.stale_hits,
            "stale": stats.stale_hits,
            "coalesced": stats.coalesced_requests,
            "computed": stats.plans_computed - stats.background_refreshes}


def workload(m=96):
    return Workload(f"w{m}", m, 80, 64)


class TestServiceOutcomes:
    def test_hit_stale_and_computed_follow_the_service_stats(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        with PlannerService(MACHINE, metrics=registry, cache_ttl_seconds=30.0,
                            cache_grace_seconds=30.0, clock=clock,
                            **SERVICE_OPTIONS) as service:
            steps = [lambda: service.plan(workload()),
                     lambda: service.plan(workload()),
                     lambda: setattr(clock, "now", clock.now + 40.0),
                     lambda: service.plan(workload()),
                     lambda: service.plan(workload(128))]
            for step in steps:
                step()
                assert requests(registry) == identities(service.stats())
                assert tables_built(registry) == service.stats().candidates_built
            assert requests(registry) == {"hit": 1.0, "stale": 1.0,
                                          "coalesced": 0.0, "computed": 2.0}
            assert service.stats().candidates_built > 0

    def test_a_background_refresh_is_not_a_request(self):
        registry = MetricsRegistry()
        with PlannerService(MACHINE, metrics=registry,
                            **SERVICE_OPTIONS) as service:
            service.plan(workload())
            assert service.refresh(service.signature_for(workload()))
            stats = service.stats()
            assert stats.plans_computed == 2 and stats.background_refreshes == 1
            assert requests(registry) == identities(stats)
            assert requests(registry)["computed"] == 1.0

    def test_a_coalesced_waiter_is_counted_once(self, monkeypatch):
        registry = MetricsRegistry()
        release = threading.Event()
        compute = PlannerService._compute_plan

        def held(service, *args):
            release.wait(timeout=30)
            return compute(service, *args)

        monkeypatch.setattr(PlannerService, "_compute_plan", held)
        with PlannerService(MACHINE, metrics=registry,
                            **SERVICE_OPTIONS) as service:
            threads = []
            for expected in (1, 2):
                thread = threading.Thread(target=service.plan, args=(workload(),))
                thread.start()
                threads.append(thread)
                # The leader (then the waiter) has registered its request.
                while service.stats().requests < expected:
                    time.sleep(0.001)
            release.set()
            for thread in threads:
                thread.join(timeout=30)
            stats = service.stats()
            assert stats.coalesced_requests == 1 and stats.plans_computed == 1
            assert requests(registry) == identities(stats)
            assert requests(registry) == {"hit": 0.0, "stale": 0.0,
                                          "coalesced": 1.0, "computed": 1.0}

    def test_two_services_on_one_registry_sum(self):
        registry = MetricsRegistry()
        with PlannerService(MACHINE, metrics=registry, **SERVICE_OPTIONS) as one, \
                PlannerService(MACHINE, metrics=registry, **SERVICE_OPTIONS) as two:
            one.plan(workload())
            one.plan(workload())
            two.plan(workload())
            two.plan(workload(128))
            counts = requests(registry)
            assert counts == {"hit": 1.0, "stale": 0.0, "coalesced": 0.0,
                              "computed": 3.0}
            counters, gauges = cache_samples(one.cache_stats())
            other_counters, other_gauges = cache_samples(two.cache_stats())
            snapshot = registry.snapshot()
            for name, value in counters.items():
                assert snapshot["counters"][name] == value + other_counters[name]
            for name, value in gauges.items():
                assert snapshot["gauges"][name] == value + other_gauges[name]


def test_telemetry_without_a_registry_exports_nothing():
    with PlannerService(MACHINE, tracer=Tracer(role="t"),
                        **SERVICE_OPTIONS) as service:
        service.plan(workload())
        assert service.metrics_registry.snapshot() == empty_snapshot()


def test_concurrent_requests_and_snapshots_agree():
    """More request threads than cores, a scraper reading throughout: the
    exported counters never decrease and end equal to the owners' stats."""
    registry = MetricsRegistry()
    workloads = [workload(m) for m in (96, 112, 128)]
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with PlannerService(MACHINE, metrics=registry, **SERVICE_OPTIONS) as service:
            done = threading.Event()
            decreases = []

            def scrape():
                last = {}
                while not done.is_set():
                    counters = registry.snapshot()["counters"]
                    decreases.extend(name for name, value in counters.items()
                                     if value < last.get(name, 0.0))
                    last = counters

            def serve():
                for i in range(60):
                    service.plan(workloads[i % len(workloads)])

            scraper = threading.Thread(target=scrape)
            clients = [threading.Thread(target=serve) for _ in range(4)]
            for thread in [scraper] + clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            done.set()
            scraper.join(timeout=60)
            assert not any(t.is_alive() for t in [scraper] + clients)
            assert decreases == []
            stats = service.stats()
            assert stats.requests == 240
            assert sum(requests(registry).values()) == 240
            assert requests(registry) == identities(stats)
            assert tables_built(registry) == stats.candidates_built
            counters, gauges = cache_samples(service.cache_stats())
            snapshot = registry.snapshot()
            assert all(snapshot["counters"][n] == v for n, v in counters.items())
            assert snapshot["gauges"] == gauges
    finally:
        sys.setswitchinterval(previous_interval)
