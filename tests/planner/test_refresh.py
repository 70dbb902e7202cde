"""Background refresher behaviour: staleness, pre-TTL refresh, lifecycle."""

import threading
import time

import pytest

from repro.bench.workloads import Workload, moe_workload
import repro.planner.refresh as refresh_module
from repro.planner import BackgroundRefresher, PlannerService
from repro.planner.refresh import KIND_STALE, KIND_TTL
from repro.topology.machines import uniform_system

MACHINE = uniform_system(4)
SMALL = Workload("small", 96, 80, 64)
OTHER = Workload("other", 512, 80, 64)


class FakeClock:
    """A manually advanced clock injectable into the service/cache."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def small_service(**kwargs) -> PlannerService:
    kwargs.setdefault("replication_factors", [1, 2])
    kwargs.setdefault("stationary_options", ("B", "C"))
    return PlannerService(MACHINE, **kwargs)


@pytest.fixture(autouse=True)
def no_thread_leaks():
    """Every test must leave the process with the threads it started with."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = [t for t in threading.enumerate()
                  if t not in before and t.is_alive()]
        if not leaked:
            return
        time.sleep(0.01)
    raise AssertionError(f"leaked threads: {[t.name for t in leaked]}")


class TestStaleWhileRevalidate:
    def test_expired_in_grace_serves_stale_then_refreshes(self):
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, cache_grace_seconds=60.0,
                           clock=clock) as service:
            refresher = BackgroundRefresher(service)
            first = service.plan(SMALL)
            assert not first.cache_hit and not first.stale

            clock.advance(15.0)  # past TTL, inside grace
            stale = service.plan(SMALL)
            assert stale.cache_hit and stale.stale
            assert stale.plan_age == pytest.approx(15.0)
            assert (stale.recommendation.describe()
                    == first.recommendation.describe())
            assert service.stats().stale_hits == 1
            assert refresher.stats().scheduled[KIND_STALE] >= 1

            executed = refresher.run_once()
            assert executed >= 1
            fresh = service.plan(SMALL)
            assert fresh.cache_hit and not fresh.stale
            assert fresh.plan_age == pytest.approx(0.0)
            assert service.stats().background_refreshes >= 1
            refresher.close()

    def test_past_grace_is_a_cold_plan_again(self):
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, cache_grace_seconds=5.0,
                           clock=clock) as service:
            service.plan(SMALL)
            clock.advance(16.0)  # past TTL + grace
            response = service.plan(SMALL)
            assert not response.cache_hit and not response.stale

    def test_without_grace_expiry_is_a_miss(self):
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, clock=clock) as service:
            service.plan(SMALL)
            clock.advance(15.0)
            response = service.plan(SMALL)
            assert not response.cache_hit and not response.stale

    def test_refresh_preserves_recommendations_exactly(self):
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, cache_grace_seconds=60.0,
                           clock=clock) as service:
            refresher = BackgroundRefresher(service)
            before = service.plan(SMALL, top_k=3)
            clock.advance(12.0)
            service.plan(SMALL, top_k=3)
            refresher.run_once()
            after = service.plan(SMALL, top_k=3)
            assert [r.describe() for r in after.recommendations] \
                == [r.describe() for r in before.recommendations]
            refresher.close()

    def test_structured_signature_is_refreshed_like_a_dense_one(self):
        moe = moe_workload(4, 256, 256, 256, expert_tokens=[100, 50, 150, 100])
        with small_service() as reference:
            expected = reference.plan(moe, top_k=2)
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, cache_grace_seconds=60.0,
                           clock=clock) as service:
            refresher = BackgroundRefresher(service)
            service.plan(moe, top_k=2)
            clock.advance(15.0)  # past TTL, inside grace
            assert service.plan(moe, top_k=2).stale
            assert refresher.run_once() == 1
            fresh = service.plan(moe, top_k=2)
            assert fresh.cache_hit and not fresh.stale
            assert fresh.plan_age == pytest.approx(0.0)
            assert service.stats().background_refreshes == 1
            assert ([r.describe() for r in fresh.recommendations]
                    == [r.describe() for r in expected.recommendations])
            refresher.close()


class TestPreTTLRefresh:
    def test_entry_in_margin_window_is_refreshed_before_expiry(self):
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, clock=clock) as service:
            refresher = BackgroundRefresher(service, refresh_margin=0.5)
            service.plan(SMALL)
            clock.advance(6.0)  # age 6 > ttl * (1 - margin) = 5
            executed = refresher.run_once()
            assert executed == 1
            assert refresher.stats().scheduled[KIND_TTL] == 1
            response = service.plan(SMALL)
            assert response.cache_hit and not response.stale
            assert response.plan_age == pytest.approx(0.0)
            refresher.close()

    def test_young_entry_is_left_alone(self):
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, clock=clock) as service:
            refresher = BackgroundRefresher(service, refresh_margin=0.25)
            service.plan(SMALL)
            clock.advance(2.0)  # age 2 < threshold 7.5
            assert refresher.run_once() == 0
            refresher.close()

    def test_no_ttl_means_no_ttl_scheduling(self):
        with small_service() as service:
            refresher = BackgroundRefresher(service)
            service.plan(SMALL)
            assert refresher.run_once() == 0
            refresher.close()

    def test_expired_unrequested_entry_is_scheduled_as_stale(self):
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, cache_grace_seconds=60.0,
                           clock=clock) as service:
            refresher = BackgroundRefresher(service)
            service.plan(SMALL)
            clock.advance(15.0)  # past TTL, not requested since
            assert refresher.run_once() == 1
            scheduled = refresher.stats().scheduled
            assert scheduled == {KIND_STALE: 1, KIND_TTL: 0}
            response = service.plan(SMALL)
            assert response.cache_hit and not response.stale
            assert response.plan_age == pytest.approx(0.0)
            refresher.close()

    def test_unobserved_entry_is_not_refreshed(self):
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, clock=clock) as service:
            service.plan(SMALL)  # planned before the refresher observes
            refresher = BackgroundRefresher(service, refresh_margin=0.5)
            clock.advance(6.0)
            assert refresher.run_once() == 0
            assert refresher.stats().total_scheduled == 0
            assert service.plan(SMALL).plan_age == pytest.approx(6.0)
            refresher.close()

    def test_signature_map_keeps_the_most_recently_served(self, monkeypatch):
        monkeypatch.setattr(refresh_module, "MAX_SIGNATURES", 1)
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, clock=clock) as service:
            refresher = BackgroundRefresher(service, refresh_margin=0.5)
            service.plan(SMALL)
            service.plan(OTHER)  # evicts SMALL's signature
            clock.advance(6.0)
            assert refresher.run_once() == 1
            assert service.plan(OTHER).plan_age == pytest.approx(0.0)
            assert service.plan(SMALL).plan_age == pytest.approx(6.0)
            refresher.close()


class TestSingleFlightParity:
    @pytest.fixture
    def slow_search(self, monkeypatch):
        """Gate the module-level search so a leader can be held in flight."""
        import repro.planner.service as service_module

        release = threading.Event()
        entered = threading.Event()
        original = service_module.search_partitionings

        def gated(*args, **kwargs):
            entered.set()
            release.wait(timeout=10.0)
            return original(*args, **kwargs)

        monkeypatch.setattr(service_module, "search_partitionings", gated)
        yield entered, release
        release.set()

    def test_background_refresh_skips_when_foreground_leads(self, slow_search):
        entered, release = slow_search
        with small_service() as service:
            signature = service.signature_for(SMALL)
            foreground = threading.Thread(target=service.plan, args=(SMALL,))
            foreground.start()
            try:
                assert entered.wait(timeout=10.0)
                # The foreground leader holds the flight: refresh must skip
                # without running a second search.
                assert service.refresh(signature) is False
            finally:
                release.set()
                foreground.join(timeout=10.0)
            stats = service.stats()
            assert stats.background_refreshes == 0
            assert stats.plans_computed == 1

    def test_foreground_coalesces_onto_background_refresh(self, slow_search):
        entered, release = slow_search
        with small_service() as service:
            signature = service.signature_for(SMALL)
            results = {}

            def background():
                results["refreshed"] = service.refresh(signature)

            refresh_thread = threading.Thread(target=background)
            refresh_thread.start()
            response_box = {}
            plan_thread = threading.Thread(
                target=lambda: response_box.update(
                    response=service.plan(SMALL)))
            try:
                assert entered.wait(timeout=10.0)
                plan_thread.start()
                # Give the foreground request time to join the flight.
                time.sleep(0.05)
                release.set()
                plan_thread.join(timeout=10.0)
            finally:
                release.set()
                refresh_thread.join(timeout=10.0)
                if plan_thread.is_alive():  # pragma: no cover - cleanup
                    plan_thread.join(timeout=10.0)
            assert results["refreshed"] is True
            assert response_box["response"].coalesced
            stats = service.stats()
            assert stats.plans_computed == 1
            assert stats.background_refreshes == 1
            assert stats.coalesced_requests == 1


class TestQueue:
    def test_overflow_drops_lowest_priority(self, monkeypatch):
        monkeypatch.setattr(refresh_module, "MAX_QUEUE", 1)
        with small_service() as service:
            refresher = BackgroundRefresher(service)
            sig_a = service.signature_for(SMALL)
            sig_b = service.signature_for(OTHER)
            with refresher._lock:
                refresher._enqueue_locked(KIND_TTL, sig_b.key(), sig_b, 1)
                refresher._enqueue_locked(KIND_STALE, sig_a.key(), sig_a, 1)
            stats = refresher.stats()
            assert stats.dropped == 1
            assert stats.queue_depth == 1
            with refresher._lock:
                survivor = refresher._pop_task_locked()
            assert survivor.kind == KIND_STALE
            refresher.close()

    def test_duplicate_keys_are_deduplicated(self):
        with small_service() as service:
            refresher = BackgroundRefresher(service)
            sig = service.signature_for(SMALL)
            with refresher._lock:
                assert refresher._enqueue_locked(KIND_STALE, sig.key(), sig, 1)
                assert not refresher._enqueue_locked(KIND_STALE, sig.key(), sig, 1)
            assert refresher.stats().queue_depth == 1
            refresher.close()

    def test_constructor_validation(self):
        with small_service() as service:
            for bad in (dict(interval_seconds=0.0), dict(refresh_margin=1.0)):
                with pytest.raises(ValueError):
                    BackgroundRefresher(service, **bad)


class TestLifecycle:
    def test_start_stop_idempotent_and_restartable(self):
        with small_service() as service:
            refresher = BackgroundRefresher(service, interval_seconds=0.05)
            assert not refresher.running
            refresher.start()
            refresher.start()  # idempotent
            assert refresher.running
            refresher.stop()
            refresher.stop()  # idempotent
            assert not refresher.running
            refresher.start()  # restartable after stop
            assert refresher.running
            refresher.close()
            assert not refresher.running

    @pytest.mark.parametrize("num_threads", [1, 3])
    def test_start_spawns_a_scheduler_and_num_threads_workers(
            self, monkeypatch, num_threads):
        monkeypatch.setattr(refresh_module, "NUM_THREADS", num_threads)
        with small_service() as service:
            with BackgroundRefresher(service,
                                     interval_seconds=0.05) as refresher:
                assert refresher.running
                names = sorted(t.name for t in threading.enumerate()
                               if t.name.startswith("plan-refresh"))
                assert names == sorted(["plan-refresh-scheduler"] + [
                    f"plan-refresh-{i}" for i in range(num_threads)])
            assert not refresher.running

    def test_threads_drain_work_concurrently(self, monkeypatch):
        monkeypatch.setattr(refresh_module, "NUM_THREADS", 2)
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, cache_grace_seconds=60.0,
                           clock=clock) as service:
            with BackgroundRefresher(service,
                                     interval_seconds=0.02) as refresher:
                service.plan(SMALL)
                clock.advance(12.0)
                stale = service.plan(SMALL)
                assert stale.stale
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if refresher.stats().completed >= 1:
                        break
                    time.sleep(0.01)
                assert refresher.stats().completed >= 1
                fresh = service.plan(SMALL)
                assert fresh.cache_hit and not fresh.stale

    def test_inherited_refresher_counts_stopped_after_fork(self, monkeypatch):
        with small_service() as service:
            refresher = BackgroundRefresher(service, interval_seconds=0.05)
            refresher.start()
            assert refresher.running
            real_pid = refresh_module.os.getpid()
            monkeypatch.setattr(refresh_module.os, "getpid",
                                lambda: real_pid + 1)
            assert not refresher.running  # "the child" sees it stopped
            refresher.stop()  # must not try to join another process's threads
            monkeypatch.setattr(refresh_module.os, "getpid", lambda: real_pid)
            refresher.close()

    def test_service_owns_refresher_via_refresh_options(self):
        service = small_service(refresh_options={"interval_seconds": 0.05})
        try:
            assert service.refresher is not None
            assert service.refresher.running
            assert service._observer is service.refresher
        finally:
            service.close()
        assert not service.refresher.running
        assert service._observer is None

    def test_disabled_by_default_with_no_observer(self):
        with small_service() as service:
            assert service.refresher is None
            assert service._observer is None
            response = service.plan(SMALL)
            assert response.recommendations

    def test_close_detaches_observer(self):
        with small_service() as service:
            refresher = BackgroundRefresher(service)
            assert service._observer is refresher
            refresher.close()
            assert service._observer is None


class TestStatsAndMetrics:
    def test_stats_snapshot_counts(self):
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, cache_grace_seconds=60.0,
                           clock=clock) as service:
            refresher = BackgroundRefresher(service)
            service.plan(SMALL)
            clock.advance(12.0)
            service.plan(SMALL)
            refresher.run_once()
            stats = refresher.stats()
            assert stats.observed_requests == 2
            assert stats.completed >= 1
            assert stats.total_scheduled >= 1
            assert stats.queue_depth == 0
            refresher.close()

    def test_failed_refresh_is_counted_and_the_key_is_released(
            self, monkeypatch):
        clock = FakeClock()
        with small_service(cache_ttl_seconds=10.0, cache_grace_seconds=60.0,
                           clock=clock) as service:
            refresher = BackgroundRefresher(service)
            service.plan(SMALL)
            clock.advance(15.0)
            assert service.plan(SMALL).stale

            def broken(signature, top_k=1):
                raise RuntimeError("search failed")

            monkeypatch.setattr(service, "refresh", broken)
            assert refresher.run_once() == 1
            stats = refresher.stats()
            assert (stats.failed, stats.completed, stats.queue_depth) == (1, 0, 0)

            monkeypatch.undo()
            assert service.plan(SMALL).stale
            assert refresher.run_once() == 1
            stats = refresher.stats()
            assert stats.scheduled[KIND_STALE] == 2
            assert (stats.failed, stats.completed) == (1, 1)
            assert not service.plan(SMALL).stale
            refresher.close()

    def test_inflight_skip_is_exported_as_skipped(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        clock = FakeClock()
        with small_service(metrics=registry, cache_ttl_seconds=10.0,
                           cache_grace_seconds=60.0, clock=clock) as service:
            refresher = BackgroundRefresher(service)
            service.plan(SMALL)
            clock.advance(15.0)
            service.plan(SMALL)
            monkeypatch.setattr(service, "refresh",
                                lambda signature, top_k=1: False)
            assert refresher.run_once() == 1
            stats = refresher.stats()
            assert (stats.skipped_inflight, stats.completed) == (1, 0)
            counters = registry.snapshot()["counters"]
            assert counters["repro_refresh_skipped_total"] == 1
            assert counters["repro_refresh_completed_total"] == 0
            refresher.close()

    def test_metrics_registered_on_service_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        clock = FakeClock()
        with small_service(metrics=registry, cache_ttl_seconds=10.0,
                           cache_grace_seconds=60.0, clock=clock) as service:
            refresher = BackgroundRefresher(service)
            service.plan(SMALL)
            clock.advance(12.0)
            service.plan(SMALL)
            refresher.run_once()
            snapshot = registry.snapshot()
            counters = snapshot["counters"]
            assert counters['repro_refresh_tasks_total{kind="stale"}'] >= 1
            assert counters["repro_refresh_completed_total"] >= 1
            assert counters["repro_plan_cache_stale_serves_total"] == 1
            refresher.close()
