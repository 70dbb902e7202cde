"""Unit tests for the LRU plan cache and its persistent JSON store."""

import json
import threading

import pytest

from repro.bench.schemes import scheme_by_name
from repro.bench.selector import PartitioningRecommendation
from repro.bench.workloads import Workload
from repro.planner.cache import (
    PlanCache,
    PlanEntry,
    recommendation_from_dict,
    recommendation_to_dict,
)


def make_entry(scheme: str = "column", percent: float = 50.0,
               fingerprint: str = None) -> PlanEntry:
    rec = PartitioningRecommendation(
        scheme=scheme_by_name(scheme),
        replication=(1, 1, 2),
        stationary="B",
        percent_of_peak=percent,
        simulated_time=1.0 / max(percent, 1e-9),
        memory_per_device=1 << 20,
    )
    return PlanEntry(recommendations=[rec], workload=Workload("w", 96, 80, 64),
                     num_simulated=5, num_pruned=7, fingerprint=fingerprint)


class TestLRU:
    def test_get_put_roundtrip(self):
        cache = PlanCache(capacity=4)
        entry = make_entry()
        cache.put("k1", entry)
        assert cache.get("k1") is entry
        assert cache.get("missing") is None

    def test_evicts_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.put("k1", make_entry())
        cache.put("k2", make_entry())
        cache.put("k3", make_entry())
        assert "k1" not in cache
        assert "k2" in cache and "k3" in cache
        assert cache.stats().evictions == 1

    def test_get_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.put("k1", make_entry())
        cache.put("k2", make_entry())
        cache.get("k1")  # k1 becomes most recent; k2 is now LRU
        cache.put("k3", make_entry())
        assert "k1" in cache
        assert "k2" not in cache

    def test_counters(self):
        cache = PlanCache(capacity=2)
        cache.put("k1", make_entry())
        cache.get("k1")
        cache.get("k1")
        cache.get("nope")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.puts) == (2, 1, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.size == 1 and stats.capacity == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_concurrent_puts_and_gets(self):
        cache = PlanCache(capacity=16)

        def worker(tag: int) -> None:
            for i in range(50):
                cache.put(f"k{tag}_{i % 8}", make_entry())
                cache.get(f"k{tag}_{i % 8}")

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 16

    def test_cache_metrics_track_traffic(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = PlanCache(capacity=2, metrics=registry)
        cache.put("k1", make_entry())
        cache.get("k1")
        cache.get("nope")
        cache.put("k2", make_entry())
        cache.put("k3", make_entry())  # evicts k1
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters['repro_plan_cache_lookups_total{result="hit"}'] == 1.0
        assert counters['repro_plan_cache_lookups_total{result="miss"}'] == 1.0
        assert counters["repro_plan_cache_puts_total"] == 3.0
        assert counters["repro_plan_cache_evictions_total"] == 1.0
        assert snap["gauges"]["repro_plan_cache_entries"] == 2.0
        assert snap["gauges"]["repro_plan_cache_bytes"] > 0.0


class TestPlainLRU:
    """Eviction is plain LRU: the victim is always the least recently used."""

    def test_put_on_a_resident_key_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.put("k1", make_entry())
        cache.put("k2", make_entry())
        cache.put("k1", make_entry("outer"))  # re-put: k2 is now LRU
        cache.put("k3", make_entry())
        assert cache.keys() == ["k1", "k3"]
        assert cache.get("k1").best.scheme.name == "outer"

    def test_contains_and_keys_do_not_touch_recency(self):
        cache = PlanCache(capacity=2)
        cache.put("k1", make_entry())
        cache.put("k2", make_entry())
        assert "k1" in cache
        assert cache.keys() == ["k1", "k2"]
        cache.put("k3", make_entry())
        assert cache.keys() == ["k2", "k3"]
        assert cache.stats().hits == 0

    def test_serving_lookup_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.put("k1", make_entry())
        cache.put("k2", make_entry())
        assert cache.get_for_serving("k1") is not None
        cache.put("k3", make_entry())
        assert cache.keys() == ["k1", "k3"]

    def test_a_miss_leaves_the_order_alone(self):
        cache = PlanCache(capacity=2)
        cache.put("k1", make_entry())
        cache.put("k2", make_entry())
        assert cache.get("absent") is None
        assert cache.keys() == ["k1", "k2"]

    def test_byte_pressure_evicts_oldest_until_under_budget(self):
        from repro.planner.cache import entry_size_bytes

        small = make_entry()
        size = entry_size_bytes(small)
        cache = PlanCache(capacity=100, max_bytes=4 * size)
        for i in range(4):
            cache.put(f"k{i}", make_entry())
        big = make_entry()
        big.recommendations = big.recommendations * 5
        assert 2 * size < entry_size_bytes(big) <= 3 * size
        cache.put("big", big)
        # Only the oldest go, and only as many as the budget needs.
        assert cache.keys() == ["k3", "big"]
        assert cache.stats().evictions == 3
        assert cache.stats().total_bytes <= 4 * size

    @pytest.mark.parametrize("capacity", [1, 2, 3, 5])
    def test_matches_a_reference_lru(self, capacity):
        import random
        from collections import OrderedDict

        rng = random.Random(capacity)
        cache = PlanCache(capacity=capacity)
        model: "OrderedDict[str, None]" = OrderedDict()
        evictions = 0
        for _ in range(300):
            key = f"k{rng.randrange(2 * capacity + 1)}"
            if rng.random() < 0.5:
                cache.put(key, make_entry())
                model[key] = None
                model.move_to_end(key)
                while len(model) > capacity:
                    model.popitem(last=False)
                    evictions += 1
            else:
                assert (cache.get(key) is not None) == (key in model)
                if key in model:
                    model.move_to_end(key)
            assert cache.keys() == list(model)
        assert cache.stats().evictions == evictions

    def test_entry_ages_do_not_touch_recency_or_counters(self):
        clock = FakeClock()
        cache = PlanCache(capacity=2, clock=clock)
        cache.put("k1", make_entry())
        clock.advance(5)
        cache.put("k2", make_entry())
        assert cache.entry_ages() == {"k1": 5.0, "k2": 0.0}
        cache.put("k3", make_entry())
        assert cache.keys() == ["k2", "k3"]
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_clear_keeps_counters(self):
        cache = PlanCache(capacity=1)
        cache.put("k1", make_entry())
        cache.put("k2", make_entry())
        cache.get("k2")
        cache.clear()
        stats = cache.stats()
        assert (stats.size, stats.total_bytes) == (0, 0)
        assert (stats.puts, stats.evictions, stats.hits) == (2, 1, 1)

    def test_expiry_is_not_counted_as_eviction(self):
        clock = FakeClock()
        cache = PlanCache(capacity=2, ttl_seconds=10.0, clock=clock)
        cache.put("k1", make_entry())
        clock.advance(11)
        assert cache.get("k1") is None
        cache.put("k2", make_entry())
        cache.put("k3", make_entry())
        stats = cache.stats()
        assert (stats.expirations, stats.evictions) == (1, 0)
        assert cache.keys() == ["k2", "k3"]


class TestSerialization:
    def test_recommendation_roundtrip(self):
        entry = make_entry()
        rec = entry.best
        restored = recommendation_from_dict(recommendation_to_dict(rec))
        assert restored.scheme.name == rec.scheme.name
        assert restored.replication == rec.replication
        assert restored.stationary == rec.stationary
        assert restored.percent_of_peak == rec.percent_of_peak
        assert restored.simulated_time == rec.simulated_time
        assert restored.memory_per_device == rec.memory_per_device

    def test_plan_entry_roundtrip_preserves_workload(self):
        entry = make_entry()
        restored = PlanEntry.from_dict(entry.to_dict())
        assert restored.workload == entry.workload
        assert restored.num_simulated == 5 and restored.num_pruned == 7


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        cache = PlanCache(capacity=8)
        cache.put("k1", make_entry("column", 60.0))
        cache.put("k2", make_entry("outer", 40.0))
        path = str(tmp_path / "store" / "plans.json")
        cache.save(path)

        fresh = PlanCache(capacity=8)
        assert fresh.load(path) == 2
        assert fresh.get("k1").best.scheme.name == "column"
        assert fresh.get("k2").best.scheme.name == "outer"
        assert fresh.get("k2").best.percent_of_peak == pytest.approx(40.0)

    def test_load_missing_file_is_cold_start(self, tmp_path):
        cache = PlanCache()
        assert cache.load(str(tmp_path / "nope.json")) == 0
        assert len(cache) == 0

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"version": 999, "entries": []}))
        assert PlanCache().load(str(path)) == 0

    def test_load_skips_unknown_scheme_entries(self, tmp_path):
        cache = PlanCache()
        cache.put("good", make_entry())
        path = str(tmp_path / "plans.json")
        cache.save(path)
        payload = json.loads(open(path).read())
        bad = json.loads(json.dumps(payload["entries"][0]))
        bad["key"] = "bad"
        bad["plan"]["recommendations"][0]["scheme"] = "from-the-future"
        payload["entries"].append(bad)
        open(path, "w").write(json.dumps(payload))

        fresh = PlanCache()
        assert fresh.load(path) == 1
        assert "good" in fresh and "bad" not in fresh

    @pytest.mark.parametrize("warm_start", [False, True],
                             ids=["cache", "service"])
    @pytest.mark.parametrize("bad_m", [None, "x", 96.7, True])
    def test_load_skips_entries_with_a_non_integer_dimension(self, tmp_path,
                                                             bad_m, warm_start):
        from repro.core.cost_model import CostModel
        from repro.planner.service import PlannerService
        from repro.topology.machines import uniform_system

        machine = uniform_system(2)
        cache = PlanCache()
        cache.put("good", make_entry(fingerprint=CostModel(machine).fingerprint()))
        path = str(tmp_path / "plans.json")
        cache.save(path)
        payload = json.loads(open(path).read())
        bad = json.loads(json.dumps(payload["entries"][0]))
        bad["key"] = "bad"
        bad["plan"]["workload"]["m"] = bad_m
        payload["entries"].append(bad)
        open(path, "w").write(json.dumps(payload))

        if warm_start:
            # A service booting on the store keeps exactly the good entry.
            with PlannerService(machine, store_path=path) as service:
                assert service.stats().warm_start_entries == 1
                fresh = service.cache
        else:
            fresh = PlanCache()
            assert fresh.load(path) == 1
        assert fresh.keys() == ["good"]

    def test_concurrent_saves_leave_a_valid_store(self, tmp_path):
        """Parallel save() calls (autosaving services) must never corrupt the store."""
        cache = PlanCache(capacity=8)
        cache.put("k", make_entry())
        path = str(tmp_path / "plans.json")
        errors = []

        def saver() -> None:
            try:
                for _ in range(20):
                    cache.save(path)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=saver) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert PlanCache().load(path) == 1

    def test_save_respects_lru_order(self, tmp_path):
        cache = PlanCache(capacity=8)
        cache.put("old", make_entry())
        cache.put("new", make_entry())
        cache.get("old")  # refresh: "new" is now least recent
        path = str(tmp_path / "plans.json")
        cache.save(path)
        keys = [item["key"] for item in json.loads(open(path).read())["entries"]]
        assert keys == ["new", "old"]


class TestFingerprintInvalidation:
    def test_stamped_entries_survive_matching_load(self, tmp_path):
        cache = PlanCache()
        cache.put("k", make_entry(fingerprint="model-v1"))
        path = str(tmp_path / "plans.json")
        cache.save(path)
        warm = PlanCache()
        assert warm.load(path, fingerprint="model-v1") == 1
        assert warm.get("k").fingerprint == "model-v1"

    def test_mismatched_fingerprint_invalidates_on_load(self, tmp_path):
        cache = PlanCache()
        cache.put("stale", make_entry(fingerprint="model-v1"))
        cache.put("unstamped", make_entry())
        path = str(tmp_path / "plans.json")
        cache.save(path)
        warm = PlanCache()
        assert warm.load(path, fingerprint="model-v2") == 0
        assert len(warm) == 0

    def test_load_without_expectation_accepts_everything(self, tmp_path):
        cache = PlanCache()
        cache.put("a", make_entry(fingerprint="model-v1"))
        cache.put("b", make_entry())
        path = str(tmp_path / "plans.json")
        cache.save(path)
        warm = PlanCache()
        assert warm.load(path) == 2

    def test_fingerprint_roundtrips_through_json(self):
        entry = make_entry(fingerprint="abcdef123456")
        assert PlanEntry.from_dict(entry.to_dict()).fingerprint == "abcdef123456"
        assert PlanEntry.from_dict(make_entry().to_dict()).fingerprint is None


class TestServiceFingerprint:
    def test_service_stamps_and_filters_by_cost_model(self, tmp_path):
        from repro.core.cost_model import CostModel
        from repro.planner.service import PlannerService
        from repro.topology.machines import uniform_system

        machine = uniform_system(4)
        path = str(tmp_path / "plans.json")
        workload = Workload("svc", 96, 80, 64)
        with PlannerService(machine, replication_factors=[1]) as service:
            response = service.plan(workload)
            assert not response.cache_hit
            key = service.signature_for(workload).key()
            assert service.cache.get(key).fingerprint == CostModel(machine).fingerprint()
            service.save_store(path)

        # Same cost model build: warm start serves from the store.
        with PlannerService(machine, replication_factors=[1],
                            store_path=path) as warm:
            assert warm.stats().warm_start_entries == 1
            assert warm.plan(workload).cache_hit

        # Different pricing build: every stored plan is stale.
        stale = PlannerService(machine, replication_factors=[1])
        stale.cost_model_fingerprint = "different-build"
        assert stale.cache.load(path, fingerprint="different-build") == 0


class FakeClock:
    """Deterministic injectable clock for TTL tests."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBoundedStore:
    def test_max_bytes_evicts_lru(self):
        from repro.planner.cache import entry_size_bytes

        entry = make_entry()
        size = entry_size_bytes(entry)
        cache = PlanCache(capacity=100, max_bytes=3 * size)
        for i in range(4):
            cache.put(f"k{i}", make_entry())
        assert "k0" not in cache  # LRU went first; byte budget holds 3
        assert [f"k{i}" in cache for i in range(1, 4)] == [True, True, True]
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.total_bytes <= stats.max_bytes == 3 * size

    def test_single_oversized_entry_is_admitted_alone(self):
        cache = PlanCache(capacity=100, max_bytes=1)
        cache.put("big", make_entry())
        assert "big" in cache and len(cache) == 1

    def test_total_bytes_tracks_replacement(self):
        cache = PlanCache(capacity=4)
        cache.put("k", make_entry("column"))
        first = cache.stats().total_bytes
        cache.put("k", make_entry("outer"))
        assert len(cache) == 1
        assert cache.stats().total_bytes == pytest.approx(first, rel=0.2)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_bytes=0)
        with pytest.raises(ValueError):
            PlanCache(ttl_seconds=0)

    def test_ttl_expires_on_get(self):
        clock = FakeClock()
        cache = PlanCache(capacity=4, ttl_seconds=60.0, clock=clock)
        cache.put("k", make_entry())
        clock.advance(30)
        assert cache.get("k") is not None
        clock.advance(31)  # 61s old now
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.misses == 1 and stats.size == 0

    def test_contains_treats_expired_as_absent(self):
        clock = FakeClock()
        cache = PlanCache(ttl_seconds=10.0, clock=clock)
        cache.put("k", make_entry())
        assert "k" in cache
        clock.advance(11)
        assert "k" not in cache

    def test_prune_expired_drops_eagerly(self):
        clock = FakeClock()
        cache = PlanCache(ttl_seconds=10.0, clock=clock)
        cache.put("old", make_entry())
        clock.advance(6)
        cache.put("young", make_entry())
        clock.advance(5)  # old is 11s, young is 5s
        assert cache.prune_expired() == 1
        assert "old" not in cache and "young" in cache
        assert cache.stats().expirations == 1


class TestStoreV3:
    def test_lru_order_survives_save_load(self, tmp_path):
        cache = PlanCache(capacity=8)
        for key in ("a", "b", "c"):
            cache.put(key, make_entry())
        cache.get("a")  # recency now: b, c, a
        path = str(tmp_path / "plans.json")
        cache.save(path)

        fresh = PlanCache(capacity=8)
        assert fresh.load(path) == 3
        assert fresh.keys() == ["b", "c", "a"]
        fresh.put("d", make_entry())
        fresh.capacity = 3
        fresh.put("e", make_entry())  # evicts down to 3: LRU b, then c go
        assert "b" not in fresh
        assert fresh.keys() == ["a", "d", "e"]

    def test_created_at_survives_roundtrip_and_expires(self, tmp_path):
        clock = FakeClock(now=5000.0)
        cache = PlanCache(ttl_seconds=100.0, clock=clock)
        cache.put("old", make_entry())
        clock.advance(80)
        cache.put("young", make_entry())
        path = str(tmp_path / "plans.json")
        cache.save(path)

        clock.advance(30)  # old is 110s (expired), young is 30s
        warm = PlanCache(ttl_seconds=100.0, clock=clock)
        assert warm.load(path) == 1
        assert "young" in warm and "old" not in warm
        assert warm.stats().expirations == 1

    def test_store_is_version_3_with_timestamps(self, tmp_path):
        from repro.planner.cache import STORE_VERSION

        cache = PlanCache()
        cache.put("k", make_entry())
        path = str(tmp_path / "plans.json")
        cache.save(path)
        payload = json.loads(open(path).read())
        assert payload["version"] == STORE_VERSION == 3
        assert all(isinstance(item["created_at"], float) for item in payload["entries"])

    def test_v2_store_migrates_with_load_time_stamp(self, tmp_path):
        clock = FakeClock(now=7777.0)
        cache = PlanCache()
        cache.put("k", make_entry())
        path = str(tmp_path / "plans.json")
        cache.save(path)
        payload = json.loads(open(path).read())
        payload["version"] = 2
        for item in payload["entries"]:
            del item["created_at"]
            assert "plan" in item  # v2 layout otherwise identical
        open(path, "w").write(json.dumps(payload))

        warm = PlanCache(ttl_seconds=100.0, clock=clock)
        assert warm.load(path) == 1  # migrated, stamped at load time
        clock.advance(50)
        assert "k" in warm
        clock.advance(51)
        assert "k" not in warm

    def test_entries_with_unknown_fields_still_load(self, tmp_path):
        # Stores written before cross-fingerprint seeding was removed stamp
        # a "machine_profile" on every entry; dropping it must not drop them.
        from repro.planner.cache import STORE_VERSION

        cache = PlanCache()
        cache.put("k1", make_entry("column", 60.0))
        cache.put("k2", make_entry("outer", 40.0))
        path = str(tmp_path / "plans.json")
        cache.save(path)
        payload = json.loads(open(path).read())
        assert payload["version"] == STORE_VERSION == 3
        for item in payload["entries"]:
            item["plan"]["machine_profile"] = "0123456789ab"
        open(path, "w").write(json.dumps(payload))

        warm = PlanCache()
        assert warm.load(path) == 2
        assert warm.keys() == ["k1", "k2"]
        assert warm.get("k1").to_dict() == make_entry("column", 60.0).to_dict()
        assert warm.get("k2").to_dict() == make_entry("outer", 40.0).to_dict()

    def test_v1_store_still_rejected(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"version": 1, "entries": []}))
        assert PlanCache().load(str(path)) == 0

    def test_load_respects_byte_budget(self, tmp_path):
        from repro.planner.cache import entry_size_bytes

        size = entry_size_bytes(make_entry())
        cache = PlanCache(capacity=100)
        for i in range(5):
            cache.put(f"k{i}", make_entry())
        path = str(tmp_path / "plans.json")
        cache.save(path)

        small = PlanCache(capacity=100, max_bytes=2 * size)
        assert small.load(path) == 5  # all parsed; bounds applied as they merge
        assert len(small) == 2
        assert small.keys() == ["k3", "k4"]  # the two most recent survive


class TestServiceBounds:
    def test_service_passes_bounds_through(self):
        from repro.planner.service import PlannerService
        from repro.topology.machines import uniform_system

        service = PlannerService(uniform_system(4), cache_capacity=7,
                                 cache_max_bytes=1 << 20, cache_ttl_seconds=3600.0)
        stats = service.cache_stats()
        assert stats.capacity == 7
        assert stats.max_bytes == 1 << 20
        assert stats.ttl_seconds == 3600.0


class TestGraceWindow:
    class Clock:
        def __init__(self):
            self.now = 1000.0

        def __call__(self):
            return self.now

    def test_fresh_entry_serves_normally(self):
        clock = self.Clock()
        cache = PlanCache(ttl_seconds=10.0, grace_seconds=30.0, clock=clock)
        cache.put("k", make_entry())
        clock.now += 5.0
        entry, age, stale = cache.get_for_serving("k")
        assert entry is not None and not stale
        assert age == pytest.approx(5.0)
        stats = cache.stats()
        assert stats.hits == 1 and stats.stale_serves == 0

    def test_expired_in_grace_serves_stale(self):
        clock = self.Clock()
        cache = PlanCache(ttl_seconds=10.0, grace_seconds=30.0, clock=clock)
        cache.put("k", make_entry())
        clock.now += 25.0  # 15s past TTL, inside the 30s grace
        entry, age, stale = cache.get_for_serving("k")
        assert entry is not None and stale
        assert age == pytest.approx(25.0)
        stats = cache.stats()
        assert stats.hits == 1 and stats.stale_serves == 1
        # The expired entry still reads as absent through __contains__ so
        # freshness checks (and put-if-missing logic) treat it as gone.
        assert "k" not in cache

    def test_past_grace_is_dropped(self):
        clock = self.Clock()
        cache = PlanCache(ttl_seconds=10.0, grace_seconds=30.0, clock=clock)
        cache.put("k", make_entry())
        clock.now += 45.0  # past TTL + grace
        assert cache.get_for_serving("k") is None
        stats = cache.stats()
        assert stats.misses == 1 and stats.expirations == 1

    def test_no_grace_expiry_is_a_miss(self):
        clock = self.Clock()
        cache = PlanCache(ttl_seconds=10.0, clock=clock)
        cache.put("k", make_entry())
        clock.now += 11.0
        assert cache.get_for_serving("k") is None

    def test_missing_key_is_none(self):
        assert PlanCache().get_for_serving("nope") is None

    def test_grace_requires_positive_value(self):
        with pytest.raises(ValueError):
            PlanCache(grace_seconds=0.0)
        with pytest.raises(ValueError):
            PlanCache(grace_seconds=-1.0)

    def test_stats_reports_grace(self):
        assert PlanCache(grace_seconds=5.0).stats().grace_seconds == 5.0
        assert PlanCache().stats().grace_seconds is None
