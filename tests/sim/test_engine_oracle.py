"""Unit tests for the scheduling oracle ``tests/engine_oracle.py``.

The oracle is the independent reference the walks' timing is checked
against, so its own rules are pinned here: FIFO queues, dependency floors,
egress/ingress fan-out and fan-in, the relaxed engine, the interference
slice, and the earliest-fitting-gap placement, which must place exactly as
a timeline that re-sorts its entries on every query.
"""

import random

import pytest

from repro.sim.events import ACCUMULATE, COMPUTE, COPY
from tests.engine_oracle import (
    EGRESS,
    ENGINES,
    INGRESS,
    DeviceTimeline,
    OracleEngine,
    SimClock,
)


class TestDeviceTimeline:
    def test_serialises_same_engine(self):
        timeline = DeviceTimeline(0)
        first = timeline.reserve(COMPUTE, 1.0)
        second = timeline.reserve(COMPUTE, 2.0)
        assert first == (0.0, 1.0)
        assert second == (1.0, 3.0)

    def test_engines_are_independent(self):
        timeline = DeviceTimeline(0)
        timeline.reserve(COMPUTE, 5.0)
        copy = timeline.reserve(COPY, 1.0)
        assert copy == (0.0, 1.0)

    def test_earliest_start_respected(self):
        timeline = DeviceTimeline(0)
        start, end = timeline.reserve(COMPUTE, 1.0, earliest_start=10.0)
        assert (start, end) == (10.0, 11.0)

    def test_busy_time(self):
        timeline = DeviceTimeline(0)
        timeline.reserve(ACCUMULATE, 2.0)
        timeline.reserve(ACCUMULATE, 3.0, earliest_start=100.0)
        assert timeline.busy_time(ACCUMULATE) == pytest.approx(5.0)

    def test_finish_time_is_max_over_engines(self):
        timeline = DeviceTimeline(0)
        timeline.reserve(COMPUTE, 2.0)
        timeline.reserve(COPY, 7.0)
        assert timeline.finish_time() == pytest.approx(7.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            DeviceTimeline(0).reserve(COMPUTE, -1.0)


class TestSimClock:
    def test_makespan_is_slowest_device(self):
        clock = SimClock(3)
        clock.device(0).reserve(COMPUTE, 1.0)
        clock.device(2).reserve(COMPUTE, 4.0)
        assert clock.makespan() == pytest.approx(4.0)

    def test_invalid_device_count(self):
        with pytest.raises(ValueError):
            SimClock(0)


class _SortPerCallTimeline:
    """A plain reference: append unsorted, sort in find_slot."""

    def __init__(self) -> None:
        self._available = {name: 0.0 for name in ENGINES}
        self._entries = {name: [] for name in ENGINES}

    def reserve(self, engine, duration, earliest_start=0.0):
        start = max(earliest_start, self._available[engine])
        end = start + duration
        self._available[engine] = end
        self._entries[engine].append((start, end))
        return start, end

    def find_slot(self, engine, duration, earliest_start=0.0):
        cursor = earliest_start
        for start, end in sorted(self._entries[engine]):
            if start - cursor >= duration:
                break
            cursor = max(cursor, end)
        return cursor

    def reserve_slot(self, engine, duration, earliest_start=0.0):
        start = self.find_slot(engine, duration, earliest_start)
        end = start + duration
        self._entries[engine].append((start, end))
        self._available[engine] = max(self._available[engine], end)
        return start, end


@pytest.mark.parametrize("seed", range(20))
def test_mixed_sequences_place_identically(seed):
    rng = random.Random(seed)
    new = DeviceTimeline(0)
    old = _SortPerCallTimeline()
    for step in range(300):
        engine = rng.choice(ENGINES)
        duration = rng.choice([0.0, rng.uniform(0.0, 3.0)])
        earliest = rng.uniform(0.0, 50.0)
        op = rng.choice(["reserve", "reserve_slot", "find_slot"])
        if op == "reserve":
            got = new.reserve(engine, duration, earliest)
            want = old.reserve(engine, duration, earliest)
        elif op == "reserve_slot":
            got = new.reserve_slot(engine, duration, earliest)
            want = old.reserve_slot(engine, duration, earliest)
        else:
            got = new.find_slot(engine, duration, earliest)
            want = old.find_slot(engine, duration, earliest)
        assert got == want, (seed, step, op, engine, duration, earliest)
    for engine in ENGINES:
        assert new.available_at(engine) == old._available[engine]
        placements = [(e.start, e.end) for e in new.entries(engine)]
        assert placements == sorted(placements, key=lambda p: p[0])
        assert sorted(placements) == sorted(old._entries[engine])


def test_fifo_after_slot_insert_keeps_sorted_order():
    """A FIFO reserve landing earlier than a late out-of-order slot entry
    is inserted in start order, not appended."""
    timeline = DeviceTimeline(0)
    timeline.reserve_slot(INGRESS, 1.0, earliest_start=100.0)
    start, end = timeline.reserve(INGRESS, 1.0, earliest_start=0.0)
    assert (start, end) == (101.0, 102.0)  # FIFO: after available_at
    timeline2 = DeviceTimeline(0)
    timeline2.reserve(EGRESS, 1.0, earliest_start=10.0)
    timeline2.reserve_slot(EGRESS, 2.0, earliest_start=0.0)
    starts = [e.start for e in timeline2.entries(EGRESS)]
    assert starts == sorted(starts)
    # The slot entry fills [0, 2); the next 1.0 gap opens right after it,
    # before the FIFO entry at [10, 11).
    assert timeline2.find_slot(EGRESS, 1.0, 0.0) == 2.0


class TestBasicScheduling:
    def test_gemm_serialises_on_compute(self):
        engine = OracleEngine(2)
        first = engine.gemm(0, 1.0)
        second = engine.gemm(0, 2.0)
        assert (first.start, first.end) == (0.0, 1.0)
        assert (second.start, second.end) == (1.0, 3.0)
        assert second.engine_dep == first.uid

    def test_dependencies_gate_start(self):
        engine = OracleEngine(2)
        fetch = engine.fetch(0, 2.0, src=1, occupancy=2.0)
        gemm = engine.gemm(0, 1.0, deps=(fetch,))
        assert gemm.start == fetch.end
        assert gemm.binding == fetch.uid
        assert fetch.uid in gemm.deps

    def test_engines_overlap(self):
        engine = OracleEngine(2)
        fetch = engine.fetch(0, 5.0, src=1, occupancy=5.0)
        gemm = engine.gemm(0, 1.0)
        assert gemm.start == 0.0  # different engine, no dependency
        assert engine.makespan() == fetch.end

    def test_sync_joins_without_reserving(self):
        engine = OracleEngine(1)
        a = engine.gemm(0, 1.0)
        b = engine.local_accumulate(0, 3.0)
        join = engine.sync(0, deps=(a, b))
        assert join.start == join.end == b.end
        assert join.duration == 0.0
        assert engine.busy_time(0, COMPUTE) == 4.0

    def test_none_deps_are_ignored(self):
        engine = OracleEngine(1)
        event = engine.gemm(0, 1.0, deps=(None, None))
        assert event.start == 0.0


class TestContention:
    def test_egress_fan_out_serialises(self):
        # Two readers fetch from the same owner: the owner's shared egress
        # capacity admits one transfer at a time.
        engine = OracleEngine(3)
        first = engine.fetch(1, 1.0, src=0, occupancy=1.0)
        second = engine.fetch(2, 1.0, src=0, occupancy=1.0)
        assert first.start == 0.0
        assert second.start == first.start + 1.0

    def test_ingress_fan_in_serialises(self):
        engine = OracleEngine(3)
        first = engine.accumulate(1, 1.0, dst=0, occupancy=1.0)
        second = engine.accumulate(2, 1.0, dst=0, occupancy=1.0)
        assert second.start == first.start + 1.0

    def test_relaxed_engine_drops_cross_device_floors(self):
        relaxed = OracleEngine(3, contention=False)
        first = relaxed.fetch(1, 1.0, src=0, occupancy=1.0)
        second = relaxed.fetch(2, 1.0, src=0, occupancy=1.0)
        assert first.start == 0.0 and second.start == 0.0
        assert relaxed.busy_time(0, EGRESS) == 0.0

    def test_relaxed_never_later_than_contended(self):
        def emit(engine):
            events = []
            for reader in (1, 2):
                fetch = engine.fetch(reader, 1.0, src=0, occupancy=1.0)
                gemm = engine.gemm(reader, 0.5, deps=(fetch,))
                events.append(engine.accumulate(reader, 0.25, dst=0,
                                                occupancy=0.25, deps=(gemm,)))
            return events

        full = OracleEngine(3)
        relaxed = OracleEngine(3, contention=False)
        contended_events = emit(full)
        relaxed_events = emit(relaxed)
        for contended, free in zip(contended_events, relaxed_events):
            assert free.start <= contended.start
            assert free.end <= contended.end
        assert relaxed.makespan() <= full.makespan()

    def test_accumulate_interference_steals_compute(self):
        engine = OracleEngine(2)
        engine.accumulate(0, 1.0, dst=1, occupancy=1.0, interference=0.25)
        assert engine.busy_time(0, ACCUMULATE) == 1.0
        assert engine.busy_time(0, COMPUTE) == 0.25
        assert engine.busy_time(1, INGRESS) == 1.0
