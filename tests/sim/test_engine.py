"""Unit tests for the unified discrete-event engine."""

import pytest

from repro.runtime.clock import ACCUMULATE, COMPUTE, COPY, EGRESS, INGRESS
from repro.sim import EventEngine, EventKind, InMemoryTraceRecorder


class TestBasicScheduling:
    def test_gemm_serialises_on_compute(self):
        engine = EventEngine(2)
        first = engine.gemm(0, 1.0)
        second = engine.gemm(0, 2.0)
        assert (first.start, first.end) == (0.0, 1.0)
        assert (second.start, second.end) == (1.0, 3.0)
        assert second.engine_dep == first.uid

    def test_dependencies_gate_start(self):
        engine = EventEngine(2)
        fetch = engine.fetch(0, 2.0, src=1, occupancy=2.0)
        gemm = engine.gemm(0, 1.0, deps=(fetch,))
        assert gemm.start == fetch.end
        assert gemm.binding == fetch.uid
        assert fetch.uid in gemm.deps

    def test_engines_overlap(self):
        engine = EventEngine(2)
        fetch = engine.fetch(0, 5.0, src=1, occupancy=5.0)
        gemm = engine.gemm(0, 1.0)
        assert gemm.start == 0.0  # different engine, no dependency
        assert engine.makespan() == fetch.end

    def test_sync_joins_without_reserving(self):
        engine = EventEngine(1)
        a = engine.gemm(0, 1.0)
        b = engine.local_accumulate(0, 3.0)
        join = engine.sync(0, deps=(a, b))
        assert join.start == join.end == b.end
        assert join.duration == 0.0
        assert engine.busy_time(0, COMPUTE) == 4.0

    def test_none_deps_are_ignored(self):
        engine = EventEngine(1)
        event = engine.gemm(0, 1.0, deps=(None, None))
        assert event.start == 0.0


class TestContention:
    def test_egress_fan_out_serialises(self):
        # Two readers fetch from the same owner: the owner's shared egress
        # capacity admits one transfer at a time.
        engine = EventEngine(3)
        first = engine.fetch(1, 1.0, src=0, occupancy=1.0)
        second = engine.fetch(2, 1.0, src=0, occupancy=1.0)
        assert first.start == 0.0
        assert second.start == first.start + 1.0

    def test_ingress_fan_in_serialises(self):
        engine = EventEngine(3)
        first = engine.accumulate(1, 1.0, dst=0, occupancy=1.0)
        second = engine.accumulate(2, 1.0, dst=0, occupancy=1.0)
        assert second.start == first.start + 1.0

    def test_relaxed_engine_drops_cross_device_floors(self):
        relaxed = EventEngine(3, contention=False)
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

        full = EventEngine(3)
        relaxed = EventEngine(3, contention=False)
        contended_events = emit(full)
        relaxed_events = emit(relaxed)
        for contended, free in zip(contended_events, relaxed_events):
            assert free.start <= contended.start
            assert free.end <= contended.end
        assert relaxed.makespan() <= full.makespan()

    def test_accumulate_interference_steals_compute(self):
        engine = EventEngine(2)
        engine.accumulate(0, 1.0, dst=1, occupancy=1.0, interference=0.25)
        assert engine.busy_time(0, ACCUMULATE) == 1.0
        assert engine.busy_time(0, COMPUTE) == 0.25
        assert engine.busy_time(1, INGRESS) == 1.0


class TestCriticalPath:
    def test_cross_engine_chain_is_recovered(self):
        engine = EventEngine(2)
        fetch = engine.fetch(0, 2.0, src=1, occupancy=2.0)
        gemm = engine.gemm(0, 1.0, deps=(fetch,))
        acc = engine.accumulate(0, 0.5, dst=1, occupancy=0.5, deps=(gemm,))
        chain = engine.critical_path()
        assert [event.uid for event in chain] == [fetch.uid, gemm.uid, acc.uid]
        assert [event.kind for event in chain] == [
            EventKind.FETCH, EventKind.GEMM, EventKind.ACCUMULATE
        ]

    def test_critical_path_length_bounds_makespan(self):
        engine = EventEngine(2)
        fetch = engine.fetch(0, 2.0, src=1, occupancy=2.0)
        engine.gemm(0, 1.0, deps=(fetch,))
        engine.gemm(1, 0.5)
        assert engine.critical_path_length() == pytest.approx(3.0)
        assert engine.critical_path_length() <= engine.makespan()

    def test_empty_engine(self):
        engine = EventEngine(1)
        assert engine.critical_path() == []
        assert engine.critical_path_length() == 0.0
        assert engine.makespan() == 0.0


class TestRecorderAndReset:
    def test_recorder_sees_every_event(self):
        recorder = InMemoryTraceRecorder()
        engine = EventEngine(2, recorder=recorder)
        fetch = engine.fetch(0, 1.0, src=1, occupancy=1.0)
        engine.gemm(0, 1.0, deps=(fetch,))
        engine.sync(0)
        assert len(recorder) == 3
        assert len(recorder.by_kind(EventKind.GEMM)) == 1
        assert len(recorder.by_device(0)) == 3
