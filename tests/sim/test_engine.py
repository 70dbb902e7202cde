"""Unit tests for the event recorder: it keeps what it is told, and derives edges."""

import pytest

from repro.sim import EventEngine, EventKind, InMemoryTraceRecorder
from repro.sim.events import ACCUMULATE, COMPUTE, COPY


def _chain(engine):
    """A fetch gating a GEMM gating a remote accumulate, timed by hand."""
    fetch = engine.record(EventKind.FETCH, 0, COPY, 0.0, 2.0, peer=1, occupancy=2.0)
    gemm = engine.record(EventKind.GEMM, 0, COMPUTE, 2.0, 1.0, deps=(fetch,))
    acc = engine.record(EventKind.ACCUMULATE, 0, ACCUMULATE, 3.0, 0.5, peer=1,
                        deps=(gemm,), occupancy=0.5)
    return fetch, gemm, acc


class TestRecord:
    def test_keeps_the_given_start_and_duration(self):
        engine = EventEngine(2)
        event = engine.record(EventKind.GEMM, 1, COMPUTE, 0.1, 0.2, label="gemm")
        assert (event.start, event.duration, event.end) == (0.1, 0.2, 0.1 + 0.2)
        # The duration is the one passed in, not ``end - start``.
        assert event.end - event.start != event.duration
        assert (event.uid, event.kind, event.device, event.engine, event.label) == (
            0, EventKind.GEMM, 1, COMPUTE, "gemm")

    def test_engine_dep_is_the_previous_event_on_the_same_queue(self):
        engine = EventEngine(2)
        first = engine.record(EventKind.GEMM, 0, COMPUTE, 0.0, 1.0)
        other_queue = engine.record(EventKind.FETCH, 0, COPY, 0.0, 1.0)
        other_device = engine.record(EventKind.GEMM, 1, COMPUTE, 0.0, 1.0)
        second = engine.record(EventKind.ACCUMULATE, 0, COMPUTE, 5.0, 1.0)
        assert first.engine_dep is None
        assert other_queue.engine_dep is None and other_device.engine_dep is None
        assert second.engine_dep == first.uid
        assert second.parents == (first.uid,)

    def test_binding_prefers_a_dependency_then_the_queue(self):
        engine = EventEngine(2)
        fetch = engine.record(EventKind.FETCH, 0, COPY, 0.0, 2.0)
        gemm = engine.record(EventKind.GEMM, 0, COMPUTE, 0.0, 2.0)
        # Both the dependency and the queue predecessor end at 2.0.
        dep_bound = engine.record(EventKind.GEMM, 0, COMPUTE, 2.0, 1.0, deps=(None, fetch))
        assert dep_bound.binding == fetch.uid and dep_bound.deps == (fetch.uid,)
        queue_bound = engine.record(EventKind.GEMM, 0, COMPUTE, 3.0, 1.0, deps=(fetch,))
        assert queue_bound.binding == dep_bound.uid
        floating = engine.record(EventKind.GEMM, 0, COMPUTE, 9.0, 1.0, deps=(gemm,))
        assert floating.binding is None

    def test_sync_has_no_queue(self):
        engine = EventEngine(1)
        a = engine.record(EventKind.GEMM, 0, COMPUTE, 0.0, 1.0)
        b = engine.record(EventKind.ACCUMULATE, 0, COMPUTE, 1.0, 3.0)
        join = engine.record(EventKind.SYNC, 0, None, 4.0, 0.0, deps=(a, b))
        assert join.start == join.end == b.end
        assert join.engine_dep is None and join.binding == b.uid
        after = engine.record(EventKind.GEMM, 0, COMPUTE, 4.0, 1.0)
        assert after.engine_dep == b.uid


class TestMakespan:
    def test_includes_the_reservations_of_a_contended_engine(self):
        engine = EventEngine(2)
        engine.record(EventKind.FETCH, 0, COPY, 1.0, 1.0, peer=1, occupancy=3.0)
        assert engine.makespan() == 4.0

    def test_relaxed_engine_keeps_no_reservations(self):
        engine = EventEngine(2, contention=False)
        engine.record(EventKind.FETCH, 0, COPY, 1.0, 1.0, peer=1, occupancy=3.0)
        assert engine.makespan() == 2.0

    def test_latest_end_over_devices(self):
        engine = EventEngine(3)
        engine.record(EventKind.GEMM, 0, COMPUTE, 0.0, 1.0)
        engine.record(EventKind.GEMM, 2, COMPUTE, 0.5, 4.0)
        assert engine.makespan() == 4.5

    def test_empty_engine(self):
        engine = EventEngine(1)
        assert engine.critical_path() == []
        assert engine.makespan() == 0.0

    def test_invalid_device_count(self):
        with pytest.raises(ValueError):
            EventEngine(0)


class TestCriticalPath:
    def test_cross_engine_chain_is_recovered(self):
        engine = EventEngine(2)
        fetch, gemm, acc = _chain(engine)
        engine.record(EventKind.GEMM, 1, COMPUTE, 0.0, 0.5)
        chain = engine.critical_path()
        assert [event.uid for event in chain] == [fetch.uid, gemm.uid, acc.uid]
        assert [event.kind for event in chain] == [
            EventKind.FETCH, EventKind.GEMM, EventKind.ACCUMULATE
        ]


class TestRecorder:
    def test_recorder_sees_every_event(self):
        recorder = InMemoryTraceRecorder()
        engine = EventEngine(2, recorder=recorder)
        fetch, _, _ = _chain(engine)
        engine.record(EventKind.SYNC, 0, None, fetch.end, 0.0, deps=(fetch,))
        assert recorder.events == engine.events and len(recorder) == 4
        assert len(recorder.by_kind(EventKind.GEMM)) == 1
        assert len(recorder.by_device(0)) == 4
