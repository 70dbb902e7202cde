"""Unit tests for simulated-time bookkeeping and traffic accounting."""

import pytest

from repro.runtime.clock import ACCUMULATE, COMPUTE, COPY, EGRESS, DeviceTimeline, SimClock
from repro.runtime.traffic import ACCUMULATE as ACC_KIND
from repro.runtime.traffic import GET, PUT, TrafficCounter, TransferRecord


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

    def test_reset(self):
        timeline = DeviceTimeline(0)
        timeline.reserve(COMPUTE, 1.0)
        timeline.reset()
        assert timeline.finish_time() == 0.0
        assert timeline.entries(COMPUTE) == []


class TestSimClock:
    def test_makespan_is_slowest_device(self):
        clock = SimClock(3)
        clock.device(0).reserve(COMPUTE, 1.0)
        clock.device(2).reserve(COMPUTE, 4.0)
        assert clock.makespan() == pytest.approx(4.0)

    def test_invalid_device_count(self):
        with pytest.raises(ValueError):
            SimClock(0)

    def test_reset(self):
        clock = SimClock(2)
        clock.device(0).reserve(COMPUTE, 1.0)
        clock.device(1).reserve_slot(EGRESS, 2.0)
        clock.reset()
        assert clock.makespan() == 0.0
        assert clock.device(1).reserve_slot(EGRESS, 1.0) == (0.0, 1.0)


class TestTrafficCounter:
    def test_records_bytes_by_kind(self):
        counter = TrafficCounter()
        counter.record(TransferRecord(GET, 0, 1, 100))
        counter.record(TransferRecord(PUT, 1, 0, 50))
        counter.record(TransferRecord(ACC_KIND, 2, 0, 25))
        assert counter.total_bytes(GET) == 100
        assert counter.total_bytes(PUT) == 50
        assert counter.total_bytes(ACC_KIND) == 25
        assert counter.total_bytes() == 175

    def test_remote_only_excludes_local(self):
        counter = TrafficCounter()
        counter.record(TransferRecord(GET, 0, 0, 100))
        counter.record(TransferRecord(GET, 0, 1, 40))
        assert counter.total_bytes(GET, remote_only=True) == 40
        assert counter.remote_bytes() == 40

    def test_operation_count(self):
        counter = TrafficCounter()
        for _ in range(3):
            counter.record(TransferRecord(GET, 0, 1, 10))
        assert counter.operation_count(GET) == 3
        assert counter.operation_count() == 3

    def test_bytes_by_initiator(self):
        counter = TrafficCounter()
        counter.record(TransferRecord(GET, 0, 1, 10))
        counter.record(TransferRecord(GET, 2, 1, 30))
        counter.record(TransferRecord(PUT, 0, 1, 5))
        assert counter.bytes_by_initiator() == {0: 15, 2: 30}

    def test_unknown_kind_rejected(self):
        counter = TrafficCounter()
        with pytest.raises(ValueError):
            counter.record(TransferRecord("teleport", 0, 1, 10))

    def test_reset(self):
        counter = TrafficCounter()
        counter.record(TransferRecord(GET, 0, 1, 10))
        counter.reset()
        assert counter.total_bytes() == 0
        assert counter.records == []

    def test_summary_keys(self):
        counter = TrafficCounter()
        counter.record(TransferRecord(GET, 0, 1, 10))
        summary = counter.summary()
        assert summary["get_bytes"] == 10
        assert summary["total_bytes"] == 10
        assert summary["total_remote_bytes"] == 10

    def test_no_record_retention_mode(self):
        counter = TrafficCounter(keep_records=False)
        counter.record(TransferRecord(GET, 0, 1, 10))
        assert counter.records == []
        assert counter.total_bytes() == 10
