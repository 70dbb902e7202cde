"""Unit tests for traffic accounting."""

import pytest

from repro.runtime.traffic import ACCUMULATE as ACC_KIND
from repro.runtime.traffic import GET, PUT, TrafficCounter, TransferRecord


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
