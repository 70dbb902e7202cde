"""Unit tests for the request log (rotation, crash recovery) and its rollup."""

import json
import os
import threading

import pytest

from repro.obs.reqlog import (
    RequestLog,
    RequestRecord,
    discover_logs,
    generations,
    iter_records,
)
from repro.obs.rollup import Rollup, percentile, rollup_requests


def make_record(signature="sig-a", outcome="hit", ts=100.0, plan_age=1.0,
                latency=0.01, worker=0, trace_id=None):
    return RequestRecord(ts=ts, signature=signature, workload="w",
                         outcome=outcome, plan_age=plan_age, latency=latency,
                         worker=worker, pid=os.getpid(), trace_id=trace_id)


class TestRequestLog:
    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "requests.jsonl")
        with RequestLog(path) as log:
            log.append(make_record(outcome="computed",
                                   plan_age=0.0, trace_id="abc"))
            log.append(make_record(outcome="hit", plan_age=3.5))
            assert log.records_written == 2
        records = list(iter_records(path))
        assert [r.outcome for r in records] == ["computed", "hit"]
        assert records[0].trace_id == "abc"
        assert records[1].plan_age == pytest.approx(3.5)

    def test_rotation_keeps_bounded_generations(self, tmp_path):
        path = str(tmp_path / "requests.jsonl")
        line_size = len(json.dumps(make_record().to_dict(),
                                   separators=(",", ":"))) + 1
        with RequestLog(path, max_bytes=2 * line_size, max_files=2) as log:
            for index in range(9):
                log.append(make_record(ts=float(index)))
        files = generations(path)
        assert files == [f"{path}.2", f"{path}.1", path]
        # Oldest generations were unlinked, but every surviving record replays
        # in ts order across the generation chain.
        timestamps = [r.ts for r in iter_records(path)]
        assert timestamps == sorted(timestamps)
        assert 0 < len(timestamps) <= 6  # at most 2 lines per surviving file

    def test_max_files_zero_truncates_instead_of_rotating(self, tmp_path):
        path = str(tmp_path / "requests.jsonl")
        line_size = len(json.dumps(make_record().to_dict(),
                                   separators=(",", ":"))) + 1
        with RequestLog(path, max_bytes=2 * line_size, max_files=0) as log:
            for index in range(7):
                log.append(make_record(ts=float(index)))
        assert generations(path) == [path]

    def test_crash_truncated_tail_is_skipped(self, tmp_path):
        """A torn final line (the crash failure mode) must not break replay."""
        path = str(tmp_path / "requests.jsonl")
        with RequestLog(path) as log:
            log.append(make_record(ts=1.0))
            log.append(make_record(ts=2.0))
        # Simulate a crash mid-append: truncate into the middle of line 2.
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 10)
        records = list(iter_records(path))
        assert [r.ts for r in records] == [1.0]
        # The appender reopens and keeps writing after the torn tail.
        with RequestLog(path) as log:
            log.append(make_record(ts=3.0))
        assert [r.ts for r in iter_records(path)] == [1.0, 3.0]

    def test_foreign_junk_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "requests.jsonl")
        with RequestLog(path) as log:
            log.append(make_record(ts=1.0))
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe not json\n")
            handle.write(b'["a", "list"]\n')
            handle.write(b"\n")
        with RequestLog(path) as log:
            log.append(make_record(ts=2.0))
        assert [r.ts for r in iter_records(path)] == [1.0, 2.0]

    def test_concurrent_appends_stay_line_atomic(self, tmp_path):
        path = str(tmp_path / "requests.jsonl")
        log = RequestLog(path)

        def writer(tag):
            for index in range(50):
                log.append(make_record(signature=f"sig-{tag}", ts=float(index)))

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        assert len(list(iter_records(path))) == 200

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RequestLog(str(tmp_path / "x.jsonl"), max_bytes=0)
        with pytest.raises(ValueError):
            RequestLog(str(tmp_path / "x.jsonl"), max_files=-1)

    def test_discover_logs_resolves_a_fleet_directory(self, tmp_path):
        for worker in range(2):
            with RequestLog(str(tmp_path / f"requests-{worker}.jsonl")) as log:
                log.append(make_record(worker=worker))
        (tmp_path / "ignored.txt").write_text("not a log")
        found = discover_logs(str(tmp_path))
        assert [os.path.basename(p) for p in found] == [
            "requests-0.jsonl", "requests-1.jsonl"]
        assert {r.worker for r in iter_records(str(tmp_path))} == {0, 1}


class TestPercentile:
    def test_interpolates(self):
        values = [0.0, 10.0]
        assert percentile(values, 0.5) == pytest.approx(5.0)
        assert percentile(values, 0.9) == pytest.approx(9.0)

    def test_degenerate_inputs(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([42.0], 0.9) == 42.0


class TestRollup:
    def _write_fleet_logs(self, tmp_path):
        """Two workers, two signatures: sig-hot (4 reqs) and sig-cold (1)."""
        for worker, items in enumerate([
            [("sig-hot", "hit", 2.0, 0.001), ("sig-hot", "hit", 4.0, 0.002),
             ("sig-cold", "computed", 0.0, 0.5)],
            [("sig-hot", "hit", 6.0, 0.003), ("sig-hot", "computed", 0.0, 0.4)],
        ]):
            with RequestLog(str(tmp_path / f"requests-{worker}.jsonl")) as log:
                for index, (sig, outcome, age, latency) in enumerate(items):
                    log.append(make_record(signature=sig, outcome=outcome,
                                           ts=100.0 + index, plan_age=age,
                                           latency=latency, worker=worker))

    def test_aggregates_per_signature(self, tmp_path):
        self._write_fleet_logs(tmp_path)
        rollup = rollup_requests(str(tmp_path))
        assert rollup.records == 5
        hot = rollup.signatures["sig-hot"]
        assert (hot.requests, hot.hits, hot.computed) == (4, 3, 1)
        assert hot.hit_rate == pytest.approx(0.75)
        assert hot.age_max == pytest.approx(6.0)
        assert hot.age_p50 == pytest.approx(3.0)  # of [0, 2, 4, 6]
        assert hot.latency_max == pytest.approx(0.4)
        assert hot.workers == 2
        cold = rollup.signatures["sig-cold"]
        assert (cold.requests, cold.computed) == (1, 1)
        assert cold.workers == 1

    def test_top_ranks_by_requests(self, tmp_path):
        self._write_fleet_logs(tmp_path)
        rollup = rollup_requests(str(tmp_path))
        assert [agg.signature for agg in rollup.top(1)] == ["sig-hot"]
        assert [(agg.signature, agg.requests) for agg in rollup.top()] == [
            ("sig-hot", 4), ("sig-cold", 1)]

    def test_since_ts_window(self, tmp_path):
        self._write_fleet_logs(tmp_path)
        windowed = rollup_requests(str(tmp_path), since_ts=101.5)
        # Only worker 0's third record (ts=102.0, sig-cold) is recent enough.
        assert windowed.records == 1
        assert list(windowed.signatures) == ["sig-cold"]

    def test_save_load_roundtrip(self, tmp_path):
        self._write_fleet_logs(tmp_path)
        rollup = rollup_requests(str(tmp_path))
        path = str(tmp_path / "artifacts" / "rollup.json")
        rollup.save(path)
        loaded = Rollup.load(path)
        assert loaded.records == 5
        assert loaded.to_dict() == rollup.to_dict()
        assert loaded.signatures["sig-hot"].age_p90 == pytest.approx(
            rollup.signatures["sig-hot"].age_p90)

    def test_load_missing_or_corrupt_yields_empty(self, tmp_path):
        assert Rollup.load(str(tmp_path / "nope.json")).records == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert Rollup.load(str(bad)).records == 0
        versioned = tmp_path / "versioned.json"
        versioned.write_text(json.dumps({"version": 999, "signatures": {}}))
        assert Rollup.load(str(versioned)).records == 0

    def test_stale_outcome_counts_as_hit_and_stale(self, tmp_path):
        path = str(tmp_path / "requests.jsonl")
        with RequestLog(path) as log:
            log.append(make_record(outcome="hit"))
            log.append(make_record(outcome="stale", plan_age=12.0))
        rollup = rollup_requests(path)
        agg = rollup.signatures["sig-a"]
        assert (agg.requests, agg.hits, agg.stale) == (2, 2, 1)
        assert agg.hit_rate == pytest.approx(1.0)

    def test_stale_survives_save_load(self, tmp_path):
        log_path = str(tmp_path / "requests.jsonl")
        with RequestLog(log_path) as log:
            log.append(make_record(outcome="stale"))
        rollup = rollup_requests(log_path)
        artifact = str(tmp_path / "rollup.json")
        rollup.save(artifact)
        assert Rollup.load(artifact).signatures["sig-a"].stale == 1

    def test_top_breaks_traffic_ties_on_signature_key(self, tmp_path):
        path = str(tmp_path / "requests.jsonl")
        with RequestLog(path) as log:
            # Insertion order deliberately descends; ties must re-sort.
            for signature in ("sig-z", "sig-m", "sig-a"):
                log.append(make_record(signature=signature))
        rollup = rollup_requests(path)
        assert [agg.signature for agg in rollup.top(3)] \
            == ["sig-a", "sig-m", "sig-z"]

    def test_top_ranks_by_any_counter(self, tmp_path):
        self._write_fleet_logs(tmp_path)
        rollup = rollup_requests(str(tmp_path))
        assert [(agg.signature, agg.computed)
                for agg in rollup.top(by="computed")] == [
            ("sig-cold", 1), ("sig-hot", 1)]
        assert [agg.signature for agg in rollup.top(by="hits")] == [
            "sig-hot", "sig-cold"]

    def test_from_dict_rebuilds_an_equal_report(self, tmp_path):
        self._write_fleet_logs(tmp_path)
        rollup = rollup_requests(str(tmp_path))
        rebuilt = Rollup.from_dict(json.loads(json.dumps(rollup.to_dict())))
        assert rebuilt == rollup
        assert ([agg.signature for agg in rebuilt.top()]
                == [agg.signature for agg in rollup.top()])

    def test_concurrent_saves_leave_a_valid_rollup(self, tmp_path):
        self._write_fleet_logs(tmp_path)
        rollup = rollup_requests(str(tmp_path))
        path = str(tmp_path / "rollup.json")
        errors = []

        def saver():
            try:
                for _ in range(50):
                    rollup.save(path)
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=saver) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert Rollup.load(path).to_dict() == rollup.to_dict()
        assert os.listdir(tmp_path).count("rollup.json") == 1
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]
