"""Self-test of the end-to-end benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it by path::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q

It runs every workload for 0.3 s, untraced and traced, and checks the
output contract: metric names and units exactly as in ``BENCHMARK.json``,
no failed request, a closed ledger, and seeded inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402

RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: A per-layer timing each workload must really measure (not zero-fill).
MEASURED = {
    "cold_mix": ("planner.search.self_ms.p50", "sim.batch.compile.self_ms.p50"),
    "warm_inproc": ("planner.signature.self_us.p50", "obs.warm_telemetry_overhead_pct"),
    "wire_warm": ("serve.transport_us.p50", "serve.codec.client_decode_us"),
    "matmul_direct": ("core.direct.execute.self_ms.p50", "dist.scatter.self_ms.p50"),
}


def _run(tmp_path, trace: int) -> dict:
    out = tmp_path / f"runs-{trace}.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "0", "--duration", "0.3", "--trace", str(trace),
         "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)["runs"][0]["workloads"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("e2e"), trace=0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("e2e"), trace=1)


def _names_and_units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_benchmark_json(untraced, workload):
    result = untraced[workload]
    assert _names_and_units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["failed"] == 0 and result["attempted"] > 0
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    # The ungated tails beside the metrics rest on every timed latency; the
    # gated p50 on the mean latencies of the distinct requests.
    samples = result["percentile_samples"]
    for name in ("latency_p95_all_ms", "latency_p99_all_ms"):
        assert result["diagnostics"][name]["value"] > 0
        assert samples[name] == result["samples"]
    assert 0 < samples["latency_p50_ms"] <= result["samples"]
    # Each gated value is its raw value read at the host's full speed.
    raw, metrics = result["raw"], result["metrics"]
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(
        raw["latency_p50_ms"] / raw["slowdown"])
    assert metrics["throughput_rps"]["value"] == pytest.approx(
        raw["throughput_rps"] * raw["slowdown"])
    assert len(result["setups"]) == 3
    for setup in result["setups"]:
        assert setup["setup_s"] == pytest.approx(setup["setup_raw_s"] / setup["setup_slowdown"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_match_benchmark_json(traced, workload):
    result = traced[workload]
    assert _names_and_units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["failed"] == 0 and result["attempted"] > 0
    for name in MEASURED[workload]:
        assert name not in result["unmeasured"]
    coverage = result["metrics"]["ledger.coverage"]["value"]
    assert 0.90 <= coverage <= 1.00


def test_window_metrics_weight_each_request_by_its_traffic():
    import drivers

    win = drivers.Window()
    for key, seconds in (("a", 3e-3), ("a", 1e-3), ("b", 2e-3), ("c", 4e-3)):
        win.record(seconds, key)
    metrics, samples, raw = drivers.window_metrics(win, Counter(a=1, b=1, c=3), clients=2)
    # Means 2, 2 and 4 ms; "c" is three fifths of the traffic.
    assert raw["latency_p50_ms"][0] == pytest.approx(4.0)
    assert raw["throughput_rps"][0] == pytest.approx(2 * 5 / (2e-3 + 2e-3 + 3 * 4e-3))
    assert samples["latency_p50_ms"] == 3 and samples["latency_p95_all_ms"] == 4
    # The yardstick took its share of the 10 ms recorded, and corrects both.
    share = drivers.YARDSTICK_SHARE
    assert win.yard_chunks > 0 and win.yard_seconds >= share / (1.0 - share) * 10e-3
    slowdown = raw["slowdown"][0]
    assert slowdown == pytest.approx(drivers.slowdown_of(win.yard_seconds, win.yard_chunks))
    assert metrics["latency_p50_ms"][0] == pytest.approx(4.0 / slowdown)
    assert metrics["throughput_rps"][0] == pytest.approx(raw["throughput_rps"][0] * slowdown)


def test_same_seed_same_inputs_other_seed_other_inputs():
    for build in (gen.cold_mix, gen.warm_stream, gen.matmul_direct):
        assert build(7) == build(7)
        assert build(7) != build(8)


def test_cold_mix_signatures_are_distinct():
    requests = gen.cold_mix(3)
    assert len(requests) == gen.COLD_SIGNATURES
    assert len({request.id for request in requests}) == gen.COLD_SIGNATURES


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command fails cleanly."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".scratch"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "matmul_direct",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"})
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
