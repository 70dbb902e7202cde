"""End-to-end benchmark: plan and multiply latency, plus a per-layer ledger.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 0                    # all four workloads
    python3 benchmarks/e2e/run.py --workload cold_mix --seed 3 --seconds 18
    python3 benchmarks/e2e/run.py --seed 0 --trace 1          # per-layer ledger
    python3 benchmarks/e2e/run.py --seed 0 --json runs.json   # append the run to a file
    python3 benchmarks/e2e/run.py --write-reference           # re-pin reference.json

Each workload runs in a fresh subprocess, one after another.  With
``--trace 0`` (the default) a run prints every end-to-end metric of
``BENCHMARK.json``, and two more fresh subprocesses only set up, so that
``setup_s`` is the median of three cold set-ups; with ``--trace 1`` (or
``--traced``) it prints the per-layer metrics and the ledger table
instead.  Every answer is checked; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 0 only when every answer was correct.  A
run that cannot produce a result (for example, because ``src/repro`` is
missing) prints no JSON and exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join("benchmarks", "e2e", ".scratch")

WORKLOADS = ("cold_mix", "warm_inproc", "wire_warm", "matmul_direct")
#: Cold set-ups per untraced run, each in a fresh process (the measured one
#: and the rest set-up only); ``setup_s`` reports their median.
SETUP_RUNS = 3
#: Longest one workload's subprocesses may run, together, before the one
#: running is killed.
WORKLOAD_TIMEOUT = 170.0
#: BLAS threads of the measured process: the load shape is at most two
#: threads on a two-core box, and OpenBLAS would otherwise start its own.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COVERAGE_RANGE = (0.90, 1.00)


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", "--duration", dest="seconds", type=float,
                        help="timed window per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--json", metavar="OUT",
                        help="append this run to the runs file OUT (for compare.py)")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute the pinned answers of seeds 0 and 1")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# the workload subprocess
# ---------------------------------------------------------------------- #
def _import_program():
    """Put the checkout's ``src`` first on the path and import the drivers.

    Refuses a ``repro`` found anywhere else, so a checkout without ``src``
    fails instead of measuring some other copy of the program.
    """
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")
    import drivers

    return drivers


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _metric_dict(metrics) -> dict:
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(metrics.items())}


def child_main(args) -> int:
    drivers = _import_program()
    import_s = time.time() - args.spawned_at
    from layers import render_rows

    scratch = os.path.join(SCRATCH, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    driver = drivers.DRIVERS[args.workload](args.seed, scratch)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    try:
        if args.trace:
            metrics, ledger, windows = driver.trace(args.seconds)
            coverage = ledger.coverage()
            if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
                driver.fail(f"ledger coverage {coverage:.3f} outside {COVERAGE_RANGE}")
            result["ledger"] = ledger.rows()
            result["ledger_text"] = render_rows(args.workload, result["ledger"], coverage)
        else:
            driver.prepare()
            before = drivers.time_yardstick()
            began = time.perf_counter()
            driver.setup()
            # Process start to the first timed request, first use included.
            setup_s = import_s + time.perf_counter() - began
            after = drivers.time_yardstick()
            # Read at full speed by the yardstick timed on either side.
            slowdown = drivers.slowdown_of(before[0] + after[0], before[1] + after[1])
            setup = {"setup_s": setup_s / slowdown, "setup_raw_s": setup_s,
                     "setup_slowdown": slowdown}
            if args.setup_only:
                print(json.dumps(setup))
                return 0
            window = driver.window(args.seconds)
            # Reaps the plan workers, so their peak counts; the checker's
            # work in finish() comes after and does not.
            driver.teardown()
            peak_rss_mb = _peak_rss_mb()
            windows = [window]
            metrics, result["percentile_samples"], raw = driver.summarize(window)
            # The values before the yardstick's correction.
            result["raw"] = {name: value for name, (value, _) in raw.items()}
            result["setups"] = [setup]
            metrics["setup_s"] = (setup["setup_s"], "s")
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        failed = sum(w.failed for w in windows) + driver.finish()
    finally:
        driver.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
    # Exactly the metrics BENCHMARK.json names; a layer this workload never
    # enters reads 0, and is listed so a reader can tell it from a measured 0.
    spec = _benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in spec}
    result["unmeasured"] = sorted(names - set(metrics))
    # Measured but not gated (the tails over every latency, see README.md).
    result["diagnostics"] = _metric_dict({name: value for name, value in metrics.items()
                                          if name not in names})
    metrics = {m["name"]: metrics.get(m["name"], (0.0, m["unit"])) for m in spec}
    attempted = sum(w.attempted for w in windows)
    failed = min(attempted, failed)
    result.update({
        "correct": failed == 0 and driver.failures == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "samples": sum(w.samples for w in windows),
        "metrics": _metric_dict(metrics),
        "messages": driver.messages,
    })
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------- #
# the parent
# ---------------------------------------------------------------------- #
def _spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
           setup_only: bool = False) -> dict:
    """Run one workload in a fresh subprocess; its result, or SystemExit(2)."""
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(trace), "--spawned-at", repr(time.time())]
    if setup_only:
        command.append("--setup-only")
    # Its own session, so the child and the plan workers it forks can be
    # stopped together without stopping this process.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               env={**os.environ, **CHILD_ENV}, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as error:
        # Timeout, interrupt or SIGTERM: the whole process group goes and is
        # reaped before this process leaves.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        shutil.rmtree(os.path.join(ROOT, SCRATCH, str(process.pid)), ignore_errors=True)
        if not isinstance(error, subprocess.TimeoutExpired):
            raise
        print(f"{workload}: killed after {WORKLOAD_TIMEOUT:.0f} s", file=sys.stderr)
        raise SystemExit(2)
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{workload}: no result (exit code {process.returncode})", file=sys.stderr)
        raise SystemExit(2)


def _run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The measured subprocess, then (untraced) the set-up-only ones."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT
    result = _spawn(workload, seed, seconds, trace, deadline)
    if trace:
        return result
    for _ in range(SETUP_RUNS - 1):
        result["setups"].append(_spawn(workload, seed, seconds, trace, deadline,
                                       setup_only=True))
    result["metrics"]["setup_s"]["value"] = statistics.median(
        setup["setup_s"] for setup in result["setups"])
    return result


def _report(result: dict) -> str:
    lines = [f"{result['workload']} (seed {result['seed']}, trace {result['trace']}, "
             f"{result['seconds']:g} s window): {result['attempted']} requests, "
             f"{result['failed']} failed, {result['samples']} timed"]
    samples = result.get("percentile_samples", {})
    rows = [(name, metric, "") for name, metric in result["metrics"].items()]
    rows += [(name, metric, ", not gated") for name, metric in result["diagnostics"].items()]
    for name, metric, note in rows:
        line = f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}"
        if name in samples:
            line += f"  (of {samples[name]} values{note})"
        lines.append(line)
    if "raw" in result:
        raw = result["raw"]
        setups = ", ".join(f"{setup['setup_raw_s']:.3g} s at {setup['setup_slowdown']:.2f}x"
                           for setup in result["setups"])
        lines.append(f"  before the yardstick's correction: p50 {raw['latency_p50_ms']:.6g} ms, "
                     f"{raw['throughput_rps']:.6g} 1/s at {raw['slowdown']:.2f}x; "
                     f"set-ups {setups}")
    if "ledger_text" in result:
        lines.append(result["ledger_text"])
    lines.extend(f"  FAILURE: {message}" for message in result["messages"])
    return "\n".join(lines)


def _append_run(path: str, run: dict) -> None:
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.append(run)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)
        handle.write("\n")


def _write_reference() -> int:
    drivers = _import_program()
    reference = {"cold_mix": {}, "matmul_direct": {}}
    for seed in (0, 1):
        reference["cold_mix"][str(seed)] = drivers.cold_reference(seed)
        reference["matmul_direct"][str(seed)] = drivers.matmul_reference(seed)
    with open(drivers.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {drivers.REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds is None:
        args.seconds = float(_benchmark_spec()["run_seconds"])
    if args.child:
        return child_main(args)
    if args.write_reference:
        return _write_reference()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.seconds > 0 or not math.isfinite(args.seconds):
        raise SystemExit("--seconds must be a positive number")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for workload in workloads:
        results[workload] = _run_workload(workload, args.seed, args.seconds, args.trace)
        print(_report(results[workload]), flush=True)
    if args.json:
        _append_run(args.json, {
            "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "workloads": results,
        })
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{workload}.{name}": metric for workload, result in results.items()
                   for name, metric in result["metrics"].items()}
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
