"""Observe a serving fleet end to end: metrics, traces, and the request log.

Run with ``python examples/observe_fleet.py [options]``, e.g.::

    python examples/observe_fleet.py
    python examples/observe_fleet.py --workers 4 --requests 48
    python examples/observe_fleet.py --out /tmp/fleet-obs

The demo drives every surface the observability layer exposes:

1. a :class:`PlanServer` fleet boots with metrics, tracing, and per-worker
   request logs enabled (all off-by-default knobs);
2. traced clients send mixed traffic — a hot workload hammered repeatedly
   plus a spread of colder ones;
3. one worker is scraped through the public socket (the ``metrics`` op),
   and the fleet-merged snapshot prints as Prometheus text exposition;
4. each worker runs a background refresher (``refresh_options``): after the
   short plan TTL lapses, a request is served **stale** from the grace
   window while the worker re-plans off the request path, and the refresh
   counters show up in the fleet-merged metrics;
5. the request-log directory is compacted into a rollup — top signatures by
   traffic, hit rates, stale serves, plan-age percentiles;
6. one traced request's cross-process timeline (client -> worker ->
   planner -> search) is dumped as Chrome/Perfetto JSON.

Exits non-zero if any surface comes back empty or inconsistent.
"""

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time

if __package__ in (None, ""):  # script mode: put src/ on sys.path like conftest does
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.bench.workloads import attention_workload, mlp1_workload
from repro.obs.metrics import render_prometheus
from repro.obs.rollup import rollup_requests
from repro.obs.tracing import Tracer
from repro.serve import PlanClient, PlanServer
from repro.topology.machines import uniform_system


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2,
                        help="forked planner workers behind the socket")
    parser.add_argument("--devices", type=int, default=4,
                        help="device count of the synthetic machine")
    parser.add_argument("--requests", type=int, default=24,
                        help="requests for the hot workload (cold spread on top)")
    parser.add_argument("--out", default=None,
                        help="directory for request logs + the exported trace "
                             "(default: a temporary directory, removed on exit)")
    args = parser.parse_args()
    with (contextlib.nullcontext(args.out) if args.out
          else tempfile.TemporaryDirectory(prefix="fleet-obs-")) as out_dir:
        observe(args, out_dir)


def observe(args: argparse.Namespace, out_dir: str) -> None:
    """Run the demo, writing request logs and the trace under ``out_dir``."""
    machine = uniform_system(args.devices)
    hot = attention_workload(256)
    cold = [mlp1_workload(512), mlp1_workload(1024), attention_workload(384)]

    reqlog_dir = os.path.join(out_dir, "reqlogs")

    # A deliberately short TTL plus a generous grace window: the demo lets
    # the hot plan expire, serves it stale once, and watches each worker's
    # background refresher re-plan it off the request path.  The long
    # scheduler interval keeps the refresher quiet until a stale serve wakes
    # it, so the stale path is actually exercised.
    with PlanServer(machine, num_workers=args.workers,
                    service_options={"replication_factors": [1, 2],
                                     "cache_ttl_seconds": 0.5,
                                     "cache_grace_seconds": 60.0},
                    refresh_options={"interval_seconds": 60.0},
                    enable_metrics=True, enable_tracing=True,
                    reqlog_dir=reqlog_dir) as server:
        print(f"PlanServer: {args.workers} workers on {server.address}")
        print(f"request logs: {reqlog_dir}/requests-<worker>.jsonl\n")

        # Mixed traffic through traced clients: one client per worker so the
        # round-robin accept spreads load deterministically.
        tracer = Tracer(role="client")
        clients = [PlanClient(server.address, tracer=tracer)
                   for _ in range(args.workers)]
        try:
            for client in clients:
                for workload in cold:
                    client.plan(workload)
            hot_responses = [clients[i % len(clients)].plan(hot)
                             for i in range(args.requests)]

            # Let the hot plan outlive its TTL, then ask again: each worker
            # serves its expired-but-in-grace copy immediately (stale=True)
            # and wakes its refresher to re-plan off the request path.
            time.sleep(0.7)
            stale_responses = [client.plan(hot) for client in clients]
            stale_count = sum(1 for r in stale_responses if r.stale)
            print(f"stale-while-revalidate: {stale_count} of "
                  f"{len(stale_responses)} post-TTL requests served stale "
                  f"(plan ages "
                  f"{[round(r.plan_age, 2) for r in stale_responses]})")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                totals = server.aggregate_stats().totals
                if totals.background_refreshes >= stale_count:
                    break
                time.sleep(0.05)
            fresh_responses = [client.plan(hot) for client in clients]
            print(f"after background refresh: "
                  f"{sum(1 for r in fresh_responses if not r.stale)} of "
                  f"{len(fresh_responses)} requests fresh again "
                  f"({totals.background_refreshes} plans recomputed "
                  f"off the request path)\n")
        finally:
            # Scrape ONE worker through the public socket before closing —
            # any client can, which is what makes the op deployable.
            single = clients[0].metrics()
            for client in clients:
                client.close()

        single_requests = sum(
            value for name, value in single["counters"].items()
            if name.startswith("repro_planner_requests_total"))
        print(f"single-worker scrape (metrics op): "
              f"{single_requests:.0f} requests on that worker\n")

        merged = server.aggregate_metrics()
        print("fleet-merged Prometheus exposition:")
        print(render_prometheus(merged))

        refresh_counters = {
            name: value for name, value in merged["counters"].items()
            if name.startswith(("repro_refresh_", "repro_plan_cache_stale"))}
        print("fleet refresh counters:")
        for name in sorted(refresh_counters):
            print(f"  {name} = {refresh_counters[name]:.0f}")
        print()

        rollup = rollup_requests(reqlog_dir)
        print(f"request-log rollup: {rollup.records} records, "
              f"{len(rollup.signatures)} signatures")
        print(f"{'signature':<40} {'reqs':>5} {'hit%':>5} {'stale':>5} "
              f"{'age p90':>8} {'workers':>7}")
        for agg in rollup.top(5, by="requests"):
            print(f"{agg.signature[:40]:<40} {agg.requests:>5} "
                  f"{agg.hit_rate * 100.0:>4.0f}% {agg.stale:>5} "
                  f"{agg.age_p90:>7.2f}s {agg.workers:>7}")

        stats = server.aggregate_stats()
        print(f"\nfleet extremes: slowest plan "
              f"{stats.max_planning_time * 1e3:.1f} ms, oldest resident plan "
              f"{stats.oldest_plan_age or 0.0:.1f} s")

    # Export the last hot request's cross-process timeline.
    last = hot_responses[-1]
    trace_path = os.path.join(out_dir, "request_trace.json")
    tracer.dump_chrome_trace(trace_path, last.trace_id)
    with open(trace_path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    roles = {e["tid"] for e in slices}
    print(f"\nChrome trace for request {last.trace_id}: {trace_path}")
    print(f"  {len(slices)} spans across {roles} "
          f"(open in chrome://tracing or ui.perfetto.dev)")

    failures = []
    total_requests = sum(
        value for name, value in merged["counters"].items()
        if name.startswith("repro_planner_requests_total"))
    expected = args.requests + args.workers * (len(cold) + 2)
    if total_requests != expected:
        failures.append(f"fleet metrics counted {total_requests:.0f} requests, "
                        f"clients issued {expected}")
    if rollup.records != expected:
        failures.append(f"request log replayed {rollup.records} records, "
                        f"expected {expected}")
    if stale_count < 1:
        failures.append("no post-TTL request was served stale")
    rollup_stale = sum(agg.stale for agg in rollup.signatures.values())
    if rollup_stale != stale_count:
        failures.append(f"rollup counted {rollup_stale} stale serves, "
                        f"responses flagged {stale_count}")
    if refresh_counters.get("repro_refresh_completed_total", 0.0) < stale_count:
        failures.append("background refreshers completed fewer refreshes "
                        "than stale serves")
    if not any(e["args"].get("trace_id") == last.trace_id for e in slices):
        failures.append("exported trace lost the request id")
    if {"client.plan", "worker.plan", "planner.plan"} - {e["name"] for e in slices}:
        failures.append("exported trace is missing a tier of the timeline")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("\nOK: metrics, rollup, and trace all agree on the traffic")


if __name__ == "__main__":
    main()
