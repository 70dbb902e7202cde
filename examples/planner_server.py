"""Serve plans from a multi-process PlanServer fleet and verify them live.

Run with ``python examples/planner_server.py [options]``, e.g.::

    python examples/planner_server.py --family attention --sizes 256 512
    python examples/planner_server.py --workers 4 --requests 64 --top-k 2
    python examples/planner_server.py --tcp --store /tmp/plans.json

The demo makes the process boundary visible end to end:

1. an in-process :class:`PlannerService` computes **reference** plans;
2. a :class:`PlanServer` forks the worker fleet (each worker owns its own
   planner service and plan cache — shared-nothing);
3. one :class:`PlanClient` per worker (connections round-robin across the
   fleet) issues a concurrent cold round and then a warm round of requests;
4. every served plan is checked **identical** to the in-process reference,
   and the aggregated fleet stats must show cache hits on multiple workers.

Exits non-zero if any served plan deviates from the reference or the warm
traffic failed to spread across workers.
"""

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

if __package__ in (None, ""):  # script mode: put src/ on sys.path like conftest does
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.bench.workloads import (
    attention_workload,
    mlp1_workload,
    mlp2_workload,
    square_workload,
    tall_skinny_workload,
)
from repro.planner import PlannerService
from repro.serve import PlanClient, PlanServer
from repro.topology.machines import get_system, uniform_system

FAMILIES = {
    "mlp1": mlp1_workload,
    "mlp2": mlp2_workload,
    "square": square_workload,
    "attention": attention_workload,
    "tall_skinny": tall_skinny_workload,
}


def same_plan(lhs, rhs) -> bool:
    """True when two recommendations pick the identical plan."""
    return lhs.plan_key() == rhs.plan_key()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2,
                        help="forked planner workers behind the socket")
    parser.add_argument("--family", choices=sorted(FAMILIES), default="attention",
                        help="workload family to request plans for")
    parser.add_argument("--sizes", type=int, nargs="+", default=[256, 384],
                        help="sizes within the family")
    parser.add_argument("--system", default="uniform",
                        help='"pvc", "h100", or "uniform" (synthetic)')
    parser.add_argument("--devices", type=int, default=4,
                        help="device count of the machine")
    parser.add_argument("--top-k", type=int, default=1,
                        help="how many ranked plans to return per request")
    parser.add_argument("--requests", type=int, default=24,
                        help="warm requests per workload (spread over the fleet)")
    parser.add_argument("--replication-factors", type=int, nargs="+", default=[1, 2],
                        help="replication factors to search over")
    parser.add_argument("--tcp", action="store_true",
                        help="serve on loopback TCP instead of a Unix socket")
    parser.add_argument("--store", default=None,
                        help="shared JSON plan store every worker warm-starts from")
    args = parser.parse_args()

    if args.system == "uniform":
        machine = uniform_system(args.devices)
    else:
        machine = get_system(args.system, args.devices)
    workloads = [FAMILIES[args.family](size) for size in args.sizes]
    service_options = dict(top_k=args.top_k,
                           replication_factors=args.replication_factors,
                           store_path=args.store)

    print(f"reference: in-process PlannerService on {machine.name} "
          f"({machine.num_devices} devices)")
    reference = {}
    with PlannerService(machine, **service_options) as service:
        for workload in workloads:
            reference[workload.name] = service.plan(workload).recommendation
            print(f"  {workload.name:<24} {reference[workload.name].describe()}")

    address = ("127.0.0.1", 0) if args.tcp else None
    with PlanServer(machine, num_workers=args.workers, address=address,
                    service_options=service_options) as server:
        print(f"\nPlanServer: {args.workers} workers on {server.address}")
        # One client per worker, each driven by exactly one thread: its single
        # pooled connection stays pinned to the worker the round-robin accept
        # dealt it to, so the fleet spread is deterministic (sharing a client
        # across threads would open extra, arbitrarily-placed connections).
        clients = [PlanClient(server.address) for _ in range(args.workers)]

        def client_round(client):
            return [(workload, client.plan(workload))
                    for _ in range(max(1, args.requests // args.workers))
                    for workload in workloads]

        try:
            mismatches = 0
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                for label in ("cold", "warm"):
                    responses = [item
                                 for per_client in pool.map(client_round, clients)
                                 for item in per_client]
                    hits = sum(response.cache_hit for _, response in responses)
                    served_by = sorted({response.worker for _, response in responses})
                    for workload, response in responses:
                        if not same_plan(response.recommendation,
                                         reference[workload.name]):
                            mismatches += 1
                    print(f"{label:<4} round: {len(responses)} requests, "
                          f"{hits} cache hits, served by workers {served_by}")
            elapsed = time.perf_counter() - started
        finally:
            for client in clients:
                client.close()

        stats = server.aggregate_stats()
        print(f"\n{stats.describe()}")
        print(f"\n{stats.totals.requests} requests in {elapsed:.2f}s "
              f"({stats.totals.requests / elapsed:.0f} req/s through "
              f"{args.workers} workers)")
        if args.store:
            print(f"plan store shared at {args.store} "
                  f"(workers warm-start from it at boot)")

        failures = []
        if mismatches:
            failures.append(f"{mismatches} served plans deviated from the "
                            f"in-process reference")
        if args.workers >= 2 and stats.workers_with_hits < 2:
            failures.append("warm traffic failed to reach >= 2 workers")
        if failures:
            raise SystemExit("FAIL: " + "; ".join(failures))
        print("OK: every served plan matches the in-process reference; "
              f"cache hits on {stats.workers_with_hits} workers")


if __name__ == "__main__":
    main()
