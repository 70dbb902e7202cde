"""Serve partitioning plans for a stream of workloads with the PlannerService.

Run with ``python examples/planner_service.py [options]``, e.g.::

    python examples/planner_service.py --family mlp1 --sizes 1024 2048
    python examples/planner_service.py --family attention --system uniform \
        --devices 4 --sizes 256 512 --top-k 2
    python examples/planner_service.py --family rect --store /tmp/plans.json

The demo makes the serving behaviour visible: every workload is requested
twice (a cold pass that runs the pruned design-space search, then a warm pass
answered from the plan cache), per-request lines show hit/miss and latency,
and the summary reports cache hit rate plus how many candidate simulations
the cost-bound pruning skipped.
"""

import argparse
import os
import sys

if __package__ in (None, ""):  # script mode: put src/ on sys.path like conftest does
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.bench.workloads import (
    attention_workload,
    mlp1_workload,
    mlp2_workload,
    rectangular_series,
    square_workload,
    tall_skinny_workload,
)
from repro.planner import PlannerService
from repro.topology.machines import get_system, uniform_system

FAMILIES = {
    "mlp1": lambda size: mlp1_workload(size),
    "mlp2": lambda size: mlp2_workload(size),
    "square": lambda size: square_workload(size),
    "attention": lambda size: attention_workload(size),
    "tall_skinny": lambda size: tall_skinny_workload(size),
    "rect": None,  # expands to the whole rectangular series, ignoring --sizes
}


def build_workloads(family: str, sizes):
    if family == "rect":
        return rectangular_series()
    return [FAMILIES[family](size) for size in sizes]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=sorted(FAMILIES), default="mlp1",
                        help="workload family to request plans for")
    parser.add_argument("--sizes", type=int, nargs="+", default=[1024, 2048],
                        help="sizes within the family (batch/seq/rows/...)")
    parser.add_argument("--system", default="pvc",
                        help='"pvc", "h100", or "uniform" (synthetic)')
    parser.add_argument("--devices", type=int, default=None,
                        help="override the system's device count")
    parser.add_argument("--top-k", type=int, default=1,
                        help="how many ranked plans to return per request")
    parser.add_argument("--replication-factors", type=int, nargs="+", default=[1, 2],
                        help="replication factors to search over")
    parser.add_argument("--store", default=None,
                        help="JSON plan store for warm starts across runs")
    args = parser.parse_args()

    if args.system == "uniform":
        machine = uniform_system(args.devices or 4)
    else:
        machine = get_system(args.system, args.devices)

    workloads = build_workloads(args.family, args.sizes)
    service = PlannerService(machine, top_k=args.top_k,
                             replication_factors=args.replication_factors,
                             store_path=args.store)

    with service:
        if service.stats().warm_start_entries:
            print(f"warm start: {service.stats().warm_start_entries} plans "
                  f"loaded from {args.store}")
        print(f"serving {len(workloads)} x 2 planning requests for family "
              f"'{args.family}' on {machine.name} ({machine.num_devices} devices)\n")
        for label in ("cold", "warm"):
            for workload, response in zip(workloads, service.plan_many(workloads)):
                best = response.recommendation
                source = "cache-hit " if response.cache_hit else "planned  "
                detail = ""
                if response.search_stats is not None:
                    detail = (f"  [{response.search_stats.num_simulated} simulated, "
                              f"{response.search_stats.num_pruned} pruned]")
                print(f"{label:<4} {source} {workload.name:<24} "
                      f"{response.planning_time * 1e3:8.2f} ms  {best.describe()}{detail}")
            print()

        stats = service.stats()
        print(f"served {stats.requests} requests: {stats.plans_computed} planned, "
              f"{stats.cache_hits} cache hits ({stats.hit_rate:.0%}), "
              f"{stats.coalesced_requests} coalesced")
        print(f"design-space pruning skipped {stats.candidates_pruned} of "
              f"{stats.candidates_pruned + stats.candidates_simulated} "
              f"candidate simulations")
        if args.store:
            print(f"plan store saved to {service.save_store()}")


if __name__ == "__main__":
    main()
