"""Planning subsystem: memoized, pruned partitioning selection as a service.

The paper's conclusion leaves "how to select an optimal partitioning for a
particular problem" open; the exhaustive selector answers it by brute force.
This package is the production answer the ROADMAP's serving goal needs:

* :mod:`repro.planner.signature` — canonical request identities (machine
  fingerprint + geometric shape buckets) so near-identical requests share a
  plan;
* :mod:`repro.planner.cache` — a thread-safe LRU plan cache with counters
  and a persistent JSON store for cross-process warm starts;
* :mod:`repro.planner.search` — branch-and-bound over the design space using
  admissible cost-model lower bounds, provably returning the exhaustive
  selector's exact ranking while simulating fewer candidates;
* :mod:`repro.planner.graph` — the joint graph planner: dynamic programming
  (chains) and branch-and-bound (small DAGs) over per-op layout lattices
  with reshard costs priced on every edge, so locally-suboptimal layouts
  that avoid expensive redistributions can win end to end;
* :mod:`repro.planner.service` — :class:`PlannerService`, the serving
  facade: ``plan()`` / ``plan_many()`` / ``plan_graph()`` with a worker
  pool, single-flight dedup of concurrent identical requests, and serving
  statistics;
* :mod:`repro.planner.refresh` — :class:`BackgroundRefresher`, the adaptive
  refresh engine: stale-while-revalidate revalidation and pre-TTL refresh,
  both off the request path.
"""

from repro.planner.cache import CacheStats, PlanCache, PlanEntry
from repro.planner.graph import (
    DEFAULT_LATTICE_SIZE,
    GraphPlan,
    GraphPlanEntry,
    OpLattice,
    assignment_timing,
    build_edge_tables,
    exhaustive_joint_plan,
    op_workload,
    plan_graph_layouts,
)
from repro.planner.refresh import BackgroundRefresher, RefreshStats
from repro.planner.search import (
    Candidate,
    SearchStats,
    enumerate_candidates,
    memory_per_device,
    search_partitionings,
)
from repro.planner.service import (
    GraphPlanResponse,
    PlannerService,
    PlanResponse,
    ServiceStats,
)
from repro.planner.signature import (
    DEFAULT_BUCKET_RATIO,
    GraphSignature,
    ProblemSignature,
    SignatureFactory,
    bucket_dim,
    machine_fingerprint,
    options_fingerprint,
)

__all__ = [
    "BackgroundRefresher",
    "RefreshStats",
    "CacheStats",
    "PlanCache",
    "PlanEntry",
    "DEFAULT_LATTICE_SIZE",
    "GraphPlan",
    "GraphPlanEntry",
    "OpLattice",
    "assignment_timing",
    "build_edge_tables",
    "exhaustive_joint_plan",
    "op_workload",
    "plan_graph_layouts",
    "Candidate",
    "SearchStats",
    "enumerate_candidates",
    "memory_per_device",
    "search_partitionings",
    "PlannerService",
    "PlanResponse",
    "GraphPlanResponse",
    "ServiceStats",
    "DEFAULT_BUCKET_RATIO",
    "GraphSignature",
    "ProblemSignature",
    "SignatureFactory",
    "bucket_dim",
    "machine_fingerprint",
    "options_fingerprint",
]
