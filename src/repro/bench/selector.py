"""Automatic partitioning/replication selection (the paper's future-work hook).

The paper's conclusion notes that it "does not address the issue of how to
select an optimal partitioning for a particular problem" and points to
COSMA-style techniques as the natural companion.  Because the universal
algorithm makes *every* combination executable, selection reduces to a search
over the design space with the cost model — which is exactly what the sweep
driver already does.  This module packages that search as a small planner:

* enumerate the partitioning families, replication factors, and data-movement
  strategies that fit a per-device memory budget,
* score each candidate with the simulate-only execution model, and
* return a :class:`PartitioningRecommendation` that can be applied directly
  (it knows how to build the distributed matrices).

The search itself now lives in :mod:`repro.planner.search`, which adds
cost-bound pruning (provably the same answer, strictly fewer simulations);
:func:`recommend_partitioning` is kept as the stable entry point and
delegates there.  Callers who want memoization and serving statistics on top
should use :class:`repro.planner.PlannerService` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bench.schemes import PartitioningScheme
from repro.bench.workloads import Workload
from repro.dist.matrix import DistributedMatrix
from repro.runtime.runtime import Runtime
from repro.topology.machines import MachineSpec


@dataclass(frozen=True)
class PartitioningRecommendation:
    """One evaluated configuration of the design space."""

    scheme: PartitioningScheme
    replication: Tuple[int, int, int]
    stationary: str
    percent_of_peak: float
    simulated_time: float
    memory_per_device: int

    def plan_key(self) -> Tuple[str, Tuple[int, int, int], str, float]:
        """Identity of the *plan* this recommendation picks.

        Two recommendations with equal keys choose the same partitioning at
        the same simulated cost — the comparison the serving example and the
        serving drift benchmark both rely on, kept in one place so their
        notions of "identical plan" cannot diverge.
        """
        return (self.scheme.name, self.replication, self.stationary,
                self.simulated_time)

    def describe(self) -> str:
        rep_a, rep_b, rep_c = self.replication
        return (
            f"{self.scheme.label}: replication A/B/C = {rep_a}/{rep_b}/{rep_c}, "
            f"Stationary {self.stationary}, "
            f"{self.percent_of_peak:.1f}% of peak, "
            f"{self.memory_per_device / 1e9:.2f} GB per device"
        )

    def build_matrices(
        self, runtime: Runtime, workload: Workload, dtype="float32",
        materialize: bool = True,
    ) -> Tuple[DistributedMatrix, DistributedMatrix, DistributedMatrix]:
        """Instantiate A, B, C under this recommendation on the given runtime."""
        return self.scheme.build_operands(runtime, workload, self.replication, dtype,
                                          materialize)


def recommend_partitioning(
    machine: MachineSpec,
    workload: Workload,
    memory_budget_bytes: Optional[float] = None,
    schemes: Optional[Sequence[PartitioningScheme]] = None,
    replication_factors: Optional[Sequence[int]] = None,
    stationary_options: Sequence[str] = ("A", "B", "C"),
    top_k: int = 1,
    itemsize: int = 4,
) -> List[PartitioningRecommendation]:
    """Search the partitioning design space and return the best configuration(s).

    ``memory_budget_bytes`` (per device) defaults to the machine's memory
    capacity; configurations that would not fit are skipped, which is how
    replication trades memory for communication exactly as in the 1.5D/2.5D
    literature the paper builds on.

    Delegates to the pruned search in :mod:`repro.planner.search`, which
    returns exactly the ranking the original exhaustive sweep produced.
    """
    # Imported lazily: repro.planner sits above repro.bench in the layer
    # stack, so a module-level import here would be circular.
    from repro.planner.search import search_partitionings

    recommendations, _ = search_partitionings(
        machine,
        workload,
        memory_budget_bytes=memory_budget_bytes,
        schemes=schemes,
        replication_factors=replication_factors,
        stationary_options=stationary_options,
        top_k=top_k,
        itemsize=itemsize,
    )
    return recommendations
