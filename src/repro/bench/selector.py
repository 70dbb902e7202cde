"""Automatic partitioning/replication selection (the paper's future-work hook).

The paper's conclusion notes that it "does not address the issue of how to
select an optimal partitioning for a particular problem" and points to
COSMA-style techniques as the natural companion.  Because the universal
algorithm makes *every* combination executable, selection reduces to a search
over the design space with the cost model.  That search is
:func:`repro.planner.search.search_partitionings`, which

* enumerates the partitioning families, replication factors, and
  data-movement strategies that fit a per-device memory budget,
* scores each candidate with the simulate-only execution model, pruning by
  cost bounds (provably the same answer, strictly fewer simulations), and
* returns ranked :class:`PartitioningRecommendation` records, defined here,
  that can be applied directly (they know how to build the distributed
  matrices).

Callers who want memoization and serving statistics on top use
:class:`repro.planner.PlannerService`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.bench.schemes import PartitioningScheme
from repro.bench.workloads import Workload
from repro.dist.matrix import DistributedMatrix
from repro.runtime.runtime import Runtime


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

