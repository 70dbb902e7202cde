"""Shared interface and result type for the baseline algorithms.

Every baseline has one time model: the closed form ``simulate`` (the numbers
quoted in the paper's comparisons), summed from per-step terms its
``_terms`` method computes.  The test oracle ``tests/baseline_oracle.py``
rebuilds each schedule from those terms and emits it through the event
engine, and the property suite holds the two equal.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.cost_model import CostModel
from repro.topology.machines import MachineSpec


@dataclass
class BaselineResult:
    """Outcome of simulating one baseline algorithm on one problem."""

    name: str
    simulated_time: float
    percent_of_peak: float
    compute_time: float
    communication_time: float
    communication_bytes: int
    metadata: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        return {
            "algorithm": self.name,
            "simulated_time_s": self.simulated_time,
            "percent_of_peak": self.percent_of_peak,
            "compute_time_s": self.compute_time,
            "communication_time_s": self.communication_time,
            "communication_bytes": self.communication_bytes,
            **{f"meta_{key}": value for key, value in self.metadata.items()},
        }


class BaselineAlgorithm(abc.ABC):
    """A classical distributed matmul algorithm with a time model and a reference run."""

    name: str = "baseline"

    #: Whether communication and computation are overlapped in the time model.
    overlap: bool = True

    @abc.abstractmethod
    def simulate(self, m: int, n: int, k: int, machine: MachineSpec,
                 itemsize: int = 4) -> BaselineResult:
        """Modelled execution time for an ``m x k @ k x n`` multiply on ``machine``."""

    @abc.abstractmethod
    def run(self, a: np.ndarray, b: np.ndarray, num_procs: Optional[int] = None) -> np.ndarray:
        """Execute the algorithm's schedule on real (small) matrices and return C."""

    # ------------------------------------------------------------------ #
    def _combine(self, compute: float, communication: float) -> float:
        """Combine per-phase compute/comm according to the overlap policy."""
        if self.overlap:
            return max(compute, communication)
        return compute + communication

    def _result(
        self,
        machine: MachineSpec,
        m: int,
        n: int,
        k: int,
        compute_time: float,
        communication_time: float,
        total_time: float,
        communication_bytes: int,
        **metadata: object,
    ) -> BaselineResult:
        cost_model = CostModel(machine)
        flops = 2.0 * m * n * k
        return BaselineResult(
            name=self.name,
            simulated_time=total_time,
            percent_of_peak=cost_model.percent_of_peak(flops, total_time),
            compute_time=compute_time,
            communication_time=communication_time,
            communication_bytes=communication_bytes,
            metadata=dict(metadata),
        )
