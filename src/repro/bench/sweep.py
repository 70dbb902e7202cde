"""Sweep drivers: run the universal algorithm and the comparators over the
partitioning x replication x data-movement space and keep the best points.

This is the reproduction of the paper's experimental methodology: "For our
algorithm, we exhaustively test all combinations of row block, column block,
and rectangular 2D block with all valid replication factors ... For each
partitioning strategy, we report the replication factor that achieved the
highest performance as well as the data movement strategy that achieved the
highest performance."
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import BaselineAlgorithm, CosmaLike
from repro.bench.schemes import PartitioningScheme, ua_schemes
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel
from repro.core.matmul import universal_matmul
from repro.core.stationary import Stationary
from repro.dtensor.device_mesh import DeviceMesh
from repro.dtensor.dispatch import simulate_dtensor_matmul
from repro.dtensor.placement import Shard
from repro.runtime.runtime import Runtime
from repro.topology.machines import MachineSpec
from repro.util.validation import float_dtype


@dataclass
class SweepPoint:
    """One (series, batch) result — a single bar of the paper's figures."""

    series: str
    workload: str
    batch: int
    percent_of_peak: float
    simulated_time: float
    stationary: Optional[str] = None
    replication: Tuple[int, int, int] = (1, 1, 1)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def replication_label(self) -> str:
        """Format like the paper's annotations: "c" or "c_AB-c_C" when mixed."""
        rep_a, rep_b, rep_c = self.replication
        if rep_a == rep_b == rep_c:
            return str(rep_c)
        return f"{max(rep_a, rep_b)}-{rep_c}"

    def row(self) -> Dict[str, object]:
        return {
            "series": self.series,
            "workload": self.workload,
            "batch": self.batch,
            "percent_of_peak": round(self.percent_of_peak, 2),
            "simulated_time_ms": round(self.simulated_time * 1.0e3, 4),
            "stationary": self.stationary or "-",
            "replication": self.replication_label,
            **self.extra,
        }


def valid_replication_factors(num_devices: int,
                              limit: Optional[Sequence[int]] = None) -> List[int]:
    """Divisors of the device count (optionally intersected with ``limit``)."""
    factors = [c for c in range(1, num_devices + 1) if num_devices % c == 0]
    if limit is not None:
        factors = [c for c in factors if c in set(limit)]
    return factors


def run_ua_point(
    machine: MachineSpec,
    workload: Workload,
    scheme: PartitioningScheme,
    replication: Tuple[int, int, int] = (1, 1, 1),
    stationary: Optional[str] = None,
    config: Optional[ExecutionConfig] = None,
    itemsize: int = 4,
) -> SweepPoint:
    """Simulate the universal algorithm for one fully specified configuration.

    The operands are floats of ``itemsize`` bytes (see
    :func:`repro.util.validation.float_dtype`).
    """
    config = config or ExecutionConfig(simulate_only=True)
    a, b, c = scheme.build_operands(Runtime(machine=machine), workload, replication,
                                    float_dtype(itemsize),
                                    materialize=not config.simulate_only)
    result = universal_matmul(a, b, c, stationary=stationary, config=config,
                              structure=workload.structure)
    extra = {
        "remote_get_bytes": result.remote_get_bytes,
        "remote_accumulate_bytes": result.remote_accumulate_bytes,
        "total_ops": result.total_ops,
    }
    if not workload.structure.is_dense:
        extra["structure"] = workload.structure.signature_token()
    return SweepPoint(
        series=scheme.label,
        workload=workload.name,
        batch=workload.m,
        percent_of_peak=result.percent_of_peak,
        simulated_time=result.simulated_time,
        stationary=result.stationary.value,
        replication=replication,
        extra=extra,
    )


def _run_ua_point_task(task: Tuple) -> SweepPoint:
    """Module-level adapter so sweep configurations pickle into worker processes."""
    machine, workload, scheme, replication, stationary, config = task
    return run_ua_point(machine, workload, scheme, replication=replication,
                        stationary=stationary, config=config)


def run_ua_sweep(
    machine: MachineSpec,
    workloads: Sequence[Workload],
    schemes: Optional[Sequence[PartitioningScheme]] = None,
    replication_factors: Optional[Sequence[int]] = None,
    mixed_output_replication: bool = False,
    stationary_options: Sequence[str] = ("A", "B", "C"),
    config: Optional[ExecutionConfig] = None,
    jobs: Optional[int] = None,
) -> List[SweepPoint]:
    """Run every (workload, scheme, replication, stationary) combination.

    ``mixed_output_replication=True`` additionally sweeps the C replication
    factor independently of A/B (the paper's MLP-2 configurations annotate
    "rep_AB-rep_C" pairs); otherwise one factor is applied to all matrices.

    ``jobs`` fans the configurations over a process pool (each point's
    simulation is side-effect-free through the event engine, so points are
    embarrassingly parallel).  The default (``None``/``0``/``1``) runs
    serially; results are returned in enumeration order either way.
    """
    schemes = list(schemes) if schemes is not None else ua_schemes()
    factors = valid_replication_factors(machine.num_devices, replication_factors)
    tasks: List[Tuple] = []
    for workload in workloads:
        for scheme in schemes:
            for factor in factors:
                c_factors = factors if mixed_output_replication else [factor]
                for c_factor in c_factors:
                    for stationary in stationary_options:
                        tasks.append((machine, workload, scheme,
                                      (factor, factor, c_factor), stationary, config))
    if jobs is None or jobs <= 1 or len(tasks) <= 1:
        return [_run_ua_point_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_run_ua_point_task, tasks, chunksize=4))


def best_per_scheme(points: Iterable[SweepPoint]) -> List[SweepPoint]:
    """Keep the best-performing configuration per (series, batch) — one bar each."""
    best: Dict[Tuple[str, int], SweepPoint] = {}
    for point in points:
        key = (point.series, point.batch)
        if key not in best or point.percent_of_peak > best[key].percent_of_peak:
            best[key] = point
    return sorted(best.values(), key=lambda p: (p.series, p.batch))


# ---------------------------------------------------------------------- #
# comparator series
# ---------------------------------------------------------------------- #
def run_dtensor_series(
    machine: MachineSpec,
    workloads: Sequence[Workload],
    shardings: Sequence[str] = ("row", "column"),
) -> List[SweepPoint]:
    """The "DT - Row" / "DT - Column" series: both operands 1-D sharded, no replication."""
    mesh = DeviceMesh(machine)
    points: List[SweepPoint] = []
    for workload in workloads:
        for sharding in shardings:
            dim = 0 if sharding == "row" else 1
            outcome = simulate_dtensor_matmul(
                mesh, workload.m, workload.n, workload.k, Shard(dim), Shard(dim)
            )
            points.append(
                SweepPoint(
                    series=f"DT - {sharding.capitalize()}",
                    workload=workload.name,
                    batch=workload.m,
                    percent_of_peak=float(outcome["percent_of_peak"]),
                    simulated_time=float(outcome["simulated_time_s"]),
                    stationary=None,
                    replication=(1, 1, 1),
                    extra={"rule": outcome["rule"],
                           "communication_bytes": outcome["communication_bytes"]},
                )
            )
    return points


def run_cosma_series(
    machine: MachineSpec,
    workloads: Sequence[Workload],
    memory_budget_bytes: Optional[float] = None,
) -> List[SweepPoint]:
    """The "COSMA-NCCL" series (paper: unlimited memory budget, overlap off)."""
    algorithm = CosmaLike(memory_budget_bytes=memory_budget_bytes)
    points: List[SweepPoint] = []
    for workload in workloads:
        result = algorithm.simulate(workload.m, workload.n, workload.k, machine)
        points.append(
            SweepPoint(
                series="COSMA-NCCL",
                workload=workload.name,
                batch=workload.m,
                percent_of_peak=result.percent_of_peak,
                simulated_time=result.simulated_time,
                stationary=None,
                replication=(1, 1, 1),
                extra=dict(result.metadata),
            )
        )
    return points


def run_baseline_series(
    machine: MachineSpec,
    workloads: Sequence[Workload],
    algorithms: Sequence[BaselineAlgorithm],
) -> List[SweepPoint]:
    """Series for the classical algorithms (SUMMA, Cannon, 1D, 1.5D, 2.5D)."""
    points: List[SweepPoint] = []
    for workload in workloads:
        for algorithm in algorithms:
            result = algorithm.simulate(workload.m, workload.n, workload.k, machine)
            points.append(
                SweepPoint(
                    series=algorithm.name,
                    workload=workload.name,
                    batch=workload.m,
                    percent_of_peak=result.percent_of_peak,
                    simulated_time=result.simulated_time,
                    stationary=None,
                    replication=(1, 1, 1),
                    extra=dict(result.metadata),
                )
            )
    return points
