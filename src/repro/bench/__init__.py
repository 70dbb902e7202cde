"""Benchmark harness: workloads, partitioning schemes, sweeps, and reporting.

This package turns the library into the paper's evaluation: it defines the
GPT-MLP problem sizes (Section 5.2.1), the partitioning families plotted in
Figures 2-3, the replication-factor sweep that produces the numbers above
each bar, and the DTensor / COSMA comparator series.  The scripts under
``benchmarks/`` are thin wrappers that call into this package and print the
same rows/series the paper reports.
"""

from repro.bench.workloads import (
    MLP_HIDDEN,
    MLP_RATIO,
    BATCH_SIZES,
    Workload,
    attention_workload,
    block_sparse_workload,
    mlp1_workload,
    mlp2_workload,
    moe_workload,
    rectangular_series,
    square_workload,
    tall_skinny_workload,
)
from repro.bench.schemes import (
    PartitioningScheme,
    ua_schemes,
    scheme_by_name,
)
from repro.bench.sweep import (
    SweepPoint,
    run_ua_point,
    run_ua_sweep,
    best_per_scheme,
    run_dtensor_series,
    run_cosma_series,
    run_baseline_series,
)
from repro.bench.report import format_table, series_from_points, print_figure
from repro.bench.selector import PartitioningRecommendation

__all__ = [
    "MLP_HIDDEN",
    "MLP_RATIO",
    "BATCH_SIZES",
    "Workload",
    "attention_workload",
    "block_sparse_workload",
    "mlp1_workload",
    "mlp2_workload",
    "moe_workload",
    "rectangular_series",
    "square_workload",
    "tall_skinny_workload",
    "PartitioningScheme",
    "ua_schemes",
    "scheme_by_name",
    "SweepPoint",
    "run_ua_point",
    "run_ua_sweep",
    "best_per_scheme",
    "run_dtensor_series",
    "run_cosma_series",
    "run_baseline_series",
    "format_table",
    "series_from_points",
    "print_figure",
    "PartitioningRecommendation",
]
