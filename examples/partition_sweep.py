"""Explore the partitioning x replication design space for one problem.

Run with ``python examples/partition_sweep.py [batch_size]``.

This is the experiment methodology of the paper's Figures 2-3 in miniature:
for a GPT MLP-1 layer, sweep the six partitioning families, all valid
replication factors, and the three data-movement strategies on the PVC
machine model, then print the best configuration per family together with the
DTensor-style comparators.  Everything runs in simulate-only mode, so the
full-size problem is explored in a few seconds.  Set ``REPRO_SWEEP_JOBS=<n>``
to fan the sweep over a pool of worker processes.
"""

import os
import sys

from repro.bench.report import format_table, print_figure
from repro.bench.sweep import best_per_scheme, run_dtensor_series, run_ua_sweep
from repro.bench.workloads import mlp1_workload
from repro.core.config import ExecutionConfig
from repro.topology import pvc_system


def main() -> None:
    batch = int(sys.argv[1]) if len(sys.argv) > 1 else 4096
    machine = pvc_system(12)
    workload = mlp1_workload(batch)
    config = ExecutionConfig(simulate_only=True)

    # Same semantics as benchmarks/harness_common.sweep_jobs (separate tree,
    # so not on the import path here): unset or non-numeric means serial.
    raw = os.environ.get("REPRO_SWEEP_JOBS", "").strip()
    try:
        jobs = max(1, int(raw)) if raw else None
    except ValueError:
        jobs = None
    suffix = f" with {jobs} worker processes" if jobs and jobs > 1 else ""
    print(f"sweeping partitionings for MLP-1 with batch={batch} on 12xPVC{suffix} ...")
    points = run_ua_sweep(machine, [workload], config=config, jobs=jobs)
    best = best_per_scheme(points)
    best += run_dtensor_series(machine, [workload])

    print()
    print_figure(f"MLP-1 (batch {batch}) — best configuration per partitioning family", best)
    print()
    print("full detail of the winning configurations:")
    print(format_table(best))

    winner = max(best, key=lambda p: p.percent_of_peak)
    print()
    print(f"overall winner: {winner.series} with replication {winner.replication_label} "
          f"and Stationary {winner.stationary or '-'} "
          f"at {winner.percent_of_peak:.1f}% of peak")


if __name__ == "__main__":
    main()
