"""1.5D algorithm: 1-D partitioning with replication (Koanantakool et al. style).

The ``p`` processes are organised as ``c`` replica groups of ``p/c`` members.
A and C are partitioned into ``p/c`` row blocks and replicated across groups;
B is partitioned into ``p/c`` row panels along the inner dimension within each
group.  Group ``g`` is responsible for ``1/c`` of the inner dimension: it runs
``p/(c*c)`` ring-rotation steps of the 1-D algorithm over its share, producing
a partial C, and the partial C row blocks are finally all-reduced across the
``c`` groups.  At ``c = 1`` this degenerates to the plain 1-D ring algorithm;
at larger ``c`` it trades replicated memory for fewer, larger shifts — the
"sliding scale" of replication discussed in the paper's Section 2.1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import BaselineAlgorithm, BaselineResult
from repro.collectives.models import allreduce_time
from repro.core.cost_model import CostModel
from repro.topology.machines import MachineSpec
from repro.util.indexing import block_bounds
from repro.util.validation import ReplicationError, check_matmul_shapes


class OneAndHalfD(BaselineAlgorithm):
    """1.5D replicated 1-D algorithm with replication factor ``c``."""

    name = "1.5d"

    def __init__(self, replication: int = 2, overlap: bool = True) -> None:
        if replication < 1:
            raise ReplicationError(f"replication must be >= 1, got {replication}")
        self.replication = replication
        self.overlap = overlap

    def _group_size(self, num_devices: int) -> int:
        if num_devices % self.replication != 0:
            raise ReplicationError(
                f"replication {self.replication} does not divide {num_devices} devices"
            )
        return num_devices // self.replication

    def _terms(self, m: int, n: int, k: int, machine: MachineSpec,
               itemsize: int) -> dict:
        """Per-step model terms: ``simulate`` reads them, and
        ``tests/baseline_oracle.py`` rebuilds the schedule from them."""
        p = machine.num_devices
        c = self.replication
        group = self._group_size(p)
        cost_model = CostModel(machine)

        m_local = -(-m // group)
        k_share = -(-k // c)           # inner-dimension share of one group
        k_panel = -(-k_share // group)  # panel rotated within the group
        steps = max(1, group // max(1, c))

        gemm_step = float(cost_model.gemm_time(m_local, n, k_share // max(1, steps)
                                               or k_panel, itemsize))
        shift_bytes = k_panel * n * itemsize
        bandwidth = machine.topology.min_remote_bandwidth()
        latency = machine.topology.latency(0, 1) if p > 1 else 0.0
        shift_step = latency + shift_bytes / bandwidth if group > 1 else 0.0

        reduce_bytes = m_local * n * itemsize
        group_ranks = list(range(0, p, group))[:c] if c > 1 else [0]
        reduce_total = allreduce_time(machine, group_ranks, reduce_bytes) if c > 1 else 0.0
        return dict(p=p, c=c, group=group, steps=steps, gemm_step=gemm_step,
                    shift_step=shift_step, shift_bytes=shift_bytes,
                    reduce_bytes=reduce_bytes, reduce_total=reduce_total)

    # ------------------------------------------------------------------ #
    def simulate(self, m: int, n: int, k: int, machine: MachineSpec,
                 itemsize: int = 4) -> BaselineResult:
        t = self._terms(m, n, k, machine, itemsize)
        c, steps = t["c"], t["steps"]
        gemm_step, shift_step = t["gemm_step"], t["shift_step"]

        per_step = self._combine(gemm_step, shift_step)
        ring_total = per_step * max(0, steps - 1) + gemm_step
        total = ring_total + t["reduce_total"]
        return self._result(
            machine, m, n, k,
            compute_time=gemm_step * steps,
            communication_time=shift_step * max(0, steps - 1) + t["reduce_total"],
            total_time=total,
            communication_bytes=(t["shift_bytes"] * max(0, steps - 1)
                                 + (c - 1) * t["reduce_bytes"]) * t["p"],
            replication=c,
            group_size=t["group"],
            steps=steps,
        )

    # ------------------------------------------------------------------ #
    def run(self, a: np.ndarray, b: np.ndarray, num_procs: Optional[int] = None) -> np.ndarray:
        m, n, k = check_matmul_shapes(a.shape, b.shape)
        p = num_procs or 4
        c = min(self.replication, p)
        while p % c != 0:
            c -= 1
        group = p // c
        group = min(group, m)

        k_shares = [block_bounds(k, c, g) for g in range(c)]
        row_bounds = [block_bounds(m, group, r) for r in range(group)]

        partials = []
        for g in range(c):
            k_slice = k_shares[g].as_slice()
            partial_blocks = []
            for r in range(group):
                rows = row_bounds[r].as_slice()
                partial_blocks.append(a[rows, k_slice] @ b[k_slice, :])
            partials.append(np.concatenate(partial_blocks, axis=0))
        # All-reduce across replica groups.
        return np.sum(partials, axis=0)
