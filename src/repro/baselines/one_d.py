"""The classical 1-D ring algorithm (Fox/Otto/Hey-style row algorithm).

A and C are partitioned into ``p`` row blocks; B is partitioned into ``p``
row blocks along the inner dimension.  The algorithm runs ``p`` steps: in
step ``s`` each rank multiplies its A column slice ``(r + s) mod p`` with the
B panel currently resident, accumulates into its C rows, and passes the B
panel to its ring neighbour.  Communication per rank is ``(p-1)/p`` of B.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import BaselineAlgorithm, BaselineResult
from repro.core.cost_model import CostModel
from repro.topology.machines import MachineSpec
from repro.util.indexing import block_bounds
from repro.util.validation import check_matmul_shapes, check_positive_int


class OneDRing(BaselineAlgorithm):
    """1-D block-row algorithm with a rotating B panel."""

    name = "1d_ring"

    def __init__(self, overlap: bool = True) -> None:
        self.overlap = overlap

    def _terms(self, m: int, n: int, k: int, machine: MachineSpec,
               itemsize: int) -> dict:
        """Per-step model terms: ``simulate`` reads them, and
        ``tests/baseline_oracle.py`` rebuilds the schedule from them."""
        p = machine.num_devices
        cost_model = CostModel(machine)
        m_local = -(-m // p)
        k_panel = -(-k // p)

        gemm_step = float(cost_model.gemm_time(m_local, n, k_panel, itemsize))
        shift_bytes = k_panel * n * itemsize
        # Ring neighbours: use the slowest remote link as the conservative choice.
        bandwidth = machine.topology.min_remote_bandwidth()
        latency = max(machine.topology.latency(0, dst) for dst in range(p) if dst != 0) \
            if p > 1 else 0.0
        shift_step = latency + shift_bytes / bandwidth if p > 1 else 0.0
        return dict(p=p, gemm_step=gemm_step, shift_step=shift_step,
                    shift_bytes=shift_bytes)

    # ------------------------------------------------------------------ #
    def simulate(self, m: int, n: int, k: int, machine: MachineSpec,
                 itemsize: int = 4) -> BaselineResult:
        t = self._terms(m, n, k, machine, itemsize)
        p, gemm_step, shift_step = t["p"], t["gemm_step"], t["shift_step"]
        per_step = self._combine(gemm_step, shift_step)
        # The final step needs no shift.
        total = per_step * (p - 1) + gemm_step if p > 1 else gemm_step
        compute = gemm_step * p
        communication = shift_step * (p - 1)
        return self._result(
            machine, m, n, k,
            compute_time=compute,
            communication_time=communication,
            total_time=total,
            communication_bytes=t["shift_bytes"] * (p - 1) * p,
            steps=p,
        )

    # ------------------------------------------------------------------ #
    def run(self, a: np.ndarray, b: np.ndarray, num_procs: Optional[int] = None) -> np.ndarray:
        m, n, k = check_matmul_shapes(a.shape, b.shape)
        p = check_positive_int(num_procs or 4, "num_procs")
        p = min(p, m, k)

        a_rows = [block_bounds(m, p, r) for r in range(p)]
        k_panels = [block_bounds(k, p, r) for r in range(p)]
        # Per-rank state: local A rows, currently resident B panel (starts as own panel).
        local_a = [a[rows.as_slice(), :] for rows in a_rows]
        resident_b = [b[k_panels[r].as_slice(), :].copy() for r in range(p)]
        resident_panel = list(range(p))
        local_c = [np.zeros((a_rows[r].extent, n), dtype=np.result_type(a, b)) for r in range(p)]

        for _step in range(p):
            # Multiply the resident panel, then rotate it to the next rank.
            for rank in range(p):
                panel = resident_panel[rank]
                k_slice = k_panels[panel].as_slice()
                local_c[rank] += local_a[rank][:, k_slice] @ resident_b[rank]
            resident_b = [resident_b[(rank + 1) % p] for rank in range(p)]
            resident_panel = [resident_panel[(rank + 1) % p] for rank in range(p)]

        return np.concatenate(local_c, axis=0)
