"""SUMMA: the Scalable Universal Matrix Multiplication Algorithm (van de Geijn & Watts).

A, B, and C live on an aligned ``pr x pc`` process grid; the inner dimension
is processed in panels.  In every step the owners of the current A panel
broadcast it along their grid row and the owners of the current B panel
broadcast it along their grid column; every process then performs a local
rank-``kb`` update of its stationary C block.  Communication per process is
``(n_steps) x`` (A panel within a row + B panel within a column).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.baselines.base import BaselineAlgorithm, BaselineResult
from repro.collectives.models import broadcast_time
from repro.core.cost_model import CostModel
from repro.dist.process_grid import near_square_factors
from repro.topology.machines import MachineSpec
from repro.util.indexing import block_bounds
from repro.util.validation import check_matmul_shapes


class Summa(BaselineAlgorithm):
    """Stationary-C SUMMA on a (near-)square process grid."""

    name = "summa"

    def __init__(
        self,
        grid: Optional[Tuple[int, int]] = None,
        panel_width: Optional[int] = None,
        overlap: bool = True,
    ) -> None:
        self.grid = grid
        self.panel_width = panel_width
        self.overlap = overlap

    def _grid(self, num_devices: int) -> Tuple[int, int]:
        if self.grid is not None:
            rows, cols = self.grid
            if rows * cols != num_devices:
                raise ValueError(
                    f"grid {rows}x{cols} does not match {num_devices} devices"
                )
            return rows, cols
        return near_square_factors(num_devices)

    def _terms(self, m: int, n: int, k: int, machine: MachineSpec,
               itemsize: int) -> dict:
        """Per-step model terms: ``simulate`` reads them, and
        ``tests/baseline_oracle.py`` rebuilds the schedule from them."""
        pr, pc = self._grid(machine.num_devices)
        cost_model = CostModel(machine)
        m_local = -(-m // pr)
        n_local = -(-n // pc)
        panel = self.panel_width or max(1, -(-k // max(pr, pc)))
        steps = -(-k // panel)

        row_group = list(range(pc))   # representative grid row
        col_group = list(range(pr))   # representative grid column
        a_panel_bytes = m_local * panel * itemsize
        b_panel_bytes = panel * n_local * itemsize
        comm_step = max(
            broadcast_time(machine, row_group, a_panel_bytes),
            broadcast_time(machine, col_group, b_panel_bytes),
        )
        gemm_step = float(cost_model.gemm_time(m_local, n_local, panel, itemsize))
        return dict(pr=pr, pc=pc, panel=panel, steps=steps,
                    a_panel_bytes=a_panel_bytes, b_panel_bytes=b_panel_bytes,
                    comm_step=comm_step, gemm_step=gemm_step)

    # ------------------------------------------------------------------ #
    def simulate(self, m: int, n: int, k: int, machine: MachineSpec,
                 itemsize: int = 4) -> BaselineResult:
        t = self._terms(m, n, k, machine, itemsize)
        pr, pc, steps = t["pr"], t["pc"], t["steps"]
        per_step = self._combine(t["gemm_step"], t["comm_step"])
        total = per_step * steps
        return self._result(
            machine, m, n, k,
            compute_time=t["gemm_step"] * steps,
            communication_time=t["comm_step"] * steps,
            total_time=total,
            communication_bytes=(t["a_panel_bytes"] * (pc - 1)
                                 + t["b_panel_bytes"] * (pr - 1))
            * steps * machine.num_devices // max(pr, pc),
            grid=f"{pr}x{pc}",
            steps=steps,
            panel_width=t["panel"],
        )

    # ------------------------------------------------------------------ #
    def run(self, a: np.ndarray, b: np.ndarray, num_procs: Optional[int] = None) -> np.ndarray:
        m, n, k = check_matmul_shapes(a.shape, b.shape)
        p = num_procs or 4
        pr, pc = self._grid(p)
        pr, pc = min(pr, m), min(pc, n)
        panel = self.panel_width or max(1, -(-k // max(pr, pc)))

        row_bounds = [block_bounds(m, pr, i) for i in range(pr)]
        col_bounds = [block_bounds(n, pc, j) for j in range(pc)]
        # Block-distributed operands: A over (pr, pc) with k split into pc pieces,
        # B over (pr, pc) with k split into pr pieces — the classical aligned layout.
        a_col_bounds = [block_bounds(k, pc, j) for j in range(pc)]
        b_row_bounds = [block_bounds(k, pr, i) for i in range(pr)]

        c_blocks = [
            [np.zeros((row_bounds[i].extent, col_bounds[j].extent),
                      dtype=np.result_type(a, b)) for j in range(pc)]
            for i in range(pr)
        ]

        for start in range(0, k, panel):
            stop = min(start + panel, k)
            # Owners of this k-panel broadcast slices along rows/columns; in the
            # reference run we simply slice the global operands, which is what
            # every process holds after the broadcast.
            a_panel = a[:, start:stop]
            b_panel = b[start:stop, :]
            for i in range(pr):
                for j in range(pc):
                    c_blocks[i][j] += (
                        a_panel[row_bounds[i].as_slice(), :]
                        @ b_panel[:, col_bounds[j].as_slice()]
                    )

        return np.block(c_blocks)
