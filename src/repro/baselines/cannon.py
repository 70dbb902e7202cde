"""Cannon's algorithm on a square process grid.

A, B, and C are partitioned into ``q x q`` blocks (``q = sqrt(p)``).  After an
initial skew (row ``i`` of A rotated left by ``i``, column ``j`` of B rotated
up by ``j``), the algorithm performs ``q`` steps of local multiply followed by
a single-position rotation of A blocks leftward and B blocks upward.  Each
step moves exactly one A block and one B block per process, making Cannon's
communication perfectly balanced — at the cost of requiring square grids and
aligned operands, which is exactly the kind of precondition the universal
algorithm removes.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.base import BaselineAlgorithm, BaselineResult
from repro.core.cost_model import CostModel
from repro.topology.machines import MachineSpec
from repro.util.indexing import block_bounds
from repro.util.validation import check_matmul_shapes


def _square_side(num_devices: int) -> int:
    side = int(math.isqrt(num_devices))
    return max(side, 1)


class Cannon(BaselineAlgorithm):
    """Cannon's algorithm (square grids only; extra devices stay idle)."""

    name = "cannon"

    def __init__(self, overlap: bool = True, strict: bool = False) -> None:
        self.overlap = overlap
        #: With ``strict=True`` a non-square device count raises instead of
        #: silently using the largest square subset.
        self.strict = strict

    def _side(self, num_devices: int) -> int:
        side = _square_side(num_devices)
        if self.strict and side * side != num_devices:
            raise ValueError(
                f"Cannon's algorithm needs a square process count, got {num_devices}"
            )
        return side

    def _terms(self, m: int, n: int, k: int, machine: MachineSpec,
               itemsize: int) -> dict:
        """Per-step model terms: ``simulate`` reads them, and
        ``tests/baseline_oracle.py`` rebuilds the schedule from them."""
        side = self._side(machine.num_devices)
        cost_model = CostModel(machine)
        m_local = -(-m // side)
        n_local = -(-n // side)
        k_local = -(-k // side)

        gemm_step = float(cost_model.gemm_time(m_local, n_local, k_local, itemsize))
        a_block_bytes = m_local * k_local * itemsize
        b_block_bytes = k_local * n_local * itemsize
        bandwidth = machine.topology.min_remote_bandwidth()
        latency = machine.topology.latency(0, 1) if machine.num_devices > 1 else 0.0
        shift_step = (
            latency + (a_block_bytes + b_block_bytes) / bandwidth if side > 1 else 0.0
        )
        return dict(side=side, gemm_step=gemm_step, shift_step=shift_step,
                    a_block_bytes=a_block_bytes, b_block_bytes=b_block_bytes)

    # ------------------------------------------------------------------ #
    def simulate(self, m: int, n: int, k: int, machine: MachineSpec,
                 itemsize: int = 4) -> BaselineResult:
        t = self._terms(m, n, k, machine, itemsize)
        side, gemm_step, shift_step = t["side"], t["gemm_step"], t["shift_step"]
        used_devices = side * side
        skew = shift_step  # initial alignment, one rotation's worth

        per_step = self._combine(gemm_step, shift_step)
        total = skew + per_step * (side - 1) + gemm_step if side > 1 else gemm_step

        # Percent of peak is reported against the whole machine even though
        # only side*side devices participate, mirroring how a user would see it.
        result = self._result(
            machine, m, n, k,
            compute_time=gemm_step * side,
            communication_time=skew + shift_step * (side - 1),
            total_time=total,
            communication_bytes=(t["a_block_bytes"] + t["b_block_bytes"])
            * side * used_devices,
            grid=f"{side}x{side}",
            devices_used=used_devices,
        )
        result.metadata["idle_devices"] = machine.num_devices - used_devices
        return result

    # ------------------------------------------------------------------ #
    def run(self, a: np.ndarray, b: np.ndarray, num_procs: Optional[int] = None) -> np.ndarray:
        m, n, k = check_matmul_shapes(a.shape, b.shape)
        side = self._side(num_procs or 4)
        side = max(1, min(side, m, n, k))

        row_bounds = [block_bounds(m, side, i) for i in range(side)]
        col_bounds = [block_bounds(n, side, j) for j in range(side)]
        inner_bounds = [block_bounds(k, side, x) for x in range(side)]

        # Block views of the operands.
        a_blocks = [[a[row_bounds[i].as_slice(), inner_bounds[x].as_slice()]
                     for x in range(side)] for i in range(side)]
        b_blocks = [[b[inner_bounds[x].as_slice(), col_bounds[j].as_slice()]
                     for j in range(side)] for x in range(side)]
        c_blocks = [[np.zeros((row_bounds[i].extent, col_bounds[j].extent),
                              dtype=np.result_type(a, b))
                     for j in range(side)] for i in range(side)]

        # Initial skew: A row i rotated left by i, B column j rotated up by j.
        a_state = [[a_blocks[i][(x + i) % side] for x in range(side)] for i in range(side)]
        b_state = [[b_blocks[(x + j) % side][j] for j in range(side)] for x in range(side)]

        for _step in range(side):
            for i in range(side):
                for j in range(side):
                    c_blocks[i][j] += a_state[i][j] @ b_state[i][j]
            # Rotate A blocks left within each row, B blocks up within each column.
            a_state = [[a_state[i][(j + 1) % side] for j in range(side)] for i in range(side)]
            b_state = [[b_state[(i + 1) % side][j] for j in range(side)] for i in range(side)]

        return np.block(c_blocks)
