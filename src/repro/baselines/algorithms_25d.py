"""2.5D algorithm (Solomonik & Demmel): 2D grids replicated across ``c`` layers.

The ``p`` processes form ``c`` layers, each a ``sqrt(p/c) x sqrt(p/c)`` grid
holding a full copy of A and B (C is computed as partial sums).  Layer ``l``
executes ``1/c`` of the SUMMA panel updates, and the partial C blocks are then
reduced across layers.  With ``c = 1`` this is plain SUMMA/2D; with
``c = p^(1/3)`` it reaches the 2.5D communication lower bound.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.base import BaselineAlgorithm, BaselineResult
from repro.collectives.models import allreduce_time, broadcast_time
from repro.core.cost_model import CostModel
from repro.topology.machines import MachineSpec
from repro.util.indexing import block_bounds
from repro.util.validation import ReplicationError, check_matmul_shapes


class TwoAndHalfD(BaselineAlgorithm):
    """2.5D SUMMA with ``c`` replicated layers."""

    name = "2.5d"

    def __init__(self, replication: int = 2, overlap: bool = True) -> None:
        if replication < 1:
            raise ReplicationError(f"replication must be >= 1, got {replication}")
        self.replication = replication
        self.overlap = overlap

    def _layer_side(self, num_devices: int) -> int:
        if num_devices % self.replication != 0:
            raise ReplicationError(
                f"replication {self.replication} does not divide {num_devices} devices"
            )
        per_layer = num_devices // self.replication
        return max(1, int(math.isqrt(per_layer)))

    def _terms(self, m: int, n: int, k: int, machine: MachineSpec,
               itemsize: int) -> dict:
        """Per-step model terms: ``simulate`` reads them, and
        ``tests/baseline_oracle.py`` rebuilds the schedule from them."""
        p = machine.num_devices
        c = self.replication
        side = self._layer_side(p)
        cost_model = CostModel(machine)

        m_local = -(-m // side)
        n_local = -(-n // side)
        panel = max(1, -(-k // (side * c)))
        steps_per_layer = max(1, -(-k // panel) // c)

        row_group = list(range(side))
        a_panel_bytes = m_local * panel * itemsize
        b_panel_bytes = panel * n_local * itemsize
        comm_step = max(
            broadcast_time(machine, row_group, a_panel_bytes),
            broadcast_time(machine, row_group, b_panel_bytes),
        )
        gemm_step = float(cost_model.gemm_time(m_local, n_local, panel, itemsize))

        reduce_bytes = m_local * n_local * itemsize
        layer_peers = list(range(0, p, side * side))[:c] if c > 1 else [0]
        reduce_total = allreduce_time(machine, layer_peers, reduce_bytes) if c > 1 else 0.0
        return dict(p=p, c=c, side=side, steps_per_layer=steps_per_layer,
                    a_panel_bytes=a_panel_bytes, b_panel_bytes=b_panel_bytes,
                    comm_step=comm_step, gemm_step=gemm_step,
                    reduce_bytes=reduce_bytes, reduce_total=reduce_total)

    # ------------------------------------------------------------------ #
    def simulate(self, m: int, n: int, k: int, machine: MachineSpec,
                 itemsize: int = 4) -> BaselineResult:
        t = self._terms(m, n, k, machine, itemsize)
        c, side, steps_per_layer = t["c"], t["side"], t["steps_per_layer"]
        per_step = self._combine(t["gemm_step"], t["comm_step"])
        layer_total = per_step * steps_per_layer

        total = layer_total + t["reduce_total"]
        # Ring all-reduce across the c layers moves ~2 (c-1)/c of the block per rank.
        reduce_traffic_per_rank = 2.0 * (c - 1) / c * t["reduce_bytes"] if c > 1 else 0.0
        return self._result(
            machine, m, n, k,
            compute_time=t["gemm_step"] * steps_per_layer,
            communication_time=t["comm_step"] * steps_per_layer + t["reduce_total"],
            total_time=total,
            communication_bytes=int(
                (t["a_panel_bytes"] + t["b_panel_bytes"]) * steps_per_layer * t["p"]
                + reduce_traffic_per_rank * t["p"]
            ),
            replication=c,
            layer_grid=f"{side}x{side}",
            steps_per_layer=steps_per_layer,
            devices_used=side * side * c,
        )

    # ------------------------------------------------------------------ #
    def run(self, a: np.ndarray, b: np.ndarray, num_procs: Optional[int] = None) -> np.ndarray:
        m, n, k = check_matmul_shapes(a.shape, b.shape)
        p = num_procs or 8
        c = min(self.replication, p)
        while p % c != 0:
            c -= 1
        side = max(1, int(math.isqrt(p // c)))
        side = max(1, min(side, m, n))

        row_bounds = [block_bounds(m, side, i) for i in range(side)]
        col_bounds = [block_bounds(n, side, j) for j in range(side)]
        k_layers = [block_bounds(k, c, layer) for layer in range(c)]

        partial_layers = []
        for layer in range(c):
            k_slice = k_layers[layer].as_slice()
            blocks = [
                [
                    a[row_bounds[i].as_slice(), k_slice] @ b[k_slice, col_bounds[j].as_slice()]
                    for j in range(side)
                ]
                for i in range(side)
            ]
            partial_layers.append(np.block(blocks))
        return np.sum(partial_layers, axis=0)
