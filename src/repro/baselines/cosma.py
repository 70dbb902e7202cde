"""COSMA-style baseline: communication-optimal decomposition selection.

COSMA (Kwasniewski et al., SC'19) chooses, for a given problem size, process
count, and memory budget, a 3-D decomposition ``(pm, pn, pk)`` of the
iteration space that minimises communication volume — automatically scaling
between 2D (``pk = 1``, no replication) and 2.5D (``pk > 1``) regimes.  The
paper uses COSMA (with its NCCL backend, overlap disabled, unlimited memory)
as an additional baseline on the H100 system.

This module implements

* :func:`select_cosma_decomposition` — enumerate all factorisations of ``p``
  into ``pm * pn * pk``, discard those exceeding the memory budget, and keep
  the one with the smallest per-rank communication volume, and
* :class:`CosmaLike` — a baseline algorithm that executes/simulates the
  chosen decomposition (SUMMA-style within each of the ``pk`` layers followed
  by an all-reduce of the partial C across layers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.base import BaselineAlgorithm, BaselineResult
from repro.collectives.models import allreduce_time, broadcast_time
from repro.core.cost_model import CostModel
from repro.topology.machines import MachineSpec
from repro.util.indexing import block_bounds
from repro.util.validation import check_matmul_shapes


@dataclass(frozen=True)
class CosmaDecomposition:
    """A 3-D split of the iteration space over ``pm * pn * pk`` processes."""

    pm: int
    pn: int
    pk: int

    @property
    def processes(self) -> int:
        return self.pm * self.pn * self.pk

    def local_shapes(self, m: int, n: int, k: int) -> Tuple[Tuple[int, int], ...]:
        """Per-rank shapes of the A panel, B panel, and C block."""
        m_local = -(-m // self.pm)
        n_local = -(-n // self.pn)
        k_local = -(-k // self.pk)
        return ((m_local, k_local), (k_local, n_local), (m_local, n_local))

    def memory_elements(self, m: int, n: int, k: int) -> int:
        """Elements a single rank must hold (A + B panels plus its C block)."""
        (am, ak), (bk, bn), (cm, cn) = self.local_shapes(m, n, k)
        return am * ak + bk * bn + cm * cn

    def communication_elements(self, m: int, n: int, k: int) -> float:
        """Per-rank communication volume in elements (gather A, gather B, reduce C)."""
        (am, ak), (bk, bn), (cm, cn) = self.local_shapes(m, n, k)
        a_fetch = am * ak * (self.pn - 1) / self.pn
        b_fetch = bk * bn * (self.pm - 1) / self.pm
        c_reduce = 2.0 * cm * cn * (self.pk - 1) / self.pk
        return a_fetch + b_fetch + c_reduce


def _factor_triples(count: int) -> List[Tuple[int, int, int]]:
    triples = []
    for pm in range(1, count + 1):
        if count % pm:
            continue
        rest = count // pm
        for pn in range(1, rest + 1):
            if rest % pn:
                continue
            triples.append((pm, pn, rest // pn))
    return triples


def select_cosma_decomposition(
    m: int,
    n: int,
    k: int,
    num_devices: int,
    memory_budget_bytes: Optional[float] = None,
    itemsize: int = 4,
) -> CosmaDecomposition:
    """Pick the factorisation of ``num_devices`` minimising communication volume.

    ``memory_budget_bytes`` is the per-device limit; ``None`` reproduces the
    paper's "unlimited memory budget" setting.  Ties favour less replication
    (smaller ``pk``), then squarer 2-D grids.
    """
    best: Optional[CosmaDecomposition] = None
    best_key: Optional[Tuple[float, int, int]] = None
    for pm, pn, pk in _factor_triples(num_devices):
        decomposition = CosmaDecomposition(pm, pn, pk)
        if memory_budget_bytes is not None:
            footprint = decomposition.memory_elements(m, n, k) * itemsize
            if footprint > memory_budget_bytes:
                continue
        volume = decomposition.communication_elements(m, n, k)
        squareness = abs(pm - pn)
        key = (volume, pk, squareness)
        if best_key is None or key < best_key:
            best_key = key
            best = decomposition
    if best is None:
        raise ValueError(
            "no COSMA decomposition fits the memory budget "
            f"({memory_budget_bytes} bytes per device)"
        )
    return best


class CosmaLike(BaselineAlgorithm):
    """Execute the COSMA-selected decomposition (SUMMA within layers + C all-reduce)."""

    name = "cosma"

    def __init__(
        self,
        memory_budget_bytes: Optional[float] = None,
        overlap: bool = False,
    ) -> None:
        # The paper reports COSMA numbers with communication/computation
        # overlap turned *off* (they measured that to be faster), so the
        # default here is no overlap.
        self.memory_budget_bytes = memory_budget_bytes
        self.overlap = overlap

    def _terms(self, m: int, n: int, k: int, machine: MachineSpec,
               itemsize: int) -> dict:
        """Per-step model terms: ``simulate`` reads them, and
        ``tests/baseline_oracle.py`` rebuilds the schedule from them."""
        decomposition = select_cosma_decomposition(
            m, n, k, machine.num_devices, self.memory_budget_bytes, itemsize
        )
        pm, pn, pk = decomposition.pm, decomposition.pn, decomposition.pk
        cost_model = CostModel(machine)
        (am, ak), (bk, bn), (cm, cn) = decomposition.local_shapes(m, n, k)

        panel = max(1, -(-ak // max(pm, pn)))
        steps = -(-ak // panel)
        row_group = list(range(pn)) if pn > 1 else [0]
        col_group = list(range(pm)) if pm > 1 else [0]
        comm_step = (
            broadcast_time(machine, row_group, am * panel * itemsize)
            + broadcast_time(machine, col_group, panel * bn * itemsize)
        )
        gemm_step = float(cost_model.gemm_time(am, bn, panel, itemsize))

        layer_peers = list(range(pk)) if pk > 1 else [0]
        reduce_total = (
            allreduce_time(machine, layer_peers, cm * cn * itemsize) if pk > 1 else 0.0
        )
        return dict(decomposition=decomposition, steps=steps, comm_step=comm_step,
                    gemm_step=gemm_step, reduce_total=reduce_total)

    # ------------------------------------------------------------------ #
    def simulate(self, m: int, n: int, k: int, machine: MachineSpec,
                 itemsize: int = 4) -> BaselineResult:
        t = self._terms(m, n, k, machine, itemsize)
        decomposition, steps = t["decomposition"], t["steps"]
        per_step = self._combine(t["gemm_step"], t["comm_step"])
        layer_total = per_step * steps

        total = layer_total + t["reduce_total"]
        comm_bytes = int(
            decomposition.communication_elements(m, n, k) * itemsize * machine.num_devices
        )
        return self._result(
            machine, m, n, k,
            compute_time=t["gemm_step"] * steps,
            communication_time=t["comm_step"] * steps + t["reduce_total"],
            total_time=total,
            communication_bytes=comm_bytes,
            decomposition=f"{decomposition.pm}x{decomposition.pn}x{decomposition.pk}",
            steps=steps,
        )

    # ------------------------------------------------------------------ #
    def run(self, a: np.ndarray, b: np.ndarray, num_procs: Optional[int] = None) -> np.ndarray:
        m, n, k = check_matmul_shapes(a.shape, b.shape)
        p = num_procs or 8
        decomposition = select_cosma_decomposition(
            m, n, k, p, self.memory_budget_bytes, a.dtype.itemsize
        )
        pm = min(decomposition.pm, m)
        pn = min(decomposition.pn, n)
        pk = min(decomposition.pk, k)

        row_bounds = [block_bounds(m, pm, i) for i in range(pm)]
        col_bounds = [block_bounds(n, pn, j) for j in range(pn)]
        k_bounds = [block_bounds(k, pk, layer) for layer in range(pk)]

        partials = []
        for layer in range(pk):
            k_slice = k_bounds[layer].as_slice()
            blocks = [
                [
                    a[row_bounds[i].as_slice(), k_slice] @ b[k_slice, col_bounds[j].as_slice()]
                    for j in range(pn)
                ]
                for i in range(pm)
            ]
            partials.append(np.block(blocks))
        return np.sum(partials, axis=0)
