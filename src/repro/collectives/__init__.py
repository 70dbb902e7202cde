"""Collective communication: closed-form ring-algorithm time models.

The universal algorithm itself needs only one-sided primitives, but its
comparators do not: PyTorch DTensor dispatches to collective-based matmul
rules (all-gather / all-reduce / reduce-scatter), and the classical baselines
(SUMMA, 2.5D, 1.5D, COSMA) are formulated with broadcasts and reductions.
:mod:`repro.collectives.models` prices those collectives with ring-algorithm
formulas on the same machine model (:mod:`repro.topology`) as everything
else; nothing here moves data.
"""

from repro.collectives.models import (
    allgather_time,
    allreduce_time,
    alltoall_time,
    broadcast_time,
    reduce_scatter_time,
)

__all__ = [
    "allgather_time",
    "allreduce_time",
    "alltoall_time",
    "broadcast_time",
    "reduce_scatter_time",
]
