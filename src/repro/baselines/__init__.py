"""Classical distributed matrix-multiplication baselines.

The paper positions the universal algorithm against the existing zoo of
algorithms — 1D, 2D (Cannon, SUMMA), 1.5D, and 2.5D variants — and compares
experimentally against PyTorch DTensor and COSMA.  This package implements
those classical algorithms over the same machine model so that benchmarks can
place the universal algorithm in context (experiment E9 in DESIGN.md) and so
the COSMA-style selector is available as a baseline for Figure 3.

Every algorithm provides

* ``simulate(m, n, k, machine)`` — the one analytic execution-time model, at
  any scale (the test oracle ``tests/baseline_oracle.py`` emits the same
  schedule through the event engine and the property suite holds them equal),
* ``run(a, b)`` — a real (NumPy) execution of the algorithm's communication
  schedule at small scale, used by the correctness tests.
"""

from repro.baselines.base import BaselineAlgorithm, BaselineResult
from repro.baselines.one_d import OneDRing
from repro.baselines.summa import Summa
from repro.baselines.cannon import Cannon
from repro.baselines.algorithms_15d import OneAndHalfD
from repro.baselines.algorithms_25d import TwoAndHalfD
from repro.baselines.cosma import CosmaLike, CosmaDecomposition, select_cosma_decomposition

__all__ = [
    "BaselineAlgorithm",
    "BaselineResult",
    "OneDRing",
    "Summa",
    "Cannon",
    "OneAndHalfD",
    "TwoAndHalfD",
    "CosmaLike",
    "CosmaDecomposition",
    "select_cosma_decomposition",
]
