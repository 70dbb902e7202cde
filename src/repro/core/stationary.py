"""Data-movement strategy selection (Stationary A, B, or C).

The paper's algorithm first picks which matrix stays in place; the other one
or two matrices are communicated.  "It is usually optimal for the largest
matrix to remain stationary, although the optimal choice is straightforward
to verify empirically or via a cost model."  Both the size heuristic and the
cost-model selection are provided here.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.cost_model import CostModel
    from repro.core.structure import WorkloadStructure
    from repro.dist.matrix import DistributedMatrix


class Stationary(enum.Enum):
    """Which operand of ``C = A B`` remains in place."""

    A = "A"
    B = "B"
    C = "C"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"Stationary {self.value}"


def parse_stationary(value) -> Stationary:
    """Accept a :class:`Stationary`, or a string like ``"A"`` / ``"stationary_c"``."""
    if isinstance(value, Stationary):
        return value
    if isinstance(value, str):
        key = value.strip().upper().replace("STATIONARY", "").replace("_", "").replace("-", "")
        if key in ("A", "B", "C"):
            return Stationary[key]
    raise ValueError(f"cannot interpret {value!r} as a stationary strategy")


def choose_stationary_by_size(
    a: "DistributedMatrix", b: "DistributedMatrix", c: "DistributedMatrix"
) -> Stationary:
    """Heuristic from the paper: keep the largest matrix stationary.

    Ties are broken in favour of C (avoiding remote accumulation), then B,
    matching the preference order implied by the paper's discussion of
    accumulate overhead.
    """
    sizes = {
        Stationary.C: c.shape[0] * c.shape[1],
        Stationary.B: b.shape[0] * b.shape[1],
        Stationary.A: a.shape[0] * a.shape[1],
    }
    # max() keeps the first key on ties thanks to the ordering above.
    return max(sizes, key=lambda strategy: sizes[strategy])


def choose_stationary_by_cost(
    a: "DistributedMatrix",
    b: "DistributedMatrix",
    c: "DistributedMatrix",
    cost_model: "CostModel",
    structure: Optional["WorkloadStructure"] = None,
) -> Stationary:
    """Pick the strategy whose modelled execution time is lowest.

    Prices every strategy's ops and takes the balance-aware estimate; this
    is the "straightforward to verify ... via a cost model" path of the
    paper, and is also exposed separately through
    :func:`estimate_all_strategies` for benchmarks that want the full table.
    """
    estimates = estimate_all_strategies(a, b, c, cost_model, structure)
    return min(estimates, key=lambda strategy: estimates[strategy])


def estimate_all_strategies(
    a: "DistributedMatrix",
    b: "DistributedMatrix",
    c: "DistributedMatrix",
    cost_model: "CostModel",
    structure: Optional["WorkloadStructure"] = None,
) -> Dict[Stationary, float]:
    """Modelled execution time for each of the three data-movement strategies.

    One slicing table holds every strategy's ops, priced once.  A rank's
    estimate is optimistic and overlap-aware: at least the largest of its
    compute (GEMMs plus local accumulates), its fetches (the A and B *slices*
    of its remote ops) and its remote accumulates, plus the first op's fetch
    as the pipeline fill; each sum adds the ops in generation order.  A
    strategy's estimate is its slowest rank's.  Under a ``structure``, fully
    masked ops are dropped and GEMMs and accumulates are priced live; the
    fetch terms stay dense.
    """
    from repro.core.cost_model import tile_fetch_bytes
    from repro.core.slicing import OperandLayout, slice_table
    from repro.core.structure import ROLE_A, ROLE_B, resolve_structure

    structure = resolve_structure(structure)
    layouts = (OperandLayout(a), OperandLayout(b), OperandLayout(c))
    table = slice_table([layouts + (strategy,) for strategy in Stationary])
    itemsize = c.dtype.itemsize
    tile_bytes = (tile_fetch_bytes(a, ROLE_A, structure), tile_fetch_bytes(b, ROLE_B, structure))
    cols = cost_model.event_columns(table, [tile_bytes] * len(Stationary), itemsize, structure)
    priced = cost_model.price_rows(cols, itemsize, structure)
    rank, m, n, k = cols["rank"], cols["m"], cols["n"], cols["k"]
    fetch = (cost_model.transfer_time(cols["a_owner"], rank, m * k * itemsize)
             + cost_model.transfer_time(cols["b_owner"], rank, k * n * itemsize)).tolist()
    gemm, acc, c_remote = (column.tolist() for column in
                           (priced["gemm"], priced["acc"], cols["c_remote"]))
    p = a.runtime.num_ranks
    starts = np.searchsorted(cols["task"] * p + rank,
                             np.arange(len(Stationary) * p + 1)).tolist()
    slowest = [0.0] * len(Stationary)
    for group, (lo, hi) in enumerate(zip(starts, starts[1:])):
        if lo < hi:
            accs = list(zip(acc[lo:hi], c_remote[lo:hi]))
            compute = sum(gemm[lo:hi]) + sum(t for t, remote in accs if not remote)
            accumulate = sum(t for t, remote in accs if remote)
            estimate = max(compute, sum(fetch[lo:hi]), accumulate) + fetch[lo]
            slowest[group // p] = max(slowest[group // p], estimate)
    return dict(zip(Stationary, slowest))
