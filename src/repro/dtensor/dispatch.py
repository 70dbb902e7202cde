"""Sharded matmul dispatch with reshard fallback — the DTensor behaviour model.

DTensor supports only a handful of sharded matmul rules.  When the operands'
placements match a rule, the local matmul runs directly; when they do not,
one or both operands are *redistributed* to placements that do match, paying
the collective cost.  Finally, if the chosen rule produces a ``Partial``
output and the caller needs a concrete sharding (the paper issues a
``redistribute()`` to convert Partial to Shard), that reduction is charged
too.  The dispatcher below enumerates the candidate rules, prices each one
(reshards + local compute + epilogue) with the shared machine model, and
picks the cheapest — which is how the "prefers outer-product with accumulated
C" behaviour the paper observed emerges for large weight matrices.

Supported rules (1-D mesh, ``C[m,n] = A[m,k] @ B[k,n]``):

====  ==============  ==============  ================
rule  A placement      B placement      C placement
====  ==============  ==============  ================
R1    Shard(0)         Replicate        Shard(0)
R2    Replicate        Shard(1)         Shard(1)
R3    Shard(1)         Shard(0)         Partial
R4    Replicate        Replicate        Replicate
====  ==============  ==============  ================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.cost_model import CostModel
from repro.dtensor.device_mesh import DeviceMesh
from repro.dtensor.dtensor import DTensor, RedistributeCost
from repro.dtensor.placement import Partial, Placement, Replicate, Shard
from repro.util.validation import ShapeError, check_matmul_shapes


@dataclass(frozen=True)
class _Rule:
    name: str
    a_placement: Placement
    b_placement: Placement
    out_placement: Placement


_RULES: Tuple[_Rule, ...] = (
    _Rule("stationary_a_rows", Shard(0), Replicate(), Shard(0)),
    _Rule("stationary_b_cols", Replicate(), Shard(1), Shard(1)),
    _Rule("outer_product_partial", Shard(1), Shard(0), Partial()),
    _Rule("fully_replicated", Replicate(), Replicate(), Replicate()),
)


@dataclass
class MatmulPlan:
    """The dispatch decision for one DTensor matmul."""

    rule: str
    a_reshard: RedistributeCost
    b_reshard: RedistributeCost
    out_reshard: RedistributeCost
    out_placement: Placement
    local_gemm_time: float
    total_time: float
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def communication_time(self) -> float:
        return self.a_reshard.time + self.b_reshard.time + self.out_reshard.time

    @property
    def communication_bytes(self) -> int:
        return (
            self.a_reshard.bytes_moved
            + self.b_reshard.bytes_moved
            + self.out_reshard.bytes_moved
        )


def _local_gemm_time(
    cost_model: CostModel,
    mesh: DeviceMesh,
    m: int,
    n: int,
    k: int,
    rule: _Rule,
    itemsize: int,
) -> float:
    """Per-device GEMM time once operands are in the rule's placements."""
    size = mesh.size
    if rule.name == "stationary_a_rows":
        m = -(-m // size)
    elif rule.name == "stationary_b_cols":
        n = -(-n // size)
    elif rule.name == "outer_product_partial":
        k = -(-k // size)
    return float(cost_model.gemm_time(m, n, k, itemsize))


def plan_matmul(
    a: DTensor,
    b: DTensor,
    out_placement: Optional[Placement] = None,
    itemsize: Optional[int] = None,
) -> MatmulPlan:
    """Choose the cheapest rule (+ reshards) for multiplying two DTensors."""
    if a.mesh is not b.mesh and a.mesh.device_ranks != b.mesh.device_ranks:
        raise ShapeError("operands must live on the same device mesh")
    m, n, k = check_matmul_shapes(a.global_shape, b.global_shape)
    mesh = a.mesh
    cost_model = mesh.cost_model()
    itemsize = itemsize or a.dtype.itemsize

    best: Optional[MatmulPlan] = None
    for rule in _RULES:
        a_cost = a.redistribute_cost(rule.a_placement)
        b_cost = b.redistribute_cost(rule.b_placement)
        gemm = _local_gemm_time(cost_model, mesh, m, n, k, rule, itemsize)

        # Epilogue: if the rule leaves C Partial and the caller wants a
        # concrete placement, pay for the reduction, exactly as the paper's
        # benchmark does with redistribute() after torch.matmul().
        out_bytes = m * n * itemsize
        out_tensor = DTensor.symbolic(mesh, (m, n), rule.out_placement, a.dtype)
        if out_placement is not None and type(rule.out_placement) is not type(out_placement):
            out_cost = out_tensor.redistribute_cost(out_placement)
            final_placement = out_placement
        elif out_placement is None and isinstance(rule.out_placement, Partial):
            out_cost = out_tensor.redistribute_cost(Shard(0))
            final_placement = Shard(0)
        else:
            out_cost = RedistributeCost("none", 0.0, 0)
            final_placement = rule.out_placement

        total = a_cost.time + b_cost.time + gemm + out_cost.time
        plan = MatmulPlan(
            rule=rule.name,
            a_reshard=a_cost,
            b_reshard=b_cost,
            out_reshard=out_cost,
            out_placement=final_placement,
            local_gemm_time=gemm,
            total_time=total,
            metadata={"m": m, "n": n, "k": k, "out_bytes": out_bytes},
        )
        if best is None or plan.total_time < best.total_time:
            best = plan
    assert best is not None
    return best


def dtensor_matmul(
    a: DTensor,
    b: DTensor,
    out_placement: Optional[Placement] = None,
) -> Tuple[DTensor, MatmulPlan]:
    """Multiply two (materialized or symbolic) DTensors.

    Returns the result DTensor in the plan's final placement plus the plan
    itself (whose ``total_time`` is the modelled execution time).
    """
    plan = plan_matmul(a, b, out_placement)
    m, n, _ = plan.metadata["m"], plan.metadata["n"], plan.metadata["k"]

    if not (a.is_materialized and b.is_materialized):
        result = DTensor.symbolic(a.mesh, (m, n), plan.out_placement, a.dtype)
        return result, plan

    # Materialized path: actually reshard and compute, shard by shard.
    rule = next(r for r in _RULES if r.name == plan.rule)
    a_resharded, _ = a.redistribute(rule.a_placement)
    b_resharded, _ = b.redistribute(rule.b_placement)

    shards: Dict[int, np.ndarray] = {}
    for rank in a.mesh.device_ranks:
        shards[rank] = a_resharded.shard(rank) @ b_resharded.shard(rank)
    product = DTensor(a.mesh, (m, n), rule.out_placement, a.dtype, shards)
    if type(plan.out_placement) is not type(rule.out_placement):
        product, _ = product.redistribute(plan.out_placement)
    return product, plan


def simulate_dtensor_matmul(
    mesh: DeviceMesh,
    m: int,
    n: int,
    k: int,
    a_placement: Placement,
    b_placement: Placement,
    out_placement: Optional[Placement] = None,
    itemsize: int = 4,
) -> Dict[str, object]:
    """Benchmark-harness helper: modelled time and percent of peak for one sharding."""
    a = DTensor.symbolic(mesh, (m, k), a_placement, np.float32)
    b = DTensor.symbolic(mesh, (k, n), b_placement, np.float32)
    plan = plan_matmul(a, b, out_placement, itemsize=itemsize)
    cost_model = mesh.cost_model()
    flops = 2.0 * m * n * k
    return {
        "rule": plan.rule,
        "simulated_time_s": plan.total_time,
        "percent_of_peak": cost_model.percent_of_peak(flops, plan.total_time),
        "communication_time_s": plan.communication_time,
        "communication_bytes": plan.communication_bytes,
        "local_gemm_time_s": plan.local_gemm_time,
        "out_placement": str(plan.out_placement),
    }
