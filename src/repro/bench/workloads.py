"""Workload definitions: the matrix shapes the paper evaluates.

Section 5.2.1: the MLP block of a GPT-like transformer applies two linear
layers.  With hidden dimension ``h`` and expansion ratio ``r`` (the paper uses
``h = 12K`` and ``r = 4``):

* MLP-1:  ``m = batch size``, ``n = r*h = 48K``, ``k = h = 12K``
* MLP-2:  ``m = batch size``, ``n = h = 12K``, ``k = r*h = 48K``

Batch sizes swept: 1024, 2048, 4096, 8192.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.structure import (
    DENSE,
    BlockSparse,
    MoERagged,
    WorkloadStructure,
    structure_from_dict,
)
from repro.util.indexing import ceil_div
from repro.util.validation import check_positive_int, read_int

#: Schema version of :meth:`Workload.to_dict` payloads.  Version 2 added the
#: ``structure`` field (block-sparse / MoE-ragged workloads); version-1
#: payloads carry no structure and deserialize as dense.
WORKLOAD_SCHEMA_VERSION = 2

#: The paper's hidden dimension ("H=12K").
MLP_HIDDEN = 12 * 1024
#: The paper's MLP expansion ratio ("r is most commonly 4").
MLP_RATIO = 4
#: Batch sizes on the x-axis of Figures 2 and 3.
BATCH_SIZES: Tuple[int, ...] = (1024, 2048, 4096, 8192)


@dataclass(frozen=True)
class Workload:
    """One matrix-multiplication problem ``C[m,n] = A[m,k] @ B[k,n]``.

    ``m``/``n``/``k`` are the *envelope* dimensions; ``structure`` describes
    which parts of the envelope are live (dense by default, block-sparse
    weights, or an MoE-ragged batch).  The envelope drives partitioning and
    worst-case layout while the structure drives flops, traffic, and storage.
    """

    name: str
    m: int
    n: int
    k: int
    structure: WorkloadStructure = field(default=DENSE)

    def __post_init__(self) -> None:
        check_positive_int(self.m, "m")
        check_positive_int(self.n, "n")
        check_positive_int(self.k, "k")
        self.structure.validate(self.m, self.n, self.k)

    @property
    def flops(self) -> float:
        """Flops of the dense envelope (the structure-agnostic ceiling)."""
        return 2.0 * self.m * self.n * self.k

    @property
    def effective_flops(self) -> float:
        """Flops actually performed under the workload's structure."""
        return self.structure.effective_flops(self.m, self.n, self.k)

    @property
    def shapes(self) -> Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]:
        """(A shape, B shape, C shape)."""
        return ((self.m, self.k), (self.k, self.n), (self.m, self.n))

    def scaled(self, factor: float) -> "Workload":
        """Uniformly scaled copy (used by tests to shrink problems)."""
        if not self.structure.is_dense:
            raise ValueError(
                "scaled() only supports dense workloads: block masks and "
                "expert splits do not survive uniform dimension scaling"
            )
        return Workload(
            name=f"{self.name}_x{factor:g}",
            m=max(1, int(self.m * factor)),
            n=max(1, int(self.n * factor)),
            k=max(1, int(self.k * factor)),
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (used by the planner's persistent store)."""
        return {
            "schema": WORKLOAD_SCHEMA_VERSION,
            "name": self.name,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "structure": self.structure.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Workload":
        """Inverse of :meth:`to_dict` (schema-1 payloads deserialize as dense)."""
        return cls(
            name=str(payload["name"]),
            m=read_int(payload["m"], "m"),
            n=read_int(payload["n"], "n"),
            k=read_int(payload["k"], "k"),
            structure=structure_from_dict(payload.get("structure")),  # type: ignore[arg-type]
        )


def mlp1_workload(batch: int, hidden: int = MLP_HIDDEN, ratio: int = MLP_RATIO) -> Workload:
    """The first MLP multiply: expand the hidden dimension (m=batch, n=r*h, k=h)."""
    return Workload(name=f"mlp1_b{batch}", m=batch, n=ratio * hidden, k=hidden)


def mlp2_workload(batch: int, hidden: int = MLP_HIDDEN, ratio: int = MLP_RATIO) -> Workload:
    """The second MLP multiply: contract back to the hidden size (m=batch, n=h, k=r*h)."""
    return Workload(name=f"mlp2_b{batch}", m=batch, n=hidden, k=ratio * hidden)


def square_workload(size: int) -> Workload:
    """A square problem, used by the classical-baseline comparison (E9)."""
    return Workload(name=f"square_{size}", m=size, n=size, k=size)


def attention_workload(seq: int, head_dim: int = 128) -> Workload:
    """The QK^T score matmul of one attention head: ``S[s,s] = Q[s,d] @ K^T[d,s]``.

    Unlike the paper's MLP shapes this has a *tiny* inner dimension and a
    large square output, which stresses the outer-product end of the design
    space (C is by far the largest matrix and accumulation dominates).
    """
    return Workload(name=f"attn_s{seq}_d{head_dim}", m=seq, n=seq, k=head_dim)


def tall_skinny_workload(rows: int, inner: int = 256, cols: int = 256) -> Workload:
    """A tall-and-skinny problem: very tall A against a small square B.

    Typical of embedding projections and least-squares panels; only the m
    dimension offers parallelism, so row-style partitionings should win.
    """
    return Workload(name=f"tallskinny_{rows}x{inner}x{cols}", m=rows, n=cols, k=inner)


def rectangular_series(base: int = 4096,
                       aspects: Sequence[int] = (1, 2, 4, 8)) -> List[Workload]:
    """Constant-flops problems of increasing rectangularity.

    For aspect ``a`` the shape is ``m = base, n = base*a, k = base/a`` so every
    member performs the same ``2*base**3`` flops while the best partitioning
    family shifts as the problem elongates — a good planner stress series.
    """
    workloads = []
    for aspect in aspects:
        check_positive_int(aspect, "aspect")
        workloads.append(
            Workload(name=f"rect_{base}_a{aspect}", m=base, n=base * aspect,
                     k=max(1, base // aspect))
        )
    return workloads


def block_sparse_workload(
    m: int,
    n: int,
    k: int,
    density: float,
    block_k: int = 64,
    block_n: int = 64,
    seed: int = 0,
    name: Optional[str] = None,
) -> Workload:
    """A GEMM whose ``B`` operand is block-sparse at the given block density.

    The mask is drawn deterministically from ``seed`` with exactly
    ``ceil(density * blocks)`` live blocks, so benchmark grids and property
    tests are reproducible.  ``density=1.0`` yields an all-live mask — the
    structured pricing path, but bit-identical times to the dense envelope.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    k_blocks = ceil_div(k, block_k)
    n_blocks = ceil_div(n, block_n)
    total = k_blocks * n_blocks
    live = max(1, min(total, math.ceil(total * density)))
    rng = random.Random(seed)
    chosen = set(rng.sample(range(total), live))
    mask = tuple(
        tuple((row * n_blocks + col) in chosen for col in range(n_blocks))
        for row in range(k_blocks)
    )
    structure = BlockSparse(block_k=block_k, block_n=block_n, mask=mask)
    label = name or f"bsparse_{m}x{n}x{k}_d{density:g}_s{seed}"
    return Workload(name=label, m=m, n=n, k=k, structure=structure)


def moe_workload(
    num_experts: int,
    capacity: int,
    n: int,
    k: int,
    expert_tokens: Optional[Sequence[int]] = None,
    utilization: float = 0.5,
    seed: int = 0,
    name: Optional[str] = None,
) -> Workload:
    """An MoE-ragged batch: ``num_experts`` groups padded to ``capacity`` rows.

    Pass ``expert_tokens`` for an explicit routing outcome; otherwise a
    deterministic ragged split is drawn from ``seed`` targeting the given
    mean ``utilization`` (every expert in ``[0, capacity]``, at least one
    token overall).  The envelope is ``m = num_experts * capacity``.
    """
    check_positive_int(num_experts, "num_experts")
    check_positive_int(capacity, "capacity")
    if expert_tokens is None:
        if not 0.0 < utilization <= 1.0:
            raise ValueError(f"utilization must be in (0, 1], got {utilization}")
        rng = random.Random(seed)
        mean = utilization * capacity
        tokens = [
            min(capacity, max(0, int(round(rng.uniform(0.0, 2.0 * mean)))))
            for _ in range(num_experts)
        ]
        if sum(tokens) == 0:
            tokens[0] = max(1, int(round(mean)) or 1)
        expert_tokens = tokens
    structure = MoERagged(expert_tokens=tuple(int(t) for t in expert_tokens),
                          capacity=capacity)
    label = name or (f"moe_e{num_experts}_c{capacity}_{n}x{k}"
                     f"_t{structure.total_tokens}_s{seed}")
    return Workload(name=label, m=num_experts * capacity, n=n, k=k,
                    structure=structure)


def mlp1_series(batches: Tuple[int, ...] = BATCH_SIZES, hidden: int = MLP_HIDDEN,
                ratio: int = MLP_RATIO) -> List[Workload]:
    return [mlp1_workload(batch, hidden, ratio) for batch in batches]


def mlp2_series(batches: Tuple[int, ...] = BATCH_SIZES, hidden: int = MLP_HIDDEN,
                ratio: int = MLP_RATIO) -> List[Workload]:
    return [mlp2_workload(batch, hidden, ratio) for batch in batches]
