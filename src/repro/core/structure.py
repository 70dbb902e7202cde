"""Structured-sparsity descriptions of matmul workloads.

The planner's original cost surface assumed every workload was a dense GEMM:
all of ``A``, ``B``, and ``C`` carry useful data everywhere, so flops, tile
footprints, and traffic all scale with the envelope shape ``m x n x k``.
Block-sparse weights and MoE-style ragged batches break that assumption — the
dominant non-dense serving workloads do strictly *less* work than their dense
envelope, and where that work sits determines which partitioning wins.

A :class:`WorkloadStructure` describes which parts of the envelope are live:

* :class:`Dense` — everything is live (the historical behaviour, and the
  default on every :class:`~repro.bench.workloads.Workload`);
* :class:`BlockSparse` — ``B`` (the weights) is stored as a block grid over
  ``(k, n)`` with an explicit live/zero mask; masked blocks are neither
  stored, fetched, nor multiplied;
* :class:`MoERagged` — the ``m`` dimension is the concatenation of per-expert
  token groups padded to a uniform ``capacity`` (the dense envelope is
  ``num_experts * capacity`` rows); padding rows of ``A``/``C`` are skipped.

Every consumer asks the same three questions, all answered in *global*
coordinates of the envelope so ops and tiles can be priced uniformly:

* ``live_fraction(role, rows, cols)`` — what fraction of a rectangle of
  ``A``/``B``/``C`` is live (scales fetch and accumulate traffic);
* ``flops_fraction(m_bound, k_bound, n_bound)`` — what fraction of a
  cuboid's elementary products are computed (scales GEMM work);
* ``storage_bytes(role, rows, cols, itemsize)`` — how many bytes a matrix
  actually occupies (block formats store whole live blocks, ragged batches
  store live rows), used by the planner's memory-feasibility check.

Structure only changes the *time* model: structured execution is
simulate-only (the data path keeps its dense bit-exactness guarantees), and a
dense structure is gated to fall through to the exact pre-existing arithmetic
so committed benchmark snapshots reproduce with 0.0 drift.

The admissibility story carries over unchanged: every structured duration is
the dense duration scaled by a fraction in ``[0, 1]`` computed once and used
identically by the executor's event stream and by both planner lower bounds,
so "bound never exceeds simulated time" is preserved on sparse inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.util.indexing import Interval, ceil_div
from repro.util.validation import read_int

#: Operand roles, matching the labels used throughout the executors.
ROLE_A = "A"
ROLE_B = "B"
ROLE_C = "C"
_ROLES = (ROLE_A, ROLE_B, ROLE_C)


class WorkloadStructure:
    """Base class: a description of which parts of the envelope are live.

    Subclasses must be immutable and hashable (frozen dataclasses with tuple
    fields): structures are embedded in frozen :class:`Workload` and
    :class:`~repro.planner.signature.ProblemSignature` instances and used as
    cache-key components.
    """

    #: Stable kind tag used by serialization and signature tokens.
    kind: str = "abstract"

    # ------------------------------------------------------------------ #
    # live geometry
    # ------------------------------------------------------------------ #
    @property
    def is_dense(self) -> bool:
        return False

    def live_fraction(self, role: str, rows: Interval, cols: Interval) -> float:
        """Fraction of ``role``'s global rectangle that carries live data."""
        raise NotImplementedError

    def flops_fraction(self, m_bound: Interval, k_bound: Interval,
                       n_bound: Interval) -> float:
        """Fraction of the cuboid's elementary products actually computed."""
        raise NotImplementedError

    def op_fractions(self, m_bound: Interval, k_bound: Interval,
                     n_bound: Interval) -> Tuple[float, float, float, float]:
        """``(flops, a, b, c)`` live fractions of one op's cuboid, in one pass.

        This is the pricing hot path: the planner evaluates it per op per
        candidate per bound, so subclasses scan their mask/raggedness
        geometry exactly once and derive all four fractions from it.
        """
        return (
            self.flops_fraction(m_bound, k_bound, n_bound),
            self.live_fraction(ROLE_A, m_bound, k_bound),
            self.live_fraction(ROLE_B, k_bound, n_bound),
            self.live_fraction(ROLE_C, m_bound, n_bound),
        )

    def gemm_dims(self, m_bound: Interval, k_bound: Interval, n_bound: Interval,
                  flops_fraction: float) -> Tuple[float, float, float]:
        """Effective (m, n, k) of the op's live GEMM, for shape efficiency.

        Defaults to the envelope extents; structures that shrink a dimension
        (ragged rows) return the live extent so the shape model sees the
        smaller — less efficient — multiply that really runs.
        ``flops_fraction`` is the already-computed op fraction, so no
        structure needs a second geometry scan here.
        """
        del flops_fraction
        return (float(m_bound.extent), float(n_bound.extent), float(k_bound.extent))

    def effective_flops(self, m: int, n: int, k: int) -> float:
        """Total live flops of the whole problem (drives percent-of-peak)."""
        raise NotImplementedError

    def storage_bytes(self, role: str, rows: int, cols: int, itemsize: int) -> int:
        """Bytes one replica of ``role`` actually stores under this structure."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # envelope consistency / serialization / cache identity
    # ------------------------------------------------------------------ #
    def validate(self, m: int, n: int, k: int) -> None:
        """Raise ``ValueError`` unless this structure fits the envelope."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        raise NotImplementedError

    def signature_token(self) -> str:
        """Stable short string identifying this structure in cache keys."""
        raise NotImplementedError

    def bucket_envelope(self, m: int, n: int, k: int,
                        ratio: Optional[float]) -> Tuple[int, int, int, "WorkloadStructure"]:
        """Snap this structure (and the already-bucketed envelope) to its bucket corner.

        Returns ``(m, n, k, structure)`` for the bucket's canonical
        representative.  The corner must *dominate* every member of its
        bucket — at least as many live blocks/tokens, at least as large an
        envelope — so a plan computed (and memory-checked) for the corner
        stays feasible for every request that maps to the bucket.
        """
        raise NotImplementedError


def geometric_bucket(value: int, ratio: Optional[float]) -> int:
    """Snap a positive count to its geometric bucket's *upper corner*.

    Bucket ``i`` covers ``(ratio**(i-1/2), ratio**(i+1/2)]`` and the label is
    the largest value any member can have, so the corner never undercuts the
    value — which is what lets corner plans dominate their bucket members.
    The single rounding rule for every bucketed quantity: problem dimensions
    (:func:`repro.planner.signature.bucket_dim` delegates here), live block
    counts, expert capacities, and routed-token totals.  ``ratio <= 1`` (or
    ``None``) disables bucketing and returns the exact value.
    """
    if value < 1:
        raise ValueError(f"value must be positive, got {value}")
    if ratio is None or ratio <= 1.0:
        return int(value)
    index = round(math.log(value) / math.log(ratio))
    return max(int(value), int(math.ceil(ratio ** (index + 0.5))))


def _check_role(role: str) -> None:
    if role not in _ROLES:
        raise ValueError(f"unknown operand role {role!r}; expected one of {_ROLES}")


# ---------------------------------------------------------------------- #
# dense
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Dense(WorkloadStructure):
    """The historical default: every element of every operand is live."""

    kind = "dense"

    @property
    def is_dense(self) -> bool:
        return True

    def live_fraction(self, role: str, rows: Interval, cols: Interval) -> float:
        _check_role(role)
        return 1.0

    def flops_fraction(self, m_bound: Interval, k_bound: Interval,
                       n_bound: Interval) -> float:
        return 1.0

    def effective_flops(self, m: int, n: int, k: int) -> float:
        return 2.0 * m * n * k

    def storage_bytes(self, role: str, rows: int, cols: int, itemsize: int) -> int:
        _check_role(role)
        return rows * cols * itemsize

    def validate(self, m: int, n: int, k: int) -> None:
        return None

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind}

    def signature_token(self) -> str:
        return "dense"

    def bucket_envelope(self, m: int, n: int, k: int,
                        ratio: Optional[float]) -> Tuple[int, int, int, "WorkloadStructure"]:
        return m, n, k, self


#: The shared dense instance used as every Workload's default structure.
DENSE = Dense()


# ---------------------------------------------------------------------- #
# block-sparse weights
# ---------------------------------------------------------------------- #
def _interval_block_overlaps(bound: Interval, block: int, count: int):
    """Yield ``(index, overlap_extent)`` for grid blocks intersecting ``bound``."""
    if bound.extent <= 0:
        return
    first = bound.start // block
    last = min(count - 1, (bound.stop - 1) // block)
    for idx in range(first, last + 1):
        lo = max(bound.start, idx * block)
        hi = min(bound.stop, (idx + 1) * block)
        if hi > lo:
            yield idx, hi - lo


def even_spread_mask(k_blocks: int, n_blocks: int, live: int) -> Tuple[Tuple[bool, ...], ...]:
    """A deterministic mask with exactly ``live`` live blocks spread evenly.

    Used for bucket representatives: two requests whose masks share a live
    count bucket must canonicalize to the *same* mask, so cache identity
    cannot depend on the (arbitrary) original pattern.
    """
    total = k_blocks * n_blocks
    if not 1 <= live <= total:
        raise ValueError(f"live block count must be in [1, {total}], got {live}")
    chosen = {(index * total) // live for index in range(live)}
    flat = [cell in chosen for cell in range(total)]
    return tuple(
        tuple(flat[row * n_blocks:(row + 1) * n_blocks]) for row in range(k_blocks)
    )


@dataclass(frozen=True)
class BlockSparse(WorkloadStructure):
    """``B`` is block-sparse over a ``(k, n)`` block grid.

    ``mask[i][j]`` says whether block row ``i`` (inner-dimension range
    ``[i*block_k, (i+1)*block_k)``) and block column ``j`` (output-column
    range ``[j*block_n, (j+1)*block_n)``) holds a live block.  Masked blocks
    are not stored, never fetched, and contribute no flops; ``A`` and ``C``
    stay dense (activations and output), which keeps every structured
    duration at or below its dense counterpart.
    """

    kind = "block_sparse"

    block_k: int
    block_n: int
    #: ``mask[k_block][n_block]`` — True where the block is live.
    mask: Tuple[Tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        if self.block_k < 1 or self.block_n < 1:
            raise ValueError("block sizes must be positive, got "
                             f"{self.block_k}x{self.block_n}")
        if not self.mask or not self.mask[0]:
            raise ValueError("mask must be a non-empty 2-D grid")
        width = len(self.mask[0])
        if any(len(row) != width for row in self.mask):
            raise ValueError("mask rows must all have the same length")
        if not any(any(row) for row in self.mask):
            raise ValueError("mask must have at least one live block")

    # -- derived geometry ------------------------------------------------ #
    @property
    def k_blocks(self) -> int:
        return len(self.mask)

    @property
    def n_blocks(self) -> int:
        return len(self.mask[0])

    @property
    def live_blocks(self) -> int:
        return sum(sum(1 for live in row if live) for row in self.mask)

    @property
    def density(self) -> float:
        """Live fraction of the block grid (the headline sparsity number)."""
        return self.live_blocks / (self.k_blocks * self.n_blocks)

    # -- structure API --------------------------------------------------- #
    def live_fraction(self, role: str, rows: Interval, cols: Interval) -> float:
        _check_role(role)
        if role != ROLE_B:
            return 1.0
        area = rows.extent * cols.extent
        if area <= 0:
            return 0.0
        live = 0
        for k_idx, k_extent in _interval_block_overlaps(rows, self.block_k, self.k_blocks):
            row_mask = self.mask[k_idx]
            for n_idx, n_extent in _interval_block_overlaps(cols, self.block_n, self.n_blocks):
                if row_mask[n_idx]:
                    live += k_extent * n_extent
        return live / area

    def flops_fraction(self, m_bound: Interval, k_bound: Interval,
                       n_bound: Interval) -> float:
        # A product A[i, l] * B[l, j] survives iff B's (l, j) block is live.
        return self.live_fraction(ROLE_B, k_bound, n_bound)

    def op_fractions(self, m_bound: Interval, k_bound: Interval,
                     n_bound: Interval) -> Tuple[float, float, float, float]:
        b_fraction = self.live_fraction(ROLE_B, k_bound, n_bound)
        return (b_fraction, 1.0, b_fraction, 1.0)

    def effective_flops(self, m: int, n: int, k: int) -> float:
        return 2.0 * m * self.live_fraction(ROLE_B, Interval(0, k), Interval(0, n)) * k * n

    def storage_bytes(self, role: str, rows: int, cols: int, itemsize: int) -> int:
        _check_role(role)
        if role != ROLE_B:
            return rows * cols * itemsize
        # Blocked sparse formats store whole live blocks (padding included):
        # counting full blocks keeps the bucket corner's footprint an upper
        # bound for every member mask, clipped or not.
        return min(rows * cols, self.live_blocks * self.block_k * self.block_n) * itemsize

    def validate(self, m: int, n: int, k: int) -> None:
        if self.k_blocks != ceil_div(k, self.block_k):
            raise ValueError(
                f"mask has {self.k_blocks} block rows but k={k} with "
                f"block_k={self.block_k} needs {ceil_div(k, self.block_k)}"
            )
        if self.n_blocks != ceil_div(n, self.block_n):
            raise ValueError(
                f"mask has {self.n_blocks} block columns but n={n} with "
                f"block_n={self.block_n} needs {ceil_div(n, self.block_n)}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "block_k": self.block_k,
            "block_n": self.block_n,
            "mask": ["".join("1" if live else "0" for live in row) for row in self.mask],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "BlockSparse":
        rows = payload["mask"]
        return cls(
            block_k=read_int(payload["block_k"], "block_k"),
            block_n=read_int(payload["block_n"], "block_n"),
            mask=tuple(tuple(ch == "1" for ch in str(row)) for row in rows),  # type: ignore[union-attr]
        )

    def signature_token(self) -> str:
        bits = "".join("1" if live else "0" for row in self.mask for live in row)
        digest = hashlib.sha1(bits.encode("ascii")).hexdigest()[:10]
        return (f"bs:{self.k_blocks}x{self.n_blocks}:{self.block_k}x{self.block_n}"
                f":l{self.live_blocks}:{digest}")

    def bucket_envelope(self, m: int, n: int, k: int,
                        ratio: Optional[float]) -> Tuple[int, int, int, "WorkloadStructure"]:
        if ratio is None or ratio <= 1.0:
            # Bucketing disabled: exact-match serving keeps the exact mask.
            return m, n, k, self
        # Keep the member's block sizes (they are format constants like 128),
        # re-derive the grid for the bucketed envelope, and snap the live
        # count to its bucket corner; the canonical even-spread mask makes
        # every member of the bucket map to the identical representative.
        k_blocks = ceil_div(k, self.block_k)
        n_blocks = ceil_div(n, self.block_n)
        live = min(k_blocks * n_blocks, geometric_bucket(self.live_blocks, ratio))
        corner = BlockSparse(block_k=self.block_k, block_n=self.block_n,
                             mask=even_spread_mask(k_blocks, n_blocks, live))
        return m, n, k, corner


# ---------------------------------------------------------------------- #
# MoE-ragged batches
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class MoERagged(WorkloadStructure):
    """The ``m`` dimension is a ragged batch of per-expert token groups.

    Expert ``e`` owns rows ``[e*capacity, (e+1)*capacity)`` of the envelope
    and fills only the first ``expert_tokens[e]`` of them; the rest is
    padding that is neither fetched, multiplied, nor accumulated.  ``B`` (the
    expert weights at a common shape) stays dense.  The envelope is
    ``m = num_experts * capacity`` — exactly the shape a capacity-factor MoE
    dispatch pads to — so the dense envelope is also the cost ceiling.
    """

    kind = "moe_ragged"

    #: Tokens routed to each expert (``0 <= tokens <= capacity``).
    expert_tokens: Tuple[int, ...]
    #: Padded rows per expert in the envelope.
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if not self.expert_tokens:
            raise ValueError("expert_tokens must name at least one expert")
        for expert, tokens in enumerate(self.expert_tokens):
            if not 0 <= tokens <= self.capacity:
                raise ValueError(
                    f"expert {expert} has {tokens} tokens, outside "
                    f"[0, capacity={self.capacity}]"
                )
        if self.total_tokens < 1:
            raise ValueError("at least one token must be routed to some expert")

    # -- derived geometry ------------------------------------------------ #
    @property
    def num_experts(self) -> int:
        return len(self.expert_tokens)

    @property
    def total_tokens(self) -> int:
        return sum(self.expert_tokens)

    @property
    def utilization(self) -> float:
        """Live fraction of the padded batch (the headline raggedness number)."""
        return self.total_tokens / (self.num_experts * self.capacity)

    def _live_rows(self, rows: Interval) -> int:
        if rows.extent <= 0:
            return 0
        live = 0
        first = rows.start // self.capacity
        last = min(self.num_experts - 1, (rows.stop - 1) // self.capacity)
        for expert in range(first, last + 1):
            lo = max(rows.start, expert * self.capacity)
            hi = min(rows.stop, expert * self.capacity + self.expert_tokens[expert])
            if hi > lo:
                live += hi - lo
        return live

    # -- structure API --------------------------------------------------- #
    def live_fraction(self, role: str, rows: Interval, cols: Interval) -> float:
        _check_role(role)
        if role == ROLE_B:
            return 1.0
        if rows.extent <= 0:
            return 0.0
        return self._live_rows(rows) / rows.extent

    def flops_fraction(self, m_bound: Interval, k_bound: Interval,
                       n_bound: Interval) -> float:
        # Only live token rows produce elementary products.
        return self.live_fraction(ROLE_A, m_bound, k_bound)

    def op_fractions(self, m_bound: Interval, k_bound: Interval,
                     n_bound: Interval) -> Tuple[float, float, float, float]:
        row_fraction = self.live_fraction(ROLE_A, m_bound, k_bound)
        return (row_fraction, row_fraction, 1.0, row_fraction)

    def gemm_dims(self, m_bound: Interval, k_bound: Interval, n_bound: Interval,
                  flops_fraction: float) -> Tuple[float, float, float]:
        # The live GEMM really runs with the smaller ragged m; surfacing it
        # to the shape model prices the efficiency loss of skinny expert
        # batches (still strictly below the dense envelope: flops shrink
        # linearly while the m efficiency factor shrinks sublinearly).
        return (flops_fraction * m_bound.extent, float(n_bound.extent),
                float(k_bound.extent))

    def effective_flops(self, m: int, n: int, k: int) -> float:
        return 2.0 * self.total_tokens * n * k

    def storage_bytes(self, role: str, rows: int, cols: int, itemsize: int) -> int:
        _check_role(role)
        if role == ROLE_B:
            return rows * cols * itemsize
        # A and C store live token rows only.
        return min(rows, self.total_tokens) * cols * itemsize

    def validate(self, m: int, n: int, k: int) -> None:
        envelope = self.num_experts * self.capacity
        if m != envelope:
            raise ValueError(
                f"MoE envelope mismatch: m={m} but {self.num_experts} experts "
                f"x capacity {self.capacity} = {envelope}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "expert_tokens": list(self.expert_tokens),
            "capacity": self.capacity,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MoERagged":
        return cls(
            expert_tokens=tuple(read_int(t, "expert_tokens")
                                for t in payload["expert_tokens"]),  # type: ignore[union-attr]
            capacity=read_int(payload["capacity"], "capacity"),
        )

    def signature_token(self) -> str:
        blob = ",".join(str(t) for t in self.expert_tokens)
        digest = hashlib.sha1(blob.encode("ascii")).hexdigest()[:10]
        return f"moe:e{self.num_experts}:c{self.capacity}:t{self.total_tokens}:{digest}"

    def bucket_envelope(self, m: int, n: int, k: int,
                        ratio: Optional[float]) -> Tuple[int, int, int, "WorkloadStructure"]:
        # The envelope's m must stay expert-aligned, so bucket the capacity
        # (not m directly) and re-derive m; total routed tokens bucket to
        # their corner and are spread evenly — the balanced corner dominates
        # every ragged member (more tokens, larger capacity) so corner plans
        # stay memory-feasible for the whole bucket.  The balancing trades
        # skew fidelity for hit rate, exactly as shape bucketing trades
        # shape fidelity; services that need imbalance-exact plans disable
        # bucketing (ratio <= 1) and serve the exact ragged structure.
        del m
        if ratio is None or ratio <= 1.0:
            return self.num_experts * self.capacity, n, k, self
        experts = self.num_experts
        capacity = geometric_bucket(self.capacity, ratio)
        total = min(experts * capacity, geometric_bucket(self.total_tokens, ratio))
        base, extra = divmod(total, experts)
        tokens = tuple(base + 1 if expert < extra else base
                       for expert in range(experts))
        corner = MoERagged(expert_tokens=tokens, capacity=capacity)
        return experts * capacity, n, k, corner


# ---------------------------------------------------------------------- #
# serialization / helpers
# ---------------------------------------------------------------------- #
_STRUCTURE_KINDS = {
    Dense.kind: lambda payload: DENSE,
    BlockSparse.kind: BlockSparse.from_dict,
    MoERagged.kind: MoERagged.from_dict,
}


def structure_from_dict(payload: Optional[Mapping[str, object]]) -> WorkloadStructure:
    """Inverse of ``WorkloadStructure.to_dict`` (``None`` means dense)."""
    if payload is None:
        return DENSE
    kind = str(payload.get("kind", ""))
    try:
        factory = _STRUCTURE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown workload structure kind {kind!r}; "
                         f"known: {sorted(_STRUCTURE_KINDS)}") from None
    return factory(payload)


def resolve_structure(structure: Optional[WorkloadStructure]) -> Optional[WorkloadStructure]:
    """Normalize to ``None`` for dense so hot paths can branch on identity."""
    if structure is None or structure.is_dense:
        return None
    return structure

