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

Geometry is answered in *global* coordinates of the envelope, over arrays,
by two methods per structure that share one exact counting routine:

* ``live_fractions(role, row_start, row_stop, col_start, col_stop)`` — the
  live fraction of each rectangle of ``A``/``B``/``C`` (scales fetch and
  accumulate traffic; :func:`repro.core.cost_model.tile_fetch_bytes`);
* ``cuboid_terms(m0, m1, k0, k1, n0, n1)`` — per op cuboid, the seven terms
  the pricer needs: the ``(flops, a, b, c)`` live fractions and the
  effective ``(m, n, k)`` of the live GEMM.

A block-sparse mask counts live elements with an int64 summed-area table
over its block grid, read at each rectangle's four element corners, so the
cost of a rectangle does not grow with the grid.  A ragged batch counts
live rows with cumulative expert tokens.  Every count is an exact integer,
so each fraction is one IEEE division of two exact integers.  The scalar
API (``live_fraction``, ``op_fractions``, ``flops_fraction``,
``gemm_dims``) is the array routine on one rectangle or cuboid.  The
per-block and per-expert loop form of the same rules is the test oracle
``tests/structure_oracle.py``; ``storage_bytes`` (how many bytes a matrix
actually occupies) feeds the planner's memory-feasibility check.

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
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.util.indexing import Interval, ceil_div
from repro.util.validation import read_int

#: Operand roles, matching the labels used throughout the executors.
ROLE_A = "A"
ROLE_B = "B"
ROLE_C = "C"
_ROLES = (ROLE_A, ROLE_B, ROLE_C)


def _fraction(live: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``live / total`` where ``total > 0``, else 0.0 (exact int64 counts in)."""
    return np.where(total > 0, live / np.maximum(total, 1), 0.0)


def _envelope_dims(m0, m1, k0, k1, n0, n1) -> List[np.ndarray]:
    """The cuboids' ``(m, n, k)`` extents as float64 (exact: each is an int)."""
    return [np.subtract(stop, start, dtype=np.float64)
            for start, stop in ((m0, m1), (n0, n1), (k0, k1))]


class WorkloadStructure:
    """Base class: a description of which parts of the envelope are live.

    Subclasses must be immutable and hashable (frozen dataclasses with tuple
    fields): structures are embedded in frozen :class:`Workload` and
    :class:`~repro.planner.signature.ProblemSignature` instances and used as
    cache-key components.  Each implements the two array methods
    :meth:`live_fractions` and :meth:`cuboid_terms`; the scalar API below is
    those methods on one rectangle or cuboid.
    """

    #: Stable kind tag used by serialization and signature tokens.
    kind: str = "abstract"

    # ------------------------------------------------------------------ #
    # live geometry
    # ------------------------------------------------------------------ #
    @property
    def is_dense(self) -> bool:
        """True only for :class:`Dense`, whose every element is live."""
        return False

    def live_fractions(self, role: str, row_start, row_stop, col_start,
                       col_stop) -> np.ndarray:
        """Live fraction of each rectangle ``[row_start, row_stop) x [col_start, col_stop)``.

        Elementwise over same-shaped int arrays (scalars give a 0-d array)
        in ``role``'s global coordinates; an empty rectangle of a structured
        operand is 0.
        """
        raise NotImplementedError

    def cuboid_terms(self, m0, m1, k0, k1, n0, n1) -> np.ndarray:
        """Pricing terms of each cuboid ``[m0, m1) x [k0, k1) x [n0, n1)``, shape ``(7, N)``.

        Rows 0-3 are the ``(flops, a, b, c)`` live fractions (products
        computed, and the live share of the A, B and C blocks the op
        touches); rows 4-6 are the effective ``(m, n, k)`` of the live GEMM,
        the envelope extents unless the structure shrinks a dimension (ragged
        rows), so the shape model sees the smaller, less efficient multiply
        that really runs.
        """
        raise NotImplementedError

    def live_fraction(self, role: str, rows: Interval, cols: Interval) -> float:
        """Fraction of ``role``'s global rectangle that carries live data."""
        return float(self.live_fractions(role, rows.start, rows.stop,
                                         cols.start, cols.stop))

    def _terms(self, m_bound: Interval, k_bound: Interval,
               n_bound: Interval) -> List[float]:
        return self.cuboid_terms(m_bound.start, m_bound.stop, k_bound.start,
                                 k_bound.stop, n_bound.start, n_bound.stop).tolist()

    def op_fractions(self, m_bound: Interval, k_bound: Interval,
                     n_bound: Interval) -> Tuple[float, float, float, float]:
        """``(flops, a, b, c)`` live fractions of one op's cuboid."""
        flops, a, b, c = self._terms(m_bound, k_bound, n_bound)[:4]
        return flops, a, b, c

    def flops_fraction(self, m_bound: Interval, k_bound: Interval,
                       n_bound: Interval) -> float:
        """Fraction of the cuboid's elementary products actually computed."""
        return self._terms(m_bound, k_bound, n_bound)[0]

    def gemm_dims(self, m_bound: Interval, k_bound: Interval,
                  n_bound: Interval) -> Tuple[float, float, float]:
        """Effective (m, n, k) of the op's live GEMM, for shape efficiency."""
        m, n, k = self._terms(m_bound, k_bound, n_bound)[4:]
        return m, n, k

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
        """JSON-ready form; :func:`structure_from_dict` inverts it."""
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
        """Always True."""
        return True

    def live_fractions(self, role: str, row_start, row_stop, col_start,
                       col_stop) -> np.ndarray:
        """1.0 for every rectangle, empty ones included."""
        _check_role(role)
        return np.ones(np.broadcast(row_start, row_stop, col_start, col_stop).shape)

    def cuboid_terms(self, m0, m1, k0, k1, n0, n1) -> np.ndarray:
        """Fractions 1.0 and the envelope extents."""
        m, n, k = _envelope_dims(m0, m1, k0, k1, n0, n1)
        ones = np.ones(m.shape)
        return np.stack([ones, ones, ones, ones, m, n, k])

    def effective_flops(self, m: int, n: int, k: int) -> float:
        """The dense ``2 m n k``."""
        return 2.0 * m * n * k

    def storage_bytes(self, role: str, rows: int, cols: int, itemsize: int) -> int:
        """Every element is stored."""
        _check_role(role)
        return rows * cols * itemsize

    def validate(self, m: int, n: int, k: int) -> None:
        """Every envelope fits."""
        return None

    def to_dict(self) -> Dict[str, object]:
        """``{"kind": "dense"}``."""
        return {"kind": self.kind}

    def signature_token(self) -> str:
        """``"dense"``."""
        return "dense"

    def bucket_envelope(self, m: int, n: int, k: int,
                        ratio: Optional[float]) -> Tuple[int, int, int, "WorkloadStructure"]:
        """The envelope unchanged: a dense structure is its own corner."""
        return m, n, k, self


#: The shared dense instance used as every Workload's default structure.
DENSE = Dense()


# ---------------------------------------------------------------------- #
# block-sparse weights
# ---------------------------------------------------------------------- #
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


def _block_split(coord: np.ndarray, block: int, count: int):
    """``(block index, offset in it)`` of element coordinates along one grid axis.

    Coordinates past the grid clip to its end, which reads as the last block
    at offset ``block``: elements beyond the grid are never live.
    """
    coord = np.minimum(coord, block * count)
    index = np.minimum(coord // block, count - 1)
    return index, coord - index * block


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
        """Block rows of the grid (along ``k``)."""
        return len(self.mask)

    @property
    def n_blocks(self) -> int:
        """Block columns of the grid (along ``n``)."""
        return len(self.mask[0])

    @property
    def live_blocks(self) -> int:
        """Live blocks of the mask: the summed-area table's last corner."""
        return int(self._block_prefix[-1])

    @property
    def density(self) -> float:
        """Live fraction of the block grid (the headline sparsity number)."""
        return self.live_blocks / (self.k_blocks * self.n_blocks)

    @cached_property
    def _block_prefix(self) -> np.ndarray:
        """Flat summed-area table: ``[i * (n_blocks + 1) + j]`` = live blocks in
        block rows ``< i`` and block columns ``< j``."""
        table = np.zeros((self.k_blocks + 1, self.n_blocks + 1), dtype=np.int64)
        # bytes() of a bool row is one 0/1 byte per block: the fastest way in.
        live = np.frombuffer(b"".join(map(bytes, self.mask)), dtype=np.uint8) != 0
        np.cumsum(live.reshape(self.k_blocks, self.n_blocks), axis=0, dtype=np.int64,
                  out=table[1:, 1:])
        np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
        return table.ravel()

    def _live_below(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Live elements of ``B`` in ``[0, rows) x [0, cols)``, exactly."""
        prefix, width = self._block_prefix, self.n_blocks + 1
        qr, rr = _block_split(rows, self.block_k, self.k_blocks)
        qc, rc = _block_split(cols, self.block_n, self.n_blocks)
        # The table at the corners of block (qr, qc): all live blocks above
        # and left of it, plus its own row, its own column, and itself.
        at = qr * width + qc
        full, right = prefix.take(at), prefix.take(at + 1)
        down, diagonal = prefix.take(at + width), prefix.take(at + (width + 1))
        return ((self.block_k * self.block_n) * full + (rr * self.block_n) * (down - full)
                + (self.block_k * rc) * (right - full)
                + (rr * rc) * (diagonal - down - right + full))

    # -- structure API --------------------------------------------------- #
    def live_fractions(self, role: str, row_start, row_stop, col_start,
                       col_stop) -> np.ndarray:
        """``B``: live area over area, by four summed-area corners; ``A``, ``C``: 1.0."""
        _check_role(role)
        if role != ROLE_B:
            return np.ones(np.broadcast(row_start, row_stop, col_start, col_stop).shape)
        r0, r1, c0, c1 = (np.asarray(v, dtype=np.int64)
                          for v in (row_start, row_stop, col_start, col_stop))
        below = self._live_below(np.stack([r1, r0, r1, r0]), np.stack([c1, c1, c0, c0]))
        live = below[0] - below[1] - below[2] + below[3]
        return _fraction(live, (r1 - r0) * (c1 - c0))

    def cuboid_terms(self, m0, m1, k0, k1, n0, n1) -> np.ndarray:
        """A product survives iff its ``B`` element is live: ``(b, 1, b, 1)``, envelope dims."""
        b = self.live_fractions(ROLE_B, k0, k1, n0, n1)
        ones = np.ones(b.shape)
        return np.stack([b, ones, b, ones, *_envelope_dims(m0, m1, k0, k1, n0, n1)])

    def effective_flops(self, m: int, n: int, k: int) -> float:
        """Dense flops scaled by the whole mask's live fraction."""
        return 2.0 * m * self.live_fraction(ROLE_B, Interval(0, k), Interval(0, n)) * k * n

    def storage_bytes(self, role: str, rows: int, cols: int, itemsize: int) -> int:
        """``B`` stores whole live blocks; ``A`` and ``C`` are dense."""
        _check_role(role)
        if role != ROLE_B:
            return rows * cols * itemsize
        # Blocked sparse formats store whole live blocks (padding included):
        # counting full blocks keeps the bucket corner's footprint an upper
        # bound for every member mask, clipped or not.
        return min(rows * cols, self.live_blocks * self.block_k * self.block_n) * itemsize

    def validate(self, m: int, n: int, k: int) -> None:
        """The mask must have exactly the ``(k, n)`` envelope's block grid."""
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
        """Block sizes and the mask as one ``"0"``/``"1"`` string per block row."""
        return {
            "kind": self.kind,
            "block_k": self.block_k,
            "block_n": self.block_n,
            "mask": ["".join("1" if live else "0" for live in row) for row in self.mask],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "BlockSparse":
        """Inverse of :meth:`to_dict`."""
        rows = payload["mask"]
        return cls(
            block_k=read_int(payload["block_k"], "block_k"),
            block_n=read_int(payload["block_n"], "block_n"),
            mask=tuple(tuple(ch == "1" for ch in str(row)) for row in rows),  # type: ignore[union-attr]
        )

    def signature_token(self) -> str:
        """Grid, block sizes, live count and a digest of the mask bits."""
        bits = "".join("1" if live else "0" for row in self.mask for live in row)
        digest = hashlib.sha1(bits.encode("ascii")).hexdigest()[:10]
        return (f"bs:{self.k_blocks}x{self.n_blocks}:{self.block_k}x{self.block_n}"
                f":l{self.live_blocks}:{digest}")

    def bucket_envelope(self, m: int, n: int, k: int,
                        ratio: Optional[float]) -> Tuple[int, int, int, "WorkloadStructure"]:
        """The same block sizes, the live count at its bucket corner, spread evenly."""
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
        """Experts in the batch."""
        return len(self.expert_tokens)

    @property
    def total_tokens(self) -> int:
        """Tokens routed to any expert (the live rows of ``A`` and ``C``)."""
        return sum(self.expert_tokens)

    @property
    def utilization(self) -> float:
        """Live fraction of the padded batch (the headline raggedness number)."""
        return self.total_tokens / (self.num_experts * self.capacity)

    @cached_property
    def _token_prefix(self) -> np.ndarray:
        """``[e]`` = tokens routed to experts ``< e`` (length ``num_experts + 1``)."""
        return np.concatenate(([0], np.cumsum(self.expert_tokens, dtype=np.int64)))

    def _tokens_below(self, rows: np.ndarray) -> np.ndarray:
        """Live token rows in ``[0, rows)``, exactly."""
        prefix = self._token_prefix
        rows = np.minimum(rows, self.capacity * self.num_experts)
        expert = np.minimum(rows // self.capacity, self.num_experts - 1)
        before = prefix[expert]
        return before + np.minimum(rows - expert * self.capacity,
                                   prefix[expert + 1] - before)

    # -- structure API --------------------------------------------------- #
    def live_fractions(self, role: str, row_start, row_stop, col_start,
                       col_stop) -> np.ndarray:
        """``A``, ``C``: live rows over rows (columns are all live); ``B``: 1.0."""
        _check_role(role)
        if role == ROLE_B:
            return np.ones(np.broadcast(row_start, row_stop, col_start, col_stop).shape)
        r0, r1 = (np.asarray(v, dtype=np.int64) for v in (row_start, row_stop))
        below = self._tokens_below(np.stack([r1, r0]))
        return _fraction(below[0] - below[1], r1 - r0)

    def cuboid_terms(self, m0, m1, k0, k1, n0, n1) -> np.ndarray:
        """Only live token rows compute: ``(r, r, 1, r)``, effective ``m = r * m``."""
        row = self.live_fractions(ROLE_A, m0, m1, k0, k1)
        ones = np.ones(row.shape)
        m, n, k = _envelope_dims(m0, m1, k0, k1, n0, n1)
        # The live GEMM really runs with the smaller ragged m; surfacing it
        # to the shape model prices the efficiency loss of skinny expert
        # batches (still strictly below the dense envelope: flops shrink
        # linearly while the m efficiency factor shrinks sublinearly).
        return np.stack([row, row, ones, row, row * m, n, k])

    def effective_flops(self, m: int, n: int, k: int) -> float:
        """``2 n k`` per routed token."""
        return 2.0 * self.total_tokens * n * k

    def storage_bytes(self, role: str, rows: int, cols: int, itemsize: int) -> int:
        """``A`` and ``C`` store live token rows only; ``B`` is dense."""
        _check_role(role)
        if role == ROLE_B:
            return rows * cols * itemsize
        # A and C store live token rows only.
        return min(rows, self.total_tokens) * cols * itemsize

    def validate(self, m: int, n: int, k: int) -> None:
        """``m`` must be ``num_experts * capacity``."""
        envelope = self.num_experts * self.capacity
        if m != envelope:
            raise ValueError(
                f"MoE envelope mismatch: m={m} but {self.num_experts} experts "
                f"x capacity {self.capacity} = {envelope}"
            )

    def to_dict(self) -> Dict[str, object]:
        """Per-expert tokens and the capacity."""
        return {
            "kind": self.kind,
            "expert_tokens": list(self.expert_tokens),
            "capacity": self.capacity,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MoERagged":
        """Inverse of :meth:`to_dict`."""
        return cls(
            expert_tokens=tuple(read_int(t, "expert_tokens")
                                for t in payload["expert_tokens"]),  # type: ignore[union-attr]
            capacity=read_int(payload["capacity"], "capacity"),
        )

    def signature_token(self) -> str:
        """Experts, capacity, total tokens and a digest of the per-expert counts."""
        blob = ",".join(str(t) for t in self.expert_tokens)
        digest = hashlib.sha1(blob.encode("ascii")).hexdigest()[:10]
        return f"moe:e{self.num_experts}:c{self.capacity}:t{self.total_tokens}:{digest}"

    def bucket_envelope(self, m: int, n: int, k: int,
                        ratio: Optional[float]) -> Tuple[int, int, int, "WorkloadStructure"]:
        """Capacity and total tokens at their bucket corners, tokens spread evenly."""
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
