"""Local matrix-multiply operations produced by the slicing op generator.

Each :class:`LocalMatmulOp` is one ``C_tile[c_slice] += A_tile[a_slice] @
B_tile[b_slice]`` update.  The op carries both the *global* m/k/n bounds it
covers (useful for reasoning about coverage and for the cost model) and the
*local* rectangles inside each tile (what the executor actually indexes),
mirroring lines 29–35 of the paper's Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.util.indexing import Interval, Rect

TileIndex = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class OperandRef:
    """One operand of a local multiply: which stored tile, and which part of it."""

    #: Tile coordinate within the operand's tile grid.
    index: TileIndex
    #: Replica the tile will be accessed from (the initiating rank's local replica).
    replica: int
    #: Rank that owns the tile in that replica.
    owner: int
    #: Sub-rectangle of the tile, in the tile's local coordinates.
    local: Rect

    @property
    def is_full_tile(self) -> bool:
        """True when the region starts at the tile's origin."""
        return self.local.rows.start == 0 and self.local.cols.start == 0


@dataclass(frozen=True, slots=True)
class LocalMatmulOp:
    """One local GEMM-and-accumulate generated for a particular rank."""

    #: Rank that will execute the op.
    rank: int
    a: OperandRef
    b: OperandRef
    c: OperandRef
    #: Global row range of C covered (also the row range of A used).
    m_bound: Interval
    #: Global inner-dimension range covered (columns of A / rows of B).
    k_bound: Interval
    #: Global column range of C covered (also the column range of B used).
    n_bound: Interval
    #: Index of the stationary tile this op belongs to (drives iteration offset).
    stationary_index: TileIndex
    #: Bytes per matrix element.
    itemsize: int = 4

    # ------------------------------------------------------------------ #
    @property
    def m(self) -> int:
        """Rows of the op's A and C blocks."""
        return self.m_bound.extent

    @property
    def k(self) -> int:
        """Inner dimension of the op."""
        return self.k_bound.extent

    @property
    def n(self) -> int:
        """Columns of the op's B and C blocks."""
        return self.n_bound.extent

    @property
    def flops(self) -> int:
        """Floating point operations performed by the local GEMM (2·m·n·k)."""
        return 2 * self.m * self.n * self.k

    @property
    def is_empty(self) -> bool:
        """True when any of the op's dimensions is zero."""
        return self.m == 0 or self.n == 0 or self.k == 0

    # -- communication footprint ---------------------------------------- #
    @property
    def a_bytes(self) -> int:
        """Bytes of A read by this op (the used sub-rectangle)."""
        return self.m * self.k * self.itemsize

    @property
    def b_bytes(self) -> int:
        """Bytes of B read by this op."""
        return self.k * self.n * self.itemsize

    @property
    def c_bytes(self) -> int:
        """Bytes of C written/accumulated by this op."""
        return self.m * self.n * self.itemsize

    @property
    def a_is_remote(self) -> bool:
        """True when A's tile lives on another rank."""
        return self.a.owner != self.rank

    @property
    def b_is_remote(self) -> bool:
        """True when B's tile lives on another rank."""
        return self.b.owner != self.rank

    @property
    def c_is_remote(self) -> bool:
        """True when C's tile lives on another rank."""
        return self.c.owner != self.rank

    @property
    def remote_fetch_bytes(self) -> int:
        """Bytes this op must fetch from remote ranks (A and B contributions)."""
        total = 0
        if self.a_is_remote:
            total += self.a_bytes
        if self.b_is_remote:
            total += self.b_bytes
        return total

    @property
    def remote_accumulate_bytes(self) -> int:
        """Bytes this op must accumulate to a remote C tile."""
        return self.c_bytes if self.c_is_remote else 0

    def describe(self) -> str:
        """Human-readable one-liner like the op listing in the paper's Figure 1."""
        return (
            f"C{self.c.index}[{self.c.local}] += "
            f"A{self.a.index}[{self.a.local}] * B{self.b.index}[{self.b.local}]"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalMatmulOp(rank={self.rank}, {self.describe()})"
