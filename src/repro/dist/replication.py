"""Replication bookkeeping: replica groups and per-replica work shares.

With replication factor ``c`` over ``p`` ranks, the ranks are divided into
``c`` replica groups of ``q = p / c`` ranks each; every group stores a full
copy of the matrix, partitioned over its ``q`` members.  Groups are blocked:
replica ``r`` consists of ranks ``[r*q, (r+1)*q)``, so ``rank_of`` and
``replica_of_rank`` are trivially inverse.

``work_share`` implements the paper's replication rule for the *stationary*
operand: each replica searches only its ``1/c`` share of the free dimension
(the inner dimension ``k`` for Stationary C, ``m`` for Stationary B, ``n``
for Stationary A), so that across replicas every elementary product is
computed exactly once.  Shares are contiguous and follow the same convention
as :func:`repro.util.indexing.split_extent`: the first ``extent % c`` shares
are one element longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.util.indexing import block_bounds
from repro.util.validation import ReplicationError, check_in_range, check_positive_int


@dataclass(frozen=True, slots=True)
class ReplicationSpec:
    """Replica-group bookkeeping for one distributed matrix.

    Parameters
    ----------
    num_ranks:
        Total ranks ``p`` in the runtime.
    factor:
        Replication factor ``c``; must divide ``p``.
    """

    num_ranks: int
    factor: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.num_ranks, "num_ranks")
        check_positive_int(self.factor, "factor")
        if self.factor > self.num_ranks or self.num_ranks % self.factor != 0:
            raise ReplicationError(
                f"replication factor {self.factor} must divide the rank count "
                f"{self.num_ranks}"
            )

    # ------------------------------------------------------------------ #
    @property
    def num_replicas(self) -> int:
        """Number of replica groups (the replication factor ``c``)."""
        return self.factor

    @property
    def ranks_per_replica(self) -> int:
        """Ranks in each replica group, ``p / c``."""
        return self.num_ranks // self.factor

    # ------------------------------------------------------------------ #
    # rank <-> (replica, position) mapping
    # ------------------------------------------------------------------ #
    def rank_of(self, replica: int, position: int) -> int:
        """Global rank of the ``position``-th member of replica ``replica``."""
        check_in_range(replica, 0, self.factor, "replica")
        check_in_range(position, 0, self.ranks_per_replica, "position")
        return replica * self.ranks_per_replica + position

    def replica_of_rank(self, rank: int) -> int:
        """Replica group that ``rank`` belongs to."""
        check_in_range(rank, 0, self.num_ranks, "rank")
        return rank // self.ranks_per_replica

    def position_of_rank(self, rank: int) -> int:
        """Position of ``rank`` within its replica group."""
        check_in_range(rank, 0, self.num_ranks, "rank")
        return rank % self.ranks_per_replica

    def replica_ranks(self, replica: int) -> range:
        """The global ranks forming replica ``replica``."""
        check_in_range(replica, 0, self.factor, "replica")
        start = replica * self.ranks_per_replica
        return range(start, start + self.ranks_per_replica)

    # ------------------------------------------------------------------ #
    # work shares
    # ------------------------------------------------------------------ #
    def work_share(self, replica: int, extent: int) -> Tuple[int, int]:
        """Half-open ``[start, stop)`` share of ``extent`` assigned to a replica.

        The ``c`` shares are contiguous, ascending, and tile ``[0, extent)``
        exactly; with ``c == 1`` the single share is the whole extent.
        """
        check_in_range(replica, 0, self.factor, "replica")
        bounds = block_bounds(extent, self.factor, replica)
        return (bounds.start, bounds.stop)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicationSpec(num_ranks={self.num_ranks}, factor={self.factor}, "
            f"ranks_per_replica={self.ranks_per_replica})"
        )
