"""Layout conversion: reshard a distributed matrix onto a new partitioning.

``redistribute`` is what an SPMD system does implicitly before every multiply
whose operand layouts do not match its kernels; the universal algorithm makes
it unnecessary, and this module exists so benchmarks and tests can price that
alternative honestly.  Unlike the out-of-band ``from_dense``/``to_dense``
helpers, redistribution goes through the runtime: every cross-rank move is a
one-sided ``get`` recorded in the traffic counters.  Its modelled time is
:func:`redistribution_cost`'s.

Each destination owner pulls the overlapping regions of the source tiles from
the source replica group *it belongs to* (reads are local whenever the two
layouts co-locate data), which is the same locality rule the executors use.
Both :func:`redistribute` and :func:`redistribution_cost` walk the one
transfer set produced by :func:`_transfer_plan`, so the priced cost cannot
drift from the moves made.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Partition
from repro.util.indexing import Rect

#: One region move: (src tile, dst tile, overlap rect, src rank, dst rank).
Transfer = Tuple[Tuple[int, int], Tuple[int, int], Rect, int, int]


def _transfer_plan(matrix: DistributedMatrix,
                   target: DistributedMatrix) -> Iterator[Transfer]:
    """Enumerate every region move taking ``matrix``'s layout to ``target``'s.

    The overlap geometry is replica-invariant, so it is computed once per
    destination tile and reused across the target's replica groups.
    """
    for dst_idx in target.grid.tiles():
        dst_bounds = target.tile_bounds(dst_idx)
        overlaps = [
            (src_idx, matrix.tile_bounds(src_idx).intersect(dst_bounds))
            for src_idx in matrix.overlapping_tiles(dst_bounds)
        ]
        for replica in range(target.replication.num_replicas):
            dst_owner = target.owner_rank(dst_idx, replica)
            # Pull from the source replica group the destination rank is in.
            src_replica = matrix.replica_of_rank(dst_owner)
            for src_idx, region in overlaps:
                if region:
                    yield (src_idx, dst_idx, region,
                           matrix.owner_rank(src_idx, src_replica), dst_owner)


def redistribute(
    matrix: DistributedMatrix,
    partition: Partition,
    replication: Optional[int] = None,
    name: Optional[str] = None,
) -> DistributedMatrix:
    """Return a copy of ``matrix`` laid out by ``partition`` (and ``replication``).

    The source is left untouched.  The new matrix lives on the same runtime
    with the same shape and dtype; ``replication`` defaults to the source's
    factor.  For a source created with ``materialize=False`` no data moves
    and the traffic counters — which record real data movement only — stay
    untouched; use :func:`redistribution_cost` for the bytes and time.
    """
    runtime = matrix.runtime
    factor = matrix.replication.factor if replication is None else int(replication)
    target = DistributedMatrix.create(
        runtime,
        matrix.shape,
        partition,
        replication=factor,
        dtype=matrix.dtype,
        name=name or f"{matrix.name}->{partition.name}",
        materialize=matrix.materialized,
    )

    if not matrix.materialized:
        return target
    for src_idx, dst_idx, region, src_owner, dst_owner in _transfer_plan(matrix, target):
        data = runtime.get(
            matrix._handle(src_idx), src_owner, initiator=dst_owner,
            rect=region.localize(matrix.tile_bounds(src_idx)),
        )
        runtime.put(
            target._handle(dst_idx), dst_owner, data, initiator=dst_owner,
            rect=region.localize(target.tile_bounds(dst_idx)),
        )
    return target


def redistribution_cost(
    matrix: DistributedMatrix,
    partition: Partition,
    replication: Optional[int] = None,
) -> dict:
    """Price a reshard without performing it: modelled seconds + bytes moved.

    Builds the target layout metadata only and walks the same
    :func:`_transfer_plan` as :func:`redistribute`, accumulating modelled
    link time per destination rank (the reported time is the slowest rank's,
    i.e. the reshard's makespan under the simple no-overlap model).
    """
    runtime = matrix.runtime
    factor = matrix.replication.factor if replication is None else int(replication)
    target = DistributedMatrix.create(
        runtime, matrix.shape, partition, replication=factor, dtype=matrix.dtype,
        name=f"{matrix.name}-cost-probe", materialize=False,
    )

    itemsize = matrix.dtype.itemsize
    per_rank_time: dict = {}
    total_bytes = 0
    for _, _, region, src_owner, dst_owner in _transfer_plan(matrix, target):
        if src_owner == dst_owner:
            continue
        nbytes = region.size * itemsize
        total_bytes += nbytes
        per_rank_time[dst_owner] = per_rank_time.get(dst_owner, 0.0) + \
            runtime.topology.transfer_time(src_owner, dst_owner, nbytes)
    return {
        "modelled_time_s": max(per_rank_time.values(), default=0.0),
        "moved_bytes": total_bytes,
    }
