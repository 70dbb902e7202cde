"""Unit tests for op generation by slicing (paper Algorithms 1-2 + Stationary A)."""

import numpy as np
import pytest

from repro.core.slicing import (
    check_coverage,
    generate_all_ops,
    generate_local_ops,
)
from repro.core.stationary import Stationary
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Block2D, ColumnBlock, CustomTiles, RowBlock
from repro.runtime.runtime import Runtime
from repro.topology.machines import uniform_system
from tests.slicing_oracle import apply_iteration_offset
from repro.util.validation import ShapeError


@pytest.fixture
def runtime():
    return Runtime(machine=uniform_system(4))


def make_triplet(runtime, m=24, n=20, k=16, parts=(Block2D(), Block2D(), Block2D()),
                 reps=(1, 1, 1)):
    a = DistributedMatrix.create(runtime, (m, k), parts[0], replication=reps[0], name="A")
    b = DistributedMatrix.create(runtime, (k, n), parts[1], replication=reps[1], name="B")
    c = DistributedMatrix.create(runtime, (m, n), parts[2], replication=reps[2], name="C")
    return a, b, c


class TestStationaryCOps:
    def test_every_op_touches_an_owned_c_tile(self, runtime):
        a, b, c = make_triplet(runtime)
        for rank in range(4):
            for op in generate_local_ops(a, b, c, Stationary.C, rank):
                assert op.c.owner == rank
                assert op.stationary_index == op.c.index

    def test_coverage_exact(self, runtime):
        a, b, c = make_triplet(runtime)
        check_coverage(a, b, c, generate_all_ops(a, b, c, Stationary.C))

    def test_bounds_consistent_with_tiles(self, runtime):
        a, b, c = make_triplet(runtime)
        for rank in range(4):
            for op in generate_local_ops(a, b, c, Stationary.C, rank):
                assert a.tile_bounds(op.a.index).rows.contains_interval(op.m_bound)
                assert a.tile_bounds(op.a.index).cols.contains_interval(op.k_bound)
                assert b.tile_bounds(op.b.index).rows.contains_interval(op.k_bound)
                assert b.tile_bounds(op.b.index).cols.contains_interval(op.n_bound)
                assert c.tile_bounds(op.c.index).rows.contains_interval(op.m_bound)
                assert c.tile_bounds(op.c.index).cols.contains_interval(op.n_bound)

    def test_local_rects_within_tiles(self, runtime):
        a, b, c = make_triplet(runtime, parts=(RowBlock(), ColumnBlock(), Block2D()))
        for rank in range(4):
            for op in generate_local_ops(a, b, c, Stationary.C, rank):
                for matrix, operand in ((a, op.a), (b, op.b), (c, op.c)):
                    tile_shape = matrix.tile_bounds(operand.index).shape
                    assert operand.local.rows.stop <= tile_shape[0]
                    assert operand.local.cols.stop <= tile_shape[1]
                    assert operand.local.rows.start >= 0
                    assert operand.local.cols.start >= 0


class TestStationaryBOps:
    def test_every_op_touches_an_owned_b_tile(self, runtime):
        a, b, c = make_triplet(runtime)
        for rank in range(4):
            for op in generate_local_ops(a, b, c, Stationary.B, rank):
                assert op.b.owner == rank
                assert op.stationary_index == op.b.index

    def test_coverage_exact(self, runtime):
        a, b, c = make_triplet(runtime, parts=(ColumnBlock(), RowBlock(), Block2D()))
        check_coverage(a, b, c, generate_all_ops(a, b, c, Stationary.B))


class TestStationaryAOps:
    def test_every_op_touches_an_owned_a_tile(self, runtime):
        a, b, c = make_triplet(runtime)
        for rank in range(4):
            for op in generate_local_ops(a, b, c, Stationary.A, rank):
                assert op.a.owner == rank
                assert op.stationary_index == op.a.index

    def test_coverage_exact(self, runtime):
        a, b, c = make_triplet(runtime, parts=(Block2D(), RowBlock(), ColumnBlock()))
        check_coverage(a, b, c, generate_all_ops(a, b, c, Stationary.A))


class TestMisalignedTiles:
    """The paper's Figure 1 scenario: operand tiles need not line up."""

    def _triplet(self, runtime):
        a_part = CustomTiles([0, 7, 15, 24], [0, 5, 16])
        b_part = CustomTiles([0, 9, 16], [0, 8, 13, 20])
        c_part = CustomTiles([0, 12, 24], [0, 11, 20])
        return make_triplet(runtime, parts=(a_part, b_part, c_part))

    @pytest.mark.parametrize("stationary", list(Stationary))
    def test_coverage_with_misaligned_tiles(self, runtime, stationary):
        a, b, c = self._triplet(runtime)
        check_coverage(a, b, c, generate_all_ops(a, b, c, stationary))

    def test_slices_are_subtile(self, runtime):
        a, b, c = self._triplet(runtime)
        ops = [op for rank in range(4) for op in generate_local_ops(a, b, c, Stationary.C, rank)]
        # With misaligned tiles at least one op must use a strict sub-rectangle.
        assert any(not op.a.is_full_tile or not op.b.is_full_tile for op in ops)


class TestReplication:
    def test_replicated_stationary_splits_inner_dimension(self, runtime):
        a, b, c = make_triplet(runtime, reps=(1, 1, 2))
        ops = generate_all_ops(a, b, c, Stationary.C)
        check_coverage(a, b, c, ops)
        # Ranks in replica 0 only touch the first half of k, replica 1 the second.
        k = a.shape[1]
        for rank, rank_ops in ops.items():
            replica = c.replica_of_rank(rank)
            lo, hi = c.replication.work_share(replica, k)
            for op in rank_ops:
                assert lo <= op.k_bound.start and op.k_bound.stop <= hi

    def test_replicated_b_splits_m(self, runtime):
        a, b, c = make_triplet(runtime, reps=(1, 2, 1))
        ops = generate_all_ops(a, b, c, Stationary.B)
        check_coverage(a, b, c, ops)

    def test_replicated_a_splits_n(self, runtime):
        a, b, c = make_triplet(runtime, reps=(2, 1, 1))
        ops = generate_all_ops(a, b, c, Stationary.A)
        check_coverage(a, b, c, ops)

    def test_replicated_inputs_read_locally(self, runtime):
        """Full replication of A means no rank ever reads A remotely."""
        a, b, c = make_triplet(runtime, reps=(4, 1, 1))
        ops = generate_all_ops(a, b, c, Stationary.C)
        for rank_ops in ops.values():
            for op in rank_ops:
                assert not op.a_is_remote

    def test_non_stationary_replication_does_not_duplicate_work(self, runtime):
        a, b, c = make_triplet(runtime, reps=(2, 2, 1))
        check_coverage(a, b, c, generate_all_ops(a, b, c, Stationary.C))


class TestIterationOffset:
    def test_preserves_multiset_of_ops(self, runtime):
        a, b, c = make_triplet(runtime, parts=(RowBlock(), RowBlock(), RowBlock()))
        ops = generate_local_ops(a, b, c, Stationary.C, 1)
        rotated = apply_iteration_offset(ops)
        assert sorted(map(id, ops)) == sorted(map(id, rotated))

    def test_rotates_by_tile_index_sum(self, runtime):
        a, b, c = make_triplet(runtime, parts=(RowBlock(), RowBlock(), RowBlock()))
        # Rank 1's stationary C tile is (1, 0): offset = 1.
        ops = generate_local_ops(a, b, c, Stationary.C, 1)
        rotated = apply_iteration_offset(ops)
        assert rotated[0] is ops[1 % len(ops)]

    def test_zero_offset_for_origin_tile(self, runtime):
        a, b, c = make_triplet(runtime, parts=(RowBlock(), RowBlock(), RowBlock()))
        ops = generate_local_ops(a, b, c, Stationary.C, 0)
        rotated = apply_iteration_offset(ops)
        assert rotated[0] is ops[0]

    def test_empty_list(self):
        assert apply_iteration_offset([]) == []

    def test_groups_stay_contiguous(self, runtime):
        """Ops from different stationary tiles must not interleave."""
        a, b, c = make_triplet(runtime, parts=(Block2D(), Block2D(),
                                               CustomTiles([0, 6, 12, 18, 24], [0, 10, 20])))
        ops = generate_local_ops(a, b, c, Stationary.C, 0)
        rotated = apply_iteration_offset(ops)
        seen_groups = []
        for op in rotated:
            if not seen_groups or seen_groups[-1] != op.stationary_index:
                seen_groups.append(op.stationary_index)
        assert len(seen_groups) == len(set(seen_groups))


class TestCheckCoverage:
    def test_detects_missing_ops(self, runtime):
        a, b, c = make_triplet(runtime)
        ops = generate_all_ops(a, b, c, Stationary.C)
        ops[0] = ops[0][:-1]  # drop one op
        with pytest.raises(ShapeError):
            check_coverage(a, b, c, ops)

    def test_detects_duplicated_ops(self, runtime):
        a, b, c = make_triplet(runtime)
        ops = generate_all_ops(a, b, c, Stationary.C)
        ops[0] = ops[0] + [ops[0][0]]
        with pytest.raises(ShapeError):
            check_coverage(a, b, c, ops)

    def test_shape_mismatch_rejected(self, runtime):
        a = DistributedMatrix.create(runtime, (8, 6), Block2D(), name="A")
        b = DistributedMatrix.create(runtime, (7, 10), Block2D(), name="B")
        c = DistributedMatrix.create(runtime, (8, 10), Block2D(), name="C")
        with pytest.raises(ShapeError):
            generate_all_ops(a, b, c, Stationary.C)
