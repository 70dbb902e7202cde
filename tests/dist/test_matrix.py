"""Direct unit tests for DistributedMatrix ownership, tile access, and collectives."""

import numpy as np
import pytest

from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Block2D, ColumnBlock, Partition, RowBlock
from repro.dist.tile_grid import TileGrid
from repro.runtime.runtime import Runtime
from repro.topology.machines import uniform_system
from repro.util.indexing import Interval, Rect
from repro.util.validation import CommunicationError, PartitionError


@pytest.fixture
def runtime():
    return Runtime(machine=uniform_system(4))


class TestOwnership:
    def test_my_tiles_partition_the_grid_within_a_replica(self, runtime):
        matrix = DistributedMatrix.create(runtime, (24, 24), Block2D(), name="M")
        seen = []
        for rank in range(4):
            tiles = matrix.my_tiles(rank)
            for idx in tiles:
                assert matrix.owner_rank(idx, matrix.replica_of_rank(rank)) == rank
            seen.extend(tiles)
        assert sorted(seen) == sorted(matrix.tiles())

    def test_replicated_owners_disjoint_across_groups(self, runtime):
        matrix = DistributedMatrix.create(runtime, (16, 16), RowBlock(),
                                          replication=2, name="M")
        owners_0 = {matrix.owner_rank(idx, 0) for idx in matrix.tiles()}
        owners_1 = {matrix.owner_rank(idx, 1) for idx in matrix.tiles()}
        assert owners_0 == {0, 1}
        assert owners_1 == {2, 3}

    @pytest.mark.parametrize("bad", [4, -1])
    def test_out_of_range_owner_position_names_the_first_bad_tile(self, runtime, bad):
        class BadOwners(Partition):
            name = "bad_owners"

            def build(self, shape, num_owners):
                owners = np.arange(6).reshape(2, 3) % num_owners
                owners[1, 1] = owners[1, 2] = bad
                return TileGrid((0, 4, 8), (0, 3, 6, 8)), owners

        allocations = []
        runtime.allocate_on = lambda *args, **kwargs: allocations.append(args)
        with pytest.raises(PartitionError, match=rf"tile \(1, 1\) on owner position {bad}"):
            DistributedMatrix.create(runtime, (8, 8), BadOwners(), name="M")
        assert allocations == []

    def test_grid_shape_reflects_per_replica_owners(self, runtime):
        matrix = DistributedMatrix.create(runtime, (16, 16), RowBlock(),
                                          replication=2, name="M")
        # Two ranks per replica -> two row panels, not four.
        assert matrix.grid_shape() == (2, 1)


class TestTileAccess:
    def test_tile_view_aliases_storage(self, runtime):
        matrix = DistributedMatrix.create(runtime, (8, 8), RowBlock(),
                                          dtype=np.float64, name="M")
        view = matrix.tile((0, 0))
        view[:] = 7.0
        assert matrix.to_dense()[0, 0] == 7.0

    def test_tile_rejects_non_owner(self, runtime):
        matrix = DistributedMatrix.create(runtime, (8, 8), RowBlock(), name="M")
        owner = matrix.owner_rank((0, 0), 0)
        with pytest.raises(CommunicationError):
            matrix.tile((0, 0), 0, rank=(owner + 1) % 4)

    def test_get_tile_is_a_copy(self, runtime):
        matrix = DistributedMatrix.create(runtime, (8, 8), RowBlock(),
                                          dtype=np.float64, name="M")
        matrix.fill(3.0)
        copy = matrix.get_tile((1, 0), initiator=0)
        copy[:] = 0.0
        assert matrix.to_dense()[2, 0] == 3.0

    def test_accumulate_tile_region(self, runtime):
        matrix = DistributedMatrix.create(runtime, (8, 8), RowBlock(),
                                          dtype=np.float64, name="M")
        update = np.ones((1, 2))
        region = Rect(Interval(1, 2), Interval(3, 5))
        matrix.accumulate_tile((0, 0), update, initiator=2, region=region)
        dense = matrix.to_dense()
        assert dense[1, 3] == 1.0 and dense[1, 4] == 1.0
        assert dense.sum() == 2.0

    def test_unmaterialized_access_raises(self, runtime):
        matrix = DistributedMatrix.create(runtime, (8, 8), RowBlock(), name="M",
                                          materialize=False)
        with pytest.raises(CommunicationError):
            matrix.tile((0, 0))
        with pytest.raises(CommunicationError):
            matrix.to_dense()

    def test_freed_access_names_free_not_materialize(self, runtime):
        matrix = DistributedMatrix.create(runtime, (8, 8), RowBlock(), name="M")
        matrix.free()
        with pytest.raises(CommunicationError, match="free"):
            matrix.get_tile((0, 0), initiator=0)

    def test_bad_tile_index_raises(self, runtime):
        matrix = DistributedMatrix.create(runtime, (8, 8), RowBlock(), name="M")
        with pytest.raises(PartitionError):
            matrix.tile_bounds((9, 0))
        with pytest.raises(PartitionError):
            matrix.owner_rank((-1, 0), 0)
        with pytest.raises(PartitionError):
            matrix.get_tile((0, 5), initiator=0)


class TestReplicaCollectives:
    def test_broadcast_replica_copies_origin(self, runtime):
        matrix = DistributedMatrix.create(runtime, (8, 8), RowBlock(),
                                          replication=2, dtype=np.float64, name="M")
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((8, 8))
        # Write to replica 0 only, then broadcast.
        for idx in matrix.tiles():
            view = matrix.tile(idx, 0)
            np.copyto(view, dense[matrix.tile_bounds(idx).as_slices()])
        matrix.broadcast_replica(0)
        np.testing.assert_array_equal(matrix.to_dense(1), dense)

    def test_reduce_replicas_sums_into_origin(self, runtime):
        matrix = DistributedMatrix.create(runtime, (8, 8), RowBlock(),
                                          replication=4, dtype=np.float64, name="M")
        for replica in range(4):
            for idx in matrix.tiles():
                matrix.tile(idx, replica).fill(float(replica + 1))
        matrix.reduce_replicas(0)
        np.testing.assert_array_equal(matrix.to_dense(0),
                                      np.full((8, 8), 1.0 + 2.0 + 3.0 + 4.0))
        # Non-origin replicas keep their partial values.
        np.testing.assert_array_equal(matrix.to_dense(1), np.full((8, 8), 2.0))

    def test_load_dense_fills_every_replica(self, runtime):
        matrix = DistributedMatrix.create(runtime, (8, 8), ColumnBlock(),
                                          replication=2, dtype=np.float64, name="M")
        dense = np.arange(64, dtype=np.float64).reshape(8, 8)
        matrix.load_dense(dense)
        for replica in range(2):
            np.testing.assert_array_equal(matrix.to_dense(replica), dense)
