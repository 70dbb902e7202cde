"""Direct unit tests for layout conversion (redistribute round-trips + pricing)."""

import numpy as np
import pytest

from repro.dist import redistribute, redistribution_cost
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Block2D, ColumnBlock, CustomTiles, RowBlock
from repro.runtime.runtime import Runtime
from repro.topology.machines import uniform_system


@pytest.fixture
def runtime():
    return Runtime(machine=uniform_system(4))


def make_matrix(runtime, partition, shape=(24, 20), replication=1, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal(shape)
    matrix = DistributedMatrix.from_dense(runtime, dense, partition,
                                          replication=replication, name="M")
    return matrix, dense


class TestRoundTrips:
    @pytest.mark.parametrize("first,second", [
        (RowBlock(), ColumnBlock()),
        (ColumnBlock(), Block2D()),
        (Block2D(), CustomTiles([0, 7, 24], [0, 5, 11, 20])),
    ])
    def test_there_and_back_preserves_data(self, runtime, first, second):
        matrix, dense = make_matrix(runtime, first)
        there = redistribute(matrix, second)
        back = redistribute(there, first)
        np.testing.assert_array_equal(there.to_dense(), dense)
        np.testing.assert_array_equal(back.to_dense(), dense)

    def test_source_untouched(self, runtime):
        matrix, dense = make_matrix(runtime, RowBlock())
        redistribute(matrix, ColumnBlock())
        np.testing.assert_array_equal(matrix.to_dense(), dense)

    def test_dtype_shape_and_runtime_preserved(self, runtime):
        matrix, _ = make_matrix(runtime, RowBlock())
        out = redistribute(matrix, Block2D())
        assert out.runtime is runtime
        assert out.shape == matrix.shape
        assert out.dtype == matrix.dtype
        assert out.partition.name == "block"


class TestReplicationChanges:
    def test_replicate_up_fills_every_replica(self, runtime):
        matrix, dense = make_matrix(runtime, RowBlock())
        replicated = redistribute(matrix, ColumnBlock(), replication=2)
        assert replicated.replication.factor == 2
        for replica in range(2):
            np.testing.assert_array_equal(replicated.to_dense(replica), dense)

    def test_dereplicate_down(self, runtime):
        matrix, dense = make_matrix(runtime, RowBlock(), replication=2)
        single = redistribute(matrix, RowBlock(), replication=1)
        assert single.replication.factor == 1
        np.testing.assert_array_equal(single.to_dense(), dense)


class TestAccounting:
    def test_cross_rank_moves_recorded_as_gets(self, runtime):
        matrix, _ = make_matrix(runtime, RowBlock())
        before = runtime.traffic.total_bytes("get", remote_only=True)
        redistribute(matrix, ColumnBlock())
        moved = runtime.traffic.total_bytes("get", remote_only=True) - before
        # Row -> column panels: each destination rank keeps exactly its
        # diagonal intersection local, so 3/4 of the matrix moves.
        assert moved == 3 * 6 * 20 * 8

    def test_identity_reshard_moves_nothing_remote(self, runtime):
        matrix, _ = make_matrix(runtime, RowBlock())
        before = runtime.traffic.total_bytes("get", remote_only=True)
        out = redistribute(matrix, RowBlock())
        assert runtime.traffic.total_bytes("get", remote_only=True) == before
        np.testing.assert_array_equal(out.to_dense(), matrix.to_dense())

    def test_simulate_only_moves_no_data(self, runtime):
        matrix = DistributedMatrix.create(runtime, (24, 20), RowBlock(), name="S",
                                          materialize=False)
        before = runtime.traffic.total_bytes("get", remote_only=True)
        out = redistribute(matrix, ColumnBlock())
        assert not out.materialized
        # No data exists, so no traffic records.
        assert runtime.traffic.total_bytes("get", remote_only=True) == before

    def test_cost_probe_matches_traffic(self, runtime):
        matrix, _ = make_matrix(runtime, RowBlock())
        cost = redistribution_cost(matrix, ColumnBlock())
        before = runtime.traffic.total_bytes("get", remote_only=True)
        redistribute(matrix, ColumnBlock())
        moved = runtime.traffic.total_bytes("get", remote_only=True) - before
        assert cost["moved_bytes"] == moved
        assert cost["modelled_time_s"] > 0.0
