"""Unit tests for the DTensor wrapper and redistribution."""

import numpy as np
import pytest

from repro.collectives import allgather_time, allreduce_time, alltoall_time, reduce_scatter_time
from repro.dtensor.device_mesh import DeviceMesh
from repro.dtensor.dtensor import DTensor
from repro.dtensor.placement import Partial, Replicate, Shard
from repro.topology.machines import pvc_system, uniform_system
from repro.util.validation import ShapeError


@pytest.fixture
def mesh():
    return DeviceMesh(uniform_system(4))


@pytest.fixture
def dense():
    return np.arange(8 * 12, dtype=np.float32).reshape(8, 12)


class TestConstruction:
    def test_shard_rows_round_trip(self, mesh, dense):
        tensor = DTensor.from_dense(mesh, dense, Shard(0))
        np.testing.assert_array_equal(tensor.to_dense(), dense)
        assert tensor.shard(0).shape == (2, 12)

    def test_shard_cols_round_trip(self, mesh, dense):
        tensor = DTensor.from_dense(mesh, dense, Shard(1))
        np.testing.assert_array_equal(tensor.to_dense(), dense)
        assert tensor.shard(0).shape == (8, 3)

    def test_replicate_every_rank_full_copy(self, mesh, dense):
        tensor = DTensor.from_dense(mesh, dense, Replicate())
        for rank in mesh:
            np.testing.assert_array_equal(tensor.shard(rank), dense)

    def test_partial_sums_to_value(self, mesh, dense):
        tensor = DTensor.from_dense(mesh, dense, Partial())
        np.testing.assert_array_equal(tensor.to_dense(), dense)

    def test_non_2d_rejected(self, mesh):
        with pytest.raises(ShapeError):
            DTensor.from_dense(mesh, np.ones(5), Shard(0))

    def test_symbolic_has_no_data(self, mesh):
        tensor = DTensor.symbolic(mesh, (1 << 14, 1 << 14), Shard(0))
        assert not tensor.is_materialized
        with pytest.raises(ShapeError):
            tensor.to_dense()
        with pytest.raises(ShapeError):
            tensor.shard(0)

    def test_local_shape(self, mesh):
        tensor = DTensor.symbolic(mesh, (100, 80), Shard(0))
        assert tensor.local_shape(0) == (25, 80)
        replicated = DTensor.symbolic(mesh, (100, 80), Replicate())
        assert replicated.local_shape(3) == (100, 80)

    def test_nbytes(self, mesh):
        tensor = DTensor.symbolic(mesh, (10, 10), Shard(0), dtype=np.float32)
        assert tensor.nbytes == 400


class TestRedistribute:
    def test_shard_to_replicate(self, mesh, dense):
        tensor = DTensor.from_dense(mesh, dense, Shard(0))
        out, cost = tensor.redistribute(Replicate())
        np.testing.assert_array_equal(out.to_dense(), dense)
        assert cost.collective == "all_gather"
        assert cost.time > 0

    def test_replicate_to_shard_is_free(self, mesh, dense):
        tensor = DTensor.from_dense(mesh, dense, Replicate())
        out, cost = tensor.redistribute(Shard(1))
        np.testing.assert_array_equal(out.to_dense(), dense)
        assert cost.time == 0.0

    def test_shard_dim_change_uses_all_to_all(self, mesh, dense):
        tensor = DTensor.from_dense(mesh, dense, Shard(0))
        out, cost = tensor.redistribute(Shard(1))
        np.testing.assert_array_equal(out.to_dense(), dense)
        assert cost.collective == "all_to_all"

    def test_partial_to_shard_uses_reduce_scatter(self, mesh, dense):
        tensor = DTensor.from_dense(mesh, dense, Partial())
        out, cost = tensor.redistribute(Shard(0))
        np.testing.assert_array_equal(out.to_dense(), dense)
        assert cost.collective == "reduce_scatter"

    def test_partial_to_replicate_uses_allreduce(self, mesh, dense):
        tensor = DTensor.from_dense(mesh, dense, Partial())
        out, cost = tensor.redistribute(Replicate())
        np.testing.assert_array_equal(out.to_dense(), dense)
        assert cost.collective == "all_reduce"

    def test_same_placement_is_free(self, mesh, dense):
        tensor = DTensor.from_dense(mesh, dense, Shard(0))
        _, cost = tensor.redistribute(Shard(0))
        assert cost.time == 0.0 and cost.bytes_moved == 0

    def test_symbolic_redistribute_keeps_symbolic(self, mesh):
        tensor = DTensor.symbolic(mesh, (1024, 1024), Shard(0))
        out, cost = tensor.redistribute(Replicate())
        assert not out.is_materialized
        assert cost.time > 0

    def test_all_gather_slower_for_bigger_tensors(self, mesh):
        small = DTensor.symbolic(mesh, (256, 256), Shard(0)).redistribute_cost(Replicate())
        large = DTensor.symbolic(mesh, (4096, 4096), Shard(0)).redistribute_cost(Replicate())
        assert large.time > small.time


class TestSmallTensorAllToAll:
    def test_small_shard_to_shard_costs_more_than_nothing(self, mesh, dense):
        """Regression: ``nbytes // size**2`` floored the per-pair payload,
        pricing any tensor under ``size^2`` bytes as a zero-cost reshard and
        truncating everything else.  The modelled per-pair payload of this
        384-byte tensor is 384/16 = 24 bytes and must price > 0."""
        tensor = DTensor.from_dense(mesh, dense, Shard(0))
        cost = tensor.redistribute_cost(Shard(1))
        assert cost.collective == "all_to_all"
        assert cost.time > 0.0

    def test_tiny_symbolic_shard_to_shard_is_positive(self, mesh):
        # 2x2 float32 = 16 bytes == size^2 on 4 devices: the old floor
        # division priced exactly this boundary (and anything smaller) at 0.
        tiny = DTensor.symbolic(mesh, (2, 2), Shard(0), dtype=np.float32)
        cost = tiny.redistribute_cost(Shard(1))
        assert cost.time > 0.0
        smaller = DTensor.symbolic(mesh, (2, 1), Shard(0), dtype=np.float32)
        assert smaller.redistribute_cost(Shard(1)).time > 0.0

    def test_all_to_all_time_scales_with_bytes(self, mesh):
        small = DTensor.symbolic(mesh, (64, 64), Shard(0), dtype=np.float32)
        large = DTensor.symbolic(mesh, (512, 512), Shard(0), dtype=np.float32)
        assert large.redistribute_cost(Shard(1)).time > \
            small.redistribute_cost(Shard(1)).time


class TestRedistributePricing:
    """``redistribute_cost`` prices each conversion with its ring formula over the mesh's ranks."""

    @pytest.mark.parametrize("src, dst, price", [
        (Shard(0), Replicate(), lambda machine, ranks, nbytes:
            allgather_time(machine, ranks, nbytes)),
        (Shard(0), Shard(1), lambda machine, ranks, nbytes:
            alltoall_time(machine, ranks, nbytes / len(ranks) ** 2)),
        (Partial(), Shard(1), lambda machine, ranks, nbytes:
            reduce_scatter_time(machine, ranks, nbytes)),
        (Partial(), Replicate(), lambda machine, ranks, nbytes:
            allreduce_time(machine, ranks, nbytes)),
    ])
    def test_subset_mesh_prices_over_its_own_ranks(self, src, dst, price):
        # On the PVC model ranks 0 and 1 are the two tiles of one GPU (fast
        # fabric); ranks 0 and 2 sit on different GPUs.
        machine = pvc_system(12)
        costs = {}
        for ranks in ([0, 1], [0, 2]):
            tensor = DTensor.symbolic(DeviceMesh(machine, ranks=ranks), (1024, 768), src)
            costs[tuple(ranks)] = tensor.redistribute_cost(dst).time
            assert costs[tuple(ranks)] == price(machine, ranks, tensor.nbytes)
        assert costs[(0, 1)] < costs[(0, 2)]
