"""Unit tests for the PGAS runtime facade and its one-sided operations."""

import numpy as np
import pytest

from repro.runtime.runtime import Runtime
from repro.topology.machines import pvc_system, uniform_system
from repro.util.indexing import Rect
from repro.util.validation import CommunicationError


@pytest.fixture
def runtime():
    return Runtime(machine=uniform_system(4))


class TestConstruction:
    def test_from_machine(self):
        rt = Runtime(machine=uniform_system(6))
        assert rt.num_ranks == 6

    def test_from_num_ranks_only(self):
        rt = Runtime(num_ranks=3)
        assert rt.num_ranks == 3

    def test_num_ranks_overrides_machine(self):
        rt = Runtime(machine=pvc_system(12), num_ranks=4)
        assert rt.num_ranks == 4
        assert rt.machine.num_devices == 4

    def test_requires_machine_or_ranks(self):
        with pytest.raises(ValueError):
            Runtime()


class TestAllocation:
    def test_symmetric_allocation_on_all_ranks(self, runtime):
        handle = runtime.allocate((2, 3), label="x")
        for rank in range(runtime.num_ranks):
            assert runtime.holds(handle, rank)
            assert runtime.local_view(handle, rank).shape == (2, 3)

    def test_allocation_zero_filled_by_default(self, runtime):
        handle = runtime.allocate((2, 2))
        assert np.all(runtime.local_view(handle, 0) == 0.0)

    def test_allocate_on_subset(self, runtime):
        handle = runtime.allocate_on([1, 3], (2, 2))
        assert runtime.holds(handle, 1)
        assert runtime.holds(handle, 3)
        assert not runtime.holds(handle, 0)

    def test_free(self, runtime):
        handle = runtime.allocate((2, 2))
        runtime.free(handle)
        assert not runtime.holds(handle, 0)

    def test_local_view_is_a_view(self, runtime):
        handle = runtime.allocate((2, 2))
        view = runtime.local_view(handle, 1)
        view[0, 0] = 7.0
        assert runtime.local_view(handle, 1)[0, 0] == 7.0

    def test_pool_per_rank(self, runtime):
        assert runtime.pool(0) is not runtime.pool(1)


class TestOneSidedOps:
    def test_put_then_get(self, runtime):
        handle = runtime.allocate((2, 2))
        data = np.arange(4, dtype=np.float32).reshape(2, 2)
        runtime.put(handle, 2, data, initiator=0)
        fetched = runtime.get(handle, 2, initiator=1)
        np.testing.assert_array_equal(fetched, data)

    def test_get_returns_copy(self, runtime):
        handle = runtime.allocate((2, 2))
        fetched = runtime.get(handle, 0, initiator=1)
        fetched[0, 0] = 99.0
        assert runtime.local_view(handle, 0)[0, 0] == 0.0

    def test_get_into_out_buffer(self, runtime):
        handle = runtime.allocate((2, 2), fill=3.0)
        out = np.empty((2, 2), dtype=np.float32)
        result = runtime.get(handle, 1, initiator=0, out=out)
        assert result is out
        assert np.all(out == 3.0)

    def test_get_out_shape_mismatch(self, runtime):
        handle = runtime.allocate((2, 2))
        with pytest.raises(CommunicationError):
            runtime.get(handle, 1, initiator=0, out=np.empty((3, 3), dtype=np.float32))

    def test_rect_access(self, runtime):
        handle = runtime.allocate((4, 4))
        runtime.put(handle, 0, np.full((2, 2), 5.0, dtype=np.float32),
                    initiator=0, rect=Rect.from_bounds(1, 3, 1, 3))
        full = runtime.local_view(handle, 0)
        assert full[1, 1] == 5.0 and full[0, 0] == 0.0
        sub = runtime.get(handle, 0, initiator=1, rect=Rect.from_bounds(1, 3, 1, 3))
        assert np.all(sub == 5.0)

    def test_rect_out_of_bounds(self, runtime):
        handle = runtime.allocate((4, 4))
        with pytest.raises(CommunicationError):
            runtime.get(handle, 0, initiator=1, rect=Rect.from_bounds(0, 5, 0, 4))

    def test_accumulate_adds(self, runtime):
        handle = runtime.allocate((2, 2), fill=1.0)
        runtime.accumulate(handle, 3, np.full((2, 2), 2.0, dtype=np.float32), initiator=0)
        runtime.accumulate(handle, 3, np.full((2, 2), 0.5, dtype=np.float32), initiator=1)
        assert np.all(runtime.local_view(handle, 3) == 3.5)

    def test_accumulate_shape_mismatch(self, runtime):
        handle = runtime.allocate((2, 2))
        with pytest.raises(CommunicationError):
            runtime.accumulate(handle, 0, np.ones((3, 3)), initiator=1)

    def test_put_shape_mismatch(self, runtime):
        handle = runtime.allocate((2, 2))
        with pytest.raises(CommunicationError):
            runtime.put(handle, 0, np.ones((1, 2)), initiator=1)

    def test_invalid_target_rank(self, runtime):
        handle = runtime.allocate((2, 2))
        with pytest.raises(ValueError):
            runtime.get(handle, 99, initiator=0)

    def test_get_async_local_returns_view_with_zero_bytes(self, runtime):
        handle = runtime.allocate((2, 2), fill=4.0)
        future = runtime.get_async(handle, 1, initiator=1)
        assert future.done()
        assert future.nbytes == 0
        assert np.all(future.wait() == 4.0)

    def test_get_async_remote_counts_bytes(self, runtime):
        handle = runtime.allocate((2, 2))
        future = runtime.get_async(handle, 2, initiator=0)
        assert future.nbytes == 2 * 2 * 4


class TestTrafficAccounting:
    def test_get_recorded(self, runtime):
        handle = runtime.allocate((4, 4))
        runtime.get(handle, 1, initiator=0)
        assert runtime.traffic.total_bytes("get") == 4 * 4 * 4
        assert runtime.traffic.operation_count("get") == 1

    def test_local_get_not_remote(self, runtime):
        handle = runtime.allocate((4, 4))
        runtime.get(handle, 0, initiator=0)
        assert runtime.traffic.total_bytes("get", remote_only=True) == 0

    def test_reset_counters(self, runtime):
        handle = runtime.allocate((4, 4))
        runtime.get(handle, 1, initiator=0)
        runtime.reset_counters()
        assert runtime.traffic.total_bytes() == 0


class TestTransferTimeModel:
    def test_local_transfer_cheaper_than_remote(self):
        topology = Runtime(machine=pvc_system(12)).topology
        local = topology.transfer_time(0, 0, 1 << 20)
        remote = topology.transfer_time(0, 5, 1 << 20)
        assert local < remote

    def test_intra_gpu_tile_pair_faster_than_xe_link(self):
        topology = Runtime(machine=pvc_system(12)).topology
        # tiles 0 and 1 share a GPU; 0 and 2 do not.
        assert topology.transfer_time(0, 1, 1 << 24) < topology.transfer_time(0, 2, 1 << 24)


class TestSpmd:
    def test_run_spmd_passes_contexts(self, runtime):
        ranks = runtime.run_spmd(lambda ctx: ctx.rank)
        assert ranks == [0, 1, 2, 3]

    def test_spmd_one_sided_through_context(self, runtime):
        handle = runtime.allocate((1, 1))

        def body(ctx):
            ctx.accumulate(handle, 0, np.array([[1.0]], dtype=np.float32))
            return ctx.rank

        runtime.run_spmd(body)
        assert runtime.local_view(handle, 0)[0, 0] == pytest.approx(4.0)

    def test_threaded_backend_accumulate_is_atomic(self):
        rt = Runtime(machine=uniform_system(8), backend="threaded")
        handle = rt.allocate((64, 64))

        def body(ctx):
            for _ in range(20):
                ctx.accumulate(handle, 0, np.ones((64, 64), dtype=np.float32))

        rt.run_spmd(body)
        assert np.all(rt.local_view(handle, 0) == 8 * 20)
