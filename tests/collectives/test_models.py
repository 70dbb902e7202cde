"""Unit tests for collective time models."""

import pytest

from repro.collectives.models import (
    allgather_time,
    allreduce_time,
    alltoall_time,
    broadcast_time,
    reduce_scatter_time,
)
from repro.topology.machines import h100_system, pvc_system, uniform_system


@pytest.fixture
def machine():
    return uniform_system(8, link_bandwidth=100.0e9)


class TestBasicProperties:
    def test_single_member_free(self, machine):
        assert broadcast_time(machine, [0], 1 << 20) == 0.0
        assert allreduce_time(machine, [3], 1 << 20) == 0.0
        assert allgather_time(machine, [2], 1 << 20) == 0.0

    def test_zero_bytes_free(self, machine):
        ranks = list(range(4))
        assert broadcast_time(machine, ranks, 0) == 0.0
        assert allreduce_time(machine, ranks, 0) == 0.0

    def test_allreduce_twice_reduce_scatter(self, machine):
        ranks = list(range(4))
        nbytes = 1 << 24
        assert allreduce_time(machine, ranks, nbytes) == pytest.approx(
            2 * reduce_scatter_time(machine, ranks, nbytes)
        )

    def test_allgather_equals_reduce_scatter(self, machine):
        ranks = list(range(4))
        assert allgather_time(machine, ranks, 1 << 20) == \
            reduce_scatter_time(machine, ranks, 1 << 20)

    def test_larger_groups_cost_more_latency(self, machine):
        small = broadcast_time(machine, list(range(2)), 1 << 10)
        large = broadcast_time(machine, list(range(8)), 1 << 10)
        assert large > small

    def test_alltoall_scales_with_group(self, machine):
        small = alltoall_time(machine, list(range(2)), 1 << 20)
        large = alltoall_time(machine, list(range(8)), 1 << 20)
        assert large > small

    def test_times_scale_with_bytes(self, machine):
        ranks = list(range(4))
        assert allreduce_time(machine, ranks, 2 << 24) > allreduce_time(machine, ranks, 1 << 24)


class TestMachineSensitivity:
    def test_h100_collectives_faster_than_pvc(self):
        nbytes = 1 << 28
        pvc = allreduce_time(pvc_system(12), list(range(8)), nbytes)
        h100 = allreduce_time(h100_system(8), list(range(8)), nbytes)
        assert h100 < pvc

    def test_bottleneck_link_used(self):
        machine = pvc_system(12)
        # A group containing only the two tiles of one GPU uses the fast fabric.
        fast = allgather_time(machine, [0, 1], 1 << 26)
        slow = allgather_time(machine, [0, 2], 1 << 26)
        assert fast < slow

