"""Unit tests for placements and device meshes."""

import pytest

from repro.dtensor.device_mesh import DeviceMesh
from repro.dtensor.placement import Partial, Replicate, Shard
from repro.topology.machines import pvc_system, uniform_system


class TestPlacements:
    def test_shard_dims(self):
        assert Shard(0).is_shard()
        assert Shard(0).is_shard(0)
        assert not Shard(0).is_shard(1)

    def test_invalid_shard_dim(self):
        with pytest.raises(ValueError):
            Shard(2)

    def test_replicate_and_partial_flags(self):
        assert Replicate().is_replicate()
        assert Partial().is_partial()
        assert not Replicate().is_partial()
        assert not Partial().is_shard()

    def test_value_equality(self):
        assert Shard(1) == Shard(1)
        assert Shard(0) != Shard(1)
        assert Replicate() == Replicate()
        assert Partial() == Partial()

    def test_str_forms(self):
        assert str(Shard(1)) == "Shard(1)"
        assert str(Replicate()) == "Replicate()"
        assert str(Partial()) == "Partial()"


class TestDeviceMesh:
    def test_default_covers_machine(self):
        mesh = DeviceMesh(pvc_system(12))
        assert mesh.size == 12
        assert mesh.device_ranks == list(range(12))

    def test_subset_mesh(self):
        mesh = DeviceMesh(pvc_system(12), ranks=[0, 2, 4, 6])
        assert mesh.size == 4

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(ValueError):
            DeviceMesh(uniform_system(4), ranks=[0, 7])

    def test_cost_model(self):
        mesh = DeviceMesh(uniform_system(4))
        assert mesh.cost_model().machine is mesh.machine

    def test_iteration(self):
        mesh = DeviceMesh(uniform_system(3))
        assert list(mesh) == [0, 1, 2]
