"""Unit tests for the roofline/bandwidth cost model."""

import pytest

from repro.core.cost_model import CostModel, GemmShapeModel
from repro.topology.machines import h100_system, pvc_system, uniform_system


@pytest.fixture
def pvc_model():
    return CostModel(pvc_system(12))


class TestGemmShapeModel:
    def test_large_dims_near_one(self):
        model = GemmShapeModel()
        assert model.efficiency(8192, 8192, 8192) > 0.95

    def test_small_dims_penalised(self):
        model = GemmShapeModel()
        assert model.efficiency(16, 8192, 8192) < 0.35

    def test_monotone_in_each_dim(self):
        model = GemmShapeModel()
        assert model.efficiency(128, 1024, 1024) < model.efficiency(1024, 1024, 1024)

    def test_degenerate_dims_return_one(self):
        assert GemmShapeModel().efficiency(0, 10, 10) == 1.0


class TestGemmTime:
    def test_scales_with_flops(self, pvc_model):
        small = pvc_model.gemm_time(1024, 1024, 1024)
        large = pvc_model.gemm_time(2048, 2048, 2048)
        assert large > 4 * small  # 8x flops, some overhead amortised

    def test_zero_dims_free(self, pvc_model):
        assert pvc_model.gemm_time(0, 10, 10) == 0.0

    def test_never_exceeds_peak(self, pvc_model):
        m = n = k = 8192
        time = pvc_model.gemm_time(m, n, k)
        flops = 2.0 * m * n * k
        assert flops / time <= pvc_model.machine.flops_peak

    def test_includes_launch_overhead(self, pvc_model):
        assert pvc_model.gemm_time(1, 1, 1) >= pvc_model.machine.kernel_launch_overhead

    def test_h100_faster_than_pvc(self):
        pvc = CostModel(pvc_system(12)).gemm_time(4096, 4096, 4096)
        h100 = CostModel(h100_system(8)).gemm_time(4096, 4096, 4096)
        assert h100 < pvc


class TestCommunicationTimes:
    def test_local_transfer_is_free(self, pvc_model):
        assert pvc_model.transfer_time(3, 3, 1 << 20) == 0.0

    def test_remote_transfer_positive(self, pvc_model):
        assert pvc_model.transfer_time(0, 5, 1 << 20) > 0.0

    def test_accumulate_slower_than_copy(self, pvc_model):
        copy = pvc_model.transfer_time(0, 5, 1 << 24)
        accumulate = pvc_model.accumulate_time(0, 5, 1 << 24)
        assert accumulate > copy
        # The paper's kernel reaches ~80% of copy bandwidth.
        assert accumulate == pytest.approx(copy / 0.8, rel=0.05)

    def test_local_accumulate_memory_bound(self, pvc_model):
        nbytes = 1 << 24
        expected = 3 * nbytes / pvc_model.machine.memory_bandwidth
        assert pvc_model.local_accumulate_time(nbytes) == pytest.approx(
            expected + pvc_model.machine.kernel_launch_overhead
        )

    def test_zero_bytes_free(self, pvc_model):
        assert pvc_model.accumulate_time(0, 1, 0) == 0.0


class TestPercentOfPeak:
    def test_zero_time(self, pvc_model):
        assert pvc_model.percent_of_peak(1.0e12, 0.0) == 0.0

    def test_at_peak_is_100(self, pvc_model):
        machine = pvc_model.machine
        flops = machine.total_peak() * 2.0  # two seconds of full-machine work
        assert pvc_model.percent_of_peak(flops, 2.0) == pytest.approx(100.0)

    def test_uniform_machine(self):
        model = CostModel(uniform_system(4, flops_peak=1.0e12))
        assert model.percent_of_peak(2.0e12, 1.0) == pytest.approx(50.0)
