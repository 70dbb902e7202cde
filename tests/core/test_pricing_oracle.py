"""Unit tests for the scalar pricing oracle's op-level helpers and estimates."""

import pytest

from repro.core.cost_model import CostModel
from repro.core.ops import LocalMatmulOp, OperandRef
from repro.topology.machines import pvc_system
from repro.util.indexing import Interval, Rect
from tests.pricing_oracle import (
    estimate_op_list,
    estimate_op_lists,
    op_accumulate_time,
    op_compute_time,
    op_fetch_time,
)


@pytest.fixture
def pvc_model():
    return CostModel(pvc_system(12))


def make_op(rank, a_owner, b_owner, c_owner, m, k, n):
    mb, kb, nb = Interval(0, m), Interval(0, k), Interval(0, n)
    return LocalMatmulOp(
        rank=rank,
        a=OperandRef((0, 0), 0, a_owner, Rect(mb, kb)),
        b=OperandRef((0, 0), 0, b_owner, Rect(kb, nb)),
        c=OperandRef((0, 0), 0, c_owner, Rect(mb, nb)),
        m_bound=mb, k_bound=kb, n_bound=nb,
        stationary_index=(0, 0),
    )


class TestOpLevel:
    def test_fetch_time_counts_only_remote_operands(self, pvc_model):
        local = make_op(0, 0, 0, 0, 128, 128, 128)
        remote_b = make_op(0, 0, 5, 0, 128, 128, 128)
        assert op_fetch_time(pvc_model, local) == 0.0
        assert op_fetch_time(pvc_model, remote_b) > 0.0

    def test_accumulate_time_local_vs_remote(self, pvc_model):
        local = make_op(0, 0, 0, 0, 128, 128, 128)
        remote = make_op(0, 0, 0, 5, 128, 128, 128)
        assert op_accumulate_time(pvc_model, remote) > op_accumulate_time(pvc_model, local)

    def test_estimate_op_list_lower_bounded_by_compute(self, pvc_model):
        ops = [make_op(0, 0, 1, 0, 512, 512, 512) for _ in range(4)]
        estimate = estimate_op_list(pvc_model, ops)
        compute = sum(op_compute_time(pvc_model, op) for op in ops)
        assert estimate >= compute

    def test_estimate_empty(self, pvc_model):
        assert estimate_op_list(pvc_model, []) == 0.0
        assert estimate_op_lists(pvc_model, {}) == 0.0

    def test_estimate_op_lists_takes_slowest_rank(self, pvc_model):
        light = [make_op(0, 0, 1, 0, 64, 64, 64)]
        heavy = [make_op(1, 1, 0, 1, 2048, 2048, 2048)]
        combined = estimate_op_lists(pvc_model, {0: light, 1: heavy})
        assert combined == estimate_op_list(pvc_model, heavy)
