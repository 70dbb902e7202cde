"""Planner search correctness: pruning must be invisible in the results.

The load-bearing property: on any design space, the pruned search returns the
*identical* ranked recommendations as the exhaustive search while provably
simulating fewer candidates.  That only holds if the cost-model bound is
admissible (never exceeds the simulated time), so that is tested directly.
"""

import time

import pytest

from repro.bench.schemes import ua_schemes
from repro.bench.sweep import run_ua_point, valid_replication_factors
from repro.bench.workloads import Workload, attention_workload
from repro.core.config import ExecutionConfig, ExecutionMode
from repro.planner import search as search_module
from repro.planner.search import (
    enumerate_candidates,
    memory_per_device,
    search_partitionings,
)
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import uniform_system

MACHINE = uniform_system(4)
SMALL = Workload("small", 96, 80, 64)


def as_tuples(recommendations):
    return [
        (rec.scheme.name, rec.replication, rec.stationary,
         rec.percent_of_peak, rec.simulated_time, rec.memory_per_device)
        for rec in recommendations
    ]


class TestPrunedEqualsExhaustive:
    def test_identical_best_with_fewer_simulations(self):
        """The acceptance criterion: same best plan, strictly fewer simulations."""
        exhaustive, ex_stats = search_partitionings(MACHINE, SMALL, prune=False)
        pruned, pr_stats = search_partitionings(MACHINE, SMALL, prune=True)
        assert as_tuples(pruned) == as_tuples(exhaustive)
        assert pr_stats.num_simulated < ex_stats.num_simulated
        assert pr_stats.num_pruned > 0
        assert pr_stats.num_simulated + pr_stats.num_pruned == pr_stats.num_candidates
        assert ex_stats.num_simulated == ex_stats.num_candidates

    def test_identical_top_k_ranking(self):
        exhaustive, _ = search_partitionings(MACHINE, SMALL, top_k=5, prune=False)
        pruned, _ = search_partitionings(MACHINE, SMALL, top_k=5, prune=True)
        assert len(exhaustive) == 5
        assert as_tuples(pruned) == as_tuples(exhaustive)

    @pytest.mark.parametrize("workload", [
        Workload("wide", 64, 256, 48),
        Workload("tall", 256, 48, 64),
        attention_workload(128, head_dim=32),
    ])
    def test_identical_across_shapes(self, workload):
        exhaustive, _ = search_partitionings(MACHINE, workload, top_k=3, prune=False)
        pruned, _ = search_partitionings(MACHINE, workload, top_k=3, prune=True)
        assert as_tuples(pruned) == as_tuples(exhaustive)

    def test_ir_mode_falls_back_to_exhaustive(self):
        config = ExecutionConfig(simulate_only=True, mode=ExecutionMode.IR)
        _, stats = search_partitionings(MACHINE, SMALL, config=config,
                                        replication_factors=[1],
                                        stationary_options=("C",))
        assert not stats.pruning_enabled
        assert stats.num_pruned == 0
        assert stats.num_simulated == stats.num_candidates


class TestMaterializingSearch:
    """Bounds read no data: a materializing direct-mode search prunes with
    the same evaluator bounds as a simulate-only one."""

    def test_prunes_and_ranks_as_simulate_only(self):
        materializing, stats = search_partitionings(
            MACHINE, SMALL, top_k=3, config=ExecutionConfig(simulate_only=False))
        simulate_only, _ = search_partitionings(MACHINE, SMALL, top_k=3)
        assert stats.pruning_enabled
        assert stats.num_pruned > 0
        assert stats.num_simulated + stats.num_pruned == stats.num_candidates
        assert as_tuples(materializing) == as_tuples(simulate_only)


class TestTopK:
    @pytest.mark.parametrize("top_k", [0, -3])
    def test_invalid_top_k_raises_before_enumeration(self, top_k, monkeypatch):
        def no_work(*_args, **_kwargs):
            raise AssertionError("the search enumerated before rejecting top_k")

        monkeypatch.setattr(search_module, "enumerate_candidates", no_work)
        with pytest.raises(ValueError, match="top_k"):
            search_partitionings(uniform_system(4), Workload("w", 128, 128, 128),
                                 top_k=top_k)


class TestLowerBoundAdmissible:
    def test_bound_never_exceeds_simulated_time(self):
        """Admissibility of both pruning bounds over the whole small design
        space, reduce term included."""
        config = ExecutionConfig(simulate_only=True)
        factors = valid_replication_factors(MACHINE.num_devices)
        candidates, _ = enumerate_candidates(
            MACHINE, SMALL, MACHINE.memory_capacity, ua_schemes(), factors,
            ("A", "B", "C"),
        )
        assert candidates
        evaluator = BatchEvaluator(MACHINE, SMALL, config)
        eager = evaluator.frontier_occupancy_bounds(candidates)
        for candidate, occupancy in zip(candidates, eager):
            point = run_ua_point(MACHINE, SMALL, candidate.scheme,
                                 candidate.replication, candidate.stationary, config)
            for bound in (occupancy, evaluator.critical_bound(candidate)):
                assert bound <= point.simulated_time + 1e-12, candidate

    def test_bound_is_positive(self):
        candidates, _ = enumerate_candidates(
            MACHINE, SMALL, MACHINE.memory_capacity, ua_schemes(), [1], ("C",)
        )
        evaluator = BatchEvaluator(MACHINE, SMALL)
        assert evaluator.frontier_occupancy_bounds(candidates[:1])[0] > 0.0
        assert evaluator.critical_bound(candidates[0]) > 0.0


class TestEnumeration:
    def test_memory_budget_rejections_counted(self):
        itemsize = 4
        tight = sum(rows * cols for rows, cols in SMALL.shapes) * itemsize / 4 * 1.2
        candidates, rejected = enumerate_candidates(
            MACHINE, SMALL, tight, ua_schemes(), [1, 2, 4], ("C",)
        )
        assert rejected > 0
        assert all(cand.replication == (1, 1, 1) for cand in candidates)

    def test_impossible_budget_raises(self):
        with pytest.raises(ValueError):
            search_partitionings(MACHINE, SMALL, memory_budget_bytes=16)

    def test_memory_per_device_matches_budget_filter(self):
        footprint = memory_per_device(SMALL, (1, 1, 1), MACHINE.num_devices)
        assert footprint > 0
        candidates, _ = enumerate_candidates(
            MACHINE, SMALL, MACHINE.memory_capacity, ua_schemes(), [1], ("C",)
        )
        assert candidates[0].memory_per_device == footprint

    def test_enumeration_indices_are_dense(self):
        candidates, _ = enumerate_candidates(
            MACHINE, SMALL, MACHINE.memory_capacity, ua_schemes(), [1, 2], ("A", "B")
        )
        assert [cand.index for cand in candidates] == list(range(len(candidates)))


class TestPhaseAccounting:
    def test_operand_construction_is_timed_as_opgen(self, monkeypatch):
        """Building the symbolic operands is op-generation work, not bound work."""
        delay = 0.01
        calls = []
        original = BatchEvaluator._operand

        def slow_operand(self, *args):
            calls.append(args)
            time.sleep(delay)
            return original(self, *args)

        monkeypatch.setattr(BatchEvaluator, "_operand", slow_operand)
        _, stats = search_partitionings(MACHINE, SMALL, replication_factors=[1],
                                        stationary_options=("C",))
        slept = len(calls) * delay
        assert calls
        assert stats.opgen_seconds >= slept
        assert stats.bound_seconds < slept / 2
