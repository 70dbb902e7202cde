"""The pruning bounds: admissibility of the bounds the search prunes with,
the critical-path bound's tightness, and ranking identity."""

import pytest

from repro.bench.schemes import ua_schemes
from repro.bench.sweep import run_ua_point
from repro.bench.workloads import Workload, attention_workload
from repro.core.config import ExecutionConfig, ExecutionMode
from repro.planner.search import Candidate, search_partitionings
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import GB, uniform_system
from tests.bound_oracle import BOUND_CRITICAL_PATH, BOUND_OCCUPANCY, candidate_lower_bound

CONFIG = ExecutionConfig(simulate_only=True)
#: Outer products on a slow fabric: accumulation traffic dominates compute.
COMM_BOUND_MACHINE = uniform_system(4)
COMM_BOUND_WORKLOAD = attention_workload(256, 64)


def _ranking(recommendations):
    return [(r.scheme.name, r.replication, r.stationary, r.simulated_time)
            for r in recommendations]


class TestAdmissibility:
    @pytest.mark.parametrize("scheme", ua_schemes(), ids=lambda s: s.name)
    @pytest.mark.parametrize("stationary", ["A", "B", "C"])
    def test_both_bounds_below_simulated_time(self, scheme, stationary):
        machine = uniform_system(4, link_bandwidth=10 * GB)
        workload = Workload("adm", 96, 160, 224)
        candidate = Candidate(index=0, scheme=scheme, replication=(2, 2, 2),
                              stationary=stationary, memory_per_device=0)
        simulated = run_ua_point(machine, workload, scheme, (2, 2, 2),
                                 stationary, CONFIG).simulated_time
        evaluator = BatchEvaluator(machine, workload, CONFIG)
        for bound, value in (
                ("occupancy", evaluator.frontier_occupancy_bounds([candidate])[0]),
                ("critical_path", evaluator.critical_bound(candidate))):
            assert value <= simulated * (1 + 1e-12), (bound, value, simulated)

    def test_critical_path_dominates_occupancy(self):
        machine = COMM_BOUND_MACHINE
        workload = COMM_BOUND_WORKLOAD
        scheme = next(s for s in ua_schemes() if s.name == "outer")
        candidate = Candidate(index=0, scheme=scheme, replication=(1, 1, 1),
                              stationary="C", memory_per_device=0)
        occupancy = candidate_lower_bound(machine, workload, candidate,
                                          CONFIG, BOUND_OCCUPANCY)
        critical = candidate_lower_bound(machine, workload, candidate,
                                         CONFIG, BOUND_CRITICAL_PATH)
        assert critical >= occupancy
        # On this communication-bound point the chain bound is strictly tighter.
        assert critical > occupancy * (1 + 1e-9)


class TestSearchWithCriticalPathBound:
    def test_ranking_identical_to_exhaustive(self):
        exhaustive, _ = search_partitionings(
            COMM_BOUND_MACHINE, COMM_BOUND_WORKLOAD, config=CONFIG,
            prune=False, top_k=3,
        )
        pruned, stats = search_partitionings(
            COMM_BOUND_MACHINE, COMM_BOUND_WORKLOAD, config=CONFIG, top_k=3,
        )
        assert _ranking(pruned) == _ranking(exhaustive)
        assert stats.num_pruned > 0

    def test_ir_mode_still_falls_back_to_exhaustive(self):
        config = ExecutionConfig(mode=ExecutionMode.IR, simulate_only=True)
        _, stats = search_partitionings(
            COMM_BOUND_MACHINE, attention_workload(64, 32), config=config,
            replication_factors=[1],
        )
        assert not stats.pruning_enabled
        assert stats.num_pruned == 0
