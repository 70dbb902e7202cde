"""The critical-path bound's relaxed replay is memoized per rank stream.

A rank's relaxed fold reads only its priced columns plus the evaluator's
config and machine, so one evaluator answers a stream it has replayed before
from its memo: the same value, counted as a ``full`` hit.
"""

from repro.bench.schemes import ua_schemes
from repro.bench.sweep import valid_replication_factors
from repro.bench.workloads import attention_workload
from repro.core.config import ExecutionConfig
from repro.planner.search import enumerate_candidates
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import uniform_system
from tests.bound_oracle import candidate_lower_bound

MACHINE = uniform_system(4)
WORKLOAD = attention_workload(256, 64)
CONFIG = ExecutionConfig(simulate_only=True)


def _candidates():
    candidates, _ = enumerate_candidates(
        MACHINE, WORKLOAD, MACHINE.memory_capacity, ua_schemes(),
        valid_replication_factors(MACHINE.num_devices), ("A", "B", "C"))
    return candidates


def test_replay_stats_count_cold_folds_and_memo_hits():
    assert set(BatchEvaluator(MACHINE, WORKLOAD, CONFIG).replay_stats) == {"cold", "full"}


def test_second_bound_of_a_candidate_is_all_memo_hits():
    evaluator = BatchEvaluator(MACHINE, WORKLOAD, CONFIG)
    candidate = _candidates()[0]
    first = evaluator.critical_bound(candidate)
    before = dict(evaluator.replay_stats)
    assert before["cold"] > 0
    second = evaluator.critical_bound(candidate)
    assert second == first == candidate_lower_bound(MACHINE, WORKLOAD, candidate, CONFIG)
    after = evaluator.replay_stats
    assert after["cold"] == before["cold"]
    assert after["full"] > before["full"]


def test_memo_hits_across_candidates_keep_every_bound():
    """Streams shared between candidates (or ranks) hit the memo, and every
    bound still equals a fresh evaluator's."""
    warm = BatchEvaluator(MACHINE, WORKLOAD, CONFIG)
    for candidate in _candidates():
        assert warm.critical_bound(candidate) == BatchEvaluator(
            MACHINE, WORKLOAD, CONFIG).critical_bound(candidate), candidate
    assert warm.replay_stats["full"] > 0
