"""Plans are priced at the element size they are searched for.

``itemsize`` picks the float dtype of every symbolic operand (2/4/8 bytes ->
float16/32/64), in the batch evaluator, the scalar oracles and the
re-simulation alike; any other size is rejected before the search does any
work.
"""

import pytest

from repro.bench.schemes import scheme_by_name, ua_schemes
from repro.bench.sweep import run_ua_point
from repro.bench.workloads import Workload, attention_workload
from repro.core.config import ExecutionConfig
from repro.planner import PlannerService
from repro.planner import search as search_module
from repro.planner.search import Candidate, enumerate_candidates, search_partitionings
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import uniform_system
from tests.bound_oracle import (
    BOUND_CRITICAL_PATH,
    BOUND_OCCUPANCY,
    as_ranking,
    candidate_lower_bound,
    exhaustive_ranking,
)

MACHINE = uniform_system(4)
SMALL = Workload("small", 96, 160, 128)
CONFIG = ExecutionConfig(simulate_only=True)


def _candidate(scheme, replication, stationary):
    return Candidate(index=0, scheme=scheme_by_name(scheme), replication=replication,
                     stationary=stationary, memory_per_device=0)


def test_float16_plan_prices_half_the_moved_bytes():
    # "block" moves A and accumulates C remotely, so both byte counts are live.
    candidate = _candidate("block", (1, 1, 1), "B")
    wide = BatchEvaluator(MACHINE, SMALL, CONFIG).simulate(candidate)
    half = BatchEvaluator(MACHINE, SMALL, CONFIG, itemsize=2).simulate(candidate)
    for key in ("remote_get_bytes", "remote_accumulate_bytes"):
        assert wide.extra[key] > 0
        assert half.extra[key] * 2 == wide.extra[key]
    assert half.simulated_time < wide.simulated_time


def test_batch_and_scalar_paths_bit_equal_at_itemsize_2():
    candidates, _ = enumerate_candidates(MACHINE, SMALL, MACHINE.memory_capacity,
                                         ua_schemes(), [1, 2, 4], ("A", "B", "C"), 2)
    evaluator = BatchEvaluator(MACHINE, SMALL, CONFIG, itemsize=2)
    eager = evaluator.frontier_occupancy_bounds(candidates)
    for candidate, bound in zip(candidates[::5], eager[::5]):
        assert bound == candidate_lower_bound(MACHINE, SMALL, candidate, CONFIG,
                                              BOUND_OCCUPANCY, itemsize=2)
        assert evaluator.critical_bound(candidate) == candidate_lower_bound(
            MACHINE, SMALL, candidate, CONFIG, BOUND_CRITICAL_PATH, itemsize=2)
        batch = evaluator.simulate(candidate)
        scalar = run_ua_point(MACHINE, SMALL, candidate.scheme, candidate.replication,
                              candidate.stationary, CONFIG, itemsize=2)
        assert (batch.simulated_time, batch.extra) == (scalar.simulated_time,
                                                       scalar.extra)
    recommendations, _ = search_partitionings(MACHINE, SMALL, top_k=3, itemsize=2)
    assert as_ranking(recommendations) == exhaustive_ranking(MACHINE, SMALL, 3,
                                                             CONFIG, itemsize=2)


def test_float16_winner_resimulates_to_its_time():
    machine = uniform_system(8)
    with PlannerService(machine, itemsize=2) as service:
        response = service.plan(attention_workload(1024))
    workload = response.signature.representative_workload()
    for rec in response.recommendations:
        point = run_ua_point(machine, workload, rec.scheme, rec.replication,
                             rec.stationary, itemsize=2)
        assert point.simulated_time == rec.simulated_time
        assert run_ua_point(machine, workload, rec.scheme, rec.replication,
                            rec.stationary).simulated_time != rec.simulated_time


@pytest.mark.parametrize("itemsize", [3, 0, 16])
def test_unsupported_itemsize_raises_before_any_work(itemsize, monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("the search started before rejecting the itemsize")

    monkeypatch.setattr(search_module, "enumerate_candidates", no_work)
    with pytest.raises(ValueError, match="itemsize"):
        search_partitionings(MACHINE, SMALL, itemsize=itemsize)


@pytest.mark.parametrize("itemsize, label", [(2, "float16"), (4, "float32"), (8, "float64")])
def test_key_dtype_label_follows_itemsize(itemsize, label):
    """The default (4 bytes) keys as ``float32``, so stores written before
    the label was derived still load."""
    from repro.planner.signature import SignatureFactory

    signature = SignatureFactory(MACHINE, itemsize=itemsize).signature_for(SMALL)
    assert signature.dtype == label
    assert signature.key().split("|")[1] == label
