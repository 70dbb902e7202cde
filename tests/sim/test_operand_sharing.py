"""The batch evaluator builds each symbolic operand once per search.

A candidate's ops depend only on A's, B's and C's (partition, replication),
so (scheme, replication) classes that place an operand alike share one
symbolic matrix, one slicing layout and one per-tile term for it.
"""

from repro.bench.schemes import ua_schemes
from repro.bench.sweep import valid_replication_factors
from repro.bench.workloads import attention_workload
from repro.core.config import ExecutionConfig
from repro.core.structure import ROLE_A, ROLE_B, ROLE_C
from repro.dist.matrix import DistributedMatrix
from repro.planner.search import enumerate_candidates
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import uniform_system

MACHINE = uniform_system(8)
WORKLOAD = attention_workload(1024)


def _candidates():
    candidates, _ = enumerate_candidates(
        MACHINE, WORKLOAD, MACHINE.memory_capacity, ua_schemes(),
        valid_replication_factors(MACHINE.num_devices), ("A", "B", "C"))
    return candidates


def _distinct_operands(candidates):
    p = MACHINE.num_devices
    operands = set()
    for candidate in candidates:
        parts = candidate.scheme.partitions(
            WORKLOAD, *(p // rep for rep in candidate.replication))
        operands.update(zip((ROLE_A, ROLE_B, ROLE_C), parts, candidate.replication))
    return operands


def test_one_matrix_build_per_distinct_operand(monkeypatch):
    candidates = _candidates()
    assert len({(c.scheme.name, c.replication) for c in candidates}) == 96
    created = []
    original = DistributedMatrix.create

    def counting(*args, **kwargs):
        created.append(kwargs.get("name"))
        return original(*args, **kwargs)

    monkeypatch.setattr(DistributedMatrix, "create", counting)
    evaluator = BatchEvaluator(MACHINE, WORKLOAD, ExecutionConfig(simulate_only=True))
    evaluator.frontier_occupancy_bounds(candidates)
    # One refinement and one simulation per class, every stationary in turn.
    for candidate in candidates[::3]:
        evaluator.critical_bound(candidate)
        evaluator.simulate(candidate)
    assert len(created) == len(_distinct_operands(candidates)) == 48


def test_classes_sharing_an_operand_share_its_layout_and_terms():
    candidates = _candidates()
    evaluator = BatchEvaluator(MACHINE, WORKLOAD)
    evaluator.frontier_occupancy_bounds(candidates)
    by_scheme = {}
    for candidate in candidates:
        by_scheme.setdefault(candidate.scheme.name, {})[candidate.replication] = candidate
    # Same scheme and A/B replication, different C replication: A and B are
    # the same operands, C is not.
    column = by_scheme["column"]
    left = evaluator._class_data(column[(2, 2, 1)])
    right = evaluator._class_data(column[(2, 2, 4)])
    assert left is not right
    assert left.a is right.a and left.b is right.b and left.c is not right.c
    assert left.layouts[0] is right.layouts[0]
    assert left.layouts[1] is right.layouts[1]
    assert left.layouts[2] is not right.layouts[2]
    assert left.tile_bytes[0] is right.tile_bytes[0]
    assert left.tile_bytes[1] is right.tile_bytes[1]
    # Across schemes: "column" and "outer" both split A into column blocks.
    outer = evaluator._class_data(by_scheme["outer"][(2, 2, 1)])
    assert outer.layouts[0] is left.layouts[0]
    assert outer.layouts[1] is not left.layouts[1]
