"""The batch evaluator builds a frontier's event tables in one slicing call.

Whether a candidate is compiled with its whole frontier, one at a time, or
after part of the frontier was already compiled, its table, ``rank_starts``
and occupancy bound must be identical: the frontier build only lays the
same rows end to end, so any slip in its cross-candidate offset bookkeeping
shows up here.  Also pins the execution-order views against the op-object
path.
"""

import numpy as np
import pytest

from repro.bench.schemes import ua_schemes
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.slicing import generate_all_ops
from repro.core.stationary import parse_stationary
from repro.core.structure import BlockSparse, MoERagged, resolve_structure
from repro.planner.search import enumerate_candidates
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import uniform_system
from tests.slicing_oracle import apply_iteration_offset, prune_structured_ops

MACHINE = uniform_system(4)
CONFIG = ExecutionConfig(simulate_only=True)
WORKLOADS = [
    Workload("dense_96x160x128", 96, 160, 128),
    Workload("bs_128x128x128", 128, 128, 128, structure=BlockSparse(
        block_k=32, block_n=32,
        mask=((True, False, False, True), (False, False, False, False),
              (True, True, False, False), (False, True, False, True)))),
    Workload("moe_128x96x64", 128, 96, 64,
             structure=MoERagged(expert_tokens=(32, 5, 0, 17), capacity=32)),
]


def _frontier(workload):
    candidates, _ = enumerate_candidates(
        MACHINE, workload, MACHINE.memory_capacity, ua_schemes(), [1, 2, 4],
        ("A", "B", "C"))
    assert len({c.scheme.name for c in candidates}) > 1
    assert len({c.replication for c in candidates}) > 1
    assert {c.stationary for c in candidates} == {"A", "B", "C"}
    return candidates


def _assert_same_program(left, right):
    assert left.num_ops == right.num_ops
    assert left.table.keys() == right.table.keys()
    for name in left.table:
        assert left.table[name].dtype == right.table[name].dtype, name
        assert np.array_equal(left.table[name], right.table[name]), name
    assert np.array_equal(left.rank_starts, right.rank_starts)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_batched_compile_equals_one_at_a_time(workload):
    candidates = _frontier(workload)
    batched = BatchEvaluator(MACHINE, workload, CONFIG)
    bounds = batched.frontier_occupancy_bounds(candidates)

    single = BatchEvaluator(MACHINE, workload, CONFIG)
    for candidate in candidates:
        single.compile(candidate)
    assert single.frontier_occupancy_bounds(candidates) == bounds

    # Part of the frontier compiled first, the rest by the frontier pass,
    # and the frontier visited in reverse.
    mixed = BatchEvaluator(MACHINE, workload, CONFIG)
    for candidate in candidates[::3]:
        mixed.compile(candidate)
    assert mixed.frontier_occupancy_bounds(candidates[::-1]) == bounds[::-1]

    for candidate in candidates:
        program = batched.compile(candidate)
        _assert_same_program(program, single.compile(candidate))
        _assert_same_program(program, mixed.compile(candidate))


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_execution_order_views_follow_the_op_stream(workload):
    """Offset views rotate exactly like ``apply_iteration_offset``, and the
    view cache is keyed on the flag it was asked for."""
    evaluator = BatchEvaluator(MACHINE, workload, CONFIG)
    for candidate in _frontier(workload)[::5]:
        program = evaluator.compile(candidate)
        plain = program.exec_columns(False)
        rotated = program.exec_columns(True)
        assert program.exec_columns(False) is plain
        cls = program.cls
        per_rank_ops = generate_all_ops(cls.a, cls.b, cls.c,
                                        parse_stationary(candidate.stationary))
        structure = resolve_structure(workload.structure)
        if structure is not None:
            per_rank_ops = prune_structured_ops(per_rank_ops, structure)
        for columns, reorder in ((plain, list), (rotated, apply_iteration_offset)):
            stream = [(op.rank, op.m_bound.start, op.k_bound.start, op.n_bound.start)
                      for rank in sorted(per_rank_ops)
                      for op in reorder(per_rank_ops[rank])]
            assert list(zip(*(columns[name].tolist()
                               for name in ("rank", "m0", "k0", "n0")))) == stream
            fetched = set()
            for side in ("a", "b"):
                for rank, key, remote, first in zip(
                        *(columns[name].tolist() for name in (
                            "rank", f"{side}_key", f"{side}_remote", f"{side}_first"))):
                    assert first == (remote and (rank, side, key) not in fetched)
                    if remote:
                        fetched.add((rank, side, key))
