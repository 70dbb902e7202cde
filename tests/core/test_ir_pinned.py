"""Pin IR-mode ``universal_matmul`` bit-exactly, and tie it to the lowering's estimate.

On the scheduling ablation's misaligned 12×PVC problem
(``benchmarks/bench_ablation_scheduling.misaligned_problem``), every
lowering strategy times stationary A, B and C.  ``ir_pinned_answers.json``
holds each run's ``compute_makespan`` and every per-rank
:class:`~repro.core.result.RankStats` field, floats as ``float.hex`` strings,
so a change in the last bit of any number fails.

The IR executor times a step as the max of its comm, compute and accumulate
sums, the rule :func:`~repro.core.schedule_sim.estimate_program_time` prices
a lowered program with; the makespan is therefore ``==`` the max over ranks
of that estimate, with and without the iteration offset, at every prefetch
depth.

Regenerate the file (only when an answer is meant to change) from the
repository root with::

    PYTHONPATH=src python -m tests.core.test_ir_pinned --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Dict

import pytest

from benchmarks.bench_ablation_scheduling import misaligned_problem
from repro.core.config import ExecutionConfig, ExecutionMode, LoweringStrategy
from repro.core.cost_model import CostModel
from repro.core.graph import ComputationGraph
from repro.core.lowering import lower_all_ranks
from repro.core.matmul import universal_matmul
from repro.core.schedule_sim import IRExecutor, estimate_program_time
from repro.core.slicing import OperandLayout, offset_permutation, slice_table
from repro.core.stationary import parse_stationary

PINNED_PATH = Path(__file__).with_name("ir_pinned_answers.json")

CASES = [(lowering, stationary) for lowering in LoweringStrategy for stationary in "ABC"]


def _config(lowering: LoweringStrategy, **options) -> ExecutionConfig:
    return ExecutionConfig(simulate_only=True, mode=ExecutionMode.IR, lowering=lowering,
                           **options)


def _encode(value):
    return value.hex() if isinstance(value, float) else value


def compute_answers() -> Dict[str, object]:
    """Each case's compute makespan and per-rank stats, keyed ``lowering/stationary``."""
    answers = {}
    for lowering, stationary in CASES:
        result = universal_matmul(*misaligned_problem(), stationary=stationary,
                                  config=_config(lowering))
        answers[f"{lowering.value}/{stationary}"] = {
            "compute_makespan": _encode(result.compute_makespan),
            "per_rank": [[_encode(value) for value in astuple(stats)]
                         for _, stats in sorted(result.per_rank.items())],
        }
    return answers


def estimated_makespan(stationary: str, config: ExecutionConfig) -> float:
    """The max over ranks of ``estimate_program_time``, on the rows and
    programs ``universal_matmul`` builds for the same problem."""
    a, b, c = misaligned_problem()
    executor = IRExecutor(a, b, c, CostModel(a.runtime.machine), config)
    cols = executor.price(slice_table([(OperandLayout(a), OperandLayout(b),
                                        OperandLayout(c), parse_stationary(stationary))]))
    if config.iteration_offset:
        order = offset_permutation(cols["rank"], cols["stat_i"], cols["stat_j"])
        cols = {name: column[order] for name, column in cols.items()}
    programs = lower_all_ranks(cols, config)
    return max(estimate_program_time(program, ComputationGraph.build(rank, cols))
               for rank, program in programs.items())


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return compute_answers()


def test_the_same_cases_are_pinned(pinned, current):
    assert sorted(current) == sorted(pinned)


@pytest.mark.parametrize("lowering, stationary", CASES,
                         ids=[f"{lowering.value}-{stationary}" for lowering, stationary in CASES])
def test_answers_are_bit_identical(pinned, current, lowering, stationary):
    key = f"{lowering.value}/{stationary}"
    assert current[key] == pinned[key]


@pytest.mark.parametrize("lowering", list(LoweringStrategy), ids=lambda s: s.value)
@pytest.mark.parametrize("stationary", "ABC")
@pytest.mark.parametrize("offset", [True, False])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_makespan_is_the_lowering_estimate(lowering, stationary, offset, depth):
    config = _config(lowering, iteration_offset=offset, prefetch_depth=depth)
    result = universal_matmul(*misaligned_problem(), stationary=stationary, config=config)
    assert result.compute_makespan == estimated_makespan(stationary, config)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_ir_pinned --write")
    PINNED_PATH.write_text(json.dumps(compute_answers(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED_PATH}")
