"""Ablation E7: direct execution vs lowering to the optimized IR.

Section 5.2 of the paper: optimal scheduling mattered for problems with
misaligned tiles before the direct-execution optimisations were added, but
with the iteration offset, prefetching, and asynchronous execution in place,
"direct execution was almost always as efficient as the optimal schedule".

Two comparisons are made here:

1. **Same timing model** (the headline check): the exhaustive-search lowering
   is used only to pick an *op order*, and that order is executed by the
   direct engine under the full contention model.  Direct execution with the
   paper's default order must be within a few percent of the search-optimised
   order.
2. **IR executor** (reported for completeness): the IR path's own step-bucket
   simulator, which by design does not model cross-rank link contention and is
   therefore an optimistic lower bound.

The Section 4.2 optimisations (asynchrony, prefetch, iteration offset, memory
pool) are ablated individually as well.
"""

import pytest

from benchmarks.harness_common import write_result
from repro.core.config import ExecutionConfig, ExecutionMode, LoweringStrategy
from repro.core.cost_model import CostModel
from repro.core.lowering import lower_all_ranks
from repro.core.matmul import universal_matmul
from repro.core.slicing import generate_all_ops, ops_table
from repro.core.direct import DirectExecutor
from repro.core.schedule_sim import IRExecutor
from repro.core.stationary import Stationary
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import CustomTiles
from repro.runtime.runtime import Runtime
from repro.topology.machines import pvc_system

MACHINE = pvc_system(12)
SCALE = 1024


def misaligned_problem(scale: int = SCALE):
    """A Figure-1-style problem whose operand tiles intentionally do not align."""
    m, n, k = 13 * scale, 11 * scale, 9 * scale
    runtime = Runtime(machine=MACHINE)
    a_part = CustomTiles([0, 3 * scale, 8 * scale, m], [0, 4 * scale, k])
    b_part = CustomTiles([0, 5 * scale, k], [0, 2 * scale, 6 * scale, n])
    c_part = CustomTiles([0, 6 * scale, m], [0, 3 * scale, 7 * scale, n])
    a = DistributedMatrix.create(runtime, (m, k), a_part, name="A", materialize=False)
    b = DistributedMatrix.create(runtime, (k, n), b_part, name="B", materialize=False)
    c = DistributedMatrix.create(runtime, (m, n), c_part, name="C", materialize=False)
    return a, b, c


def run_with(config: ExecutionConfig) -> float:
    a, b, c = misaligned_problem()
    return universal_matmul(a, b, c, stationary="C", config=config).simulated_time


def run_direct_with_search_order() -> float:
    """Execute the exhaustive-search (or cost-greedy fallback) op order with the
    direct engine, so both sides of the comparison share one contention model."""
    a, b, c = misaligned_problem()
    cost_model = CostModel(MACHINE)
    per_rank_ops = generate_all_ops(a, b, c, Stationary.C)
    config = ExecutionConfig(simulate_only=True, exhaustive_search_limit=50000)
    cols = IRExecutor(a, b, c, cost_model, config).price(ops_table(a, b, c, per_rank_ops))
    programs = lower_all_ranks(cols, config, LoweringStrategy.EXHAUSTIVE)
    reordered = {
        rank: [per_rank_ops[rank][i] for i in program.compute_indices()]
        for rank, program in programs.items()
    }
    executor = DirectExecutor(a, b, c, cost_model,
                              ExecutionConfig(simulate_only=True, iteration_offset=False))
    makespan, _ = executor.execute(reordered)
    return makespan


CONFIGS = {
    "direct (paper defaults)": ExecutionConfig(simulate_only=True),
    "direct, no iteration offset": ExecutionConfig(simulate_only=True,
                                                   iteration_offset=False),
    "direct, no prefetch": ExecutionConfig(simulate_only=True, prefetch_depth=0),
    "direct, fully synchronous": ExecutionConfig.synchronous().evolve(simulate_only=True),
    "IR greedy (no contention model)": ExecutionConfig(
        simulate_only=True, mode=ExecutionMode.IR, lowering=LoweringStrategy.GREEDY),
    "IR cost-model greedy (no contention model)": ExecutionConfig(
        simulate_only=True, mode=ExecutionMode.IR, lowering=LoweringStrategy.COST_GREEDY),
    "IR exhaustive (no contention model)": ExecutionConfig(
        simulate_only=True, mode=ExecutionMode.IR, lowering=LoweringStrategy.EXHAUSTIVE,
        exhaustive_search_limit=50000),
}


@pytest.fixture(scope="module")
def results():
    outcome = {name: run_with(config) for name, config in CONFIGS.items()}
    outcome["direct, exhaustive-search op order"] = run_direct_with_search_order()
    return outcome


class TestSchedulingAblation:
    def test_report(self, results):
        lines = ["Scheduling ablation on a misaligned-tile problem (12xPVC model)",
                 "----------------------------------------------------------------"]
        baseline = results["direct (paper defaults)"]
        for name, value in sorted(results.items(), key=lambda item: item[1]):
            lines.append(f"{name:<44s} {value * 1e3:9.3f} ms   ({value / baseline:5.2f}x)")
        write_result("ablation_scheduling", "\n".join(lines))
        print("\n".join(lines))

    def test_direct_execution_close_to_optimised_order(self, results):
        """The paper's headline scheduling claim, under a single timing model."""
        direct = results["direct (paper defaults)"]
        optimised = results["direct, exhaustive-search op order"]
        assert direct <= optimised * 1.10

    def test_asynchrony_is_the_dominant_optimisation(self, results):
        assert results["direct, fully synchronous"] > \
            1.5 * results["direct (paper defaults)"]

    def test_iteration_offset_does_not_hurt(self, results):
        assert results["direct (paper defaults)"] <= \
            results["direct, no iteration offset"] * 1.02

    def test_prefetch_within_noise_of_no_prefetch(self, results):
        """Prefetch traffic competes with demand traffic under contention, so
        its benefit on this problem is small; it must not cost more than a few
        percent either."""
        assert results["direct (paper defaults)"] <= \
            results["direct, no prefetch"] * 1.10

    def test_ir_lower_bound_consistency(self, results):
        """The contention-free IR estimates must not exceed the direct engine's
        contention-aware times (they are optimistic by construction)."""
        assert results["IR exhaustive (no contention model)"] <= \
            results["direct (paper defaults)"] * 1.05


@pytest.mark.parametrize("name", ["direct (paper defaults)",
                                  "IR cost-model greedy (no contention model)"])
def test_benchmark_scheduling_mode(benchmark, name):
    config = CONFIGS[name]
    time = benchmark(run_with, config)
    assert time > 0
