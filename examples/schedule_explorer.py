"""Inspect what the universal algorithm actually does: ops, graphs, IR schedules.

Run with ``python examples/schedule_explorer.py``.

For a small, deliberately misaligned problem (like the paper's Figure 1), this
example prints the list of local matrix-multiply operations one rank generates
by slicing, builds the bipartite computation graph, lowers it to the optimized
IR with the greedy and cost-model strategies, and compares the modelled
execution times of direct execution versus the lowered schedules.
"""

import numpy as np

from repro import CustomTiles, DistributedMatrix, ExecutionConfig, Runtime, universal_matmul
from repro.core import (
    ComputationGraph,
    CostModel,
    ExecutionMode,
    IRExecutor,
    LoweringStrategy,
    Stationary,
    estimate_program_time,
    generate_local_ops,
    lower_to_ir,
)
from repro.core.slicing import ops_table
from repro.topology import pvc_system


def build_problem(runtime: Runtime):
    m, n, k = 52, 44, 36
    a_part = CustomTiles([0, 13, 29, m], [0, 10, k])
    b_part = CustomTiles([0, 20, k], [0, 7, 30, n])
    c_part = CustomTiles([0, 25, m], [0, 11, n])
    rng = np.random.default_rng(3)
    a = DistributedMatrix.from_dense(runtime, rng.standard_normal((m, k)).astype(np.float32),
                                     a_part, name="A")
    b = DistributedMatrix.from_dense(runtime, rng.standard_normal((k, n)).astype(np.float32),
                                     b_part, name="B")
    c = DistributedMatrix.create(runtime, (m, n), c_part, name="C")
    return a, b, c


def main() -> None:
    runtime = Runtime(machine=pvc_system(12))
    a, b, c = build_problem(runtime)
    cost_model = CostModel(runtime.machine)

    rank = 1
    ops = generate_local_ops(a, b, c, Stationary.C, rank)
    print(f"rank {rank} generated {len(ops)} local matmul ops (Stationary C):")
    for op in ops:
        locality = "local" if not (op.a_is_remote or op.b_is_remote) else "needs comm"
        print(f"  {op.describe():<70s} [{locality}]")

    # The IR reads the ops as priced table rows.
    cols = IRExecutor(a, b, c, cost_model).price(ops_table(a, b, c, {rank: ops}))
    graph = ComputationGraph.build(rank, cols)
    print(f"\ncomputation graph: {graph.num_ops} compute nodes, "
          f"{len(graph.data_nodes)} data nodes, "
          f"{len(graph.remote_data_keys())} of them remote "
          f"({graph.total_remote_bytes() / 1e3:.1f} kB to fetch)")

    # Data nodes name tiles by flat row-major index.
    ncols = {"A": a.grid.num_col_tiles, "B": b.grid.num_col_tiles}
    for strategy in (LoweringStrategy.GREEDY, LoweringStrategy.COST_GREEDY):
        program = lower_to_ir(graph, ExecutionConfig(), strategy)
        estimate = estimate_program_time(program, graph)
        print(f"\nIR lowering with {strategy.value}: {program.num_steps} steps, "
              f"estimated {estimate * 1e6:.1f} us")
        for index, step in enumerate(program.steps):
            comms = ", ".join(f"fetch {name}{divmod(key, ncols[name])}"
                              for name, key in (comm.data for comm in step.comms)) or "-"
            computes = ", ".join(f"op{c.op_index}" for c in step.computes) or "-"
            print(f"  step {index}: compute [{computes}]  ||  comm [{comms}]")

    # Execute both ways and confirm they agree with NumPy and with each other.
    reference = a.to_dense() @ b.to_dense()
    direct_result = universal_matmul(a, b, c, stationary="C", config=ExecutionConfig())
    np.testing.assert_allclose(c.to_dense(), reference, rtol=1e-3, atol=1e-3)
    c.zero()
    ir_result = universal_matmul(
        a, b, c, stationary="C",
        config=ExecutionConfig(mode=ExecutionMode.IR, lowering=LoweringStrategy.COST_GREEDY),
    )
    np.testing.assert_allclose(c.to_dense(), reference, rtol=1e-3, atol=1e-3)

    print("\nmodelled execution time:")
    print(f"  direct execution      : {direct_result.simulated_time * 1e6:.1f} us")
    print(f"  IR (cost-model greedy): {ir_result.simulated_time * 1e6:.1f} us")
    print("both paths produce bit-identical results (checked against NumPy)")


if __name__ == "__main__":
    main()
