"""The universal one-sided distributed matrix multiplication algorithm.

This package is the paper's primary contribution: op generation by slicing
(Algorithms 1-2 plus the Stationary-A variant), the direct execution engine
with the Section 4.2 optimisations, the computation-graph/IR lowering path of
Section 4.3, the cost model, and the :func:`universal_matmul` entry point.
"""

from repro.core.config import ExecutionConfig, ExecutionMode, LoweringStrategy
from repro.core.cost_model import CostModel, GemmShapeModel
from repro.core.structure import (
    DENSE,
    BlockSparse,
    Dense,
    MoERagged,
    WorkloadStructure,
    structure_from_dict,
)
from repro.core.ops import LocalMatmulOp, OperandRef
from repro.core.result import ExecutionResult, RankStats
from repro.core.stationary import (
    Stationary,
    choose_stationary_by_cost,
    choose_stationary_by_size,
    estimate_all_strategies,
    parse_stationary,
)
from repro.core.slicing import (
    check_coverage,
    generate_all_ops,
    generate_local_ops,
)
from repro.core.graph import ComputationGraph, DataNode
from repro.core.ir import IRCommOp, IRComputeOp, IRProgram, IRStep
from repro.core.lowering import lower_all_ranks, lower_to_ir
from repro.core.direct import DirectExecutor
from repro.core.schedule_sim import IRExecutor, estimate_program_time
from repro.core.matmul import plan_ops, universal_matmul

__all__ = [
    "ExecutionConfig",
    "ExecutionMode",
    "LoweringStrategy",
    "CostModel",
    "GemmShapeModel",
    "DENSE",
    "BlockSparse",
    "Dense",
    "MoERagged",
    "WorkloadStructure",
    "structure_from_dict",
    "LocalMatmulOp",
    "OperandRef",
    "ExecutionResult",
    "RankStats",
    "Stationary",
    "choose_stationary_by_cost",
    "choose_stationary_by_size",
    "estimate_all_strategies",
    "parse_stationary",
    "check_coverage",
    "generate_all_ops",
    "generate_local_ops",
    "ComputationGraph",
    "DataNode",
    "IRCommOp",
    "IRComputeOp",
    "IRProgram",
    "IRStep",
    "lower_all_ranks",
    "lower_to_ir",
    "DirectExecutor",
    "IRExecutor",
    "estimate_program_time",
    "plan_ops",
    "universal_matmul",
]
