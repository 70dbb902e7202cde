"""Direct execution of the sliced ops (paper Section 4.2).

The ops arrive as *columns*, one row per op, rank-major and in execution
order: :func:`repro.core.slicing.slice_table` rows priced once by
:meth:`TableExecutor.price` with :meth:`~repro.core.cost_model.CostModel.price_rows`,
the one pricer, which the IR executor and the planner's batch evaluator read
too.  :meth:`DirectExecutor.execute_columns` hands them to
:func:`repro.core.walk.walk_columns`, the one contended direct walk, which
the planner's :meth:`repro.sim.batch.BatchEvaluator.simulate` calls too.
The walk times every fetch, GEMM and accumulate with plain floats and makes
no per-op cost-model call; it moves the operands' data unless the config is
``simulate_only``.  :meth:`DirectExecutor.execute` turns ``LocalMatmulOp``
lists into the same rows with :func:`~repro.core.slicing.ops_table`.

The executor's ``engine`` only records.  Given an
:class:`~repro.sim.engine.EventEngine`, the walk records every event it
timed, with the start and duration it computed, for traces and
:meth:`~repro.sim.engine.EventEngine.critical_path`; without one, no event
is built.  A relaxed engine (``EventEngine(contention=False)``)
makes the walk drop the cross-device egress/ingress floors: the relaxation
behind the planner's critical-path lower bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel, tile_fetch_bytes
from repro.core.ops import LocalMatmulOp
from repro.core.result import RankStats
from repro.core.slicing import ops_table
from repro.core.structure import ROLE_A, ROLE_B, WorkloadStructure, resolve_structure
from repro.core.walk import walk_columns
from repro.dist.matrix import DistributedMatrix
from repro.sim.engine import EventEngine


class TableExecutor:
    """What both executors share: the operands, and their priced table rows.

    :meth:`price` prices one multiply's slicing-table rows with the cost
    model.  ``engine``, when given, records the executor's events.
    """

    def __init__(
        self,
        a: DistributedMatrix,
        b: DistributedMatrix,
        c: DistributedMatrix,
        cost_model: CostModel,
        config: Optional[ExecutionConfig] = None,
        engine: Optional[EventEngine] = None,
        structure: Optional[WorkloadStructure] = None,
    ) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.runtime = a.runtime
        self.cost_model = cost_model
        self.config = config or ExecutionConfig()
        self.engine = engine
        # Normalized to None for dense so pricing stays the historical
        # arithmetic (bit-exact with the committed snapshots); non-dense
        # structures scale every emitted event by its live fraction.
        self.structure = resolve_structure(structure)
        if self.structure is not None and not self.config.simulate_only:
            raise ValueError(
                "structured workloads are time-model only: masked blocks and "
                "padding rows carry no real data, so the executor cannot "
                "materialize them — use ExecutionConfig(simulate_only=True)"
            )

    def price(self, table: Dict[str, np.ndarray], prune: bool = True) -> Dict[str, np.ndarray]:
        """Event columns of one task's slicing-table rows, priced for the walk.

        ``prune`` drops the rows of fully masked cuboids of a structured
        workload (no flops survive).
        """
        model = self.cost_model
        itemsize = self.c.dtype.itemsize
        tile_bytes = [(tile_fetch_bytes(self.a, ROLE_A, self.structure),
                       tile_fetch_bytes(self.b, ROLE_B, self.structure))]
        cols = model.event_columns(table, tile_bytes, itemsize, self.structure,
                                   prune=prune)
        cols.update(model.price_rows(cols, itemsize, self.structure))
        return cols


class DirectExecutor(TableExecutor):
    """Executes per-rank op streams with the paper's direct-execution optimisations."""

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(self, per_rank_ops: Dict[int, List[LocalMatmulOp]]) -> Tuple[float, Dict[int, RankStats]]:
        """Run all ranks' op lists; returns (compute makespan, per-rank stats).

        The ops must already be in execution order (iteration offset applied
        by the caller when enabled) and be the slicing generator's ops of the
        rank they are listed for.  They are turned into table rows with
        :func:`~repro.core.slicing.ops_table` and walked by
        :meth:`execute_columns`.
        """
        table = ops_table(self.a, self.b, self.c, per_rank_ops)
        return self.execute_columns(self.price(table, prune=False))

    def execute_columns(self, cols: Dict[str, np.ndarray]) -> Tuple[float, Dict[int, RankStats]]:
        """Walk priced op columns; returns (compute makespan, per-rank stats).

        ``cols`` are :meth:`CostModel.event_columns` rows priced by
        :meth:`CostModel.price_rows`, rank-major and in execution order.
        The walk returns plain per-rank totals; each rank's
        :class:`~repro.core.result.RankStats` is built from them here.
        """
        makespan, totals = walk_columns(
            cols, (self.a, self.b, self.c), self.config,
            self.cost_model.machine.accumulate_compute_interference, self.engine)
        return makespan, {rank: RankStats(rank, *values)
                          for rank, values in enumerate(zip(*totals))}
