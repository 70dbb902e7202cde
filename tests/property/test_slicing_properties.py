"""The batched slicing table against single tasks and the paper's loops.

``slice_table`` builds the ops of a whole batch of tasks at once: it cuts
each distinct axis once, expands Stationary A and B blocks straight into
their loop order, and shares layouts between tasks.  Neither sharing nor
batching may change a row, so for random batches:

* the batch's rows are each task's single-task table, row for row and in
  order (tasks renumbered);
* each task's rows, on the ``ops_table`` columns, are the rows of the loop
  oracle ``tests/slicing_oracle.oracle_all_ops``, in the same order.

Inputs are uneven ``CustomTiles`` with several tiles per owner, replication
on all three operands (extents may be shorter than a replica share count),
and batches that mix the three stationaries and share layouts by identity.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.slicing import OperandLayout, ops_table, slice_table
from repro.core.stationary import Stationary
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import CustomTiles
from repro.runtime.runtime import Runtime
from repro.topology.machines import uniform_system
from tests.slicing_oracle import oracle_all_ops

NUM_RANKS = 4
#: The slicing-table columns :func:`ops_table` rebuilds from op lists.
OP_COLUMNS = ("rank", "m0", "m1", "k0", "k1", "n0", "n1", "a_key", "a_owner",
              "b_key", "b_owner", "c_key", "c_owner", "stat_i", "stat_j")


@st.composite
def splits(draw, extent):
    """Uneven split points: up to five tiles, so owners hold several."""
    if extent == 1:
        return [0, 1]
    count = draw(st.integers(min_value=0, max_value=min(extent - 1, 4)))
    interior = draw(st.lists(st.integers(min_value=1, max_value=extent - 1),
                             min_size=count, max_size=count, unique=True))
    return [0] + sorted(interior) + [extent]


@st.composite
def batches(draw):
    """Tasks ``((A matrix, layout), (B ...), (C ...), stationary)`` drawn from
    small per-operand pools, so tasks share layouts by identity."""
    m, k, n = (draw(st.integers(min_value=1, max_value=24)) for _ in range(3))
    runtime = Runtime(machine=uniform_system(NUM_RANKS))
    pools = []
    for name, (rows, cols) in zip("ABC", ((m, k), (k, n), (m, n))):
        pool = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            partition = CustomTiles(draw(splits(rows)), draw(splits(cols)))
            matrix = DistributedMatrix.create(
                runtime, (rows, cols), partition, name=name, materialize=False,
                replication=draw(st.sampled_from([1, 2, 4])))
            pool.append((matrix, OperandLayout(matrix)))
        pools.append(pool)
    tasks = draw(st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in pools),
                  st.sampled_from(list(Stationary))),
        min_size=1, max_size=8))
    return tasks


def _rows(table, lo, hi, names):
    return {name: table[name][lo:hi] for name in names}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(tasks=batches())
def test_batch_rows_are_each_tasks_table_and_the_loop_oracle(tasks):
    batch = slice_table([(a[1], b[1], c[1], stationary)
                         for a, b, c, stationary in tasks])
    assert set(batch) == set(OP_COLUMNS) | {"task", "a_i", "a_j", "b_i", "b_j",
                                            "c_i", "c_j"}
    assert all(column.dtype == np.int64 for column in batch.values())
    task = batch["task"]
    assert np.all(task[1:] >= task[:-1])
    starts = np.searchsorted(task, np.arange(len(tasks) + 1))
    for t, ((a, layout_a), (b, layout_b), (c, layout_c), stationary) in enumerate(tasks):
        lo, hi = starts[t], starts[t + 1]
        single = slice_table([(layout_a, layout_b, layout_c, stationary)])
        assert np.array_equal(single["task"], np.zeros(hi - lo, dtype=np.int64))
        names = [name for name in single if name != "task"]
        for name, column in _rows(batch, lo, hi, names).items():
            assert np.array_equal(column, single[name]), (t, name)
        oracle = ops_table(a, b, c, oracle_all_ops(a, b, c, stationary))
        for name, column in _rows(batch, lo, hi, OP_COLUMNS).items():
            assert np.array_equal(column, oracle[name]), (t, stationary, name)
