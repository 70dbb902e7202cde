"""Property pins of the one pricer against the scalar pricing oracle.

``CostModel`` writes every pricing formula once, elementwise over arrays;
``tests/pricing_oracle.py`` keeps the scalar, one-event-at-a-time form.
The contract is *bit-equality* (``==``), not closeness:

1. **Formulas** — ``gemm_time``, the structured roofline
   (``live_gemm_time``), ``transfer_time``, ``accumulate_time``,
   ``local_accumulate_time`` and ``device_link_time`` equal the oracle on
   every element of an array call and on a scalar call, across the uniform,
   PVC and H100 machines, with zero and tiny GEMM dimensions, ``src == dst``
   pairs and ``nbytes == 0`` in the draws.
2. **Replica reduction** — ``model_reduce_time`` equals the oracle's
   per-owner loop, dense and structured.
3. **Strategy estimates** — the dense ``estimate_all_strategies`` equals
   the oracle's ``estimate_op_lists`` over ``generate_all_ops`` for each
   strategy.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostModel
from repro.core.matmul import model_reduce_time
from repro.core.slicing import generate_all_ops
from repro.core.stationary import Stationary, estimate_all_strategies
from repro.core.structure import resolve_structure
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import Block2D, ColumnBlock, RowBlock
from repro.runtime.runtime import Runtime
from repro.topology.machines import h100_system, pvc_system, uniform_system
from repro.util.indexing import Interval
from tests import pricing_oracle as oracle
from tests import structure_oracle as geometry
from tests.property.test_batch_evaluator_properties import any_workload

_MACHINES = {"uniform": uniform_system, "pvc": pvc_system, "h100": h100_system}
_PARTITIONS = (RowBlock, ColumnBlock, Block2D)

#: GEMM dimensions: empty, tiny, and realistic.
_DIMS = st.one_of(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=4096))
#: Message sizes: empty, tiny, large, and fractional (live bytes of a structure).
_NBYTES = st.one_of(st.just(0), st.integers(min_value=0, max_value=64),
                    st.integers(min_value=0, max_value=1 << 28),
                    st.floats(min_value=0.0, max_value=1.0e8))


@st.composite
def cost_model(draw):
    name = draw(st.sampled_from(sorted(_MACHINES)))
    return CostModel(_MACHINES[name](draw(st.sampled_from([2, 4, 8]))))


@st.composite
def transfers(draw, model):
    """(src, dst, nbytes) lists plus nbytes as an array; about half the
    pairs have ``src == dst``."""
    p = model.machine.num_devices
    size = draw(st.integers(min_value=1, max_value=24))
    src = draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                        min_size=size, max_size=size))
    others = draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                           min_size=size, max_size=size))
    same = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    dst = [s if equal else d for s, d, equal in zip(src, others, same)]
    nbytes = draw(st.lists(_NBYTES, min_size=size, max_size=size))
    ints = all(isinstance(value, int) for value in nbytes)
    return src, dst, nbytes, np.array(nbytes, dtype=np.int64 if ints else np.float64)


def _same(array, expected):
    """``array`` equals the oracle's scalars element for element, bit for bit."""
    return np.asarray(array).tolist() == expected


class TestFormulasEqualOracle:
    @settings(max_examples=60, deadline=None)
    @given(model=cost_model(), itemsize=st.sampled_from([2, 4, 8]),
           dims=st.lists(st.tuples(_DIMS, _DIMS, _DIMS), min_size=1, max_size=24))
    def test_gemm_time(self, model, itemsize, dims):
        m, n, k = (np.array(column, dtype=np.int64) for column in zip(*dims))
        expected = [oracle.gemm_time(model, *dim, itemsize) for dim in dims]
        assert _same(model.gemm_time(m, n, k, itemsize), expected)
        assert [float(model.gemm_time(*dim, itemsize)) for dim in dims] == expected

    @settings(max_examples=60, deadline=None)
    @given(model=cost_model(), data=st.data())
    def test_transfer_and_accumulate_time(self, model, data):
        src, dst, nbytes, array = data.draw(transfers(model))
        src_a, dst_a = np.array(src), np.array(dst)
        for method, scalar in ((model.transfer_time, oracle.transfer_time),
                               (model.accumulate_time, oracle.accumulate_time)):
            expected = [scalar(model, *event) for event in zip(src, dst, nbytes)]
            assert _same(method(src_a, dst_a, array), expected)
            assert [float(method(*event)) for event in zip(src, dst, nbytes)] == expected

    @settings(max_examples=60, deadline=None)
    @given(model=cost_model(), accumulate=st.booleans(),
           nbytes=st.lists(_NBYTES, min_size=1, max_size=24))
    def test_local_accumulate_and_device_link_time(self, model, accumulate, nbytes):
        array = np.array(nbytes)
        expected = [oracle.local_accumulate_time(model, value) for value in nbytes]
        assert _same(model.local_accumulate_time(array), expected)
        assert [float(model.local_accumulate_time(value)) for value in nbytes] == expected
        expected = [oracle.device_link_time(model, value, accumulate) for value in nbytes]
        assert _same(model.device_link_time(array, accumulate), expected)
        assert [float(model.device_link_time(value, accumulate))
                for value in nbytes] == expected

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model=cost_model(),
           workload=any_workload().filter(lambda w: resolve_structure(w.structure)),
           itemsize=st.sampled_from([2, 4, 8]), data=st.data())
    def test_structured_roofline(self, model, workload, itemsize, data):
        structure = workload.structure
        cuboids = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            bounds = []
            for extent in (workload.m, workload.k, workload.n):
                start = data.draw(st.integers(min_value=0, max_value=extent - 1))
                stop = data.draw(st.integers(min_value=start + 1, max_value=extent))
                bounds.append(Interval(start, stop))
            cuboids.append(tuple(bounds))
        fractions = [geometry.op_fractions(structure, *cuboid) for cuboid in cuboids]
        dims = [geometry.gemm_dims(structure, *cuboid, fraction[0])
                for cuboid, fraction in zip(cuboids, fractions)]
        m, k, n = (np.array([bound.extent for bound in column], dtype=np.int64)
                   for column in zip(*cuboids))
        seconds = model.live_gemm_time(m, n, k, itemsize, np.array(fractions).T,
                                       np.array(dims).T)
        assert _same(seconds, [oracle.live_gemm_time(model, *cuboid, itemsize, structure)
                               for cuboid in cuboids])


@st.composite
def operands(draw, model):
    """Symbolic A, B, C with random shapes, partitions and replication."""
    p = model.machine.num_devices
    runtime = Runtime(machine=model.machine)
    m, n, k = (draw(st.integers(min_value=1, max_value=80)) for _ in range(3))
    factors = [f for f in range(1, p + 1) if p % f == 0]
    return tuple(
        DistributedMatrix.create(runtime, shape, draw(st.sampled_from(_PARTITIONS))(),
                                 replication=draw(st.sampled_from(factors)),
                                 dtype=draw(st.sampled_from([np.float32, np.float64])),
                                 name=name, materialize=False)
        for name, shape in (("A", (m, k)), ("B", (k, n)), ("C", (m, n))))


class TestScheduleTermsEqualOracle:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model=cost_model(), data=st.data())
    def test_model_reduce_time(self, model, data):
        _, _, c = data.draw(operands(model))
        origin = data.draw(st.integers(min_value=0,
                                       max_value=c.replication.num_replicas - 1))
        assert model_reduce_time(c, model, origin) == oracle.reduce_time(model, c, origin)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model=cost_model(), workload=any_workload(), replication=st.sampled_from([1, 2]))
    def test_structured_model_reduce_time(self, model, workload, replication):
        c = DistributedMatrix.create(Runtime(machine=model.machine),
                                     (workload.m, workload.n), Block2D(),
                                     replication=replication, name="C", materialize=False)
        assert model_reduce_time(c, model, structure=workload.structure) \
            == oracle.reduce_time(model, c, structure=workload.structure)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model=cost_model(), data=st.data())
    def test_estimate_all_strategies(self, model, data):
        a, b, c = data.draw(operands(model))
        expected = {strategy: oracle.estimate_op_lists(model,
                                                       generate_all_ops(a, b, c, strategy))
                    for strategy in Stationary}
        assert estimate_all_strategies(a, b, c, model) == expected
