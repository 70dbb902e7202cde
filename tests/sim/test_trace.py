"""Trace recording: executor integration and Chrome export."""

import json

import numpy as np

from repro.core.config import ExecutionConfig
from repro.core.matmul import plan_ops, universal_matmul
from repro.core.direct import DirectExecutor
from repro.core.cost_model import CostModel
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import ColumnBlock, RowBlock
from repro.runtime.runtime import Runtime
from repro.sim import EventEngine, EventKind, InMemoryTraceRecorder
from repro.sim.events import COMPUTE, COPY
from repro.topology.machines import uniform_system


def _operands(runtime, m=24, n=20, k=16):
    rng = np.random.default_rng(7)
    a = DistributedMatrix.from_dense(runtime, rng.random((m, k), dtype=np.float32),
                                     RowBlock(), name="A")
    b = DistributedMatrix.from_dense(runtime, rng.random((k, n), dtype=np.float32),
                                     ColumnBlock(), name="B")
    c = DistributedMatrix.create(runtime, (m, n), ColumnBlock(), name="C")
    return a, b, c


class TestExecutorTracing:
    def test_direct_executor_records_typed_events(self):
        runtime = Runtime(machine=uniform_system(4))
        a, b, c = _operands(runtime)
        recorder = InMemoryTraceRecorder()
        engine = EventEngine(runtime.num_ranks, recorder=recorder)
        cost_model = CostModel(runtime.machine)
        executor = DirectExecutor(a, b, c, cost_model, ExecutionConfig(),
                                  engine=engine)
        per_rank_ops = plan_ops(a, b, c, stationary="C")
        makespan, _ = executor.execute(per_rank_ops)

        np.testing.assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense(),
                                   rtol=1e-5)
        assert recorder.by_kind(EventKind.GEMM)
        assert recorder.by_kind(EventKind.FETCH)
        assert recorder.by_kind(EventKind.ACCUMULATE)
        assert max(event.end for event in recorder.events) == makespan

    def test_events_cover_every_rank(self):
        runtime = Runtime(machine=uniform_system(4))
        a, b, c = _operands(runtime)
        recorder = InMemoryTraceRecorder()
        engine = EventEngine(runtime.num_ranks, recorder=recorder)
        executor = DirectExecutor(a, b, c, CostModel(runtime.machine),
                                  ExecutionConfig(), engine=engine)
        executor.execute(plan_ops(a, b, c, stationary="B"))
        assert {event.device for event in recorder.events} == set(range(4))


class TestChromeExport:
    def test_chrome_trace_roundtrips_as_json(self, tmp_path):
        recorder = InMemoryTraceRecorder()
        engine = EventEngine(2, recorder=recorder)
        fetch = engine.record(EventKind.FETCH, 0, COPY, 0.0, 1.0, peer=1, occupancy=1.0,
                              label="get:A(0, 0)")
        engine.record(EventKind.GEMM, 0, COMPUTE, 1.0, 2.0, deps=(fetch,), label="gemm")
        engine.record(EventKind.SYNC, 0, None, 1.0, 0.0, deps=(fetch,), label="sync")

        path = recorder.dump_chrome_trace(str(tmp_path / "trace.json"))
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        # Zero-duration syncs are dropped from the visual trace.
        assert len(events) == 2
        by_name = {event["name"]: event for event in events}
        assert by_name["gemm"]["ts"] == 1.0e6  # modelled seconds -> microseconds
        assert by_name["gemm"]["dur"] == 2.0e6
        assert by_name["get:A(0, 0)"]["args"]["peer"] == 1
