"""repro.sim — the event recorder and the planner's evaluator.

The direct walk (:func:`repro.core.walk.walk_columns`) and the IR executor
keep their own time with plain floats.  An :class:`EventEngine` handed to
either only records: the walk posts every fetch, GEMM and accumulate with
the start and duration it computed, and the engine keeps them as a DAG for
traces and critical paths.  The planner's batch evaluator
(:mod:`repro.sim.batch`) prices search frontiers and simulates winners with
the same walk, building no engine; its critical-path pruning bound is the
relaxed (contention-free) form of that walk.  (The comparators price with
closed forms; the test oracle ``tests/baseline_oracle.py`` replays their
schedules on the scheduling engine of ``tests/engine_oracle.py``.)

Quickstart — record a trace of a real execution::

    from repro.sim import EventEngine, InMemoryTraceRecorder

    recorder = InMemoryTraceRecorder()
    engine = EventEngine(num_devices=rt.num_ranks, recorder=recorder)
    executor = DirectExecutor(a, b, c, cost_model, config, engine=engine)
    executor.execute(per_rank_ops)
    recorder.dump_chrome_trace("matmul_trace.json")  # open in Perfetto
"""

from repro.sim.engine import EventEngine
from repro.sim.events import EventKind, ScheduledEvent
from repro.sim.graphtime import GraphTiming, dag_makespan
from repro.sim.trace import InMemoryTraceRecorder, TraceRecorder

__all__ = [
    "EventEngine",
    "EventKind",
    "ScheduledEvent",
    "GraphTiming",
    "dag_makespan",
    "InMemoryTraceRecorder",
    "TraceRecorder",
    "BatchEvaluator",
    "CandidateProgram",
]


def __getattr__(name: str):
    # repro.sim.batch imports the bench/core layers, which import this
    # package back for the engine — resolve the batch evaluator lazily so
    # the cycle never bites at import time.
    if name in ("BatchEvaluator", "CandidateProgram"):
        from repro.sim import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
