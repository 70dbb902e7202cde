"""repro.sim — the unified discrete-event simulation engine.

Every event-level time path in the library prices through this package:
the direct executor and the IR executor emit typed events instead of
charging clocks inline, and the planner's critical-path pruning bound is the
makespan of the same event stream scheduled on a relaxed (contention-free)
engine.  (The comparators price with closed forms; the test oracle
``tests/baseline_oracle.py`` replays their schedules here.)

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
