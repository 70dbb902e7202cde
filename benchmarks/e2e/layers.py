"""The per-layer ledger: each request's time split into named layers.

The traced pass wraps the public entry point of every layer at the name
binding its caller actually uses (``repro.planner.service.search_partitionings``,
``repro.core.matmul.generate_all_ops``, the ``BatchEvaluator`` methods, ...),
so nothing under ``src/`` changes.  A wrapper times its call and charges the
call's *self* time -- its duration minus the wrapped calls nested inside it --
to its layer, in the request that is running.  The per-request self times
stay in memory; the ledger table computed from them at the end of the run
is written with the run's result.

Whatever part of a request's wall time no wrapped call covers is the
``unattributed`` row; ``coverage`` is the attributed share.  Because every
row comes from the same requests that the wall time does, the rows always
add up to the request time they explain.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Ledger rows in print order: (layer, metric base name or None, unit).
#: Rows with a metric name report ``.p50``/``.p99``/``.share`` metrics;
#: ``obs.span_absorb`` is a ledger row only (it exists in traced runs only).
LAYERS: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("planner.service", "planner.service.self_us", "us"),
    ("planner.signature", "planner.signature.self_us", "us"),
    ("planner.cache.lookup", "planner.cache.lookup.self_us", "us"),
    ("planner.cache.put", "planner.cache.put.self_us", "us"),
    ("planner.graph", "planner.graph.self_ms", "ms"),
    ("planner.search", "planner.search.self_ms", "ms"),
    ("sim.batch.compile", "sim.batch.compile.self_ms", "ms"),
    ("sim.batch.frontier_bound", "sim.batch.frontier_bound.self_ms", "ms"),
    ("sim.batch.critical_bound", "sim.batch.critical_bound.self_ms", "ms"),
    ("sim.batch.simulate", "sim.batch.simulate.self_ms", "ms"),
    ("core.matmul", "core.matmul.self_ms", "ms"),
    ("core.slicing.opgen", "core.slicing.opgen.self_ms", "ms"),
    ("core.direct.execute", "core.direct.execute.self_ms", "ms"),
    ("dist.scatter", "dist.scatter.self_ms", "ms"),
    ("dist.gather", "dist.gather.self_ms", "ms"),
    ("serve.codec.client_encode", None, "us"),
    ("serve.codec.worker_decode", None, "us"),
    ("serve.worker.plan", "serve.worker.plan_us", "us"),
    ("serve.codec.worker_encode", None, "us"),
    ("serve.codec.client_decode", None, "us"),
    ("obs.span_absorb", None, "us"),
    ("serve.transport", "serve.transport_us", "us"),
)

_SCALE = {"us": 1e6, "ms": 1e3}

#: Called after a wrapped call returns, with its arguments and result.
Observer = Callable[[tuple, object], None]


def wrap_targets(ledger: "Ledger") -> List[Tuple[object, str, str, Optional[Observer]]]:
    """(owner, attribute, layer, observer) for every wrapped entry point."""
    from repro.core import direct, matmul
    from repro.dist import matrix
    from repro.planner import cache, graph, service, signature
    from repro.sim import batch

    return [
        (service.PlannerService, "plan", "planner.service", None),
        (service.PlannerService, "plan_graph", "planner.service", None),
        (signature.SignatureFactory, "signature_for", "planner.signature", None),
        (service.PlannerService, "graph_signature_for", "planner.signature", None),
        (cache.PlanCache, "get_for_serving", "planner.cache.lookup", None),
        (cache.PlanCache, "put", "planner.cache.put", None),
        (service, "plan_graph_layouts", "planner.graph", None),
        (service, "search_partitionings", "planner.search", None),
        (graph, "search_partitionings", "planner.search", None),
        (batch.BatchEvaluator, "compile", "sim.batch.compile", ledger.observe_program),
        (batch.BatchEvaluator, "frontier_occupancy_bounds", "sim.batch.frontier_bound",
         ledger.observe_evaluator),
        (batch.BatchEvaluator, "critical_bound", "sim.batch.critical_bound",
         ledger.observe_evaluator),
        (batch.BatchEvaluator, "simulate", "sim.batch.simulate", ledger.observe_evaluator),
        (batch, "generate_all_ops", "core.slicing.opgen", None),
        (matmul, "universal_matmul", "core.matmul", None),
        (matmul, "generate_all_ops", "core.slicing.opgen", None),
        (direct.DirectExecutor, "execute", "core.direct.execute", None),
        (matrix.DistributedMatrix, "from_dense", "dist.scatter", None),
        (matrix.DistributedMatrix, "create", "dist.scatter", None),
        (matrix.DistributedMatrix, "to_dense", "dist.gather", None),
    ]


class Ledger:
    """Per-request self time of every layer (one thread drives requests)."""

    def __init__(self) -> None:
        self.layers = [layer for layer, _, _ in LAYERS]
        self.self_seconds: Dict[str, array] = {layer: array("d") for layer in self.layers}
        self.calls: Dict[str, array] = {layer: array("q") for layer in self.layers}
        self.wall = array("d")
        self._stack: List[List[float]] = []
        self._current: Dict[str, List[float]] = {}
        #: Per-request scratch filled by observers: new programs' op counts
        #: and the evaluators the request used.
        self.programs: Dict[int, int] = {}
        self.evaluators: Dict[int, object] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def begin(self) -> None:
        """Start charging wrapped calls to a new request."""
        self._current = {}
        self.programs = {}
        self.evaluators = {}

    def add(self, layer: str, seconds: float, calls: int = 1) -> None:
        """Charge ``seconds`` of self time to ``layer`` in the current request."""
        entry = self._current.get(layer)
        if entry is None:
            self._current[layer] = [seconds, calls]
        else:
            entry[0] += seconds
            entry[1] += calls

    def end(self, wall_seconds: float) -> None:
        """Close the current request, whose wall time was ``wall_seconds``."""
        current = self._current
        for layer in self.layers:
            entry = current.get(layer)
            self.self_seconds[layer].append(entry[0] if entry else 0.0)
            self.calls[layer].append(int(entry[1]) if entry else 0)
        self.wall.append(wall_seconds)

    def observe_program(self, _args: tuple, program) -> None:
        self.programs.setdefault(id(program), program.num_ops)

    def observe_evaluator(self, args: tuple, _result) -> None:
        self.evaluators[id(args[0])] = args[0]

    def _timed(self, fn: Callable, layer: str, observe: Optional[Observer]) -> Callable:
        stack = self._stack
        perf = time.perf_counter
        add = self.add

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                add(layer, elapsed - frame[0])
            if observe is not None:
                observe(args, result)
            return result

        return timed

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Wrap every layer entry point for the duration of the block."""
        patches = []
        try:
            for owner, attribute, layer, observe in wrap_targets(self):
                original = vars(owner)[attribute]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._timed(original.__func__, layer, observe))
                else:
                    wrapped = self._timed(original, layer, observe)
                setattr(owner, attribute, wrapped)
                patches.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(patches):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def unattributed(self) -> np.ndarray:
        """Per-request wall time no layer row covers (seconds)."""
        covered = np.zeros(len(self.wall))
        for layer in self.layers:
            covered += np.frombuffer(self.self_seconds[layer], dtype=np.float64)
        return np.frombuffer(self.wall, dtype=np.float64) - covered

    def coverage(self) -> float:
        """Attributed share of the traced requests' total wall time."""
        wall = float(np.sum(np.frombuffer(self.wall, dtype=np.float64)))
        return 1.0 - float(np.sum(self.unattributed())) / wall if wall > 0 else 0.0

    def rows(self) -> List[dict]:
        """One table row per layer the requests touched, then ``unattributed``.

        ``p50``/``p99`` are over the requests that entered the layer; the
        share is of all traced wall time.
        """
        wall = np.frombuffer(self.wall, dtype=np.float64)
        total = float(np.sum(wall))
        rows = []
        for layer, metric, unit in LAYERS:
            selfs = np.frombuffer(self.self_seconds[layer], dtype=np.float64)
            calls = np.frombuffer(self.calls[layer], dtype=np.int64)
            touched = selfs[calls > 0]
            if touched.size == 0:
                continue
            scale = _SCALE[unit]
            rows.append({
                "layer": layer, "metric": metric, "unit": unit,
                "p50": float(np.percentile(touched, 50)) * scale,
                "p99": float(np.percentile(touched, 99)) * scale,
                "calls_per_request": float(np.mean(calls)),
                "share": float(np.sum(selfs)) / total if total > 0 else 0.0,
            })
        rest = self.unattributed()
        if rest.size:
            rows.append({
                "layer": "unattributed", "metric": None, "unit": "us",
                "p50": float(np.percentile(rest, 50)) * 1e6,
                "p99": float(np.percentile(rest, 99)) * 1e6,
                "calls_per_request": 1.0,
                "share": float(np.sum(rest)) / total if total > 0 else 0.0,
            })
        return rows

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer timing metric (zero for layers no request entered)."""
        found = {row["layer"]: row for row in self.rows()}
        out: Dict[str, Tuple[float, str]] = {}
        for layer, metric, unit in LAYERS:
            if metric is None:
                continue
            row = found.get(layer)
            out[f"{metric}.p50"] = (row["p50"] if row else 0.0, unit)
            out[f"{metric}.p99"] = (row["p99"] if row else 0.0, unit)
            out[f"{metric}.share"] = (row["share"] * 100.0 if row else 0.0, "%")
        rest = self.unattributed()
        out["ledger.coverage"] = (self.coverage(), "ratio")
        out["ledger.unattributed_us"] = (
            float(np.percentile(rest, 50)) * 1e6 if rest.size else 0.0, "us")
        return out


def render_rows(workload: str, rows: Sequence[dict], coverage: float) -> str:
    """The ledger table of one workload, as printed by ``run.py --trace 1``."""
    lines = [f"ledger {workload}: coverage {coverage:.3f} of traced wall time",
             f"  {'layer':<28} {'p50':>10} {'p99':>10} {'unit':>4} "
             f"{'calls/req':>9} {'share':>7}"]
    for row in rows:
        lines.append(
            f"  {row['layer']:<28} {row['p50']:>10.3f} {row['p99']:>10.3f} "
            f"{row['unit']:>4} {row['calls_per_request']:>9.2f} "
            f"{row['share'] * 100:>6.1f}%")
    return "\n".join(lines)
