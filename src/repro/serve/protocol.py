"""Wire protocol of the plan-serving front: length-prefixed JSON frames.

Every message — request or response, either direction — is one *frame*:

* a 4-byte big-endian unsigned length header (``struct`` format ``!I``),
* followed by exactly that many bytes of UTF-8 JSON encoding one object.

JSON keeps the protocol debuggable (``socat`` + eyeballs) and reuses the
serializers the persistent plan store already has
(:func:`repro.planner.cache.recommendation_to_dict`,
:meth:`repro.bench.workloads.Workload.to_dict`); the length prefix makes
framing trivial: one :class:`FrameDecoder` reads the worker's non-blocking
feeds and the client's blocking sockets, whose timeouts are kernel socket
options, so a round trip is one ``sendall`` and one ``recv``.

Requests are objects with an ``"op"`` discriminator:

* ``{"op": "plan", "workload": <Workload.to_dict()>, "top_k": <int|null>}`` —
  optionally carrying ``"trace": {"trace_id", "parent_span_id"}``, the
  client's tracing context; a tracing-enabled worker adopts it and returns
  its recorded spans in the response payload (``"spans"``), so one request
  renders as a single cross-process timeline
* ``{"op": "plan_graph", "graph": <OpGraph.to_dict()>, "lattice_size":
  <int|null>}`` — joint layout planning over an op chain/DAG; accepts the
  same optional ``"trace"`` context as ``plan``
* ``{"op": "ping"}`` — identify the worker owning this connection (the reply
  carries the worker's :data:`PROTOCOL_VERSION`)
* ``{"op": "stats"}`` — that worker's serving/cache counters
* ``{"op": "metrics"}`` — that worker's metrics-registry snapshot
  (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`; empty when the fleet
  runs with metrics disabled)

Responses are ``{"ok": true, "result": ...}`` on success or
``{"ok": false, "error": {"type": ..., "message": ...}}`` on failure; the
client re-raises failures as :class:`~repro.serve.client.RemotePlanError`.

``plan`` and ``plan_graph`` share one wire shape, because a graph plan is a
plan plus graph fields: both requests are built by one helper (subject,
option, optional trace), and a ``plan_graph`` result is a ``plan`` result
plus ``assignment``, ``makespan``, ``greedy_makespan`` and ``method`` —
read back as a :class:`RemoteGraphPlanResponse`, a
:class:`RemotePlanResponse` subclass.  One ordered field table per reply
(:data:`PLAN_REPLY_FIELDS`) drives the payload, the worker's frame writer
and the client's reader.  A hit's reply is spliced from the served entry's
cached bytes (:func:`reply_frame`): only its per-request fields are encoded.

Versioning: replies have one dialect (:data:`PROTOCOL_VERSION`).  A
fleet's parent, workers and clients are one build, so every field a server
always sends is required and a reply missing one raises
:class:`ProtocolError`; only ``trace_id``/``spans`` are optional (tracing
is per request).  Requests keep optional fields, and a server ignores
unknown request keys.

Frames larger than :data:`MAX_MESSAGE_BYTES` are rejected on both send and
receive — a corrupt length header must fail fast, not allocate gigabytes.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional

from repro.bench.selector import PartitioningRecommendation
from repro.bench.workloads import Workload
from repro.planner.cache import recommendation_from_dict, recommendation_to_dict
from repro.planner.service import GraphPlanResponse, PlanResponse

#: The protocol dialect this build speaks, as ``(major, minor)`` (the
#: ``ping`` reply carries it; see "Versioning" above).
PROTOCOL_VERSION = (1, 5)

#: Frame header: one network-order unsigned 32-bit payload length.
HEADER = struct.Struct("!I")

#: Upper bound on a single frame's JSON payload (sanity guard, not a tuning
#: knob: the largest legitimate message — a top-k plan response — is a few
#: kilobytes).
MAX_MESSAGE_BYTES = 64 << 20

#: The frame body encoder: ``json.dumps`` with compact separators, built once.
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: Bytes a blocking :meth:`FrameDecoder.read` asks ``recv`` for at once:
#: more than any plan reply, so a reply takes one ``recv``.
READ_SIZE = 64 << 10


class ProtocolError(RuntimeError):
    """A malformed, truncated, or oversized frame (or a mid-frame disconnect)."""


def encode_frame(payload: Dict[str, object]) -> bytes:
    """Serialize one message object to its on-wire frame (header + JSON)."""
    return _checked_frame(_encode(payload).encode("utf-8"))


def _checked_frame(body: bytes) -> bytes:
    """``body`` behind its length header; oversized bodies raise."""
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(body)} bytes exceeds "
                            f"MAX_MESSAGE_BYTES={MAX_MESSAGE_BYTES}")
    return HEADER.pack(len(body)) + body


def send_message(sock: socket.socket, payload: Dict[str, object]) -> None:
    """Write ``payload`` to ``sock`` as one frame, in one ``sendall`` that the
    socket's own timeout bounds (``SO_SNDTIMEO`` on a client connection)."""
    sock.sendall(encode_frame(payload))


def recv_message(sock: socket.socket) -> Optional[Dict[str, object]]:
    """The one reply of a round trip (:meth:`FrameDecoder.read` on a fresh
    decoder; ``None`` on clean EOF).  Bytes past it raise :class:`ProtocolError`:
    read pipelined frames with one decoder's :meth:`~FrameDecoder.read`."""
    decoder = FrameDecoder()
    message = decoder.read(sock)
    if decoder.pending_bytes:
        raise ProtocolError(f"{decoder.pending_bytes} bytes past the reply frame")
    return message


class FrameDecoder:
    """The one frame reader: :meth:`feed` it a non-blocking ``recv``'s bytes
    (the worker) or :meth:`read` a blocking socket (the client); messages
    come out in order and partial frames wait in the buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        """Absorb ``data`` and return every message it completed.

        Raises:
            ProtocolError: on oversized lengths or undecodable bodies.
        """
        self._buffer.extend(data)
        messages: List[Dict[str, object]] = []
        while (message := self._pop()) is not None:
            messages.append(message)
        return messages

    def read(self, sock: socket.socket) -> Optional[Dict[str, object]]:
        """The next message from blocking ``sock``; ``None`` on clean EOF.

        One ``recv`` of up to :data:`READ_SIZE` bytes per frame, looping
        only on short reads; bytes past the message stay buffered.  Raises
        :class:`ProtocolError` on a mid-frame disconnect or a bad frame, and
        ``OSError`` on a broken connection (``BlockingIOError`` when the
        socket's receive timeout expires).
        """
        while (message := self._pop()) is None:
            data = sock.recv(READ_SIZE)
            if not data:
                if self._buffer:
                    raise ProtocolError(f"connection closed mid-frame "
                                        f"({len(self._buffer)} bytes buffered)")
                return None
            self._buffer.extend(data)
        return message

    def _pop(self) -> Optional[Dict[str, object]]:
        """Remove and decode the buffer's first frame, if it is whole."""
        buffer = self._buffer
        if len(buffer) < HEADER.size:
            return None
        (length,) = HEADER.unpack_from(buffer)
        if length > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds "
                                f"MAX_MESSAGE_BYTES={MAX_MESSAGE_BYTES}")
        end = HEADER.size + length
        if len(buffer) < end:
            return None
        body = buffer[HEADER.size:end]
        del buffer[:end]
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise ProtocolError(f"undecodable frame body: {error}") from error
        if not isinstance(payload, dict):
            raise ProtocolError(f"frame body must be a JSON object, got {type(payload).__name__}")
        return payload

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame (observability hook)."""
        return len(self._buffer)


# ---------------------------------------------------------------------- #
# request / response constructors
# ---------------------------------------------------------------------- #
def plan_request(workload: Workload, top_k: Optional[int] = None,
                 trace: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Build the ``plan`` request for one workload (structure included).

    Args:
        workload: the problem to partition.
        top_k: ranked plans wanted (``None``: server default).
        trace: optional tracing context to propagate —
            ``{"trace_id": ..., "parent_span_id": ...}`` (omitted from the
            wire when ``None``).
    """
    return _plan_message("plan", "workload", workload, "top_k", top_k, trace)


def plan_graph_request(graph, lattice_size: Optional[int] = None,
                       trace: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Build the ``plan_graph`` request for one op graph.

    Args:
        graph: the :class:`repro.core.graph.OpGraph` to plan jointly.
        lattice_size: per-op layout candidates to consider (``None``: server
            default).
        trace: optional tracing context to propagate, exactly as in
            :func:`plan_request`.
    """
    return _plan_message("plan_graph", "graph", graph, "lattice_size",
                         lattice_size, trace)


def _plan_message(op: str, subject_key: str, subject, option_key: str,
                  option: Optional[int],
                  trace: Optional[Dict[str, object]]) -> Dict[str, object]:
    """The one request shape both plan ops share: subject, option, trace."""
    message: Dict[str, object] = {"op": op, subject_key: subject.to_dict(),
                                  option_key: option}
    if trace is not None:
        message["trace"] = trace
    return message


def ping_request() -> Dict[str, object]:
    """Build the ``ping`` request (worker identification / liveness)."""
    return {"op": "ping"}


def stats_request() -> Dict[str, object]:
    """Build the ``stats`` request (the owning worker's counters)."""
    return {"op": "stats"}


def metrics_request() -> Dict[str, object]:
    """Build the ``metrics`` request (the owning worker's registry snapshot)."""
    return {"op": "metrics"}


def ok_response(result: object) -> Dict[str, object]:
    """Wrap a successful dispatch result."""
    return {"ok": True, "result": result}


def error_response(error: BaseException) -> Dict[str, object]:
    """Wrap a server-side failure (type name + message travel to the client)."""
    return {"ok": False,
            "error": {"type": type(error).__name__, "message": str(error)}}


# ---------------------------------------------------------------------- #
# plan replies
# ---------------------------------------------------------------------- #
#: A plan reply's fields in wire order: ``(name, entry value, reader)``.  The
#: entry value reads a field that is the same on every serve of one cached
#: entry (a hit splices it from the entry's memo) off the response; ``None``
#: marks a per-request field.  The reader makes the client's field.
PLAN_REPLY_FIELDS = (
    ("recommendations",
     lambda response: [recommendation_to_dict(r) for r in response.recommendations],
     lambda value: [recommendation_from_dict(item) for item in value]),
    ("signature_key", lambda response: response.signature.key(), str),
    ("cache_hit", None, bool), ("coalesced", None, bool),
    ("planning_time", None, float), ("num_simulated", None, int),
    ("num_pruned", None, int), ("worker", None, int), ("pid", None, int),
    ("plan_age", None, float), ("stale", None, bool),
    ("generation", None, int), ("trace_id", None, str), ("spans", None, list),
)

#: A graph plan reply: the plan fields, then the graph fields.
GRAPH_PLAN_REPLY_FIELDS = PLAN_REPLY_FIELDS + (
    ("assignment", lambda response: list(response.assignment),
     lambda value: [int(x) for x in value]),
    ("makespan", lambda response: response.makespan, float),
    ("greedy_makespan", lambda response: response.greedy_makespan, float),
    ("method", lambda response: response.method, str),
)

#: The fields a reply may leave out (tracing is per request).
_OPTIONAL = frozenset({"trace_id", "spans"})

#: Each table cut into (invariant, [(name, entry value, JSON key)]) runs.
_PLAN_RUNS, _GRAPH_PLAN_RUNS = (
    [(invariant, [(name, value, _encode(name) + ":") for name, value, _ in run])
     for invariant, run in groupby(fields, key=lambda f: f[1] is not None)]
    for fields in (PLAN_REPLY_FIELDS, GRAPH_PLAN_REPLY_FIELDS))

#: ``ok_response``'s frame body around its result object's members.
_OK_OPEN, _OK_CLOSE = _encode(ok_response({"": 0})).encode().split(b'"":0')


@dataclass
class RemotePlanResponse:
    """A served plan as seen by the client, plus which worker answered.

    Mirrors :class:`repro.planner.service.PlanResponse` (ranked
    recommendations, hit/coalesced flags, planning latency, search counters)
    with the process-boundary extras: the answering worker's index and pid,
    and the signature key the plan is cached under.
    """

    _wire_fields = PLAN_REPLY_FIELDS

    recommendations: List[PartitioningRecommendation]
    signature_key: str
    cache_hit: bool
    coalesced: bool
    planning_time: float
    num_simulated: int
    num_pruned: int
    worker: int
    pid: int
    #: Age in seconds of the served plan at serve time (0.0 when computed).
    plan_age: float = 0.0
    #: True when the plan came from an expired-but-in-grace cache entry
    #: (stale-while-revalidate).
    stale: bool = False
    #: The answering worker's restart incarnation (0 for a never-restarted
    #: worker).
    generation: int = 0
    #: Trace id the worker served under (``None`` when tracing was off).
    trace_id: Optional[str] = None
    #: Wire-form span dicts the worker recorded for this request (the
    #: client absorbs them into its own tracer).
    spans: List[Dict[str, object]] = field(default_factory=list)

    @property
    def recommendation(self) -> PartitioningRecommendation:
        """The best plan."""
        return self.recommendations[0]

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RemotePlanResponse":
        """Rebuild from the wire form of :func:`plan_response_payload` (or
        :func:`graph_plan_response_payload`); raises :class:`ProtocolError`
        when a required field is missing or malformed."""
        try:
            return cls(**{name: read(payload[name])
                          for name, _, read in cls._wire_fields
                          if name not in _OPTIONAL or payload.get(name) is not None})
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed {cls.__name__} reply: "
                                f"{type(error).__name__}: {error}") from error


@dataclass
class RemoteGraphPlanResponse(RemotePlanResponse):
    """A served joint graph plan as seen by the client.

    A :class:`RemotePlanResponse` — ``recommendations`` holds the chosen
    layout per op, in op order — plus the graph fields of
    :class:`repro.planner.service.GraphPlanResponse`.
    """

    _wire_fields = GRAPH_PLAN_REPLY_FIELDS

    #: Chosen candidate index per op (into each op's layout lattice).
    assignment: List[int] = field(default_factory=list)
    #: End-to-end modelled makespan of the joint assignment.
    makespan: float = 0.0
    #: Makespan of the per-op greedy baseline.
    greedy_makespan: float = 0.0
    #: Which solver produced the assignment (chain DP or branch-and-bound).
    method: str = ""


def _request_values(response: PlanResponse, worker: int, pid: int, trace_id: Optional[str],
                    spans: Optional[List[Dict[str, object]]], generation: int) -> Dict[str, object]:
    """The per-request reply fields (``trace_id``/``spans`` when given)."""
    stats = response.search_stats
    values: Dict[str, object] = {
        "cache_hit": response.cache_hit, "coalesced": response.coalesced,
        "planning_time": response.planning_time,
        "num_simulated": stats.num_simulated if stats is not None else 0,
        "num_pruned": stats.num_pruned if stats is not None else 0,
        "worker": worker, "pid": pid, "plan_age": response.plan_age,
        "stale": response.stale, "generation": generation,
    }
    if trace_id is not None:
        values["trace_id"] = trace_id
    if spans is not None:
        values["spans"] = spans
    return values


def _json_text(value: object) -> str:
    """``value`` as the encoder writes it (scalars without its set-up)."""
    kind = type(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float and value - value == 0.0:
        return float.__repr__(value)
    return _encode(value)


def _members(run, values: Dict[str, object]) -> bytes:
    """The fields of ``run`` found in ``values``, as a frame encodes them."""
    return ",".join([key + _json_text(values[name])
                     for name, _, key in run if name in values]).encode("utf-8")


def reply_frame(response: PlanResponse, worker: int, pid: int,
                trace_id: Optional[str] = None,
                spans: Optional[List[Dict[str, object]]] = None,
                generation: int = 0) -> bytes:
    """The worker's reply frame for one served plan, spliced from cached bytes.

    Equal byte for byte to ``encode_frame(ok_response(plan_response_payload(
    ...)))`` (raising :class:`ProtocolError` past :data:`MAX_MESSAGE_BYTES`).
    The entry-invariant runs are encoded on the entry's first trip over the
    wire and kept on it (``PlanEntry.wire_parts``).
    """
    runs = _GRAPH_PLAN_RUNS if isinstance(response, GraphPlanResponse) else _PLAN_RUNS
    entry = response.entry
    if entry.wire_parts is None:
        entry.wire_parts = [_members(run, {name: value(response) for name, value, _ in run})
                            for invariant, run in runs if invariant]
    request = _request_values(response, worker, pid, trace_id, spans, generation)
    cached = iter(entry.wire_parts)
    return _checked_frame(b"".join((_OK_OPEN, b",".join([
        next(cached) if invariant else _members(run, request) for invariant, run in runs]),
        _OK_CLOSE)))


def plan_response_payload(response: PlanResponse, worker: int, pid: int,
                          trace_id: Optional[str] = None,
                          spans: Optional[List[Dict[str, object]]] = None,
                          generation: int = 0,
                          ) -> Dict[str, object]:
    """Wire form of one :class:`~repro.planner.service.PlanResponse`: the
    :data:`PLAN_REPLY_FIELDS`, or the :data:`GRAPH_PLAN_REPLY_FIELDS` of a
    :class:`~repro.planner.service.GraphPlanResponse`.

    Args:
        response: the in-process service's answer.
        worker: index of the worker that computed/served it.
        pid: that worker's OS process id.
        trace_id: the trace the worker served under, when tracing was on.
        spans: the worker's recorded spans for this request (wire-form
            dicts); omitted from the payload when ``None``.
        generation: the worker's restart incarnation.
    """
    fields = (GRAPH_PLAN_REPLY_FIELDS if isinstance(response, GraphPlanResponse)
              else PLAN_REPLY_FIELDS)
    request = _request_values(response, worker, pid, trace_id, spans, generation)
    return {name: value(response) if value is not None else request[name]
            for name, value, _ in fields if value is not None or name in request}


#: The wire form of a :class:`~repro.planner.service.GraphPlanResponse`:
#: :func:`plan_response_payload` writes its graph fields too.
graph_plan_response_payload = plan_response_payload
