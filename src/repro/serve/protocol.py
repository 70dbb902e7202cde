"""Wire protocol of the plan-serving front: length-prefixed JSON frames.

Every message — request or response, either direction — is one *frame*:

* a 4-byte big-endian unsigned length header (``struct`` format ``!I``),
* followed by exactly that many bytes of UTF-8 JSON encoding one object.

JSON keeps the protocol debuggable (``socat`` + eyeballs) and reuses the
serializers the persistent plan store already has
(:func:`repro.planner.cache.recommendation_to_dict`,
:meth:`repro.bench.workloads.Workload.to_dict`); the length prefix makes
framing trivial on both blocking sockets (:func:`recv_message`) and
non-blocking event loops (:class:`FrameDecoder`).

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
option, optional trace), and a ``plan_graph`` result is the
:func:`plan_response_payload` dict plus ``assignment``, ``makespan``,
``greedy_makespan`` and ``method`` — read back as a
:class:`RemoteGraphPlanResponse`, a :class:`RemotePlanResponse` subclass.

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
import select
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.selector import PartitioningRecommendation
from repro.bench.workloads import Workload
from repro.planner.cache import recommendation_from_dict, recommendation_to_dict
from repro.planner.service import PlanResponse

#: The protocol dialect this build speaks, as ``(major, minor)``.  1.0 was
#: the original plan/ping/stats protocol; 1.1 added the optional ``trace``
#: request field, the ``metrics`` op, and the ``plan_age``/``trace_id``/
#: ``spans`` response fields; 1.2 added the ``stale`` response flag (a plan
#: served from an expired-but-in-grace cache entry while a background
#: refresh recomputes it); 1.3 added the ``plan_graph`` op (joint layout
#: planning over an op chain/DAG, carrying the graph as
#: ``OpGraph.to_dict()``); 1.4 added the ``generation`` response field on
#: ``plan``/``plan_graph``/``ping`` — the answering worker's restart
#: incarnation (0 for the originally forked worker, +1 per supervised
#: restart), so clients and tests can tell a fresh-cache restarted worker
#: from its predecessor; 1.5 dropped the two cross-fingerprint seeding
#: counters from the ``stats`` reply's service counters (the seeding was
#: removed).
PROTOCOL_VERSION = (1, 5)

#: Frame header: one network-order unsigned 32-bit payload length.
HEADER = struct.Struct("!I")

#: Upper bound on a single frame's JSON payload (sanity guard, not a tuning
#: knob: the largest legitimate message — a top-k plan response — is a few
#: kilobytes).
MAX_MESSAGE_BYTES = 64 << 20

#: How long a send may wait for a congested peer before giving up (seconds).
SEND_TIMEOUT = 30.0


class ProtocolError(RuntimeError):
    """A malformed, truncated, or oversized frame (or a mid-frame disconnect)."""


def encode_frame(payload: Dict[str, object]) -> bytes:
    """Serialize one message object to its on-wire frame (header + JSON)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(body)} bytes exceeds "
                            f"MAX_MESSAGE_BYTES={MAX_MESSAGE_BYTES}")
    return HEADER.pack(len(body)) + body


def send_message(sock: socket.socket, payload: Dict[str, object],
                 timeout: float = SEND_TIMEOUT) -> None:
    """Encode ``payload`` and write it as one frame (see :func:`send_frame`)."""
    send_frame(sock, encode_frame(payload), timeout)


def send_frame(sock: socket.socket, frame: bytes,
               timeout: float = SEND_TIMEOUT) -> None:
    """Write one pre-encoded frame to ``sock``, tolerating non-blocking sockets.

    Args:
        sock: a connected stream socket (blocking or non-blocking).
        frame: the :func:`encode_frame` output to send.
        timeout: ceiling on total time spent waiting for writability.

    Raises:
        ProtocolError: if the peer stays unwritable past ``timeout``.
        OSError: on a broken connection.
    """
    view = memoryview(frame)
    deadline = time.monotonic() + timeout
    while view:
        # select-before-send enforces the deadline on *blocking* sockets too
        # (a bare blocking send() could wait on a full peer buffer forever);
        # once writable, send() returns promptly with a partial count.
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ProtocolError("send timed out waiting for a writable peer")
        _, writable, _ = select.select([], [sock], [], min(remaining, 1.0))
        if not writable:
            continue
        try:
            sent = sock.send(view)
        except (BlockingIOError, InterruptedError):
            continue
        if sent == 0:
            raise ProtocolError("connection closed mid-frame during send")
        view = view[sent:]


def _recv_exact(sock: socket.socket, count: int, *, at_boundary: bool) -> Optional[bytes]:
    """Read exactly ``count`` bytes from a blocking socket.

    Returns ``None`` on a clean EOF at a frame boundary (``at_boundary``);
    raises :class:`ProtocolError` if the peer disconnects mid-frame.
    """
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if at_boundary and remaining == count:
                return None
            raise ProtocolError(f"connection closed mid-frame ({remaining} of "
                                f"{count} bytes outstanding)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Read one frame from a blocking socket; ``None`` on clean EOF.

    Raises:
        ProtocolError: on truncated frames, oversized lengths, or bad JSON.
    """
    header = _recv_exact(sock, HEADER.size, at_boundary=True)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds "
                            f"MAX_MESSAGE_BYTES={MAX_MESSAGE_BYTES}")
    return _decode_body(_recv_exact(sock, length, at_boundary=False))


def _decode_body(body: bytes) -> Dict[str, object]:
    """Parse and validate one frame body (shared by both read paths)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"undecodable frame body: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(payload).__name__}")
    return payload


class FrameDecoder:
    """Incremental frame parser for non-blocking reads (the server side).

    Feed whatever bytes ``recv`` produced; complete messages pop out in
    order, partial frames wait in the buffer for the next feed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        """Absorb ``data`` and return every message it completed.

        Raises:
            ProtocolError: on oversized lengths or undecodable bodies.
        """
        self._buffer.extend(data)
        messages: List[Dict[str, object]] = []
        while True:
            if len(self._buffer) < HEADER.size:
                return messages
            (length,) = HEADER.unpack(bytes(self._buffer[:HEADER.size]))
            if length > MAX_MESSAGE_BYTES:
                raise ProtocolError(f"frame of {length} bytes exceeds "
                                    f"MAX_MESSAGE_BYTES={MAX_MESSAGE_BYTES}")
            end = HEADER.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[HEADER.size:end])
            del self._buffer[:end]
            messages.append(_decode_body(body))

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
            wire when ``None``, keeping 1.0-compatible frames byte-identical).
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
# plan response payloads
# ---------------------------------------------------------------------- #
@dataclass
class RemotePlanResponse:
    """A served plan as seen by the client, plus which worker answered.

    Mirrors :class:`repro.planner.service.PlanResponse` (ranked
    recommendations, hit/coalesced flags, planning latency, search counters)
    with the process-boundary extras: the answering worker's index and pid,
    and the signature key the plan is cached under.
    """

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
            return cls(**cls._fields(payload))
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed {cls.__name__} reply: "
                                f"{type(error).__name__}: {error}") from error

    @staticmethod
    def _fields(payload: Dict[str, object]) -> Dict[str, object]:
        """Constructor arguments read from the wire form (KeyError if absent)."""
        trace_id = payload.get("trace_id")
        return dict(
            recommendations=[recommendation_from_dict(item)
                             for item in payload["recommendations"]],  # type: ignore[union-attr]
            signature_key=str(payload["signature_key"]),
            cache_hit=bool(payload["cache_hit"]),
            coalesced=bool(payload["coalesced"]),
            planning_time=float(payload["planning_time"]),  # type: ignore[arg-type]
            num_simulated=int(payload["num_simulated"]),  # type: ignore[arg-type]
            num_pruned=int(payload["num_pruned"]),  # type: ignore[arg-type]
            worker=int(payload["worker"]),  # type: ignore[arg-type]
            pid=int(payload["pid"]),  # type: ignore[arg-type]
            plan_age=float(payload["plan_age"]),  # type: ignore[arg-type]
            stale=bool(payload["stale"]),
            generation=int(payload["generation"]),  # type: ignore[arg-type]
            trace_id=str(trace_id) if trace_id is not None else None,
            spans=list(payload.get("spans") or []),  # type: ignore[arg-type]
        )


@dataclass
class RemoteGraphPlanResponse(RemotePlanResponse):
    """A served joint graph plan as seen by the client.

    A :class:`RemotePlanResponse` — ``recommendations`` holds the chosen
    layout per op, in op order — plus the graph fields of
    :class:`repro.planner.service.GraphPlanResponse`.
    """

    #: Chosen candidate index per op (into each op's layout lattice).
    assignment: List[int] = field(default_factory=list)
    #: End-to-end modelled makespan of the joint assignment.
    makespan: float = 0.0
    #: Makespan of the per-op greedy baseline.
    greedy_makespan: float = 0.0
    #: Which solver produced the assignment (chain DP or branch-and-bound).
    method: str = ""

    @staticmethod
    def _fields(payload: Dict[str, object]) -> Dict[str, object]:
        """The plan fields plus the graph fields (KeyError if absent)."""
        fields = RemotePlanResponse._fields(payload)
        fields.update(
            assignment=[int(x) for x in payload["assignment"]],  # type: ignore[union-attr]
            makespan=float(payload["makespan"]),  # type: ignore[arg-type]
            greedy_makespan=float(payload["greedy_makespan"]),  # type: ignore[arg-type]
            method=str(payload["method"]),
        )
        return fields


def plan_response_payload(response: PlanResponse, worker: int, pid: int,
                          trace_id: Optional[str] = None,
                          spans: Optional[List[Dict[str, object]]] = None,
                          generation: int = 0,
                          ) -> Dict[str, object]:
    """Wire form of one :class:`~repro.planner.service.PlanResponse`.

    Args:
        response: the in-process service's answer.
        worker: index of the worker that computed/served it.
        pid: that worker's OS process id.
        trace_id: the trace the worker served under, when tracing was on.
        spans: the worker's recorded spans for this request (wire-form
            dicts); omitted from the payload when ``None``.
        generation: the worker's restart incarnation.
    """
    stats = response.search_stats
    payload: Dict[str, object] = {
        "recommendations": [recommendation_to_dict(r) for r in response.recommendations],
        "signature_key": response.signature.key(),
        "cache_hit": response.cache_hit,
        "coalesced": response.coalesced,
        "planning_time": response.planning_time,
        "num_simulated": stats.num_simulated if stats is not None else 0,
        "num_pruned": stats.num_pruned if stats is not None else 0,
        "worker": worker,
        "pid": pid,
        "plan_age": response.plan_age,
        "stale": response.stale,
        "generation": generation,
    }
    if trace_id is not None:
        payload["trace_id"] = trace_id
    if spans is not None:
        payload["spans"] = spans
    return payload


def graph_plan_response_payload(response, worker: int, pid: int,
                                trace_id: Optional[str] = None,
                                spans: Optional[List[Dict[str, object]]] = None,
                                generation: int = 0,
                                ) -> Dict[str, object]:
    """Wire form of one :class:`~repro.planner.service.GraphPlanResponse`:
    the :func:`plan_response_payload` fields plus the graph fields."""
    payload = plan_response_payload(response, worker, pid, trace_id=trace_id,
                                    spans=spans, generation=generation)
    payload["assignment"] = list(response.assignment)
    payload["makespan"] = response.makespan
    payload["greedy_makespan"] = response.greedy_makespan
    payload["method"] = response.method
    return payload
