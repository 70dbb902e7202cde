"""Multi-process plan serving: the shared-nothing front over the planner.

This package makes the in-process
:class:`~repro.planner.service.PlannerService` a *deployable* one.
:class:`~repro.serve.server.PlanServer` pre-forks N workers — each owning a
private planner service, plan cache, and simulated runtimes — behind one
Unix/TCP listening socket whose connections the parent deals round-robin;
:class:`~repro.serve.client.PlanClient` talks to it over
a length-prefixed JSON protocol (:mod:`repro.serve.protocol`) with
connection pooling and transport retries; :mod:`repro.serve.stats`
aggregates per-worker counters into the fleet-wide view.

The server is fault-tolerant: it supervises its workers (auto-restart
with :class:`~repro.serve.server.RestartPolicy` backoff) and re-deals
connections whose worker died; :mod:`repro.serve.faults` provides the
deterministic fault-injection seam the crash tests drive.

See ``docs/serving.md`` for the quickstart, the protocol specification, and
the plan-store eviction knobs long-lived workers should set.
"""

from repro.serve.client import PlanClient, RemotePlanError
from repro.serve.faults import (
    FAULT_DELAY,
    FAULT_DROP,
    FAULT_EXIT,
    FAULT_EXIT_CODE,
    FAULT_TORN,
    FAULT_TORN_HANDOFF,
    Fault,
    FaultPlan,
)
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    RemoteGraphPlanResponse,
    RemotePlanResponse,
    encode_frame,
    error_response,
    graph_plan_response_payload,
    ok_response,
    metrics_request,
    ping_request,
    plan_graph_request,
    plan_request,
    plan_response_payload,
    recv_message,
    send_message,
    stats_request,
)
from repro.serve.server import PlanServer, RestartPolicy
from repro.serve.stats import ServerStats, WorkerStats, aggregate_service_stats

__all__ = [
    "FAULT_DELAY",
    "FAULT_DROP",
    "FAULT_EXIT",
    "FAULT_EXIT_CODE",
    "FAULT_TORN",
    "FAULT_TORN_HANDOFF",
    "Fault",
    "FaultPlan",
    "RestartPolicy",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "ProtocolError",
    "RemoteGraphPlanResponse",
    "RemotePlanResponse",
    "encode_frame",
    "error_response",
    "graph_plan_response_payload",
    "ok_response",
    "metrics_request",
    "ping_request",
    "plan_graph_request",
    "plan_request",
    "plan_response_payload",
    "recv_message",
    "send_message",
    "stats_request",
    "PlanClient",
    "RemotePlanError",
    "PlanServer",
    "ServerStats",
    "WorkerStats",
    "aggregate_service_stats",
]
