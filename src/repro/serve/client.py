"""PlanClient: pooled, retrying access to a :class:`~repro.serve.server.PlanServer`.

The client keeps a small LIFO pool of connections (each pinned — by the
server's round-robin accept dispatch — to one worker), reuses them across
requests, and transparently reconnects-and-retries on transport failures.
Server-side failures (an exception raised while planning) are **not**
retried: they travel back as typed error responses and re-raise here as
:class:`RemotePlanError` — a deterministic planning error would fail
identically on every worker.

Thread-safe: concurrent callers draw distinct pooled connections, so a
multi-threaded client naturally exercises several workers at once.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from typing import Dict, Optional, Tuple, Union

from repro.bench.workloads import Workload
from repro.obs.tracing import current_span_id, current_trace_id
from repro.planner.service import _outcome_of
from repro.serve import protocol
from repro.serve.protocol import RemoteGraphPlanResponse, RemotePlanResponse
from repro.serve.stats import WorkerStats

Address = Union[str, Tuple[str, int]]


class RemotePlanError(RuntimeError):
    """A failure raised server-side while answering a request.

    Attributes:
        error_type: the server-side exception's class name.
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


class PlanClient:
    """Connection-pooled client for the plan-serving protocol.

    Args:
        address: the server's resolved endpoint — a Unix socket path or a
            ``(host, port)`` tuple (i.e. ``PlanServer.address``).
        pool_size: how many idle connections to retain for reuse; extra
            connections are opened under concurrency and closed on release.
        retries: how many times a request is retried on *transport* failures
            (connection refused/reset, truncated frames); each retry opens a
            fresh connection.  A failure on a pooled (possibly stale)
            connection additionally earns one free immediate retry per
            request that does not count against this budget — see
            :meth:`_request`.
        retry_delay: base back-off between retries, doubled per attempt.
        timeout: per-operation socket timeout in seconds, > 0 (after
            ``connect``, kernel ``SO_SNDTIMEO``/``SO_RCVTIMEO`` on a blocking
            socket; expiry raises ``BlockingIOError``, a transport failure).
        tracer: a :class:`~repro.obs.tracing.Tracer`; when given (and
            enabled), every :meth:`plan` runs inside a ``client.plan`` span
            whose trace id is stamped into the wire request, and the
            answering worker's spans are absorbed back — one request, one
            cross-process timeline.  ``None`` (default) disables tracing.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        address: Address,
        *,
        pool_size: int = 4,
        retries: int = 2,
        retry_delay: float = 0.05,
        timeout: float = 30.0,
        tracer=None,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if not timeout > 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.address = address
        self.pool_size = pool_size
        self.retries = retries
        self.retry_delay = retry_delay
        self.timeout = timeout
        # maxsize makes the retain-or-close decision atomic (a bare qsize()
        # check would race under concurrent releases and overfill the pool).
        self._pool: "queue.LifoQueue[socket.socket]" = queue.LifoQueue(maxsize=pool_size)
        self._lock = threading.Lock()
        self._closed = False
        self._transport_retries = 0
        self._tracer = tracer

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #
    def _connect(self) -> socket.socket:
        """Open one fresh connection to the server."""
        family = socket.AF_UNIX if isinstance(self.address, str) else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.address)
            sock.settimeout(None)  # blocking: CPython adds no poll per call
            # A struct timeval of at least 1 us: a zero one never expires.
            micros = max(1, round(self.timeout * 1e6))
            timeval = struct.pack("@ll", *divmod(micros, 1_000_000))
            for option in (socket.SO_SNDTIMEO, socket.SO_RCVTIMEO):
                sock.setsockopt(socket.SOL_SOCKET, option, timeval)
        except OSError:
            sock.close()
            raise
        return sock

    def _acquire(self) -> Tuple[socket.socket, bool]:
        """A connection to use, plus whether it came from the pool.

        Pooled connections may be stale — their worker can have died and
        been restarted since the connection was pooled — so callers treat
        failures on them differently from failures on fresh sockets (see
        :meth:`_request`).
        """
        try:
            return self._pool.get_nowait(), True
        except queue.Empty:
            return self._connect(), False

    def _release(self, sock: socket.socket) -> None:
        if not self._closed:
            try:
                self._pool.put_nowait(sock)
            except queue.Full:
                self._close_socket(sock)
                return
            # close() may have drained the pool between our _closed check and
            # the put; drain again so no live fd survives in a closed client.
            if self._closed:
                self._drain_pool()
            return
        self._close_socket(sock)

    def _drain_pool(self) -> None:
        while True:
            try:
                sock = self._pool.get_nowait()
            except queue.Empty:
                return
            self._close_socket(sock)

    @staticmethod
    def _close_socket(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    # ------------------------------------------------------------------ #
    # request plumbing
    # ------------------------------------------------------------------ #
    def _request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One request/response round trip with transport-failure retries.

        A failure on a *pooled* connection gets special treatment: the
        pooled socket may simply be stale (its worker died and was
        restarted since the connection was parked), which says nothing
        about the server's health.  The whole pool is discarded — every
        parked connection is equally suspect — and the request retries on
        a fresh socket immediately, without consuming one of the caller's
        ``retries`` or sleeping.  At most one such freebie is taken per
        request, so a genuinely dead server still fails after the
        configured attempts.
        """
        if self._closed:
            raise RuntimeError("PlanClient is closed")
        # Encode before the retry loop: an oversized payload is a caller
        # error, not a transport failure, and must raise immediately rather
        # than burn retries against healthy connections.
        frame = protocol.encode_frame(payload)
        last_error: Optional[BaseException] = None
        pool_freebie_available = True
        attempt = 0
        while attempt < self.retries + 1:
            if attempt:
                with self._lock:
                    self._transport_retries += 1
                time.sleep(self.retry_delay * (2 ** (attempt - 1)))
            try:
                sock, pooled = self._acquire()
            except OSError as error:
                last_error = error
                attempt += 1
                continue
            try:
                sock.sendall(frame)
                message = protocol.recv_message(sock)
                if message is None:
                    # Orderly close mid-conversation: same staleness signal
                    # as a reset — a restarted worker's old sockets EOF.
                    raise protocol.ProtocolError(
                        "server closed the connection before answering")
            except (OSError, protocol.ProtocolError) as error:
                self._close_socket(sock)
                last_error = error
                if pooled and pool_freebie_available:
                    # Stale pool, not a sick server: drop every parked
                    # connection and go again on a fresh socket for free.
                    pool_freebie_available = False
                    self._drain_pool()
                    continue
                attempt += 1
                continue
            self._release(sock)
            if not message.get("ok"):
                detail = message.get("error") or {}
                raise RemotePlanError(str(detail.get("type", "Error")),  # type: ignore[union-attr]
                                      str(detail.get("message", "")))  # type: ignore[union-attr]
            return message["result"]  # type: ignore[return-value]
        raise ConnectionError(
            f"request failed after {self.retries + 1} attempts: {last_error}"
        ) from last_error

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #
    def plan(self, workload: Workload, *, top_k: Optional[int] = None) -> RemotePlanResponse:
        """Request a plan for ``workload`` (ranked recommendations).

        With a tracer configured, the request runs inside a ``client.plan``
        span whose context rides the wire; the worker's spans come back in
        the response and are absorbed into this client's tracer, so
        ``tracer.chrome_trace(trace_id)`` renders the whole request.

        Args:
            workload: the problem to partition (structure travels along).
            top_k: how many ranked plans to return (server default if None).

        Returns:
            The served plan plus which worker answered.
        """
        return self._plan("client.plan", protocol.plan_request,
                          RemotePlanResponse, workload, top_k, "workload")

    def plan_graph(self, graph, *,
                   lattice_size: Optional[int] = None) -> RemoteGraphPlanResponse:
        """Request a joint layout plan for an op graph.

        Same pooling/retry/tracing discipline as :meth:`plan`; the traced
        request runs inside a ``client.plan_graph`` span.

        Args:
            graph: the :class:`repro.core.graph.OpGraph` to plan jointly.
            lattice_size: per-op layout candidates the joint planner weighs
                (server default if ``None``).

        Returns:
            The joint plan — chosen per-op layouts, assignment, joint and
            greedy makespans — plus which worker answered.
        """
        return self._plan("client.plan_graph", protocol.plan_graph_request,
                          RemoteGraphPlanResponse, graph, lattice_size, "graph")

    def _plan(self, span_name: str, build, response_type, subject,
              option: Optional[int], span_key: str) -> RemotePlanResponse:
        """The one round trip behind :meth:`plan` and :meth:`plan_graph`.

        ``build(subject, option, trace=...)`` makes the request and
        ``response_type.from_dict`` reads the answer.  Traced requests run
        in ``span_name`` (tagged ``span_key=subject.name``), carry its
        context on the wire, and absorb the worker's spans back; the span's
        outcome uses the service's own rule, so a stale hit reads ``stale``
        on both sides of the socket.
        """
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            return response_type.from_dict(self._request(build(subject, option)))
        with tracer.span(span_name, **{span_key: subject.name}) as span:
            trace = {"trace_id": current_trace_id(),
                     "parent_span_id": current_span_id()}
            response = response_type.from_dict(
                self._request(build(subject, option, trace=trace)))
            span.set(worker=response.worker, outcome=_outcome_of(response))
            if response.spans:
                tracer.absorb(response.spans)
        return response

    def ping(self) -> Dict[str, object]:
        """Liveness probe; returns the owning worker's ``{"worker", "pid",
        "generation", "protocol"}``."""
        return self._request(protocol.ping_request())

    def metrics(self) -> Dict[str, object]:
        """Metrics snapshot of the single worker owning this connection.

        Fleet-merged snapshots live server-side
        (:meth:`repro.serve.server.PlanServer.aggregate_metrics`); this op
        exists so any client can scrape a worker through the public socket.
        """
        return self._request(protocol.metrics_request())

    def worker_stats(self) -> WorkerStats:
        """Counters of the single worker owning this request's connection.

        Fleet-wide totals live server-side
        (:meth:`repro.serve.server.PlanServer.aggregate_stats`).
        """
        return WorkerStats.from_dict(self._request(protocol.stats_request()))

    @property
    def transport_retries(self) -> int:
        """How many transport-failure retries this client has performed."""
        with self._lock:
            return self._transport_retries

    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        self._closed = True
        self._drain_pool()

    def __enter__(self) -> "PlanClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
