"""PlanServer: a shared-nothing multi-process front over the PlannerService.

:class:`PlanServer` serves plans from several processes:

* the **parent** binds one listening socket (Unix-domain by default, TCP on
  request), accepts connections, and deals each accepted descriptor to a
  worker **round-robin** over a per-worker control pipe (``SCM_RIGHTS`` fd
  passing via :mod:`multiprocessing.reduction`) — deterministic spread, no
  thundering herd, and the parent never touches request bytes;
* each **worker** is a forked process owning a private
  :class:`~repro.planner.service.PlannerService` (and therefore its own plan
  cache, search, and simulated runtimes) — shared-nothing: workers never
  exchange state, so there are no cross-process locks on the hot path;
* a worker runs a :mod:`selectors` event loop multiplexing its control pipe
  and every connection it owns, decoding frames with
  :class:`~repro.serve.protocol.FrameDecoder` and answering ``plan`` /
  ``ping`` / ``stats`` requests;
* the parent aggregates per-worker counters and metrics on demand
  (:meth:`PlanServer.aggregate_stats` / :meth:`PlanServer.aggregate_metrics`)
  through one control-pipe round trip per worker (``_collect``) — the only
  cross-worker communication, and it never blocks serving;
* a **supervisor** thread in the parent (on by default, see
  ``auto_restart``) detects dead workers and re-forks them in place with a
  bumped ``generation``, backing off exponentially per
  :class:`RestartPolicy` and abandoning a worker whose restarts storm; a
  connection whose hand-off fails because its worker died is re-dealt to a
  survivor, so accepted requests are not lost to crashes;
* deterministic fault injection (``fault_plan``, see
  :mod:`repro.serve.faults`) lets tests crash, delay, or corrupt exactly
  one request at an exact ``(worker, generation, ordinal)`` coordinate —
  no sleeps, no signal races.

Workers warm-start independently: point ``service_options["store_path"]`` at
a shared plan store and every worker loads it at boot; the bounded cache
(``cache_capacity`` / ``cache_max_bytes`` / ``cache_ttl_seconds``) keeps
long-lived workers from growing without bound.

Worker processes are created with the ``fork`` start method (the listening
parent's state — ``sys.path``, loaded modules — carries over and fd passing
stays cheap); this is the platform norm for pre-fork servers and matches the
Linux/macOS CI targets.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import reduction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.workloads import Workload
from repro.core.graph import OpGraph
from repro.obs.metrics import MetricsRegistry, instrument_name, merge_snapshots
from repro.obs.reqlog import RequestLog
from repro.obs.tracing import Tracer
from repro.planner.service import PlannerService
from repro.serve import protocol
from repro.serve.faults import (
    FAULT_DELAY,
    FAULT_DROP,
    FAULT_EXIT,
    FAULT_EXIT_CODE,
    FAULT_TORN,
    FAULT_TORN_HANDOFF,
    PARENT_ACTIONS,
    WORKER_ACTIONS,
    FaultPlan,
)
from repro.serve.stats import ServerStats, WorkerStats
from repro.topology.machines import MachineSpec
from repro.util.logging import get_logger, log_event
from repro.util.validation import read_int

_LOG = get_logger("serve.server")

#: Accepted address forms: ``None`` (auto Unix socket), a Unix socket path,
#: or a ``(host, port)`` TCP endpoint (``port=0`` auto-assigns).
Address = Union[None, str, Tuple[str, int]]

#: Ceiling on buffered-but-unread response bytes per connection.  A client
#: that pipelines requests while never reading replies is hoarding, not
#: slow; past this the worker closes the connection instead of growing
#: without bound.
MAX_CONNECTION_BACKLOG_BYTES = 8 << 20


def _remove_stale_unix_socket(path: str) -> None:
    """Unlink a leftover socket file from a crashed server, if truly dead.

    A SIGKILLed server never reaches the ``os.unlink`` in ``stop()``, so its
    socket file would make every restart fail with EADDRINUSE.  Probe it: a
    refused connect means nothing is listening, so the file is stale and
    safe to remove; an accepted connect means a live server owns the address
    (leave it — bind() will report the conflict).  Non-socket files are
    never touched.
    """
    import stat

    try:
        if not stat.S_ISSOCK(os.stat(path).st_mode):
            return
    except OSError:
        return  # nothing there: the normal fresh-start path
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.5)
    try:
        probe.connect(path)
        return  # a live server answered; let bind() surface the conflict
    except OSError:
        pass
    finally:
        probe.close()
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - raced with another starter
        pass


def _fork_context():
    """The multiprocessing context workers are spawned from (pre-fork model)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError as error:  # pragma: no cover - non-POSIX platforms
        raise RuntimeError(
            "PlanServer requires the 'fork' start method (POSIX pre-fork model)"
        ) from error


@dataclass(frozen=True)
class RestartPolicy:
    """How aggressively the parent revives dead workers.

    Restarts are backed off exponentially per consecutive death
    (``backoff_base * backoff_multiplier ** n``, capped at ``backoff_cap``)
    so a worker that crashes on its very first request cannot spin the fork
    path; a quiet period of ``window_seconds`` resets the backoff.  When
    ``max_restarts_per_window`` is set and a worker dies more often than
    that within one window, the parent *abandons* it — the storm is treated
    as a persistent fault, not bad luck — and the remaining workers carry
    the traffic.
    """

    #: Delay before the first restart after a quiet period, seconds.
    backoff_base: float = 0.05
    #: Growth factor applied per consecutive death.
    backoff_multiplier: float = 2.0
    #: Ceiling on any single restart delay, seconds.
    backoff_cap: float = 2.0
    #: Sliding window for storm detection (and backoff reset), seconds.
    window_seconds: float = 30.0
    #: Deaths tolerated per window before the worker is abandoned
    #: (``None`` = never abandon, keep backing off forever).
    max_restarts_per_window: Optional[int] = None


class _RestartState:
    """Per-worker restart bookkeeping (backoff and storm detection).

    Pure and clock-injectable: every decision flows through
    :meth:`record_death`, so tests can drive the backoff schedule with a
    fake clock instead of sleeping through it.
    """

    def __init__(self, policy: RestartPolicy, clock=time.monotonic) -> None:
        self.policy = policy
        self.clock = clock
        #: Death timestamps inside the current window (pruned on record).
        self.deaths: List[float] = []
        #: Consecutive deaths since the last quiet period.
        self.consecutive = 0
        #: True once the storm limit tripped; the worker stays down.
        self.abandoned = False

    def record_death(self) -> Optional[float]:
        """Note one death; return the restart delay, or None to abandon.

        Deaths older than the policy window are forgotten first; an empty
        window means the worker had been stable, so the backoff restarts
        from ``backoff_base``.
        """
        now = self.clock()
        self.deaths = [t for t in self.deaths
                       if now - t < self.policy.window_seconds]
        if not self.deaths:
            self.consecutive = 0
        self.deaths.append(now)
        limit = self.policy.max_restarts_per_window
        if limit is not None and len(self.deaths) > limit:
            self.abandoned = True
            return None
        delay = min(self.policy.backoff_cap,
                    self.policy.backoff_base
                    * self.policy.backoff_multiplier ** self.consecutive)
        self.consecutive += 1
        return delay


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process (one incarnation)."""

    index: int
    process: "multiprocessing.process.BaseProcess"
    pipe: "multiprocessing.connection.Connection"
    #: Which incarnation of this worker slot the process is: 0 at boot,
    #: +1 per supervised restart.  Echoed in responses so clients and the
    #: fault plan can tell incarnations apart.
    generation: int = 0
    #: Connection hand-off attempts made to this incarnation (the ordinal
    #: parent-side faults match against).
    handoffs: int = 0
    #: Serializes parent *writes* to ``pipe`` (connection hand-offs from the
    #: dispatcher thread, stats requests from caller threads).  Held only
    #: for the duration of a send, never across a reply wait, so monitoring
    #: can never stall dispatch.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Serializes stats *round-trips* (the only parent-side reads) so two
    #: concurrent aggregations cannot steal each other's replies.
    stats_lock: threading.Lock = field(default_factory=threading.Lock)
    #: Set when the control pipe failed; the worker is no longer routable.
    dead: bool = False

    def mark_dead(self) -> None:
        """Retire the worker: closing the pipe unblocks a worker waiting on
        it (EOF) so a half-delivered hand-off cannot wedge it forever."""
        self.dead = True
        try:
            self.pipe.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class PlanServer:
    """Serve partitioning plans from ``num_workers`` forked planner processes.

    Args:
        machine: the machine the workers plan for.
        num_workers: size of the pre-forked worker fleet (>= 1).
        address: where to listen — ``None`` picks a fresh Unix socket under a
            private temp directory; a string is used as a Unix socket path;
            an ``(host, port)`` tuple listens on TCP (``port=0`` auto-picks,
            the resolved port appears in :attr:`address` after start).
        backlog: listen backlog for the accept socket.
        service_options: keyword arguments forwarded verbatim to each
            worker's :class:`~repro.planner.service.PlannerService`
            (replication factors, cache bounds, store path, ...).
        enable_metrics: give each worker a live
            :class:`~repro.obs.metrics.MetricsRegistry`; per-worker snapshots
            are scrapeable via the ``metrics`` op and fleet-mergeable via
            :meth:`aggregate_metrics`.  Off by default (no measurable cost).
        enable_tracing: give each worker a
            :class:`~repro.obs.tracing.Tracer` (role ``worker-<i>``); traced
            ``plan`` requests adopt the client's context and return their
            spans in the response.  Off by default.
        reqlog_dir: directory for the serving telemetry log; each worker
            appends to its own ``requests-<i>.jsonl`` there (shared-nothing:
            one writer per file).  ``None`` (default) disables request
            logging.
        refresh_options: when given, each worker starts its own
            :class:`~repro.planner.refresh.BackgroundRefresher` (constructed
            *after* the fork, so its threads live in the worker) with these
            keyword arguments — stale-while-revalidate revalidation and
            pre-TTL refresh both happen inside the worker, off its request
            path.  ``None`` (default) serves without background refresh, at
            zero added cost.
        auto_restart: when True (default) the parent runs a supervisor
            thread that detects dead workers and re-forks them in place —
            same worker index, fresh process, ``generation`` bumped by one —
            with stats, metrics, request logging, and background refresh
            re-attached exactly as at boot.  Restart storms are rate-limited
            by ``restart_policy``.
        restart_policy: backoff/abandonment knobs for supervision; the
            default :class:`RestartPolicy` backs off exponentially and never
            abandons.
        fault_plan: a deterministic :class:`~repro.serve.faults.FaultPlan`
            injected into the fleet for testing — worker-side faults (exit /
            drop / torn / delay) fire inside workers keyed on
            ``(worker, generation, request ordinal)``; the parent-side
            ``torn_handoff`` fault corrupts a connection hand-off so the
            worker dies mid-transfer and the parent re-deals the same
            connection to a survivor.  ``None`` (default) injects nothing.

    Use as a context manager or call :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        num_workers: int = 2,
        address: Address = None,
        backlog: int = 128,
        service_options: Optional[Dict[str, object]] = None,
        enable_metrics: bool = False,
        enable_tracing: bool = False,
        reqlog_dir: Optional[str] = None,
        refresh_options: Optional[Dict[str, object]] = None,
        auto_restart: bool = True,
        restart_policy: Optional[RestartPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.machine = machine
        self.num_workers = num_workers
        self.backlog = backlog
        self.service_options = dict(service_options or {})
        self.enable_metrics = enable_metrics
        self.enable_tracing = enable_tracing
        self.reqlog_dir = reqlog_dir
        self.refresh_options = (dict(refresh_options)
                                if refresh_options is not None else None)
        self.auto_restart = auto_restart
        self.restart_policy = restart_policy or RestartPolicy()
        self._fault_plan = fault_plan
        self._requested_address = address
        #: The resolved listening endpoint (set by :meth:`start`): the Unix
        #: socket path, or the bound ``(host, port)`` tuple.
        self.address: Union[str, Tuple[str, int], None] = None
        self._listener: Optional[socket.socket] = None
        self._workers: List[_WorkerHandle] = []
        self._dispatcher: Optional[threading.Thread] = None
        self._supervisor: Optional[threading.Thread] = None
        self._restart_states: Dict[int, _RestartState] = {}
        self._pending_restarts: Dict[int, float] = {}
        self._restart_counts: Dict[int, int] = {}
        self._supervisor_lock = threading.Lock()
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        self._unix_path: Optional[str] = None
        self._stats_seq = 0
        self._stats_seq_lock = threading.Lock()
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> Union[str, Tuple[str, int]]:
        """Bind, fork the workers, and begin dispatching connections.

        Returns:
            The resolved address clients should connect to.
        """
        if self._started:
            raise RuntimeError("PlanServer already started")
        self._started = True
        self._listener = self._bind()
        for index in range(self.num_workers):
            self._workers.append(self._spawn_worker(index, generation=0))
            self._restart_states[index] = _RestartState(self.restart_policy)
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="plan-dispatch", daemon=True)
        self._dispatcher.start()
        if self.auto_restart:
            self._supervisor = threading.Thread(target=self._supervise_loop,
                                                name="plan-supervisor",
                                                daemon=True)
            self._supervisor.start()
        assert self.address is not None
        return self.address

    def _spawn_worker(self, index: int, generation: int) -> _WorkerHandle:
        """Fork one worker process (initial boot and supervised restarts).

        A forked child inherits copies of every fd open at fork time: the
        listener and the parent ends of every *live* sibling pipe.  Each of
        those copies is handed to the child as ``unwanted`` so it can close
        them immediately — a surviving copy would defeat EOF delivery when
        the parent closes or drops a pipe.  (Sibling *child* ends are closed
        in the parent right after each fork, so they are never inherited.)
        """
        ctx = _fork_context()
        parent_end, child_end = ctx.Pipe(duplex=True)
        unwanted = [parent_end]
        unwanted.extend(h.pipe for h in self._workers if not h.dead)
        process = ctx.Process(
            target=_worker_main,
            args=(index, child_end, unwanted, self._listener,
                  self.machine, self.service_options),
            kwargs={"enable_metrics": self.enable_metrics,
                    "enable_tracing": self.enable_tracing,
                    "reqlog_dir": self.reqlog_dir,
                    "refresh_options": self.refresh_options,
                    "generation": generation,
                    "fault_plan": self._fault_plan},
            daemon=True,
            name=f"plan-worker-{index}",
        )
        process.start()
        child_end.close()
        return _WorkerHandle(index=index, process=process, pipe=parent_end,
                             generation=generation)

    def _bind(self) -> socket.socket:
        address = self._requested_address
        if address is None or isinstance(address, str):
            if address is None:
                self._tempdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
                address = os.path.join(self._tempdir.name, "plan-server.sock")
            _remove_stale_unix_socket(address)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                listener.bind(address)
            except OSError:
                listener.close()
                raise
            self._unix_path = address
            self.address = address
        else:
            host, port = address
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((host, port))
            except OSError:
                listener.close()
                raise
            self.address = listener.getsockname()[:2]
        listener.listen(self.backlog)
        return listener

    def _dispatch_loop(self) -> None:
        """Accept connections and deal each to the next live worker."""
        assert self._listener is not None
        turn = 0
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            turn, handed_off = self._deal_connection(conn, turn)
            conn.close()  # worker holds its own duplicate now (or no one will)
            if handed_off:
                continue
            if all(h.dead or not h.process.is_alive()
                   for h in self._workers) and not self._restart_possible():
                return  # nobody can ever serve again

    def _deal_connection(self, conn: socket.socket,
                         turn: int) -> Tuple[int, bool]:
        """Deal one accepted connection to a live worker (round-robin).

        A failed hand-off — the worker died between the announcement and the
        fd transfer, or a ``torn_handoff`` fault corrupted the transfer —
        retires that worker and moves the *same* connection to the next
        survivor, so an accepted request is never lost to a worker death.
        When no worker is currently live but supervision may yet revive one,
        the dealer waits (bounded) instead of dropping the connection.

        Returns:
            ``(next_turn, handed_off)``.
        """
        deadline = time.monotonic() + 5.0
        while True:
            workers = self._workers
            for offset in range(len(workers)):
                handle = workers[(turn + offset) % len(workers)]
                if handle.dead or not handle.process.is_alive():
                    continue
                fault = None
                if self._fault_plan:
                    fault = self._fault_plan.match(
                        handle.index, handle.generation, handle.handoffs,
                        actions=PARENT_ACTIONS)
                handle.handoffs += 1
                if fault is not None and fault.action == FAULT_TORN_HANDOFF:
                    # Announce a connection, then send plain pipe bytes where
                    # the worker expects SCM_RIGHTS ancillary data: its
                    # recv_handle fails, it exits, and this loop re-deals the
                    # connection to the next survivor.
                    log_event(_LOG, "serve.fault.torn_handoff",
                              worker=handle.index,
                              generation=handle.generation)
                    try:
                        with handle.lock:
                            handle.pipe.send(("conn",))
                            handle.pipe.send(("torn",))
                    except (OSError, ValueError):
                        pass
                    with handle.lock:
                        handle.mark_dead()
                    continue
                try:
                    with handle.lock:
                        handle.pipe.send(("conn",))
                        reduction.send_handle(handle.pipe, conn.fileno(),
                                              handle.process.pid)
                except (OSError, ValueError):
                    # The hand-off may have failed between the announcement
                    # and the fd transfer; retire the worker so it cannot sit
                    # blocked waiting for an fd that will never arrive.
                    with handle.lock:
                        handle.mark_dead()
                    continue
                return (turn + offset + 1) % len(workers), True
            # No live worker this pass: wait for supervision to revive one
            # (bounded), unless nothing can come back.
            if (self._stopped or not self._restart_possible()
                    or time.monotonic() >= deadline):
                return turn, False
            time.sleep(0.005)

    # ------------------------------------------------------------------ #
    # supervision
    # ------------------------------------------------------------------ #
    def _restart_possible(self) -> bool:
        """Whether supervision may yet bring a worker back."""
        if not self.auto_restart or self._stopped:
            return False
        return any(not state.abandoned
                   for state in self._restart_states.values())

    def _supervise_loop(self) -> None:
        """Detect dead workers and re-fork them, storm-limited by policy."""
        while not self._stopped:
            for slot, handle in enumerate(list(self._workers)):
                if self._stopped:
                    break
                state = self._restart_states[handle.index]
                if state.abandoned:
                    continue
                if not handle.dead and handle.process.is_alive():
                    continue
                due = self._pending_restarts.get(handle.index)
                if due is None:
                    delay = state.record_death()
                    with handle.lock:
                        handle.mark_dead()
                    if delay is None:
                        log_event(_LOG, "serve.worker.abandoned",
                                  worker=handle.index,
                                  generation=handle.generation,
                                  deaths=len(state.deaths))
                        continue
                    self._pending_restarts[handle.index] = (
                        time.monotonic() + delay)
                elif time.monotonic() >= due:
                    del self._pending_restarts[handle.index]
                    self._restart_worker(slot, handle)
            time.sleep(0.02)

    def _restart_worker(self, slot: int, old: _WorkerHandle) -> None:
        """Replace one dead worker with a fresh fork of the next generation."""
        try:
            old.process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already reaped
            pass
        old.process.join(timeout=1.0)
        handle = self._spawn_worker(old.index, generation=old.generation + 1)
        self._workers[slot] = handle
        with self._supervisor_lock:
            self._restart_counts[old.index] = (
                self._restart_counts.get(old.index, 0) + 1)
        log_event(_LOG, "serve.worker.restart", worker=old.index,
                  generation=handle.generation, pid=handle.process.pid or 0)

    def restart_counts(self) -> Dict[int, int]:
        """Supervised restarts per worker index (empty when none happened)."""
        with self._supervisor_lock:
            return dict(self._restart_counts)

    def abandoned_workers(self) -> List[int]:
        """Worker indices supervision gave up on (storm limit tripped)."""
        return sorted(index for index, state in self._restart_states.items()
                      if state.abandoned)

    def stop(self, timeout: float = 5.0) -> None:
        """Shut the fleet down: stop accepting, drain workers, reap processes.

        Args:
            timeout: per-worker grace period before a hard terminate.

        Safe to call more than once.
        """
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._stopped = True
        # Supervision must wind down before workers are told to exit, or a
        # shutting-down worker would be "detected dead" and resurrected.
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
        if self._listener is not None:
            # shutdown() before close(): a bare close() does not wake a thread
            # blocked in accept() on Linux, which would stall stop() until the
            # join timeout.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
        for handle in self._workers:
            try:
                with handle.lock:
                    handle.pipe.send(("shutdown",))
            except (OSError, ValueError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            try:
                handle.pipe.close()
            except OSError:
                pass
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "PlanServer":
        """Start on entry (no-op if :meth:`start` was already called)."""
        if not self._started:
            self.start()
        return self

    def __exit__(self, *_exc) -> None:
        """Stop the fleet on exit."""
        self.stop()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def alive_workers(self) -> List[int]:
        """Indices of workers that are alive and still routable."""
        return [h.index for h in self._workers
                if not h.dead and h.process.is_alive()]

    def _collect(self, op: str, timeout: float) -> List[Dict[str, object]]:
        """Round-trip snapshot ``op`` on every live worker's control pipe.

        Returns the replies that arrived; a worker that stays busy past
        ``timeout`` seconds (or died) is simply absent.
        """
        if not self._started:
            raise RuntimeError("PlanServer not started")
        replies: List[Dict[str, object]] = []
        for handle in self._workers:
            if handle.dead or not handle.process.is_alive():
                continue
            with self._stats_seq_lock:
                self._stats_seq += 1
                seq = self._stats_seq
            try:
                # stats_lock serializes whole round-trips (reply reads);
                # handle.lock covers only the send, so the dispatcher's
                # connection hand-offs are never blocked behind a slow
                # worker's reply wait.
                with handle.stats_lock:
                    with handle.lock:
                        handle.pipe.send((op, seq))
                    # One deadline for the whole wait: draining a stale reply
                    # (from a timed-out earlier round-trip) must not restart
                    # the window, or ``timeout`` stops being a ceiling.
                    deadline = time.monotonic() + timeout
                    while True:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or not handle.pipe.poll(remaining):
                            break
                        message = handle.pipe.recv()
                        if message[0] == op and message[1] == seq:
                            replies.append(message[2])
                            break
            except (OSError, EOFError, ValueError):
                continue
        return replies

    def aggregate_stats(self, timeout: float = 10.0) -> ServerStats:
        """Sum every answering worker's serving/cache counters (see
        :meth:`_collect` for ``timeout``) into a
        :class:`~repro.serve.stats.ServerStats`."""
        workers = [WorkerStats.from_dict(reply)
                   for reply in self._collect("stats", timeout)]
        return ServerStats.from_workers(workers, restarts=self.restart_counts())

    def aggregate_metrics(self, timeout: float = 10.0) -> Dict[str, object]:
        """Merge every answering worker's registry snapshot (see
        :meth:`_collect` for ``timeout``) into one fleet snapshot.

        Snapshots merge by summation
        (:func:`repro.obs.metrics.merge_snapshots`; render the result with
        :func:`repro.obs.metrics.render_prometheus`).  The parent's
        supervision count (``repro_serve_worker_restarts_total{worker}``,
        read from :meth:`restart_counts`) is added too.  A fleet started
        without ``enable_metrics`` returns an empty snapshot.
        """
        snapshots = self._collect("metrics", timeout)
        restarts = self.restart_counts()
        if self.enable_metrics and restarts:
            snapshots.append({
                "counters": {instrument_name("repro_serve_worker_restarts_total",
                                             {"worker": str(index)}): float(count)
                             for index, count in restarts.items()},
                "help": {"repro_serve_worker_restarts_total":
                         "Workers re-forked by the parent supervisor."}})
        return merge_snapshots(snapshots)


# ---------------------------------------------------------------------- #
# worker process
# ---------------------------------------------------------------------- #
class _Connection:
    """One client connection a worker owns: socket, frame decoder, write buffer.

    Responses are queued into ``outbuf`` and flushed opportunistically, so a
    slow-reading client never blocks the worker's event loop (no head-of-line
    blocking across connections); the selector watches for writability only
    while there is buffered output.
    """

    __slots__ = ("sock", "decoder", "outbuf")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = protocol.FrameDecoder()
        self.outbuf = bytearray()

    def flush(self) -> bool:
        """Write as much buffered output as the socket accepts right now.

        Returns False when the connection failed and must be closed.
        """
        while self.outbuf:
            try:
                sent = self.sock.send(self.outbuf)
            except (BlockingIOError, InterruptedError):
                return True  # kernel buffer full: wait for EVENT_WRITE
            except OSError:
                return False
            if sent == 0:  # pragma: no cover - send() returning 0 is rare
                return False
            del self.outbuf[:sent]
        return True

    def events(self) -> int:
        """The selector interest set for the current buffer state."""
        interest = selectors.EVENT_READ
        if self.outbuf:
            interest |= selectors.EVENT_WRITE
        return interest


def _worker_main(index: int, ctrl, unwanted, listener,
                 machine: MachineSpec,
                 service_options: Dict[str, object],
                 *,
                 enable_metrics: bool = False,
                 enable_tracing: bool = False,
                 reqlog_dir: Optional[str] = None,
                 refresh_options: Optional[Dict[str, object]] = None,
                 generation: int = 0,
                 fault_plan: Optional[FaultPlan] = None) -> None:
    """Entry point of one forked worker (runs until told to shut down).

    Args:
        index: the worker's position in the fleet.
        ctrl: this worker's end of its control pipe.
        unwanted: inherited pipe ends belonging to the parent or siblings —
            closed immediately so pipe EOFs actually deliver fleet-wide.
        listener: the parent's accept socket — closed too; workers never
            accept.
        machine: the machine plans are computed for.
        service_options: forwarded to this worker's PlannerService.
        enable_metrics: build a live per-worker metrics registry.
        enable_tracing: build a per-worker tracer (role ``worker-<index>``).
        reqlog_dir: when set, append served requests to
            ``<reqlog_dir>/requests-<index>.jsonl``.
        refresh_options: when set, the service starts (and owns) a
            per-worker background refresher with these kwargs — constructed
            here, after the fork, so its daemon threads belong to this
            process.
        generation: which incarnation of this worker slot this process is
            (0 at boot; bumped per supervised restart).  Echoed in every
            response so clients can observe restarts.
        fault_plan: deterministic faults to inject while serving — matched
            per decoded request against ``(index, generation, ordinal)``.
    """
    for conn in unwanted:
        try:
            conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
    try:
        listener.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass
    metrics = MetricsRegistry() if enable_metrics else None
    tracer = Tracer(role=f"worker-{index}") if enable_tracing else None
    request_log = (RequestLog(os.path.join(reqlog_dir, f"requests-{index}.jsonl"))
                   if reqlog_dir is not None else None)
    service = PlannerService(machine, metrics=metrics, tracer=tracer,
                             request_log=request_log, worker_index=index,
                             refresh_options=refresh_options,
                             **service_options)  # type: ignore[arg-type]
    log_event(_LOG, "serve.worker.start", worker=index, pid=os.getpid(),
              generation=generation, metrics=enable_metrics,
              tracing=enable_tracing, reqlog=reqlog_dir or "",
              refresh=refresh_options is not None)
    selector = selectors.DefaultSelector()
    selector.register(ctrl, selectors.EVENT_READ, data="ctrl")
    connections: Dict[int, _Connection] = {}
    running = True
    # Per-incarnation request ordinal: the deterministic coordinate faults
    # are keyed on.  Counts every decoded client request, answered or not.
    request_ordinal = 0

    def close_connection(fd: int) -> None:
        conn = connections.pop(fd)
        try:
            selector.unregister(conn.sock)
        except KeyError:  # pragma: no cover - defensive
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def pump(fd: int, conn: _Connection) -> None:
        """Flush buffered output and keep the interest set in sync."""
        if not conn.flush():
            close_connection(fd)
            return
        if len(conn.outbuf) > MAX_CONNECTION_BACKLOG_BYTES:
            log_event(_LOG, "serve.connection.backlog_closed", worker=index,
                      buffered=len(conn.outbuf))
            close_connection(fd)  # hoarding client: answers piling up unread
            return
        selector.modify(conn.sock, conn.events(), data="client")

    try:
        while running:
            for key, events in selector.select(timeout=1.0):
                if key.data == "ctrl":
                    running = _drain_control(index, ctrl, service, selector,
                                             connections)
                    continue
                sock = key.fileobj
                assert isinstance(sock, socket.socket)
                fd = sock.fileno()
                conn = connections.get(fd)
                if conn is None:  # pragma: no cover - closed earlier this round
                    continue
                if events & selectors.EVENT_WRITE:
                    pump(fd, conn)
                    if fd not in connections:
                        continue
                if not events & selectors.EVENT_READ:
                    continue
                try:
                    data = sock.recv(1 << 16)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    close_connection(fd)
                    continue
                if not data:
                    close_connection(fd)
                    continue
                try:
                    messages = conn.decoder.feed(data)
                except protocol.ProtocolError:
                    close_connection(fd)
                    continue
                for message in messages:
                    fault = None
                    if fault_plan:
                        fault = fault_plan.match(index, generation,
                                                 request_ordinal,
                                                 actions=WORKER_ACTIONS)
                    request_ordinal += 1
                    if fault is not None:
                        log_event(_LOG, "serve.fault.fire", worker=index,
                                  generation=generation, action=fault.action,
                                  ordinal=request_ordinal - 1)
                        if fault.action == FAULT_EXIT:
                            # Simulated crash: no reply, no cleanup, a
                            # distinctive exit code the supervisor test can
                            # assert on.  os._exit skips the finally block
                            # on purpose — that is what dying looks like.
                            os._exit(FAULT_EXIT_CODE)
                        if fault.action == FAULT_DROP:
                            close_connection(fd)
                            break
                        if fault.action == FAULT_TORN:
                            # A header promising more bytes than follow: the
                            # client's decoder sees a truncated frame when
                            # the close lands.
                            torn = protocol.HEADER.pack(64) + b"\x00" * 10
                            try:
                                conn.sock.setblocking(True)
                                conn.sock.sendall(torn)
                            except OSError:
                                pass
                            close_connection(fd)
                            break
                        if fault.action == FAULT_DELAY:
                            time.sleep(fault.delay_seconds)
                    conn.outbuf.extend(_dispatch(index, service, message,
                                                 tracer=tracer,
                                                 generation=generation))
                else:
                    pump(fd, conn)
    finally:
        for fd in list(connections):
            close_connection(fd)
        selector.close()
        service.close()
        if request_log is not None:
            request_log.close()
        log_event(_LOG, "serve.worker.stop", worker=index, pid=os.getpid())
        try:
            ctrl.close()
        except OSError:
            pass


def _drain_control(index: int, ctrl, service: PlannerService,
                   selector: selectors.BaseSelector,
                   connections: Dict[int, _Connection]) -> bool:
    """Handle every pending parent command; returns False on shutdown."""
    while True:
        try:
            if not ctrl.poll(0):
                return True
            message = ctrl.recv()
        except (OSError, EOFError):
            return False  # parent went away: exit rather than serve orphaned
        op = message[0]
        if op == "conn":
            # The fd rides the same pipe as ancillary data right behind the
            # announcement, so receive it before looking at further commands.
            # If the parent's send_handle failed after the announcement it
            # closes the pipe, which surfaces here as EOF/OSError — treat the
            # control channel as gone rather than blocking forever.
            try:
                fd = reduction.recv_handle(ctrl)
            except (OSError, EOFError, RuntimeError):
                return False
            sock = socket.socket(fileno=fd)
            sock.setblocking(False)
            connections[sock.fileno()] = _Connection(sock)
            selector.register(sock, selectors.EVENT_READ, data="client")
        elif op in _SNAPSHOT_OPS:
            try:
                ctrl.send((op, message[1], _SNAPSHOT_OPS[op](index, service)))
            except (OSError, ValueError):
                return False
        elif op == "shutdown":
            return False


#: The snapshot ops a worker answers on its control pipe and on client
#: sockets alike (``metrics`` is empty when the worker has no registry).
_SNAPSHOT_OPS = {
    "stats": lambda index, service: WorkerStats(
        worker=index, pid=os.getpid(), service=service.stats(),
        cache=service.cache_stats()).to_dict(),
    "metrics": lambda index, service: service.metrics_registry.snapshot(),
}


#: The two plan ops share one dispatch path: op -> (request subject key,
#: subject decoder, option key, worker span name, service call).  The
#: service calls resolve ``service.plan`` per request.
_PLAN_OPS = {
    "plan": ("workload", Workload.from_dict, "top_k", "worker.plan",
             lambda service, workload, top_k: service.plan(workload, top_k=top_k)),
    "plan_graph": ("graph", OpGraph.from_dict, "lattice_size", "worker.plan_graph",
                   lambda service, graph, lattice: service.plan_graph(
                       graph, lattice_size=lattice)),
}


def _dispatch(index: int, service: PlannerService,
              message: Dict[str, object],
              tracer: Optional[Tracer] = None,
              generation: int = 0) -> bytes:
    """Answer one decoded request with its reply frame (a plan reply is
    spliced by :func:`repro.serve.protocol.reply_frame`); failures become
    error replies.

    A ``plan``/``plan_graph`` request carrying a ``trace`` context on a
    tracing-enabled worker runs inside an adopted remote context under a
    ``worker.plan``/``worker.plan_graph`` span, and the spans recorded for
    that trace ride back in the payload (drained, so the worker's tracer
    does not accumulate exported spans).

    Only :class:`Exception` is converted — ``KeyboardInterrupt`` /
    ``SystemExit`` propagate so an interrupted worker exits instead of
    answering with the interrupt and serving on.
    """
    try:
        op = message.get("op")
        served = _PLAN_OPS.get(op) if isinstance(op, str) else None
        if served is not None:
            subject_key, decode, option_key, span_name, serve = served
            subject = decode(message[subject_key])
            raw_option = message.get(option_key)
            option = None if raw_option is None else read_int(raw_option, option_key)
            trace = message.get("trace")
            if tracer is not None and isinstance(trace, dict):
                trace_id = str(trace.get("trace_id") or "")
                parent = trace.get("parent_span_id")
                with tracer.remote_context(
                        trace_id, str(parent) if parent is not None else None):
                    with tracer.span(span_name, worker=index):
                        response = serve(service, subject, option)
                return protocol.reply_frame(
                    response, index, os.getpid(), trace_id=trace_id,
                    spans=tracer.drain(trace_id), generation=generation)
            response = serve(service, subject, option)
            return protocol.reply_frame(response, index, os.getpid(),
                                        generation=generation)
        if op == "ping":
            return protocol.encode_frame(protocol.ok_response({
                "worker": index, "pid": os.getpid(), "generation": generation,
                "protocol": list(protocol.PROTOCOL_VERSION)}))
        read = _SNAPSHOT_OPS.get(op) if isinstance(op, str) else None
        if read is not None:
            return protocol.encode_frame(protocol.ok_response(read(index, service)))
        raise ValueError(f"unknown op: {op!r}")
    except Exception as error:  # noqa: BLE001 - every failure must answer
        return protocol.encode_frame(protocol.error_response(error))
