"""The discrete-event simulation engine: typed events on device timelines.

The IR executor's step schedules are typed events posted to an
:class:`EventEngine`, and so is a recorded direct walk
(:func:`repro.core.walk.walk_columns` posts every fetch, GEMM and
accumulate when handed an engine; it keeps its own time with plain floats
by the same rules).  The engine schedules

* per-device engine timelines (compute / copy / accumulate queues with FIFO
  stream semantics),
* shared ingress/egress capacity (earliest-fitting-gap semantics, which is
  what serialises many-to-one accumulate fan-in and one-to-many tile
  fan-out).

There is no per-link state: a device pair's link bandwidth prices a
transfer's duration, and the devices' shared ingress/egress capacity is
what serialises concurrent transfers.

Events are scheduled immediately as they are posted, in emission order —
exactly the discipline of the direct walk's step-major interleave — and
each realized event records the dependency edges that explain its start
time, so the full run forms a DAG.

``contention=False`` produces the *relaxed* engine: the same events, the
same per-device FIFO queues, but no cross-device egress/ingress floors.
Because every constraint the relaxed engine enforces is also enforced by the
full engine (on the identical emission sequence), the relaxed makespan never
exceeds the contended one — which is what makes the planner's
critical-path bound (:meth:`repro.sim.batch.BatchEvaluator.critical_bound`,
a fold of this recurrence) an admissible pruning bound.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.clock import (
    ACCUMULATE,
    COMPUTE,
    COPY,
    EGRESS,
    ENGINES,
    INGRESS,
    SimClock,
)
from repro.sim.events import EventKind, ScheduledEvent
from repro.sim.trace import TraceRecorder


class EventEngine:
    """Schedules typed events onto per-device engine timelines (see module docs)."""

    def __init__(
        self,
        num_devices: int,
        contention: bool = True,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.clock = SimClock(num_devices)
        self.num_devices = num_devices
        self.contention = contention
        self.recorder = recorder
        self.events: List[ScheduledEvent] = []
        self._engine_tail: Dict[Tuple[int, str], int] = {}

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _floor(min_start: float, deps: Sequence[Optional[ScheduledEvent]]) -> float:
        earliest = min_start
        for dep in deps:
            if dep is not None and dep.end > earliest:
                earliest = dep.end
        return earliest

    @staticmethod
    def _dep_uids(deps: Sequence[Optional[ScheduledEvent]]) -> Tuple[int, ...]:
        return tuple(dep.uid for dep in deps if dep is not None)

    def _binding(
        self,
        start: float,
        deps: Sequence[Optional[ScheduledEvent]],
        engine_dep: Optional[int],
        engine_available: float,
    ) -> Optional[int]:
        """The predecessor whose completion realized ``start`` (dep edges win)."""
        for dep in deps:
            if dep is not None and dep.end == start:
                return dep.uid
        if engine_dep is not None and engine_available == start:
            return engine_dep
        return None

    def _emit(
        self,
        kind: EventKind,
        device: int,
        engine: Optional[str],
        start: float,
        end: float,
        duration: float,
        label: str,
        peer: Optional[int],
        deps: Sequence[Optional[ScheduledEvent]],
        engine_dep: Optional[int],
        engine_available: float,
    ) -> ScheduledEvent:
        event = ScheduledEvent(
            uid=len(self.events),
            kind=kind,
            device=device,
            engine=engine,
            start=start,
            end=end,
            duration=duration,
            label=label,
            peer=peer,
            deps=self._dep_uids(deps),
            engine_dep=engine_dep,
            binding=self._binding(start, deps, engine_dep, engine_available),
        )
        self.events.append(event)
        if engine is not None:
            self._engine_tail[(device, engine)] = event.uid
        if self.recorder is not None:
            self.recorder.record(event)
        return event

    def _reserve_fifo(
        self,
        kind: EventKind,
        device: int,
        engine: str,
        duration: float,
        min_start: float,
        deps: Sequence[Optional[ScheduledEvent]],
        label: str,
        peer: Optional[int] = None,
        floor: Optional[float] = None,
    ) -> ScheduledEvent:
        """FIFO-reserve ``duration`` on a device engine (the common case).

        ``floor`` overrides the dependency-derived earliest start (used when a
        contention floor was already resolved against another device).
        """
        timeline = self.clock.device(device)
        engine_dep = self._engine_tail.get((device, engine))
        engine_available = timeline.available_at(engine)
        earliest = self._floor(min_start, deps) if floor is None else floor
        start, end = timeline.reserve(engine, duration, earliest, label=label)
        return self._emit(kind, device, engine, start, end, duration, label,
                          peer, deps, engine_dep, engine_available)

    # ------------------------------------------------------------------ #
    # typed event posting
    # ------------------------------------------------------------------ #
    def fetch(
        self,
        device: int,
        duration: float,
        src: Optional[int] = None,
        occupancy: float = 0.0,
        min_start: float = 0.0,
        deps: Sequence[Optional[ScheduledEvent]] = (),
        label: str = "fetch",
    ) -> ScheduledEvent:
        """A one-sided get of a remote tile into ``device``.

        The transfer serialises on the reader's copy queue (program order).
        With contention modelled and a source device given, it must also find
        an idle slot in the owner's shared egress capacity — one-to-many tile
        fan-out serialises at the owner, exactly as in the paper's per-device
        bandwidth model.
        """
        timeline = self.clock.device(device)
        earliest = self._floor(min_start, deps)
        earliest = max(earliest, timeline.available_at(COPY))
        if self.contention and src is not None and src != device:
            start, _ = self.clock.device(src).reserve_slot(
                EGRESS, occupancy, earliest, label=f"egress:{label}")
        else:
            start = earliest
        return self._reserve_fifo(EventKind.FETCH, device, COPY, duration,
                                  min_start, deps, label, peer=src, floor=start)

    def gemm(
        self,
        device: int,
        duration: float,
        min_start: float = 0.0,
        deps: Sequence[Optional[ScheduledEvent]] = (),
        label: str = "gemm",
    ) -> ScheduledEvent:
        """A local GEMM on the device's compute engine."""
        return self._reserve_fifo(EventKind.GEMM, device, COMPUTE, duration,
                                  min_start, deps, label)

    def accumulate(
        self,
        device: int,
        duration: float,
        dst: Optional[int] = None,
        occupancy: float = 0.0,
        interference: float = 0.0,
        min_start: float = 0.0,
        deps: Sequence[Optional[ScheduledEvent]] = (),
        label: str = "accumulate",
    ) -> ScheduledEvent:
        """A remote accumulate initiated by ``device`` into ``dst``.

        Runs as a kernel on the initiator's accumulate queue.  With
        contention modelled, it must find a free slot in the destination's
        shared ingress capacity (many-to-one fan-in serialises there);
        ``interference`` additionally steals the given fraction of the
        initiator's compute engine while it runs (the paper observes this on
        H100).
        """
        timeline = self.clock.device(device)
        earliest = self._floor(min_start, deps)
        earliest = max(earliest, timeline.available_at(ACCUMULATE))
        if self.contention and dst is not None and dst != device:
            start, _ = self.clock.device(dst).reserve_slot(
                INGRESS, occupancy, earliest, label=f"ingress:{label}")
        else:
            start = earliest
        event = self._reserve_fifo(EventKind.ACCUMULATE, device, ACCUMULATE,
                                   duration, min_start, deps, label,
                                   peer=dst, floor=start)
        if interference > 0.0:
            # The accumulate kernel steals compute resources while it runs —
            # concurrently, so the stolen slice shares the accumulate's own
            # dependencies and start rather than depending on the accumulate.
            self._reserve_fifo(EventKind.ACCUMULATE, device, COMPUTE,
                               duration * interference, min_start, deps,
                               f"interference:{label}", peer=dst,
                               floor=event.start)
        return event

    def local_accumulate(
        self,
        device: int,
        duration: float,
        min_start: float = 0.0,
        deps: Sequence[Optional[ScheduledEvent]] = (),
        label: str = "local-accumulate",
    ) -> ScheduledEvent:
        """Accumulate a partial result into a locally owned tile (compute engine)."""
        return self._reserve_fifo(EventKind.ACCUMULATE, device, COMPUTE,
                                  duration, min_start, deps, label)

    def sync(
        self,
        device: int,
        deps: Sequence[Optional[ScheduledEvent]] = (),
        min_start: float = 0.0,
        label: str = "sync",
    ) -> ScheduledEvent:
        """A zero-duration join: completes when every dependency has completed."""
        at = self._floor(min_start, deps)
        return self._emit(EventKind.SYNC, device, None, at, at, 0.0, label,
                          None, deps, None, 0.0)

    # ------------------------------------------------------------------ #
    # schedule queries
    # ------------------------------------------------------------------ #
    def makespan(self) -> float:
        """Finish time of the slowest device — the modelled wall-clock time."""
        return self.clock.makespan()

    def device_finish(self, device: int) -> float:
        """When ``device``'s last scheduled work item, on any engine, completes."""
        return self.clock.device(device).finish_time()

    def busy_time(self, device: int, engine: str) -> float:
        """Summed occupied time of one engine of ``device`` (gaps not counted)."""
        return self.clock.device(device).busy_time(engine)

    def total_busy_time(self) -> float:
        """Summed occupancy across every engine of every device."""
        return sum(
            self.clock.device(d).busy_time(engine)
            for d in range(self.num_devices)
            for engine in ENGINES
        )

    def critical_path(self) -> List[ScheduledEvent]:
        """The chain of events that realized the makespan, in time order.

        Walks backwards from the last-finishing event through each event's
        ``binding`` predecessor (the dependency or queue predecessor whose
        completion determined its start).  The chain crosses engines — a
        fetch gating a GEMM gating an accumulate shows up as three links —
        which is precisely the structure the per-engine occupancy bound
        cannot see.
        """
        if not self.events:
            return []
        tail = max(self.events, key=lambda event: (event.end, event.uid))
        chain = [tail]
        while chain[-1].binding is not None:
            chain.append(self.events[chain[-1].binding])
        chain.reverse()
        return chain

    def critical_path_length(self) -> float:
        """Longest dependency-chain duration sum over the event DAG.

        Uses only DAG edges (explicit deps plus engine program order), so it
        is a lower bound on the realized makespan regardless of contention.
        """
        longest = 0.0
        path: Dict[int, float] = {}
        for event in self.events:
            upstream = 0.0
            for parent in event.parents:
                upstream = max(upstream, path.get(parent, 0.0))
            path[event.uid] = upstream + event.duration
            longest = max(longest, path[event.uid])
        return longest

