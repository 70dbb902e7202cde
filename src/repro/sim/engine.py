"""The event recorder: the typed events a walk timed, kept as a DAG.

The direct walk (:func:`repro.core.walk.walk_columns`) and the IR executor
(:class:`repro.core.schedule_sim.IRExecutor`) keep their own time with
plain floats.  Handed an :class:`EventEngine`, they record every event they
timed with :meth:`EventEngine.record`: its kind, device, engine queue,
start, duration, peer, explicit dependencies and label.  The engine
computes no start time.  It derives, for each event,

* its program-order predecessor: the previous event recorded on the same
  (device, engine) queue;
* its binding predecessor: the first dependency that ends at the event's
  start, else that queue predecessor if it does,

so :meth:`EventEngine.critical_path` can walk the chain of events that set
the makespan, and it hands every event to its trace recorder.

A transfer also occupies shared capacity that no event stands for: a fetch
the owner's egress, a remote accumulate the destination's ingress.  The walk
passes that ``occupancy`` with the event; the reservation starts with the
event and may end after it, so :meth:`EventEngine.makespan` includes the
latest reservation end.

``contention=False`` makes a *relaxed* engine: a walk handed one drops the
cross-device egress/ingress floors, and the engine keeps no reservations.
Every constraint the relaxed walk enforces the contended walk enforces too,
on the same emission sequence, so the relaxed makespan never exceeds the
contended one — which is what makes the planner's critical-path bound
(:meth:`repro.sim.batch.BatchEvaluator.critical_bound`) admissible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.events import EventKind, ScheduledEvent
from repro.sim.trace import TraceRecorder


class EventEngine:
    """Records timed events on per-device engine queues (see module docs)."""

    def __init__(
        self,
        num_devices: int,
        contention: bool = True,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        self.num_devices = num_devices
        self.contention = contention
        self.recorder = recorder
        self.events: List[ScheduledEvent] = []
        self._tail: Dict[Tuple[int, str], ScheduledEvent] = {}
        self._finish = 0.0

    def record(
        self,
        kind: EventKind,
        device: int,
        engine: Optional[str],
        start: float,
        duration: float,
        peer: Optional[int] = None,
        deps: Sequence[Optional[ScheduledEvent]] = (),
        label: str = "",
        occupancy: float = 0.0,
    ) -> ScheduledEvent:
        """Record one event the caller timed; returns it.

        ``engine`` is the device queue it ran on (``None`` for a
        zero-duration sync).  ``deps`` may hold ``None`` for a dependency
        that was not recorded (a local tile).  ``occupancy`` is how long the
        event holds its ``peer``'s shared egress or ingress capacity, from
        ``start``; a relaxed engine ignores it.
        """
        end = start + duration
        binding = None
        for dep in deps:
            if dep is not None and dep.end == start:
                binding = dep.uid
                break
        tail = None
        if engine is not None:
            tail = self._tail.get((device, engine))
            if binding is None and tail is not None and tail.end == start:
                binding = tail.uid
            if end > self._finish:
                self._finish = end
        if occupancy and self.contention and start + occupancy > self._finish:
            self._finish = start + occupancy
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
            deps=tuple(dep.uid for dep in deps if dep is not None),
            engine_dep=None if tail is None else tail.uid,
            binding=binding,
        )
        self.events.append(event)
        if engine is not None:
            self._tail[(device, engine)] = event
        if self.recorder is not None:
            self.recorder.record(event)
        return event

    def makespan(self) -> float:
        """The latest end of any queued event or shared-capacity reservation."""
        return self._finish

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
