"""Test oracle: the scheduling event engine.

The library times its walks with plain floats
(:func:`repro.core.walk.walk_columns`, :class:`repro.core.schedule_sim.IRExecutor`)
and :class:`repro.sim.engine.EventEngine` only records what they timed.  This
module is the independent reference those walks are checked against: an
engine that *schedules* each posted call on per-device timelines.

Each device owns five engines:

* **compute**, **copy** and **accumulate** — FIFO queues (:meth:`DeviceTimeline.reserve`):
  work starts no earlier than its dependencies and the queue's previous end;
* **egress** and **ingress** — the device's shared link capacity
  (:meth:`DeviceTimeline.reserve_slot`): a transfer takes the earliest idle
  gap that fits it at or after its ready time, so one-to-many tile fan-out
  serialises at the owner and many-to-one accumulate fan-in at the
  destination.

``OracleEngine(contention=False)`` is the relaxed engine: the same queues,
no egress/ingress floors.  Its events are :class:`repro.sim.events.ScheduledEvent`
records, so the property suites compare them ``==`` with the events a walk
records.  The direct, bound and baseline oracles (``tests/direct_oracle.py``,
``tests/bound_oracle.py``, ``tests/baseline_oracle.py``) schedule on it.
Import it as ``tests.engine_oracle`` (run pytest from the repository root).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.events import ACCUMULATE, COMPUTE, COPY, EventKind, ScheduledEvent

INGRESS = "ingress"
EGRESS = "egress"

ENGINES = (COMPUTE, COPY, ACCUMULATE, INGRESS, EGRESS)


@dataclass
class TimelineEntry:
    """One scheduled occupancy interval on an engine."""

    start: float
    end: float
    label: str = ""


def _entry_start(entry: TimelineEntry) -> float:
    return entry.start


class DeviceTimeline:
    """Occupancy bookkeeping for one device's engines, sorted by start."""

    def __init__(self, device: int) -> None:
        self.device = device
        self._available: Dict[str, float] = {name: 0.0 for name in ENGINES}
        self._entries: Dict[str, List[TimelineEntry]] = {name: [] for name in ENGINES}

    def available_at(self, engine: str) -> float:
        """Earliest time the engine can start new work (FIFO discipline)."""
        return self._available[engine]

    def reserve(
        self, engine: str, duration: float, earliest_start: float = 0.0, label: str = ""
    ) -> Tuple[float, float]:
        """FIFO: ``duration`` from ``max(earliest_start, previous end)``."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        start = max(earliest_start, self._available[engine])
        end = start + duration
        self._available[engine] = end
        insort(self._entries[engine], TimelineEntry(start, end, label), key=_entry_start)
        return start, end

    def find_slot(self, engine: str, duration: float, earliest_start: float = 0.0) -> float:
        """Earliest start >= ``earliest_start`` with an idle gap of ``duration``."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        cursor = earliest_start
        for entry in self._entries[engine]:
            if entry.start - cursor >= duration:
                break
            cursor = max(cursor, entry.end)
        return cursor

    def reserve_slot(
        self, engine: str, duration: float, earliest_start: float = 0.0, label: str = ""
    ) -> Tuple[float, float]:
        """Capacity: place the work into the earliest idle gap that fits."""
        start = self.find_slot(engine, duration, earliest_start)
        end = start + duration
        insort(self._entries[engine], TimelineEntry(start, end, label), key=_entry_start)
        self._available[engine] = max(self._available[engine], end)
        return start, end

    def entries(self, engine: str) -> List[TimelineEntry]:
        """A copy of the engine's reservations, sorted by start."""
        return list(self._entries[engine])

    def busy_time(self, engine: str) -> float:
        """Total occupied time on the engine (no gaps counted)."""
        return sum(entry.end - entry.start for entry in self._entries[engine])

    def finish_time(self) -> float:
        """Completion time of the last work item across all engines."""
        return max(self._available.values())


class SimClock:
    """The device timelines of a whole machine."""

    def __init__(self, num_devices: int) -> None:
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        self.devices = [DeviceTimeline(d) for d in range(num_devices)]

    def device(self, index: int) -> DeviceTimeline:
        """The timeline of device ``index``."""
        return self.devices[index]

    def makespan(self) -> float:
        """Finish time of the slowest device."""
        return max(device.finish_time() for device in self.devices)


class OracleEngine:
    """Schedules typed events onto per-device timelines as they are posted."""

    def __init__(self, num_devices: int, contention: bool = True) -> None:
        self.clock = SimClock(num_devices)
        self.num_devices = num_devices
        self.contention = contention
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

    def _emit(self, kind: EventKind, device: int, engine: Optional[str], start: float,
              end: float, duration: float, label: str, peer: Optional[int],
              deps: Sequence[Optional[ScheduledEvent]], engine_dep: Optional[int],
              engine_available: float) -> ScheduledEvent:
        binding = None
        for dep in deps:
            if dep is not None and dep.end == start:
                binding = dep.uid
                break
        if binding is None and engine_dep is not None and engine_available == start:
            binding = engine_dep
        event = ScheduledEvent(
            uid=len(self.events), kind=kind, device=device, engine=engine,
            start=start, end=end, duration=duration, label=label, peer=peer,
            deps=tuple(dep.uid for dep in deps if dep is not None),
            engine_dep=engine_dep, binding=binding,
        )
        self.events.append(event)
        if engine is not None:
            self._engine_tail[(device, engine)] = event.uid
        return event

    def _reserve_fifo(self, kind: EventKind, device: int, engine: str, duration: float,
                      earliest: float, deps: Sequence[Optional[ScheduledEvent]],
                      label: str, peer: Optional[int] = None) -> ScheduledEvent:
        """FIFO-reserve ``duration`` on a device engine from ``earliest``."""
        timeline = self.clock.device(device)
        engine_dep = self._engine_tail.get((device, engine))
        engine_available = timeline.available_at(engine)
        start, end = timeline.reserve(engine, duration, earliest, label=label)
        return self._emit(kind, device, engine, start, end, duration, label,
                          peer, deps, engine_dep, engine_available)

    def _transfer_start(self, device: int, queue: str, peer: Optional[int],
                        capacity: str, occupancy: float, min_start: float,
                        deps: Sequence[Optional[ScheduledEvent]], label: str) -> float:
        """After the deps and the initiator's queue, in a gap of ``peer``'s capacity."""
        earliest = max(self._floor(min_start, deps),
                       self.clock.device(device).available_at(queue))
        if self.contention and peer is not None and peer != device:
            earliest, _ = self.clock.device(peer).reserve_slot(
                capacity, occupancy, earliest, label=f"{capacity}:{label}")
        return earliest

    # ------------------------------------------------------------------ #
    # typed event posting
    # ------------------------------------------------------------------ #
    def fetch(self, device: int, duration: float, src: Optional[int] = None,
              occupancy: float = 0.0, min_start: float = 0.0,
              deps: Sequence[Optional[ScheduledEvent]] = (),
              label: str = "fetch") -> ScheduledEvent:
        """A one-sided get into ``device``: its copy queue, then ``src``'s egress."""
        start = self._transfer_start(device, COPY, src, EGRESS, occupancy, min_start,
                                     deps, label)
        return self._reserve_fifo(EventKind.FETCH, device, COPY, duration, start, deps,
                                  label, peer=src)

    def gemm(self, device: int, duration: float, min_start: float = 0.0,
             deps: Sequence[Optional[ScheduledEvent]] = (),
             label: str = "gemm") -> ScheduledEvent:
        """A local GEMM on the device's compute queue."""
        return self._reserve_fifo(EventKind.GEMM, device, COMPUTE, duration,
                                  self._floor(min_start, deps), deps, label)

    def accumulate(self, device: int, duration: float, dst: Optional[int] = None,
                   occupancy: float = 0.0, interference: float = 0.0,
                   min_start: float = 0.0,
                   deps: Sequence[Optional[ScheduledEvent]] = (),
                   label: str = "accumulate") -> ScheduledEvent:
        """A remote accumulate into ``dst``: the initiator's accumulate queue,
        then ``dst``'s ingress; ``interference`` steals that share of the
        initiator's compute, concurrently (same deps, from the same start)."""
        start = self._transfer_start(device, ACCUMULATE, dst, INGRESS, occupancy,
                                     min_start, deps, label)
        event = self._reserve_fifo(EventKind.ACCUMULATE, device, ACCUMULATE, duration,
                                   start, deps, label, peer=dst)
        if interference > 0.0:
            self._reserve_fifo(EventKind.ACCUMULATE, device, COMPUTE,
                               duration * interference, event.start, deps,
                               f"interference:{label}", peer=dst)
        return event

    def local_accumulate(self, device: int, duration: float, min_start: float = 0.0,
                         deps: Sequence[Optional[ScheduledEvent]] = (),
                         label: str = "local-accumulate") -> ScheduledEvent:
        """Accumulate into a locally owned tile, on the compute queue."""
        return self._reserve_fifo(EventKind.ACCUMULATE, device, COMPUTE, duration,
                                  self._floor(min_start, deps), deps, label)

    def sync(self, device: int, deps: Sequence[Optional[ScheduledEvent]] = (),
             min_start: float = 0.0, label: str = "sync") -> ScheduledEvent:
        """A zero-duration join: completes when every dependency has completed."""
        at = self._floor(min_start, deps)
        return self._emit(EventKind.SYNC, device, None, at, at, 0.0, label,
                          None, deps, None, 0.0)

    # ------------------------------------------------------------------ #
    # schedule queries
    # ------------------------------------------------------------------ #
    def makespan(self) -> float:
        """Finish time of the slowest device, egress and ingress included."""
        return self.clock.makespan()

    def device_finish(self, device: int) -> float:
        """When ``device``'s last scheduled work item, on any engine, completes."""
        return self.clock.device(device).finish_time()

    def busy_time(self, device: int, engine: str) -> float:
        """Summed occupied time of one engine of ``device`` (gaps not counted)."""
        return self.clock.device(device).busy_time(engine)

    def total_busy_time(self) -> float:
        """Summed occupancy across every engine of every device."""
        return sum(self.busy_time(d, engine)
                   for d in range(self.num_devices) for engine in ENGINES)
