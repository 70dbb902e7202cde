"""Simulated time: per-resource timelines used to model overlap.

Each device owns a small set of engines, mirroring the execution resources
the paper's implementation uses:

* a **compute** engine (the GPU's GEMM pipeline),
* a **copy** engine (used by ``get_tile``/``get_tile_async`` transfers),
* an **accumulate** engine (the hand-written atomic accumulate kernel, which
  on real hardware contends with compute — modelled via the machine's
  ``accumulate_compute_interference`` factor at a higher level),
* an **ingress** and an **egress** engine modelling the device's aggregate
  unidirectional link bandwidth (the per-device number the paper's Table 2
  quotes): all data flowing into or out of a device shares this capacity, so
  many-to-one accumulate fan-in or one-to-many tile fan-out serialises here
  even though each pair-wise link is free.

A timeline is a single-server queue: work items are serialised on the engine
but may overlap with work on other engines, which is exactly the overlap
structure the direct-execution engine and IR schedules exploit.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

COMPUTE = "compute"
COPY = "copy"
ACCUMULATE = "accumulate"
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
    """Occupancy bookkeeping for one device's engines.

    Two reservation disciplines are offered:

    * :meth:`reserve` — FIFO/stream semantics: work starts no earlier than the
      engine's previous completion.  Used for per-rank execution streams
      (compute, the rank's own copy/accumulate queues), where program order is
      the real ordering constraint.
    * :meth:`reserve_slot` — capacity semantics: the work is placed into the
      earliest idle *gap* that fits, at or after its ready time.  Used for the
      shared ingress/egress bandwidth of a device, which serves whichever
      transfer has data available rather than the order requests were posted
      by the simulator's loop.
    """

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
        """Schedule ``duration`` seconds of work on ``engine`` (FIFO discipline).

        The work begins no earlier than ``earliest_start`` (its dependencies)
        and no earlier than the engine's previous completion.  Returns the
        ``(start, end)`` interval and advances the engine.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        start = max(earliest_start, self._available[engine])
        end = start + duration
        self._available[engine] = end
        # FIFO starts are monotone (start >= available >= every prior end),
        # so a plain append preserves the sorted-by-start invariant that
        # find_slot relies on; the guard covers mixed-discipline engines
        # where an out-of-order slot insert could precede this start.
        entries = self._entries[engine]
        entry = TimelineEntry(start, end, label)
        if entries and start < entries[-1].start:
            insort(entries, entry, key=_entry_start)
        else:
            entries.append(entry)
        return start, end

    def find_slot(self, engine: str, duration: float, earliest_start: float = 0.0) -> float:
        """Earliest start >= ``earliest_start`` with an idle gap of ``duration``."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        cursor = earliest_start
        # _entries is kept sorted by start at insertion time, so the scan
        # needs no per-call sort (this used to re-sort on every reservation).
        for entry in self._entries[engine]:
            if entry.start - cursor >= duration:
                break
            cursor = max(cursor, entry.end)
        return cursor

    def reserve_slot(
        self, engine: str, duration: float, earliest_start: float = 0.0, label: str = ""
    ) -> Tuple[float, float]:
        """Place work into the earliest idle gap (capacity discipline)."""
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

    def reset(self) -> None:
        """Free every engine and drop its reservations."""
        for name in ENGINES:
            self._available[name] = 0.0
            self._entries[name] = []


class SimClock:
    """Collection of device timelines for a whole machine.

    There is no per-link state: a transfer's duration is priced from its
    link's bandwidth, and the devices' shared ingress/egress engines are
    where concurrent transfers serialise.
    """

    def __init__(self, num_devices: int) -> None:
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        self.num_devices = num_devices
        self.devices = [DeviceTimeline(d) for d in range(num_devices)]

    def device(self, index: int) -> DeviceTimeline:
        """The timeline of device ``index``."""
        return self.devices[index]

    def makespan(self) -> float:
        """Finish time of the slowest device — the modelled wall-clock time."""
        return max(device.finish_time() for device in self.devices)

    def reset(self) -> None:
        """Reset every device's timeline."""
        for device in self.devices:
            device.reset()
