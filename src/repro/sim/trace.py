"""Pluggable trace recorders for the event engine.

An :class:`~repro.sim.engine.EventEngine` calls ``record`` on its recorder
for every event it schedules.  The in-memory recorder keeps the full event
list and can export Chrome's ``chrome://tracing`` / Perfetto JSON format, so
a simulated schedule can be inspected on a real timeline viewer::

    from repro.sim import EventEngine, InMemoryTraceRecorder

    recorder = InMemoryTraceRecorder()
    engine = EventEngine(num_devices=4, recorder=recorder)
    ...  # run an executor through the engine
    recorder.dump_chrome_trace("trace.json")
"""

from __future__ import annotations

import json
from typing import Dict, List, Protocol

from repro.sim.events import EventKind, ScheduledEvent

#: Microseconds per modelled second in the Chrome export (the modelled times
#: are seconds; Chrome trace timestamps are microseconds).
_CHROME_SCALE = 1.0e6


class TraceRecorder(Protocol):
    """Anything that wants to observe scheduled events."""

    def record(self, event: ScheduledEvent) -> None:  # pragma: no cover - protocol
        """Observe one event, in the order the engine schedules them."""
        ...


class InMemoryTraceRecorder:
    """Keeps every scheduled event; supports filtering and Chrome export."""

    def __init__(self) -> None:
        self.events: List[ScheduledEvent] = []

    def record(self, event: ScheduledEvent) -> None:
        """Keep ``event``, after every event recorded before it."""
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: EventKind) -> List[ScheduledEvent]:
        """The recorded events of one kind, in recording order."""
        return [event for event in self.events if event.kind is kind]

    def by_device(self, device: int) -> List[ScheduledEvent]:
        """The recorded events on one device, in recording order."""
        return [event for event in self.events if event.device == device]

    # ------------------------------------------------------------------ #
    # Chrome trace export
    # ------------------------------------------------------------------ #
    def chrome_trace(self) -> Dict[str, object]:
        """The schedule as a Chrome-trace dict (one row per device engine)."""
        trace_events: List[Dict[str, object]] = []
        for event in self.events:
            if event.duration <= 0.0 and event.kind is EventKind.SYNC:
                continue
            trace_events.append(
                {
                    "name": event.label or event.kind.value,
                    "cat": event.kind.value,
                    "ph": "X",
                    "ts": event.start * _CHROME_SCALE,
                    "dur": event.duration * _CHROME_SCALE,
                    "pid": event.device,
                    "tid": event.engine or "sync",
                    "args": {
                        "uid": event.uid,
                        "deps": list(event.deps),
                        "peer": event.peer,
                    },
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def dump_chrome_trace(self, path: str) -> str:
        """Write the Chrome-trace JSON to ``path`` and return the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)
            handle.write("\n")
        return path
