"""Typed simulation events: the vocabulary every recorded walk speaks.

The paper's claim (Section 4.3) is that one roofline-plus-bandwidth cost
model can price *every* operation in the system.  This module defines the
four event kinds that cover all of them:

* :attr:`EventKind.FETCH` — a one-sided tile get (copy engine; with
  contention modelled it also holds the owner's egress capacity);
* :attr:`EventKind.GEMM` — a local matrix multiply on the compute engine;
* :attr:`EventKind.ACCUMULATE` — a local or one-sided remote accumulate
  (accumulate engine; a remote one also holds the destination's ingress
  capacity), or the compute share a remote accumulate steals;
* :attr:`EventKind.SYNC` — a zero-duration join of other events (IR step
  barriers).

Every recorded event carries its ``(start, end)`` interval, its explicit
dependencies, and the program-order predecessor on its engine queue, so the
full execution forms a DAG that trace recorders can export and that
:meth:`repro.sim.engine.EventEngine.critical_path` can walk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: The engine queues of a device that recorded events run on.
COMPUTE = "compute"
COPY = "copy"
ACCUMULATE = "accumulate"


class EventKind(enum.Enum):
    """The typed vocabulary of the event recorder."""

    FETCH = "fetch"
    GEMM = "gemm"
    ACCUMULATE = "accumulate"
    SYNC = "sync"


@dataclass(frozen=True)
class ScheduledEvent:
    """One recorded event: immutable, with its realized interval.

    ``deps`` are the uids of the events whose completion explicitly gated
    this one (data dependencies).  ``engine_dep`` is the uid of the previous
    event recorded on the same (device, engine) queue — the implicit
    program-order edge.  ``binding`` is the uid of whichever predecessor
    actually determined ``start`` (``None`` when the event started at its
    floor), which is what makes critical paths walkable without re-deriving
    the schedule.
    """

    uid: int
    kind: EventKind
    device: int
    engine: Optional[str]
    start: float
    end: float
    duration: float
    label: str = ""
    #: Source device of a FETCH / destination device of a remote ACCUMULATE.
    peer: Optional[int] = None
    deps: Tuple[int, ...] = ()
    engine_dep: Optional[int] = None
    binding: Optional[int] = None

    @property
    def parents(self) -> Tuple[int, ...]:
        """All DAG predecessors: explicit deps plus the engine-order edge."""
        if self.engine_dep is None:
            return self.deps
        return self.deps + (self.engine_dep,)
