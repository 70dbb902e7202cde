"""Test oracle: the baselines' schedules emitted through the scheduling engine.

Every baseline in :mod:`repro.baselines` prices itself with one closed form,
``simulate``, which sums per-step terms from the algorithm's ``_terms``.
This module rebuilds the same schedules from those terms as lists of
bulk-synchronous phases, and emits each phase on every participating device
through the scheduling engine of ``tests/engine_oracle.py``.  The property suite holds the
engine's makespan equal to the closed form (``rel_tol=1e-9``), so the closed
form is checked against an independent event-level walk of its schedule.

Import it as ``tests.baseline_oracle`` (run pytest from the repository root).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.baselines import (
    BaselineAlgorithm,
    Cannon,
    CosmaLike,
    OneAndHalfD,
    OneDRing,
    Summa,
    TwoAndHalfD,
)
from repro.sim.events import ScheduledEvent
from repro.topology.machines import MachineSpec
from tests.engine_oracle import OracleEngine


@dataclass(frozen=True)
class Phase:
    """One (possibly repeated) step of a baseline's bulk-synchronous schedule.

    ``overlap=True`` runs the phase's communication and computation
    concurrently (the phase takes their max); ``overlap=False`` serialises
    communication before computation.  The communication, a point-to-point
    shift or one participant's share of a collective alike, is a fetch with
    no source device on the copy queue.
    """

    label: str
    compute: float = 0.0
    comm: float = 0.0
    overlap: bool = True
    repeat: int = 1


def _one_d(algorithm: OneDRing, t: dict, machine: MachineSpec):
    """``p - 1`` multiply+shift steps and one final multiply (no shift)."""
    p, gemm_step, shift_step = t["p"], t["gemm_step"], t["shift_step"]
    if p <= 1:
        return [Phase("multiply", compute=gemm_step)], machine.num_devices
    return [
        Phase("multiply-shift", compute=gemm_step, comm=shift_step,
              overlap=algorithm.overlap, repeat=p - 1),
        Phase("final-multiply", compute=gemm_step),
    ], machine.num_devices


def _summa(algorithm: Summa, t: dict, machine: MachineSpec):
    """``steps`` identical panel updates: broadcast the panels, rank-kb update."""
    return [Phase("panel-update", compute=t["gemm_step"], comm=t["comm_step"],
                  overlap=algorithm.overlap, repeat=t["steps"])
            ], machine.num_devices


def _cannon(algorithm: Cannon, t: dict, machine: MachineSpec):
    """Initial skew, ``side - 1`` multiply+rotate steps, one final multiply."""
    side, gemm_step, shift_step = t["side"], t["gemm_step"], t["shift_step"]
    if side <= 1:
        return [Phase("multiply", compute=gemm_step)], side * side
    return [
        Phase("skew", comm=shift_step),
        Phase("multiply-rotate", compute=gemm_step, comm=shift_step,
              overlap=algorithm.overlap, repeat=side - 1),
        Phase("final-multiply", compute=gemm_step),
    ], side * side


def _one_and_half_d(algorithm: OneAndHalfD, t: dict, machine: MachineSpec):
    """Ring rotations over the group's inner share, then the replica all-reduce."""
    phases = []
    if t["steps"] > 1:
        phases.append(Phase("ring-step", compute=t["gemm_step"], comm=t["shift_step"],
                            overlap=algorithm.overlap, repeat=t["steps"] - 1))
    phases.append(Phase("final-multiply", compute=t["gemm_step"]))
    if t["reduce_total"] > 0.0:
        phases.append(Phase("replica-allreduce", comm=t["reduce_total"]))
    return phases, machine.num_devices


def _layered_summa(algorithm, t: dict, steps: int, reduce_label: str):
    """SUMMA panel updates within each layer, then the cross-layer all-reduce."""
    phases = [Phase("panel-update", compute=t["gemm_step"], comm=t["comm_step"],
                    overlap=algorithm.overlap, repeat=steps)]
    if t["reduce_total"] > 0.0:
        phases.append(Phase(reduce_label, comm=t["reduce_total"]))
    return phases


def _two_and_half_d(algorithm: TwoAndHalfD, t: dict, machine: MachineSpec):
    """Each layer's share of SUMMA panel updates, then the layer all-reduce."""
    phases = _layered_summa(algorithm, t, t["steps_per_layer"], "layer-allreduce")
    return phases, t["side"] * t["side"] * t["c"]


def _cosma(algorithm: CosmaLike, t: dict, machine: MachineSpec):
    """The chosen decomposition's layers, then the partial-C all-reduce."""
    phases = _layered_summa(algorithm, t, t["steps"], "partial-allreduce")
    return phases, t["decomposition"].processes


_SCHEDULES = {
    OneDRing: _one_d,
    Summa: _summa,
    Cannon: _cannon,
    OneAndHalfD: _one_and_half_d,
    TwoAndHalfD: _two_and_half_d,
    CosmaLike: _cosma,
}


def schedule(
    algorithm: BaselineAlgorithm,
    m: int,
    n: int,
    k: int,
    machine: MachineSpec,
    itemsize: int = 4,
) -> Tuple[List[Phase], int]:
    """The algorithm's phase list and how many devices run it.

    Both come from one ``_terms`` call, the terms ``simulate`` sums.
    Algorithms with grid constraints (Cannon's square grids, 2.5D's layer
    grids, COSMA's factorisations) leave the remaining devices idle.
    """
    terms = algorithm._terms(m, n, k, machine, itemsize)
    return _SCHEDULES[type(algorithm)](algorithm, terms, machine)


def _emit_phase(
    engine: OracleEngine,
    device: int,
    phase: Phase,
    label: str,
    barrier: Optional[ScheduledEvent],
) -> Optional[ScheduledEvent]:
    """Emit one repetition of a phase; returns the new chain barrier."""

    if not phase.overlap:
        # Serial: communication completes before the local update starts.
        tail = barrier
        if phase.comm > 0.0:
            tail = engine.fetch(device, phase.comm, deps=(tail,), label=label)
        if phase.compute > 0.0:
            tail = engine.gemm(device, phase.compute, deps=(tail,), label=label)
        return tail

    concurrent: List[Optional[ScheduledEvent]] = []
    if phase.comm > 0.0:
        concurrent.append(engine.fetch(device, phase.comm, deps=(barrier,), label=label))
    if phase.compute > 0.0:
        concurrent.append(engine.gemm(device, phase.compute, deps=(barrier,),
                                      label=label))
    if not concurrent:
        return barrier
    if len(concurrent) == 1:
        return concurrent[0]
    return engine.sync(device, deps=concurrent + [barrier], label=f"{label}:sync")


def simulate_events(
    algorithm: BaselineAlgorithm,
    m: int,
    n: int,
    k: int,
    machine: MachineSpec,
    itemsize: int = 4,
) -> OracleEngine:
    """Emit the algorithm's schedule as typed events on every participating device.

    Every participating device executes the same bulk-synchronous phase
    sequence, so the engine's makespan reproduces the closed-form
    ``simulate`` time.  Returns the engine for trace inspection and
    makespan queries.
    """
    engine = OracleEngine(machine.num_devices)
    phases, active_devices = schedule(algorithm, m, n, k, machine, itemsize)
    for device in range(active_devices):
        barrier: Optional[ScheduledEvent] = None
        for phase in phases:
            label = f"{algorithm.name}:{phase.label}"
            for _ in range(phase.repeat):
                barrier = _emit_phase(engine, device, phase, label, barrier)
    return engine
