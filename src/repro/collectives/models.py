"""Analytic time models for collective operations.

Ring-algorithm cost formulas are used throughout, matching what NCCL and
oneCCL implement for large messages on fully connected intra-node fabrics:

* broadcast (pipelined ring): ``(g-1) * latency + nbytes / bandwidth``
* all-gather / reduce-scatter: ``(g-1) * latency + (g-1)/g * total_bytes / bandwidth``
* all-reduce: reduce-scatter followed by all-gather, i.e. twice the above.

``bandwidth`` is the slowest link between any two members of the group (the
ring's bottleneck), and latency is charged once per ring step.  These models
are intentionally simple — they are the comparator's cost, not the paper's
contribution — but they use exactly the same machine description as the
one-sided algorithm so the comparison is apples-to-apples.
"""

from __future__ import annotations

from typing import Sequence

from repro.topology.machines import MachineSpec


def _group_bandwidth_latency(machine: MachineSpec, ranks: Sequence[int]) -> tuple[float, float]:
    """Bottleneck bandwidth and typical latency among a group of ranks."""
    ranks = list(ranks)
    if len(ranks) <= 1:
        return machine.memory_bandwidth, 0.0
    topology = machine.topology
    bandwidth = min(
        topology.bandwidth(src, dst)
        for src in ranks
        for dst in ranks
        if src != dst
    )
    latency = max(
        topology.latency(src, dst)
        for src in ranks
        for dst in ranks
        if src != dst
    )
    return bandwidth, latency


def broadcast_time(machine: MachineSpec, ranks: Sequence[int], nbytes: int) -> float:
    """Pipelined ring broadcast of ``nbytes`` from one member to the rest."""
    group = len(list(ranks))
    if group <= 1 or nbytes <= 0:
        return 0.0
    bandwidth, latency = _group_bandwidth_latency(machine, ranks)
    return (group - 1) * latency + nbytes / bandwidth


def allgather_time(machine: MachineSpec, ranks: Sequence[int], total_bytes: int) -> float:
    """Ring all-gather where the *concatenated* result is ``total_bytes``."""
    group = len(list(ranks))
    if group <= 1 or total_bytes <= 0:
        return 0.0
    bandwidth, latency = _group_bandwidth_latency(machine, ranks)
    return (group - 1) * latency + (group - 1) / group * total_bytes / bandwidth


def reduce_scatter_time(machine: MachineSpec, ranks: Sequence[int], total_bytes: int) -> float:
    """Ring reduce-scatter over a buffer of ``total_bytes`` per member."""
    return allgather_time(machine, ranks, total_bytes)


def allreduce_time(machine: MachineSpec, ranks: Sequence[int], nbytes: int) -> float:
    """Ring all-reduce (reduce-scatter + all-gather) of ``nbytes`` per member."""
    group = len(list(ranks))
    if group <= 1 or nbytes <= 0:
        return 0.0
    bandwidth, latency = _group_bandwidth_latency(machine, ranks)
    return 2 * ((group - 1) * latency + (group - 1) / group * nbytes / bandwidth)


def alltoall_time(machine: MachineSpec, ranks: Sequence[int], nbytes_per_pair: float) -> float:
    """Pairwise-exchange all-to-all with ``nbytes_per_pair`` between each pair."""
    group = len(list(ranks))
    if group <= 1 or nbytes_per_pair <= 0:
        return 0.0
    bandwidth, latency = _group_bandwidth_latency(machine, ranks)
    return (group - 1) * (latency + nbytes_per_pair / bandwidth)
