"""Canonical problem signatures: the planner's cache key.

A production planning service sees millions of near-identical requests — the
same transformer layer at slightly different batch sizes, the same machine
fleet, the same memory budget.  Two ingredients turn those into cache hits:

* a **machine fingerprint** — a stable digest of everything the cost model
  reads from a :class:`~repro.topology.machines.MachineSpec` (device count,
  peaks, bandwidths, the full link matrix), so plans never leak between
  machines that merely share a name;
* **geometric shape bucketing** — each of m/n/k is snapped to its geometric
  bucket's upper corner, so requests within ~±10% of each other share a
  bucket (and therefore a plan, computed for the corner so it stays
  memory-feasible for every member), while the paper's batch sweep
  (1024/2048/4096/8192 — factors of 2 apart) still lands in distinct buckets
  for any ratio below 2.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.structure import DENSE, WorkloadStructure, geometric_bucket
from repro.planner.graph import DEFAULT_LATTICE_SIZE, op_workload
from repro.topology.machines import MachineSpec
from repro.util.validation import float_dtype

#: Requests whose dimensions differ by less than ~±11% share a bucket.
DEFAULT_BUCKET_RATIO = 1.25


def bucket_dim(value: int, ratio: float = DEFAULT_BUCKET_RATIO) -> int:
    """Snap a dimension to its geometric bucket's *upper corner*.

    Bucket ``i`` covers ``(ratio**(i-1/2), ratio**(i+1/2)]``; the returned
    label is ``ceil(ratio**(i+1/2))`` — the largest dimension any member of
    the bucket can have.  Planning for the corner (rather than, say, the
    bucket's midpoint) keeps the served plan memory-feasible for *every*
    request that maps to the bucket, since tile footprints grow
    monotonically with the dimensions.

    ``ratio <= 1`` (or ``None``) disables bucketing and returns the exact
    dimension, which makes the signature exact-match only.

    Delegates to :func:`repro.core.structure.geometric_bucket` — the single
    rounding rule shared with live-count bucketing (block densities, expert
    capacities, routed-token totals), so envelope and structure corners can
    never drift apart.
    """
    return geometric_bucket(value, ratio)


def bucket_workload(workload: Workload,
                    ratio: Optional[float] = DEFAULT_BUCKET_RATIO
                    ) -> Tuple[int, int, int, WorkloadStructure]:
    """Bucket a request's envelope *and* structure to their corner.

    Dense requests bucket each dimension independently (the historical
    behaviour).  Structured requests additionally snap their live geometry —
    block-sparse live-block counts, MoE capacity and routed-token totals —
    to geometric upper corners, and the structure may adjust the envelope
    (an MoE batch keeps ``m`` expert-aligned by bucketing the capacity).
    The corner always dominates every member of its bucket, so the corner
    plan's memory-feasibility check covers the whole bucket.
    """
    m = bucket_dim(workload.m, ratio)
    n = bucket_dim(workload.n, ratio)
    k = bucket_dim(workload.k, ratio)
    structure = workload.structure
    if structure.is_dense:
        return m, n, k, DENSE
    return structure.bucket_envelope(m, n, k, ratio)


def machine_fingerprint(machine: MachineSpec) -> str:
    """Stable digest of every MachineSpec field the cost model consumes."""
    parts = [
        machine.name,
        machine.num_devices,
        machine.flops_peak,
        machine.memory_bandwidth,
        machine.memory_capacity,
        machine.device_link_bandwidth,
        machine.accumulate_efficiency,
        machine.accumulate_compute_interference,
        machine.gemm_efficiency,
        machine.kernel_launch_overhead,
    ]
    topology = machine.topology
    for src in range(topology.num_devices):
        for dst in range(topology.num_devices):
            link = topology.link(src, dst)
            parts.append(link.bandwidth)
            parts.append(link.latency)
    blob = "|".join(repr(part) for part in parts)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]


def options_fingerprint(**options: object) -> str:
    """Digest of search options (top_k, schemes, factors, ...) folded into keys.

    Plans computed under different search spaces must never serve each other,
    so the service hashes its effective options into the signature.
    """
    blob = "|".join(f"{key}={options[key]!r}" for key in sorted(options))
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ProblemSignature:
    """Canonical identity of one planning request (hashable, JSON-keyable)."""

    #: Bucketed problem dimensions (``C[m,n] = A[m,k] @ B[k,n]``).
    m: int
    n: int
    k: int
    #: Element type of the operands (affects footprints and transfer sizes).
    dtype: str
    #: Output of :func:`machine_fingerprint`.
    machine: str
    #: Per-device memory budget in bytes; ``None`` means the machine's capacity.
    memory_budget: Optional[float] = None
    #: Output of :func:`options_fingerprint` for the search options in force.
    options: str = ""
    #: The bucket-corner workload structure (dense, block-sparse, MoE-ragged).
    structure: WorkloadStructure = field(default=DENSE)

    @classmethod
    def from_request(
        cls,
        machine: MachineSpec,
        workload: Workload,
        *,
        dtype: str = "float32",
        memory_budget_bytes: Optional[float] = None,
        bucket_ratio: float = DEFAULT_BUCKET_RATIO,
        options: str = "",
    ) -> "ProblemSignature":
        """Build the signature for one (machine, workload) planning request."""
        m, n, k, structure = bucket_workload(workload, bucket_ratio)
        return cls(
            m=m,
            n=n,
            k=k,
            dtype=str(dtype),
            machine=machine_fingerprint(machine),
            memory_budget=memory_budget_bytes,
            options=options,
            structure=structure,
        )

    def key(self) -> str:
        """Stable string form used by the LRU cache and the JSON plan store.

        Dense keys keep their historical format (so existing plan stores
        stay valid); structured signatures append the structure token.
        """
        budget = "cap" if self.memory_budget is None else f"{float(self.memory_budget):.6g}"
        base = f"{self.m}x{self.n}x{self.k}|{self.dtype}|{self.machine}|{budget}|{self.options}"
        if self.structure.is_dense:
            return base
        return f"{base}|{self.structure.signature_token()}"

    def representative_workload(self, name: str = "bucket") -> Workload:
        """The bucket's canonical workload (what a fresh plan is computed for)."""
        return Workload(name=f"{name}_{self.m}x{self.n}x{self.k}",
                        m=self.m, n=self.n, k=self.k, structure=self.structure)


@dataclass(frozen=True)
class GraphSignature:
    """Canonical identity of one joint graph-planning request.

    An ordered tuple of per-op :class:`ProblemSignature` (each bucketed and
    stamped with the machine/options fingerprints exactly like a single-op
    request) plus the graph's edge structure.  Bucketing is per-dimension and
    deterministic, so dimensions that matched raw (the producer-output /
    consumer-operand constraint :class:`repro.core.graph.OpGraph` validates)
    still match at the bucket corner — the representative graph revalidates.

    The graph's display name is deliberately **excluded** from :meth:`key`:
    two structurally identical chains share one cached joint plan regardless
    of what the caller named them.
    """

    #: Per-op signatures, indexed like the graph's ops.
    ops: Tuple[ProblemSignature, ...]
    #: Edge structure as ``(src, dst, operand)`` triples.
    edges: Tuple[Tuple[int, int, str], ...]
    #: Display name of the graph (telemetry only; not part of the key).
    name: str = "graph"

    def key(self) -> str:
        """Stable cache-store key: the op keys joined with the edge tokens."""
        op_part = ";".join(sig.key() for sig in self.ops)
        edge_part = ",".join(f"{src}>{dst}:{operand}"
                             for src, dst, operand in self.edges)
        return f"graph|{op_part}|{edge_part}"

    def representative_graph(self):
        """The bucket-corner :class:`~repro.core.graph.OpGraph` to plan for.

        Rebuilds the graph from the bucketed per-op dimensions with the
        original edges; construction re-runs the full shape/acyclicity
        validation, which the deterministic bucketing guarantees still holds.
        """
        from repro.core.graph import GraphEdge, GraphOp, OpGraph

        ops = tuple(
            GraphOp(name=f"op{i}_{sig.m}x{sig.n}x{sig.k}",
                    m=sig.m, n=sig.n, k=sig.k)
            for i, sig in enumerate(self.ops)
        )
        edges = tuple(GraphEdge(src=src, dst=dst, operand=operand)
                      for src, dst, operand in self.edges)
        return OpGraph(name=self.name, ops=ops, edges=edges)


class SignatureFactory:
    """Signature computation apart from any service, cache or search.

    :class:`~repro.planner.service.PlannerService` derives each request's
    cache identity through this factory: construct it with the
    planning-relevant options and :meth:`signature_for` /
    :meth:`graph_signature_for` produce the service's keys without building
    a service.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        top_k: int = 1,
        memory_budget_bytes: Optional[float] = None,
        schemes=None,
        replication_factors: Optional[Sequence[int]] = None,
        stationary_options: Sequence[str] = ("A", "B", "C"),
        itemsize: int = 4,
        bucket_ratio: float = DEFAULT_BUCKET_RATIO,
        config: Optional[ExecutionConfig] = None,
    ) -> None:
        self.machine = machine
        self.top_k = top_k
        self.memory_budget_bytes = memory_budget_bytes
        self.schemes = list(schemes) if schemes is not None else None
        self.replication_factors = (
            list(replication_factors) if replication_factors is not None else None
        )
        self.stationary_options = tuple(stationary_options)
        self.itemsize = itemsize
        #: The keys' dtype label: the float dtype of ``itemsize`` bytes.
        self.dtype = float_dtype(itemsize).name
        self.bucket_ratio = bucket_ratio
        self.config = config or ExecutionConfig(simulate_only=True)
        # Machine and options are fixed for the factory's lifetime; digests
        # are memoized so a signature stays a dict lookup per request.
        self._machine_digest = machine_fingerprint(machine)
        self._options_digests: Dict[int, str] = {}

    @property
    def machine_digest(self) -> str:
        """The memoized :func:`machine_fingerprint` of this factory's machine."""
        return self._machine_digest

    def options_digest(self, top_k: int) -> str:
        """The options fingerprint folded into every key for ``top_k``.

        Must hash exactly what the service hashes — any divergence here
        silently routes every request to a cold cache.
        """
        digest = self._options_digests.get(top_k)
        if digest is None:
            scheme_names = (
                tuple(s.name for s in self.schemes) if self.schemes is not None else "default"
            )
            digest = options_fingerprint(
                top_k=top_k,
                schemes=scheme_names,
                replication_factors=(
                    tuple(self.replication_factors)
                    if self.replication_factors is not None else "all"
                ),
                stationary=self.stationary_options,
                itemsize=self.itemsize,
                # The full frozen config: any field (prefetch depth, async
                # limits, tile caching, ...) can change simulated times and
                # therefore the winning plan, so none may alias in the cache.
                config=repr(self.config),
            )
            self._options_digests[top_k] = digest
        return digest

    def signature_for(self, workload: Workload,
                      top_k: Optional[int] = None) -> ProblemSignature:
        """Canonical signature a request maps to (its cache identity).

        Structured workloads bucket their live geometry (density, expert
        capacity and routed tokens) alongside the envelope, so near-identical
        sparse requests share a plan computed for their bucket's corner.
        """
        effective_k = self.top_k if top_k is None else top_k
        m, n, k, structure = bucket_workload(workload, self.bucket_ratio)
        return ProblemSignature(
            m=m,
            n=n,
            k=k,
            dtype=self.dtype,
            machine=self._machine_digest,
            memory_budget=self.memory_budget_bytes,
            options=self.options_digest(effective_k),
            structure=structure,
        )

    def graph_signature_for(self, graph,
                            lattice_size: Optional[int] = None) -> GraphSignature:
        """Canonical signature of one joint graph-planning request.

        Each op buckets exactly like a single-op request (with the lattice
        size folded into the per-op options digest, so plans computed under
        different lattice widths never alias); the edge structure rides
        alongside.  Structurally identical graphs share a cache entry
        regardless of their display names.
        """
        effective = DEFAULT_LATTICE_SIZE if lattice_size is None else lattice_size
        return GraphSignature(
            ops=tuple(self.signature_for(op_workload(op), top_k=effective)
                      for op in graph.ops),
            edges=tuple((edge.src, edge.dst, edge.operand)
                        for edge in graph.edges),
            name=graph.name,
        )
