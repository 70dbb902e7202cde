"""Computation graphs: per-rank dependency graphs and workload-level op DAGs.

Two graph granularities live here:

* :class:`ComputationGraph` — the paper's Section 4.3 bipartite graph for
  *one rank's* ops (compute nodes vs. tile data nodes), the first lowering
  step of the IR path.  It is built from the rank's rows of the priced
  slicing table: ops carry their GEMM and accumulate seconds, and data
  nodes the whole tile's bytes and fetch seconds;
* :class:`OpGraph` — a *workload-level* DAG of whole matmuls (an MLP block,
  an attention stack) whose edges say "this op's output C feeds that op's A
  (or B) operand".  This is the input the graph-level joint planner
  (:mod:`repro.planner.graph`) prices: per-op layout choices plus the
  reshard cost carried by every edge.

"First, we build a computation graph for each process representing the local
component matrix multiplications it must perform as well as the matrix tiles
these component operations are dependent upon.  The computation graph is a
bipartite graph with compute operations on one side and data on the other.
Each component operation has edges to the tiles it depends upon ... Data
dependency edges have labels representing whether the dependency is
satisfied."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.util.validation import read_int

#: A data node: (operand name, flat row-major tile index).  A rank's ops
#: always read its own replica of A and B, so the tile index names the node.
DataKey = Tuple[str, int]


@dataclass(frozen=True, slots=True)
class DataNode:
    """One matrix tile a compute op depends on."""

    key: DataKey
    owner: int
    #: Bytes of the whole tile (the IR fetches whole tiles).
    nbytes: int
    #: Seconds to fetch the tile from its owner (0 for a local tile).
    fetch: float


@dataclass
class ComputationGraph:
    """Bipartite dependency graph for one rank's priced op rows.

    Op ``i`` is the rank's ``i``-th row of the priced columns; it carries its
    GEMM seconds, its accumulate seconds and whether that accumulate is
    remote.
    """

    rank: int
    gemm: List[float]
    acc: List[float]
    c_remote: List[bool]
    data_nodes: Dict[DataKey, DataNode] = field(default_factory=dict)
    #: op index -> data keys it depends on, A then B (only remote dependencies
    #: carry cost, but local ones are kept, marked satisfied, for completeness).
    #: A tuple, not a set: the lowerings visit dependencies in this order, and
    #: a set's order would follow the process's string hash seed.
    dependencies: Dict[int, Tuple[DataKey, ...]] = field(default_factory=dict)
    #: data keys whose dependency edges start in the satisfied state (local tiles).
    initially_satisfied: Set[DataKey] = field(default_factory=set)

    @classmethod
    def build(cls, rank: int, cols: Mapping[str, np.ndarray]) -> "ComputationGraph":
        """The graph of ``rank``'s rows of priced table columns, in row order.

        ``cols`` are :meth:`~repro.core.cost_model.CostModel.event_columns`
        rows priced by :meth:`~repro.core.cost_model.CostModel.price_rows`;
        rows of other ranks are skipped.
        """
        rows = np.flatnonzero(cols["rank"] == rank)
        graph = cls(rank=rank, gemm=cols["gemm"][rows].tolist(),
                    acc=cols["acc"][rows].tolist(),
                    c_remote=cols["c_remote"][rows].tolist())
        operands = [(name, *(cols[f"{side}_{column}"][rows].tolist()
                             for column in ("key", "owner", "bytes", "fetch")))
                    for name, side in (("A", "a"), ("B", "b"))]
        for index in range(rows.size):
            deps = []
            for name, keys, owners, nbytes, fetch in operands:
                key: DataKey = (name, keys[index])
                deps.append(key)
                if key not in graph.data_nodes:
                    local = owners[index] == rank
                    graph.data_nodes[key] = DataNode(key, owners[index], nbytes[index],
                                                     0.0 if local else fetch[index])
                    if local:
                        graph.initially_satisfied.add(key)
            graph.dependencies[index] = tuple(deps)
        return graph

    # ------------------------------------------------------------------ #
    def remote_data_keys(self) -> List[DataKey]:
        """Data nodes that require communication before use."""
        return [key for key in self.data_nodes if key not in self.initially_satisfied]

    def ops_depending_on(self, key: DataKey) -> List[int]:
        """Op indices that need a particular data node."""
        return [index for index, deps in self.dependencies.items() if key in deps]

    def is_ready(self, op_index: int, satisfied: Set[DataKey]) -> bool:
        """True if all of an op's dependencies are in the satisfied state."""
        return satisfied.issuperset(self.dependencies[op_index])

    def unsatisfied_deps(self, op_index: int, satisfied: Set[DataKey]) -> List[DataKey]:
        """The data op ``op_index`` still needs that is not in ``satisfied``."""
        return [key for key in self.dependencies[op_index] if key not in satisfied]

    @property
    def num_ops(self) -> int:
        """GEMM nodes in the graph."""
        return len(self.gemm)

    def total_remote_bytes(self) -> int:
        """Bytes of every data node not satisfied at the start (it must be fetched)."""
        return sum(
            node.nbytes
            for key, node in self.data_nodes.items()
            if key not in self.initially_satisfied
        )


# ---------------------------------------------------------------------- #
# workload-level op DAGs (graph planning input)
# ---------------------------------------------------------------------- #
#: Schema version of :meth:`OpGraph.to_dict` payloads.
OP_GRAPH_SCHEMA_VERSION = 1

#: The operand slots an edge may feed on its consumer.
EDGE_OPERANDS = ("A", "B")


@dataclass(frozen=True)
class GraphOp:
    """One whole matmul ``C[m,n] = A[m,k] @ B[k,n]`` inside an :class:`OpGraph`.

    Deliberately a plain shape record (not a harness ``Workload``): the core
    layer sits below the benchmark harness, so the graph carries only what
    every layer can agree on — a name and the envelope dimensions.
    """

    name: str
    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        for label, value in (("m", self.m), ("n", self.n), ("k", self.k)):
            if int(value) < 1:
                raise ValueError(f"GraphOp {self.name!r}: {label} must be >= 1, "
                                 f"got {value}")

    @property
    def output_shape(self) -> Tuple[int, int]:
        """Shape of the C this op produces."""
        return (self.m, self.n)

    def operand_shape(self, operand: str) -> Tuple[int, int]:
        """Shape of the named input operand (``"A"`` is m-by-k, ``"B"`` k-by-n)."""
        if operand == "A":
            return (self.m, self.k)
        if operand == "B":
            return (self.k, self.n)
        raise ValueError(f"operand must be one of {EDGE_OPERANDS}, got {operand!r}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (used by the serving wire protocol)."""
        return {"name": self.name, "m": self.m, "n": self.n, "k": self.k}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GraphOp":
        """Inverse of :meth:`to_dict`."""
        return cls(name=str(payload["name"]), m=read_int(payload["m"], "m"),
                   n=read_int(payload["n"], "n"), k=read_int(payload["k"], "k"))


@dataclass(frozen=True)
class GraphEdge:
    """One producer-consumer dependency: op ``src``'s C feeds op ``dst``'s operand."""

    src: int
    dst: int
    #: Which input slot of the consumer the produced matrix lands in.
    operand: str = "A"

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (used by the serving wire protocol)."""
        return {"src": self.src, "dst": self.dst, "operand": self.operand}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GraphEdge":
        """Inverse of :meth:`to_dict`."""
        return cls(src=read_int(payload["src"], "src"),
                   dst=read_int(payload["dst"], "dst"),
                   operand=str(payload.get("operand", "A")))


@dataclass(frozen=True)
class OpGraph:
    """A DAG of whole matmuls whose edges carry produced-C-to-consumed-operand flow.

    Validation enforces everything the joint planner relies on:

    * edge endpoints are in range, never self-loops, operands are A/B;
    * at most one edge feeds any (consumer, operand) slot;
    * the producer's output shape equals the consumer operand's shape
      (``C[src]`` is m-by-n; an ``A`` edge needs ``(m_dst, k_dst)`` equal to
      it, a ``B`` edge needs ``(k_dst, n_dst)``);
    * the graph is acyclic (a topological order exists).
    """

    name: str
    ops: Tuple[GraphOp, ...]
    edges: Tuple[GraphEdge, ...] = ()

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("OpGraph needs at least one op")
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "edges", tuple(self.edges))
        slots: Set[Tuple[int, str]] = set()
        for edge in self.edges:
            if not (0 <= edge.src < len(self.ops)) or not (0 <= edge.dst < len(self.ops)):
                raise ValueError(f"edge {edge} references ops outside 0..{len(self.ops) - 1}")
            if edge.src == edge.dst:
                raise ValueError(f"edge {edge} is a self-loop")
            if edge.operand not in EDGE_OPERANDS:
                raise ValueError(f"edge {edge} operand must be one of {EDGE_OPERANDS}")
            slot = (edge.dst, edge.operand)
            if slot in slots:
                raise ValueError(f"operand {edge.operand} of op {edge.dst} is fed "
                                 f"by more than one edge")
            slots.add(slot)
            produced = self.ops[edge.src].output_shape
            consumed = self.ops[edge.dst].operand_shape(edge.operand)
            if produced != consumed:
                raise ValueError(
                    f"edge {edge.src}->{edge.dst}:{edge.operand}: op "
                    f"{self.ops[edge.src].name!r} produces {produced} but op "
                    f"{self.ops[edge.dst].name!r} consumes {consumed}")
        self.topological_order()  # raises on cycles

    # ------------------------------------------------------------------ #
    def predecessors(self, index: int) -> List[GraphEdge]:
        """Every edge whose consumer is op ``index``."""
        return [edge for edge in self.edges if edge.dst == index]

    def successors(self, index: int) -> List[GraphEdge]:
        """Every edge whose producer is op ``index``."""
        return [edge for edge in self.edges if edge.src == index]

    def topological_order(self) -> List[int]:
        """Deterministic topological order (Kahn's algorithm, smallest index first).

        Raises:
            ValueError: if the edge set contains a cycle.
        """
        indegree = [0] * len(self.ops)
        for edge in self.edges:
            indegree[edge.dst] += 1
        ready = sorted(i for i, d in enumerate(indegree) if d == 0)
        order: List[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for edge in self.successors(node):
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    # Insert keeping `ready` sorted so the order is canonical.
                    position = 0
                    while position < len(ready) and ready[position] < edge.dst:
                        position += 1
                    ready.insert(position, edge.dst)
        if len(order) != len(self.ops):
            raise ValueError(f"OpGraph {self.name!r} contains a cycle")
        return order

    @property
    def is_chain(self) -> bool:
        """True when the ops form one linear path (<=1 predecessor/successor each)."""
        if len(self.edges) != len(self.ops) - 1:
            return False
        in_count = [0] * len(self.ops)
        out_count = [0] * len(self.ops)
        for edge in self.edges:
            in_count[edge.dst] += 1
            out_count[edge.src] += 1
        return all(c <= 1 for c in in_count) and all(c <= 1 for c in out_count)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form of the whole graph (inverse of :meth:`from_dict`)."""
        return {
            "schema": OP_GRAPH_SCHEMA_VERSION,
            "name": self.name,
            "ops": [op.to_dict() for op in self.ops],
            "edges": [edge.to_dict() for edge in self.edges],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "OpGraph":
        """Rebuild a graph from :meth:`to_dict` output (re-validates everything)."""
        return cls(
            name=str(payload["name"]),
            ops=tuple(GraphOp.from_dict(item) for item in payload["ops"]),  # type: ignore[union-attr]
            edges=tuple(GraphEdge.from_dict(item) for item in payload.get("edges", [])),  # type: ignore[union-attr]
        )


def matmul_chain(name: str, ops: Sequence[GraphOp]) -> OpGraph:
    """Link ``ops`` into a linear chain where each C feeds the next op's A."""
    edges = tuple(GraphEdge(src=i, dst=i + 1, operand="A")
                  for i in range(len(ops) - 1))
    return OpGraph(name=name, ops=tuple(ops), edges=edges)


def mlp_chain(batch: int, hidden: int, ratio: int = 4, name: str = "mlp") -> OpGraph:
    """The transformer MLP block as a two-op chain: ``X @ W1 @ W2``.

    Op 1 expands the hidden dimension (``m=batch, n=ratio*hidden, k=hidden``),
    op 2 projects back down (``m=batch, n=hidden, k=ratio*hidden``); the first
    op's activation output is the second op's A operand.
    """
    return matmul_chain(name, (
        GraphOp(name=f"{name}1", m=batch, n=ratio * hidden, k=hidden),
        GraphOp(name=f"{name}2", m=batch, n=hidden, k=ratio * hidden),
    ))


def attention_chain(seq: int, head_dim: int, hidden: int,
                    name: str = "attn") -> OpGraph:
    """One attention head's QKV -> score -> value path as a three-op chain.

    ``Q = X @ Wq`` (seq-by-head_dim), ``S = Q @ K^T`` (seq-by-seq, K^T enters
    as the stationary B operand), ``O = S @ V`` (seq-by-head_dim): each op's
    output is the next op's A operand, which is the chain the planner prices.
    """
    return matmul_chain(name, (
        GraphOp(name=f"{name}_qkv", m=seq, n=head_dim, k=hidden),
        GraphOp(name=f"{name}_score", m=seq, n=seq, k=head_dim),
        GraphOp(name=f"{name}_value", m=seq, n=head_dim, k=seq),
    ))
