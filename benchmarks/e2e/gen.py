"""Seeded inputs for the end-to-end benchmark.

Every list here is a pure function of the seed: the same seed gives the same
requests, a different seed gives different ones, and the program under test
only ever sees what these functions return.

The seed picks *which* members of fixed pools are used, their order, and
their data; it never changes how many requests of each family a workload
has.  Keeping the family mix fixed is what lets ten runs on ten different
seeds agree within the bounds in ``BENCHMARK.json``: the cost of a plan or a
multiply depends mostly on its family, so a seed that drew, say, three graph
plans more than another would move every latency percentile.

The mix itself -- the family counts, the Zipf exponent of warm popularity,
the share of graph plans -- is a synthetic assumption, not derived from
recorded traffic or a published trace; no request log is in the
repository yet.  Once one is (``repro.obs.reqlog`` writes them), these
constants should be re-derived from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bench.workloads import (
    Workload,
    attention_workload,
    block_sparse_workload,
    mlp1_workload,
    mlp2_workload,
    moe_workload,
    tall_skinny_workload,
)
from repro.core.graph import OpGraph, attention_chain, mlp_chain

#: Machine keys used by every workload (built by ``drivers.machine``).
UNIFORM8 = "uniform8"
PVC12 = "pvc12"

#: Distinct cold signatures per ``cold_mix`` pass.
COLD_SIGNATURES = 40
#: Warm working set: single-op signatures and graphs.
WARM_SINGLES = 48
WARM_GRAPHS = 6
#: Zipf exponent of warm traffic over the working set (assumed, see above).
ZIPF_EXPONENT = 1.1
#: One warm request in this many is a ``plan_graph`` (assumed, see above).
GRAPH_EVERY = 10
#: Length of the generated warm request stream (cycled by the drivers).
STREAM_LENGTH = 1 << 15
#: ``matmul_direct`` request pairs (materialized + simulate-only).
MATMUL_PAIRS = 24
#: Device count of the machine the direct multiplies run on.
MATMUL_DEVICES = 12


@dataclass(frozen=True)
class PlanRequest:
    """One planning request: a single op or a graph, for one machine."""

    id: str
    machine: str
    family: str
    workload: Optional[Workload] = None
    graph: Optional[OpGraph] = None


@dataclass(frozen=True)
class MaterializedSpec:
    """A multiply whose result is computed and checked against NumPy.

    Each partition is ``("row", tiles_per_owner)``, ``("column",
    tiles_per_owner)``, ``("block",)`` or ``("custom", row_splits,
    col_splits)``.
    """

    m: int
    k: int
    n: int
    partitions: Tuple[tuple, tuple, tuple]
    replication: Tuple[int, int, int]
    data_seed: int


@dataclass(frozen=True)
class SimulateSpec:
    """A simulate-only multiply at a paper shape under one UA scheme."""

    family: str
    batch: int
    scheme: str
    replication: Tuple[int, int, int]
    stationary: str

    def workload(self) -> Workload:
        build = mlp1_workload if self.family == "mlp1" else mlp2_workload
        return build(self.batch)


@dataclass(frozen=True)
class MatmulPair:
    """One ``matmul_direct`` request: a materialized then a simulated multiply."""

    id: str
    materialized: MaterializedSpec
    simulated: SimulateSpec


def _pick(rng: random.Random, pool: Sequence, count: int) -> list:
    return rng.sample(list(pool), count)


def _request(machine: str, family: str, workload: Optional[Workload] = None,
             graph: Optional[OpGraph] = None) -> PlanRequest:
    """A request whose id names its machine and exact shape."""
    if workload is not None:
        name = f"{workload.name}:{workload.m}x{workload.n}x{workload.k}"
    else:
        name = graph.name
    return PlanRequest(id=f"{machine}:{name}", machine=machine, family=family,
                       workload=workload, graph=graph)


#: ``cold_mix`` pools.  Each holds shapes whose cold plans cost about the
#: same (within about 10% of each other on the reference box), so the
#: members a seed draws change the inputs but not the latency percentiles.
_ATTENTION_POOL = [(s, d) for s in (512, 768, 1024, 1536, 2048, 3072, 4096, 8192, 12288)
                   for d in (64, 128)]
_MLP1_POOL = [(512, 4096), (512, 8192), (512, 12288), (1024, 4096), (1536, 4096),
              (1536, 8192), (1536, 12288), (2048, 8192), (2048, 12288), (3072, 8192),
              (3072, 12288), (4096, 4096), (4096, 8192), (4096, 12288), (6144, 8192),
              (6144, 12288), (8192, 8192)]
_MLP2_POOL = [(512, 4096), (512, 12288), (1024, 4096), (1024, 12288), (1536, 4096),
              (1536, 8192), (2048, 4096), (2048, 8192), (3072, 4096), (3072, 8192),
              (3072, 12288), (4096, 4096), (4096, 8192), (4096, 12288), (6144, 8192),
              (6144, 12288), (8192, 8192)]
_TALL_SKINNY_POOL = [(8192, 128), (16384, 1024), (32768, 512), (32768, 1024), (4096, 512),
                     (65536, 128), (65536, 256), (65536, 512), (65536, 1024),
                     (131072, 128), (131072, 256), (131072, 512), (131072, 1024),
                     (262144, 128), (262144, 256), (262144, 512), (262144, 1024)]
_MLP_CHAIN_POOL = [(512, 12288), (1024, 8192), (2048, 8192), (4096, 8192), (4096, 12288),
                   (8192, 8192), (8192, 12288)]
_ATTENTION_CHAIN_POOL = [(1024, 4096), (2048, 2048), (2048, 4096), (4096, 2048),
                         (4096, 4096), (8192, 2048)]


def cold_mix(seed: int) -> List[PlanRequest]:
    """The 40 distinct cold signatures of ``cold_mix``, in seeded order.

    Fixed family counts: 9 attention on ``uniform_system(8)``; 7 MLP-1, 7
    MLP-2 and 7 tall-skinny on ``pvc_system(12)``; 5 structured (2
    block-sparse at density 0.25 with seeded masks, 3 MoE-ragged with seeded
    routing) on PVC; 5 graphs (3 ``mlp_chain`` on PVC, 2 ``attention_chain``
    on the uniform machine).  Pool members are spaced wider than one
    signature bucket, so no two requests of a pass share a cache entry.
    """
    rng = random.Random(f"cold_mix:{seed}")
    requests: List[PlanRequest] = []

    def add(machine: str, family: str, workload: Optional[Workload] = None,
            graph: Optional[OpGraph] = None) -> None:
        requests.append(_request(machine, family, workload, graph))

    for seq, dim in _pick(rng, _ATTENTION_POOL, 9):
        add(UNIFORM8, "attention", attention_workload(seq, dim))
    for batch, hidden in _pick(rng, _MLP1_POOL, 7):
        add(PVC12, "mlp1", mlp1_workload(batch, hidden))
    for batch, hidden in _pick(rng, _MLP2_POOL, 7):
        add(PVC12, "mlp2", mlp2_workload(batch, hidden))
    for rows, inner in _pick(rng, _TALL_SKINNY_POOL, 7):
        add(PVC12, "tall_skinny", tall_skinny_workload(rows, inner))
    for m in _pick(rng, (1024, 2048, 4096), 2):
        add(PVC12, "block_sparse",
            block_sparse_workload(m, 12288, 12288, 0.25, block_k=4096, block_n=4096,
                                  seed=rng.randrange(1 << 16)))
    for experts in (2, 4, 8):
        add(PVC12, "moe", moe_workload(experts, 512, 12288, 12288,
                                       seed=rng.randrange(1 << 16)))
    for batch, hidden in _pick(rng, _MLP_CHAIN_POOL, 3):
        add(PVC12, "mlp_chain",
            graph=mlp_chain(batch, hidden, name=f"mlp_b{batch}_h{hidden}"))
    for seq, hidden in _pick(rng, _ATTENTION_CHAIN_POOL, 2):
        add(UNIFORM8, "attention_chain",
            graph=attention_chain(seq, 128, hidden, name=f"attn_s{seq}_h{hidden}"))
    rng.shuffle(requests)
    return requests


def warm_working_set(seed: int) -> Tuple[List[PlanRequest], List[PlanRequest]]:
    """(48 single-op requests, 6 graphs), all for ``uniform_system(8)``.

    Returned in popularity-rank order.  Graph ranks alternate attention and
    MLP chains so every seed sends the same share of 3-op and 2-op graphs.
    """
    rng = random.Random(f"warm:{seed}")
    batch_hidden = [(b, h) for b in (512, 1024, 2048, 4096, 8192) for h in (4096, 8192, 12288)]
    pool = ([("attention", attention_workload(s, d))
             for s in (256, 512, 1024, 2048, 4096, 8192, 16384) for d in (64, 128)]
            + [("mlp1", mlp1_workload(b, h)) for b, h in batch_hidden]
            + [("mlp2", mlp2_workload(b, h)) for b, h in batch_hidden]
            + [("tall_skinny", tall_skinny_workload(r, i))
               for r in (8192, 32768, 131072) for i in (256, 1024)])
    singles = [_request(UNIFORM8, family, workload)
               for family, workload in _pick(rng, pool, WARM_SINGLES)]
    attn = _pick(rng, (512, 1024, 2048, 4096, 8192), WARM_GRAPHS // 2)
    mlp = _pick(rng, (1024, 2048, 4096, 8192), WARM_GRAPHS // 2)
    graphs = []
    for seq, batch in zip(attn, mlp):
        graphs.append(_request(UNIFORM8, "attention_chain",
                               graph=attention_chain(seq, 128, 4096, name=f"attn_s{seq}")))
        graphs.append(_request(UNIFORM8, "mlp_chain",
                               graph=mlp_chain(batch, 4096, name=f"mlp_b{batch}")))
    return singles, graphs


def _zipf_cumulative(count: int) -> List[float]:
    total, cumulative = 0.0, []
    for rank in range(1, count + 1):
        total += rank ** -ZIPF_EXPONENT
        cumulative.append(total)
    return cumulative


def warm_stream(seed: int) -> List[PlanRequest]:
    """The warm request stream: Zipf over the working set, 1 in 10 a graph."""
    singles, graphs = warm_working_set(seed)
    rng = random.Random(f"warm_stream:{seed}")
    single_cdf = _zipf_cumulative(len(singles))
    graph_cdf = _zipf_cumulative(len(graphs))
    stream = []
    for position in range(STREAM_LENGTH):
        if position % GRAPH_EVERY == GRAPH_EVERY - 1:
            stream.append(rng.choices(graphs, cum_weights=graph_cdf)[0])
        else:
            stream.append(rng.choices(singles, cum_weights=single_cdf)[0])
    return stream


def _uneven_splits(rng: random.Random, extent: int, parts: int) -> Tuple[int, ...]:
    """``parts`` contiguous tiles covering ``extent``, each cut point moved
    off its even position by up to 40% of an even tile, so the tiles are
    uneven and misaligned with every other operand's."""
    tile = extent / parts
    cuts = [round((i + rng.uniform(-0.4, 0.4)) * tile) for i in range(1, parts)]
    return (0,) + tuple(cuts) + (extent,)


#: ``matmul_direct`` layout kinds: (A, B, C) partition builders and the
#: replication of each operand.  Every kind is used equally often.  Row and
#: column panels carry their tiles per owner; ``("custom", r, c)`` becomes
#: ``r`` by ``c`` tiles of uneven, seeded sizes.
_LAYOUTS = (
    (("row", 1), ("column", 1), ("block",), (1, 1, 1)),
    (("row", 2), ("column", 2), ("block",), (2, 3, 1)),
    (("custom", 5, 2), ("column", 1), ("row", 1), (1, 2, 1)),
    (("block",), ("custom", 3, 4), ("column", 2), (3, 1, 2)),
    (("column", 1), ("row", 1), ("custom", 4, 3), (1, 1, 3)),
    (("row", 2), ("block",), ("row", 1), (2, 2, 2)),
)

_SCHEMES = ("column", "row", "block", "inner", "outer", "traditional")


def matmul_direct(seed: int) -> List[MatmulPair]:
    """The ``matmul_direct`` request pairs, in seeded order.

    Materialized side: every layout kind four times, with (m, k, n) a seeded
    permutation of (384, 512, 768) -- so every multiply does the same flops
    and holds the same bytes -- fresh uneven split points and a fresh data
    seed.  Simulated side: every UA scheme on MLP-1 and MLP-2, each with and
    without replicated A/B under a fixed data-movement strategy, at a seeded
    paper batch size.  Which materialized kind meets which simulated stratum
    is fixed, so the costliest requests are the same pairs on every seed.
    """
    rng = random.Random(f"matmul_direct:{seed}")
    materialized = []
    for a_kind, b_kind, c_kind, replication in _LAYOUTS * (MATMUL_PAIRS // len(_LAYOUTS)):
        m, k, n = rng.sample((384, 512, 768), 3)
        shapes = ((m, k), (k, n), (m, n))
        partitions = []
        for kind, (rows, cols) in zip((a_kind, b_kind, c_kind), shapes):
            if kind[0] == "custom":
                partitions.append(("custom", _uneven_splits(rng, rows, kind[1]),
                                   _uneven_splits(rng, cols, kind[2])))
            else:
                partitions.append(kind)
        materialized.append(MaterializedSpec(m, k, n, tuple(partitions), replication,
                                             data_seed=rng.randrange(1 << 30)))
    strata = [(scheme, family, replication) for scheme in _SCHEMES
              for family in ("mlp1", "mlp2") for replication in ((1, 1, 1), (2, 2, 1))]
    simulated = [SimulateSpec(family, rng.choice((1024, 2048, 4096, 8192)), scheme,
                              replication, "ABC"[i % 3])
                 for i, (scheme, family, replication) in enumerate(strata)]
    pairs = list(zip(materialized, simulated))
    rng.shuffle(pairs)
    return [MatmulPair(id=f"pair{i:02d}", materialized=mat, simulated=sim)
            for i, (mat, sim) in enumerate(pairs)]
