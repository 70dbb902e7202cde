"""Property pins of the array structure geometry against the loop oracle.

``WorkloadStructure.cuboid_terms`` / ``live_fractions`` count live elements
with exact integer arithmetic (a summed-area table over a block mask,
cumulative expert tokens) in one array pass; ``tests/structure_oracle.py``
keeps the per-block and per-expert loops they replaced.  The contract is
*byte equality*, not closeness:

1. **Block-sparse** — block sizes that do not divide ``k`` or ``n`` (a
   partial last block), the 64-element blocks over a 12288 envelope (a
   192 x 192 grid), a single live block, and empty intervals or intervals
   that start, stop or cross at block edges.
2. **MoE-ragged** — experts with 0 and with ``capacity`` tokens, and
   intervals that span experts or end in padding.
3. **Consumers** — ``tile_fetch_bytes`` on uneven ``CustomTiles`` grids,
   ``effective_flops``, and the scalar API (``live_fraction``,
   ``op_fractions``, ``flops_fraction``, ``gemm_dims``).
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import tile_fetch_bytes
from repro.core.structure import DENSE, ROLE_A, ROLE_B, ROLE_C, BlockSparse, MoERagged
from repro.dist.matrix import DistributedMatrix
from repro.dist.partition import CustomTiles
from repro.runtime.runtime import Runtime
from repro.topology.machines import uniform_system
from repro.util.indexing import Interval, ceil_div
from tests import structure_oracle as oracle

_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
_FEW = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def coordinate(draw, extent: int, edges):
    """A point in ``[0, extent]``: anywhere, or at/next to one of ``edges``."""
    if edges and draw(st.booleans()):
        point = draw(st.sampled_from(edges)) + draw(st.sampled_from([-1, 0, 1]))
        return min(max(point, 0), extent)
    return draw(st.integers(min_value=0, max_value=extent))


@st.composite
def interval(draw, extent: int, edges=()):
    """A possibly empty interval of ``[0, extent]`` (start <= stop)."""
    start, stop = sorted((draw(coordinate(extent, edges)), draw(coordinate(extent, edges))))
    return Interval(start, stop)


@st.composite
def block_sparse(draw):
    """``(structure, k, n)``: uneven grids, the 192 x 192 grid, one live block."""
    kind = draw(st.sampled_from(["uneven", "wide", "single"]))
    if kind == "wide":
        block_k = block_n = 64
        k = n = 12288
    else:
        block_k, block_n = (draw(st.integers(min_value=1, max_value=9)) for _ in "kn")
        # q full blocks plus a last one of 1..block elements: partial unless == block.
        k, n = (block * draw(st.integers(min_value=0, max_value=6))
                + draw(st.integers(min_value=1, max_value=block))
                for block in (block_k, block_n))
    k_blocks, n_blocks = ceil_div(k, block_k), ceil_div(n, block_n)
    cells = k_blocks * n_blocks
    if kind == "single":
        chosen = {draw(st.integers(min_value=0, max_value=cells - 1))}
    else:
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        density = draw(st.sampled_from([0.05, 0.3, 0.7, 1.0]))
        chosen = {cell for cell in range(cells) if rng.random() < density}
        chosen.add(rng.randrange(cells))
    mask = tuple(tuple(row * n_blocks + col in chosen for col in range(n_blocks))
                 for row in range(k_blocks))
    return BlockSparse(block_k=block_k, block_n=block_n, mask=mask), k, n


@st.composite
def moe_ragged(draw):
    """``(structure, m)``: experts at 0, at ``capacity`` and in between."""
    capacity = draw(st.integers(min_value=1, max_value=9))
    tokens = draw(st.lists(
        st.one_of(st.just(0), st.just(capacity),
                  st.integers(min_value=0, max_value=capacity)),
        min_size=1, max_size=8))
    if not any(tokens):
        tokens[draw(st.integers(min_value=0, max_value=len(tokens) - 1))] = capacity
    structure = MoERagged(expert_tokens=tuple(tokens), capacity=capacity)
    return structure, len(tokens) * capacity


def _block_edges(extent: int, block: int):
    return list(range(0, extent + 1, block)) + [extent]


def _moe_edges(structure: MoERagged):
    # Expert starts and the first padding row of each expert.
    return [expert * structure.capacity + offset
            for expert, tokens in enumerate(structure.expert_tokens)
            for offset in (0, tokens)]


def _check_cuboids(structure, cuboids):
    """Array terms == oracle terms, batched and one cuboid at a time."""
    columns = [np.array(values, dtype=np.int64) for values in zip(*(
        (m.start, m.stop, k.start, k.stop, n.start, n.stop) for m, k, n in cuboids))]
    terms = structure.cuboid_terms(*columns)
    expected = [oracle.cuboid_terms(structure, *cuboid) for cuboid in cuboids]
    assert terms.shape == (7, len(cuboids))
    assert terms.tobytes() == np.array(expected, dtype=np.float64).T.tobytes()
    for cuboid, want in zip(cuboids, expected):
        assert structure.op_fractions(*cuboid) == want[:4]
        assert structure.flops_fraction(*cuboid) == want[0]
        assert structure.gemm_dims(*cuboid) == want[4:]


def _check_rectangles(structure, role, rectangles):
    """Array live fractions == oracle, batched and one rectangle at a time."""
    columns = [np.array(values, dtype=np.int64) for values in zip(*(
        (rows.start, rows.stop, cols.start, cols.stop) for rows, cols in rectangles))]
    expected = [oracle.live_fraction(structure, role, rows, cols)
                for rows, cols in rectangles]
    assert (structure.live_fractions(role, *columns).tobytes()
            == np.array(expected, dtype=np.float64).tobytes())
    assert [structure.live_fraction(role, rows, cols)
            for rows, cols in rectangles] == expected


class TestBlockSparseGeometry:
    @_SETTINGS
    @given(case=block_sparse(), data=st.data())
    def test_cuboids_and_rectangles_match_the_loops(self, case, data):
        structure, k, n = case
        m = data.draw(st.integers(min_value=1, max_value=64))
        k_edges = _block_edges(k, structure.block_k)
        n_edges = _block_edges(n, structure.block_n)
        count = data.draw(st.integers(min_value=1, max_value=6))
        cuboids = [(data.draw(interval(m)), data.draw(interval(k, k_edges)),
                    data.draw(interval(n, n_edges))) for _ in range(count)]
        _check_cuboids(structure, cuboids)
        for role in (ROLE_A, ROLE_B, ROLE_C):
            _check_rectangles(structure, role, [(kb, nb) for _, kb, nb in cuboids])

    @_FEW
    @given(case=block_sparse(), m=st.integers(min_value=1, max_value=4096))
    def test_effective_flops(self, case, m):
        structure, k, n = case
        assert structure.effective_flops(m, n, k) == oracle.effective_flops(structure, m, n, k)

    @_SETTINGS
    @given(case=block_sparse())
    def test_live_blocks(self, case):
        structure = case[0]
        live = structure.live_blocks
        assert type(live) is int and live == oracle.live_blocks(structure)

    def test_partial_last_block_and_past_the_grid(self):
        # k=10, n=7 over 4x3 blocks: the last block row holds 2 rows, the
        # last block column 1 column; coordinates past the grid are dead.
        mask = ((True, False, True), (False, True, True), (True, True, True))
        structure = BlockSparse(block_k=4, block_n=3, mask=mask)
        cuboids = [(Interval(0, 5), kb, nb)
                   for kb in (Interval(0, 10), Interval(3, 9), Interval(8, 10),
                              Interval(9, 14), Interval(12, 13), Interval(5, 5))
                   for nb in (Interval(0, 7), Interval(2, 7), Interval(6, 7),
                              Interval(6, 11), Interval(1, 1))]
        _check_cuboids(structure, cuboids)
        _check_rectangles(structure, ROLE_B, [(kb, nb) for _, kb, nb in cuboids])


class TestMoERaggedGeometry:
    @_SETTINGS
    @given(case=moe_ragged(), data=st.data())
    def test_cuboids_and_rectangles_match_the_loops(self, case, data):
        structure, m = case
        edges = _moe_edges(structure)
        count = data.draw(st.integers(min_value=1, max_value=6))
        cuboids = [(data.draw(interval(m, edges)), data.draw(interval(48)),
                    data.draw(interval(48))) for _ in range(count)]
        _check_cuboids(structure, cuboids)
        for role in (ROLE_A, ROLE_B, ROLE_C):
            _check_rectangles(structure, role, [(mb, kb) for mb, kb, _ in cuboids])

    @_FEW
    @given(case=moe_ragged(), n=st.integers(min_value=1, max_value=512),
           k=st.integers(min_value=1, max_value=512))
    def test_effective_flops(self, case, n, k):
        structure, m = case
        assert structure.effective_flops(m, n, k) == oracle.effective_flops(structure, m, n, k)


def test_dense_terms_are_ones_and_extents():
    cuboids = [(Interval(0, 5), Interval(2, 2), Interval(1, 9)),
               (Interval(3, 4), Interval(0, 7), Interval(0, 1))]
    _check_cuboids(DENSE, cuboids)
    _check_rectangles(DENSE, ROLE_B, [(kb, nb) for _, kb, nb in cuboids])


@st.composite
def splits(draw, extent: int):
    """Strictly increasing uneven splits of ``[0, extent]``."""
    inner = draw(st.sets(st.integers(min_value=1, max_value=extent - 1),
                         max_size=min(6, extent - 1))) if extent > 1 else set()
    return [0] + sorted(inner) + [extent]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["block_sparse", "moe_ragged"]), data=st.data(),
       role=st.sampled_from([ROLE_A, ROLE_B, ROLE_C]),
       itemsize=st.sampled_from([2, 4, 8]))
def test_tile_fetch_bytes_on_uneven_custom_tiles(kind, data, role, itemsize):
    if kind == "block_sparse":
        structure, k, n = data.draw(block_sparse().filter(lambda case: case[1] <= 512))
        m = data.draw(st.integers(min_value=1, max_value=40))
    else:
        structure, m = data.draw(moe_ragged())
        k, n = (data.draw(st.integers(min_value=1, max_value=40)) for _ in "kn")
    shape = {ROLE_A: (m, k), ROLE_B: (k, n), ROLE_C: (m, n)}[role]
    partition = CustomTiles(data.draw(splits(shape[0])), data.draw(splits(shape[1])))
    matrix = DistributedMatrix.create(
        Runtime(machine=uniform_system(4)), shape, partition,
        dtype={2: np.float16, 4: np.float32, 8: np.float64}[itemsize], name=role,
        materialize=False)
    got = tile_fetch_bytes(matrix, role, structure)
    want = oracle.tile_fetch_bytes(matrix, role, structure)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    dense = tile_fetch_bytes(matrix, role)
    assert dense.tobytes() == oracle.tile_fetch_bytes(matrix, role).tobytes()
