"""Property pins for the vectorized + incremental evaluation core.

The batch evaluator's contract is *bit-equality* with the scalar oracles —
not tolerance-based closeness.  Anything weaker would let the pruned search
return a different ranking from the exhaustive one on exact ties.  Four
families:

1. **Vectorized frontier pricing** — ``frontier_occupancy_bounds`` equals the
   scalar ``candidate_lower_bound(..., BOUND_OCCUPANCY)`` of
   ``tests/bound_oracle.py`` with ``==`` across randomized machines, configs,
   and dense/block-sparse/MoE-ragged workloads.
2. **Memoized relaxed replay** — the critical-path bound from a *warm*
   evaluator (replay memo populated by earlier candidates, revisits
   included) equals both the cold evaluator's answer and the scalar relaxed
   replay.
3. **Compiled event tables** — every column of the compiled table matches
   the op stream of the paper-loop oracle (``tests/slicing_oracle.py``) +
   ``prune_structured_ops``, op for op, on random workloads and on the
   CuPy distributed-matmul index maps (uneven 60/110 and 110/70 splits, two
   tiles per device).
4. **End-to-end search** — ``search_partitionings`` returns the ranking of
   an exhaustive ``run_ua_point`` pass over every candidate, and accounts
   for every candidate as simulated or pruned.
5. **Table-free pre-bound** — ``frontier_pre_bounds`` is ``<=`` the
   occupancy bound, bit for bit, on dense workloads with uneven
   ``CustomTiles`` (several tiles per device), every stationary and every
   replication that divides the machine; and ``tile_traffic``, the tile
   geometry it prices, agrees with the op table it stands in for.
"""

import collections
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.schemes import PartitioningScheme, ua_schemes
from repro.bench.sweep import run_ua_point, valid_replication_factors
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.cost_model import CostModel
from repro.core.slicing import check_coverage, generate_all_ops, slice_table, tile_traffic
from repro.core.stationary import Stationary, parse_stationary
from repro.core.structure import ROLE_A, ROLE_B, BlockSparse, MoERagged, resolve_structure
from repro.dist.partition import CustomTiles
from repro.planner.search import Candidate, enumerate_candidates, search_partitionings
from repro.sim.batch import BatchEvaluator
from repro.topology.machines import GB, h100_system, pvc_system, uniform_system
from tests.bound_oracle import (
    BOUND_CRITICAL_PATH,
    BOUND_OCCUPANCY,
    as_ranking,
    candidate_lower_bound,
    exhaustive_ranking,
)
from tests import structure_oracle as geometry
from tests.pricing_oracle import structured_op_compute_time
from tests.slicing_oracle import oracle_all_ops, prune_structured_ops


@st.composite
def machine_and_config(draw):
    num_devices = draw(st.sampled_from([2, 4]))
    link_gb = draw(st.sampled_from([2, 25, 400]))
    machine = uniform_system(num_devices, link_bandwidth=link_gb * GB)
    config = ExecutionConfig(
        simulate_only=True,
        prefetch_depth=draw(st.integers(min_value=0, max_value=3)),
        async_execution=draw(st.booleans()),
        iteration_offset=draw(st.booleans()),
        cache_remote_tiles=draw(st.booleans()),
    )
    return machine, config


@st.composite
def any_workload(draw):
    m = draw(st.integers(min_value=2, max_value=5)) * 32
    n = draw(st.integers(min_value=2, max_value=5)) * 32
    k = draw(st.integers(min_value=2, max_value=5)) * 32
    kind = draw(st.sampled_from(["dense", "block_sparse", "moe"]))
    if kind == "dense":
        return Workload(f"dense_{m}x{n}x{k}", m, n, k)
    if kind == "block_sparse":
        k_blocks, n_blocks = k // 32, n // 32
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
        # At least one live block, arbitrary mask otherwise.
        mask = [[rng.random() < 0.6 for _ in range(n_blocks)]
                for _ in range(k_blocks)]
        mask[rng.randrange(k_blocks)][rng.randrange(n_blocks)] = True
        structure = BlockSparse(block_k=32, block_n=32,
                                mask=tuple(tuple(row) for row in mask))
        return Workload(f"bs_{m}x{n}x{k}", m, n, k, structure=structure)
    num_experts = draw(st.sampled_from([2, 4]))
    capacity = m // num_experts
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    tokens = tuple(rng.randint(0, capacity) for _ in range(num_experts))
    if sum(tokens) == 0:
        tokens = (capacity,) + tokens[1:]
    structure = MoERagged(expert_tokens=tokens, capacity=capacity)
    return Workload(f"moe_{m}x{n}x{k}", m, n, k, structure=structure)


def _candidates(machine, workload):
    factors = valid_replication_factors(machine.num_devices)
    candidates, _ = enumerate_candidates(
        machine, workload, machine.memory_capacity, ua_schemes(), factors,
        ("A", "B", "C"),
    )
    return candidates


class TestVectorizedBoundsBitEqual:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mc=machine_and_config(), workload=any_workload(),
           data=st.data())
    def test_frontier_occupancy_equals_scalar(self, mc, workload, data):
        machine, config = mc
        candidates = _candidates(machine, workload)
        # A random slice keeps each example cheap without biasing the space.
        start = data.draw(st.integers(min_value=0, max_value=max(0, len(candidates) - 12)))
        subset = candidates[start:start + 12]
        evaluator = BatchEvaluator(machine, workload, config)
        bounds = evaluator.frontier_occupancy_bounds(subset)
        for candidate, batch_bound in zip(subset, bounds):
            scalar_bound = candidate_lower_bound(machine, workload, candidate,
                                                 config, BOUND_OCCUPANCY)
            assert batch_bound == scalar_bound, candidate

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mc=machine_and_config(), workload=any_workload(),
           data=st.data())
    def test_critical_bound_equals_scalar(self, mc, workload, data):
        machine, config = mc
        candidates = _candidates(machine, workload)
        start = data.draw(st.integers(min_value=0, max_value=max(0, len(candidates) - 8)))
        subset = candidates[start:start + 8]
        evaluator = BatchEvaluator(machine, workload, config)
        for candidate in subset:
            batch_bound = evaluator.critical_bound(candidate)
            scalar_bound = candidate_lower_bound(machine, workload, candidate,
                                                 config, BOUND_CRITICAL_PATH)
            assert batch_bound == scalar_bound, candidate


class TestMemoizedReplayEqualsCold:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mc=machine_and_config(), workload=any_workload(),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_warm_evaluator_matches_cold(self, mc, workload, seed):
        """Memo hits must be invisible: a warm evaluator (memo populated by
        a random candidate walk, revisits included) returns the same
        critical bound a fresh evaluator computes from scratch."""
        machine, config = mc
        candidates = _candidates(machine, workload)
        rng = random.Random(seed)
        walk = [rng.choice(candidates) for _ in range(10)]
        walk += rng.sample(walk, k=min(4, len(walk)))  # force revisits
        warm = BatchEvaluator(machine, workload, config)
        for candidate in walk:
            warm_bound = warm.critical_bound(candidate)
            cold = BatchEvaluator(machine, workload, config)
            cold_bound = cold.critical_bound(candidate)
            scalar_bound = candidate_lower_bound(machine, workload, candidate,
                                                 config, BOUND_CRITICAL_PATH)
            assert warm_bound == cold_bound == scalar_bound, candidate

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mc=machine_and_config(), workload=any_workload(),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_simulate_equals_run_ua_point(self, mc, workload, seed):
        machine, config = mc
        candidates = _candidates(machine, workload)
        rng = random.Random(seed)
        evaluator = BatchEvaluator(machine, workload, config)
        for candidate in rng.sample(candidates, k=min(4, len(candidates))):
            batch_point = evaluator.simulate(candidate)
            scalar_point = run_ua_point(machine, workload, candidate.scheme,
                                        candidate.replication,
                                        candidate.stationary, config)
            assert batch_point == scalar_point, candidate


def _assert_table_matches_oracle(machine, workload, config, candidate):
    """Every column of the candidate's compiled table, row by row, against
    the oracle's pruned op stream."""
    evaluator = BatchEvaluator(machine, workload, config)
    program = evaluator.compile(candidate)
    cls = program.cls
    per_rank_ops = oracle_all_ops(cls.a, cls.b, cls.c,
                                  parse_stationary(candidate.stationary))
    structure = resolve_structure(workload.structure)
    if structure is not None:
        per_rank_ops = prune_structured_ops(per_rank_ops, structure)
    reference = [op for rank in sorted(per_rank_ops) for op in per_rank_ops[rank]]
    assert program.num_ops == len(reference)
    table = program.table
    cost_model = CostModel(machine)

    def tile_bytes(matrix, label, index):
        bounds = matrix.tile_bounds(index)
        nbytes = bounds.size * matrix.dtype.itemsize
        if structure is not None:
            nbytes *= geometry.live_fraction(structure, label, bounds.rows, bounds.cols)
        return nbytes

    fetched = set()
    for i, op in enumerate(reference):
        a_key = op.a.index[0] * cls.a.grid.num_col_tiles + op.a.index[1]
        b_key = op.b.index[0] * cls.b.grid.num_col_tiles + op.b.index[1]
        firsts = []
        for side, remote, key in (("a", op.a_is_remote, a_key),
                                  ("b", op.b_is_remote, b_key)):
            firsts.append(remote and (op.rank, side, key) not in fetched)
            if remote:
                fetched.add((op.rank, side, key))
        c_bytes = op.c_bytes
        gemm = 0.0  # dense GEMMs are priced by the vectorized pass
        if structure is not None:
            c_bytes *= geometry.op_fractions(structure, op.m_bound, op.k_bound,
                                             op.n_bound)[3]
            gemm = structured_op_compute_time(cost_model, op, structure)
        expected = {
            "rank": op.rank, "m": op.m, "n": op.n, "k": op.k,
            "m0": op.m_bound.start, "k0": op.k_bound.start, "n0": op.n_bound.start,
            "a_owner": op.a.owner, "b_owner": op.b.owner, "c_owner": op.c.owner,
            "a_key": a_key, "b_key": b_key,
            "stat_i": op.stationary_index[0], "stat_j": op.stationary_index[1],
            "a_remote": op.a_is_remote, "b_remote": op.b_is_remote,
            "c_remote": op.c_is_remote,
            "a_first": firsts[0], "b_first": firsts[1],
            "a_bytes": tile_bytes(cls.a, ROLE_A, op.a.index),
            "b_bytes": tile_bytes(cls.b, ROLE_B, op.b.index),
            "c_bytes": c_bytes, "gemm": gemm,
        }
        assert set(table) == set(expected)
        for name, value in expected.items():
            assert table[name][i] == value, (i, name)
        assert program.col["gemm"][i] == structured_op_compute_time(
            cost_model, op, structure), i


class TestCompiledTableMatchesReference:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mc=machine_and_config(), workload=any_workload(),
           data=st.data())
    def test_event_table_mirrors_generate_all_ops(self, mc, workload, data):
        """The compiled table must carry the exact pruned op stream of the
        paper-loop oracle: same count, order, bounds, owners, tiles, flags,
        bytes and GEMM times."""
        machine, config = mc
        candidates = _candidates(machine, workload)
        candidate = data.draw(st.sampled_from(candidates))
        _assert_table_matches_oracle(machine, workload, config, candidate)


#: CuPy's distributed-matmul index maps (A 100x200 cut at row 60 / col 110,
#: B 200x120 cut at row 110 / col 70), refined so that every operand holds
#: two tiles per device on 4 devices: per owner count of one replica, the
#: (row splits, col splits) of each operand.
CUPY_SPLITS = {
    "A": {2: ([0, 60, 100], [0, 110, 200]),
          4: ([0, 60, 100], [0, 55, 110, 155, 200])},
    "B": {2: ([0, 110, 200], [0, 70, 120]),
          4: ([0, 55, 110, 155, 200], [0, 70, 120])},
    "C": {2: ([0, 60, 100], [0, 70, 120]),
          4: ([0, 60, 100], [0, 35, 70, 95, 120])},
}
CUPY_SCHEME = PartitioningScheme(
    name="cupy_index_map", label="CuPy index map",
    a_factory=lambda _shape, owners: CustomTiles(*CUPY_SPLITS["A"][owners]),
    b_factory=lambda _shape, owners: CustomTiles(*CUPY_SPLITS["B"][owners]),
    c_factory=lambda _shape, owners: CustomTiles(*CUPY_SPLITS["C"][owners]),
)
CUPY_REPLICATIONS = [(1, 1, 1), (2, 2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2)]


class TestCupyIndexMaps:
    @pytest.mark.parametrize("replication", CUPY_REPLICATIONS)
    @pytest.mark.parametrize("stationary", ["A", "B", "C"])
    @pytest.mark.parametrize("iteration_offset", [False, True])
    def test_table_and_bounds_match_oracle(self, replication, stationary,
                                           iteration_offset):
        machine = uniform_system(4, link_bandwidth=25 * GB)
        workload = Workload("cupy_100x120x200", 100, 120, 200)
        config = ExecutionConfig(simulate_only=True, iteration_offset=iteration_offset)
        candidate = Candidate(index=0, scheme=CUPY_SCHEME, replication=replication,
                              stationary=stationary, memory_per_device=0)
        _assert_table_matches_oracle(machine, workload, config, candidate)
        evaluator = BatchEvaluator(machine, workload, config)
        for bound, value in (
                (BOUND_OCCUPANCY, evaluator.frontier_occupancy_bounds([candidate])[0]),
                (BOUND_CRITICAL_PATH, evaluator.critical_bound(candidate))):
            assert value == candidate_lower_bound(machine, workload, candidate,
                                                  config, bound)

    @pytest.mark.parametrize("replication", CUPY_REPLICATIONS)
    @pytest.mark.parametrize("stationary", list(Stationary))
    def test_generated_ops_equal_oracle(self, replication, stationary):
        machine = uniform_system(4)
        workload = Workload("cupy_100x120x200", 100, 120, 200)
        candidate = Candidate(index=0, scheme=CUPY_SCHEME, replication=replication,
                              stationary=stationary.value, memory_per_device=0)
        cls = BatchEvaluator(machine, workload).compile(candidate).cls
        for matrix in (cls.a, cls.b, cls.c):
            assert all(len(matrix.my_tiles(rank)) == 2 for rank in range(4))
        ops = generate_all_ops(cls.a, cls.b, cls.c, stationary)
        assert ops == oracle_all_ops(cls.a, cls.b, cls.c, stationary)
        check_coverage(cls.a, cls.b, cls.c, ops)


class TestSearchEqualsExhaustiveRanking:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mc=machine_and_config(), workload=any_workload(),
           top_k=st.sampled_from([1, 3]), prune=st.booleans())
    def test_recommendations_equal_exhaustive_ranking(self, mc, workload, top_k,
                                                      prune):
        machine, config = mc
        recommendations, stats = search_partitionings(
            machine, workload, top_k=top_k, prune=prune, config=config)
        assert as_ranking(recommendations) == exhaustive_ranking(
            machine, workload, top_k, config)
        assert stats.num_simulated + stats.num_pruned == stats.num_candidates


# ---------------------------------------------------------------------- #
# the table-free pre-bound
# ---------------------------------------------------------------------- #
def _uneven_splits(extent: int, parts: int, rng: random.Random) -> list:
    parts = max(1, min(parts, extent))
    return [0] + sorted(rng.sample(range(1, extent), parts - 1)) + [extent]


def uneven_scheme(seed: int) -> PartitioningScheme:
    """Custom tiles with seeded uneven splits, up to several tiles per owner.

    A wider draw than ``test_column_walk_properties.uneven_scheme`` (which
    cannot be imported here: that module imports this one through
    ``test_direct_oracle_properties``): up to three tiles per owner.
    """

    def factory(role: str):
        def build(shape, owners):
            rng = random.Random(f"{seed}:{role}:{shape}:{owners}")
            rows = rng.choice([1, owners, 2 * owners, 3])
            cols = max(1, (owners * rng.choice([1, 2, 3])) // rows)
            return CustomTiles(_uneven_splits(shape[0], rows, rng),
                               _uneven_splits(shape[1], cols, rng))
        return build

    return PartitioningScheme(name=f"uneven_{seed}", label="uneven custom tiles",
                              a_factory=factory("A"), b_factory=factory("B"),
                              c_factory=factory("C"))


#: The side (A, B, C) of each stationary.
_STATIONARY_SIDE = {Stationary.A: 0, Stationary.B: 1, Stationary.C: 2}

PRE_BOUND_MACHINES = [uniform_system(2), uniform_system(4, link_bandwidth=2 * GB),
                      uniform_system(8), pvc_system(12), h100_system(8)]


@st.composite
def dense_frontier(draw):
    """A machine, a config, and a slice of a dense frontier with uneven tiles."""
    machine = draw(st.sampled_from(PRE_BOUND_MACHINES))
    config = ExecutionConfig(simulate_only=True,
                             cache_remote_tiles=draw(st.booleans()),
                             iteration_offset=draw(st.booleans()))
    m, n, k = (draw(st.integers(min_value=3, max_value=700)) for _ in range(3))
    workload = Workload(f"dense_{m}x{n}x{k}", m, n, k)
    seeds = draw(st.lists(st.integers(min_value=0, max_value=2**16), min_size=1,
                          max_size=2))
    candidates, _ = enumerate_candidates(
        machine, workload, float("inf"),
        list(ua_schemes()) + [uneven_scheme(seed) for seed in seeds],
        valid_replication_factors(machine.num_devices), ("A", "B", "C"))
    start = draw(st.integers(min_value=0, max_value=len(candidates) - 1))
    return machine, config, workload, candidates[start:start + 24]


class TestPreBoundBelowOccupancy:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(frontier=dense_frontier())
    def test_pre_bound_never_exceeds_occupancy(self, frontier):
        machine, config, workload, candidates = frontier
        evaluator = BatchEvaluator(machine, workload, config)
        pre = evaluator.frontier_pre_bounds(candidates)
        occupancy = evaluator.frontier_occupancy_bounds(candidates)
        for candidate, low, bound in zip(candidates, pre.tolist(), occupancy):
            assert low <= bound, (candidate, low, bound)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(frontier=dense_frontier())
    def test_tile_traffic_matches_the_op_table(self, frontier):
        """Reads are the table's distinct non-stationary tiles (owners
        included), writes carry the table's C volume per C tile, each
        block's volume is its ops', and per axis its segment count and
        longest segment bound the table's from below and above."""
        machine, _, workload, candidates = frontier
        evaluator = BatchEvaluator(machine, workload)
        tasks = [evaluator.compile(candidate).cls.layouts
                 + (parse_stationary(candidate.stationary),) for candidate in candidates]
        blocks, reads, writes, tiles, reader = tile_traffic(tasks)
        rows = {name: column.tolist() for name, column in slice_table(tasks).items()}
        layouts = list(dict.fromkeys(layout for task in tasks for layout in task[:3]))
        tile_at = dict(zip(map(id, layouts), np.cumsum(
            [0] + [layout.positions.size for layout in layouts]).tolist()))

        def tile(task, side, key):
            return tile_at[id(tasks[task][side])] + key

        owners = {}
        volume = collections.Counter()
        segments = collections.defaultdict(lambda: ([set(), set(), set()]))
        for i, task in enumerate(rows["task"]):
            rank = rows["rank"][i]
            stationary = tasks[task][3]
            layout = tasks[task][_STATIONARY_SIDE[stationary]]
            block = (task, rank, rows["stat_i"][i] * layout.ncols + rows["stat_j"][i])
            size = 1
            for x, axis in enumerate("mkn"):
                size *= rows[f"{axis}1"][i] - rows[f"{axis}0"][i]
                segments[block][x].add((rows[f"{axis}0"][i], rows[f"{axis}1"][i]))
            volume[block] += size
            volume[(task, rank, tile(task, 2, rows["c_key"][i]))] += size
            for side, name in enumerate("ab"):
                if side != _STATIONARY_SIDE[stationary]:
                    owners[(task, rank, side, tile(task, side, rows[f"{name}_key"][i]))] = (
                        rows[f"{name}_owner"][i])

        # A task's reads are its reader's.
        rpr = tiles["ranks_per_replica"][reads["tile"]]
        owner = (tiles["position"][reads["tile"]] + reads["rank"] // rpr * rpr).tolist()
        by_reader = collections.defaultdict(list)
        for row in zip(*(reads[name].tolist() for name in ("task", "rank", "side", "tile")),
                       owner):
            by_reader[row[0]].append(row[1:])
        got_reads = {}
        for task, read_as in enumerate(reader.tolist()):
            rows = by_reader[read_as]
            assert len(rows) == len(set(rows))
            got_reads.update(((task,) + row[:3], row[3]) for row in rows)
        assert set(by_reader) <= set(reader.tolist())
        assert got_reads == owners

        got = collections.Counter()
        keys = list(zip(*(blocks[name].tolist() for name in ("task", "rank", "tile"))))
        sizes = (blocks["m"] * blocks["k"] * blocks["n"]).tolist()
        least, longest = ([blocks[f"{axis}_{name}"].tolist() for axis in "mkn"]
                          for name in ("segments", "longest"))
        for i, (key, size) in enumerate(zip(keys, sizes)):
            if key in segments:
                got[key] += size
                for x, cuts in enumerate(segments[key]):
                    assert 1 <= least[x][i] <= len(cuts)
                    assert longest[x][i] >= max(stop - start for start, stop in cuts)
            else:  # a block with no ops: an empty share of the free axis
                assert size == 0 and least[0][i] * least[1][i] * least[2][i] == 0
        for block, c_tile, elements in zip(*(writes[name].tolist()
                                             for name in ("block", "tile", "elements"))):
            task, rank, _ = keys[block]
            assert elements > 0
            got[(task, rank, c_tile)] += elements * int(blocks["k"][block])
        assert got == volume
