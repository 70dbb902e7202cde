"""Joint graph planner: edge pricing, solvers, cache entries, and serving."""

import pytest

from repro.core.graph import GraphEdge, GraphOp, OpGraph, matmul_chain, mlp_chain
from repro.dist.matrix import DistributedMatrix
from repro.dist.redistribute import redistribution_cost
from repro.planner import PlannerService
from repro.planner import graph as graph_module
from repro.planner.cache import PlanCache, PlanEntry, decode_entry
from repro.planner.graph import (
    DEFAULT_LATTICE_SIZE,
    GraphPlanEntry,
    OpLattice,
    _solve_chain_dp,
    _solve_dag_branch_and_bound,
    assignment_timing,
    build_edge_tables,
    candidate_layout,
    edge_reshard_cost,
    exhaustive_joint_plan,
    op_workload,
    plan_graph_layouts,
)
from repro.planner.search import search_partitionings
from repro.runtime.runtime import Runtime
from repro.topology.machines import uniform_system

MACHINE = uniform_system(4)
#: Pin replication so layout transitions differ (full replication would make
#: every reshard the same broadcast and flatten the edge tables).
SEARCH_OPTIONS = {"replication_factors": [1]}


def chain_graph():
    return matmul_chain("chain3", (GraphOp("c1", 256, 64, 128),
                                   GraphOp("c2", 256, 128, 64),
                                   GraphOp("c3", 256, 32, 128)))


def diamond_graph():
    ops = (GraphOp("d0", 128, 128, 64), GraphOp("d1", 128, 128, 128),
           GraphOp("d2", 128, 96, 128), GraphOp("d3", 128, 96, 128))
    edges = (GraphEdge(0, 1, "A"), GraphEdge(0, 2, "A"),
             GraphEdge(1, 3, "A"), GraphEdge(2, 3, "B"))
    return OpGraph(name="diamond", ops=ops, edges=edges)


def lattices_for(graph, lattice_size=DEFAULT_LATTICE_SIZE):
    lattices = []
    for op in graph.ops:
        recs, _ = search_partitionings(MACHINE, op_workload(op),
                                       top_k=lattice_size, **SEARCH_OPTIONS)
        lattices.append(OpLattice(op_workload(op), tuple(recs)))
    return lattices


class TestEdgeTables:
    def test_entries_match_direct_redistribution_cost(self):
        """A DP transition weight is exactly the modelled reshard cost."""
        graph = chain_graph()
        lattices = lattices_for(graph)
        tables = build_edge_tables(MACHINE, graph, lattices)
        runtime = Runtime(machine=MACHINE)
        edge = graph.edges[0]
        src_lat, dst_lat = lattices[edge.src], lattices[edge.dst]
        shape = (src_lat.workload.m, src_lat.workload.n)
        for i, src_rec in enumerate(src_lat.recommendations):
            src_part, src_rep = candidate_layout(MACHINE, src_lat.workload,
                                                 src_rec, 2)
            for j, dst_rec in enumerate(dst_lat.recommendations):
                dst_part, dst_rep = candidate_layout(MACHINE, dst_lat.workload,
                                                     dst_rec, 0)
                matrix = DistributedMatrix.create(runtime, shape, src_part,
                                                  replication=src_rep,
                                                  materialize=False)
                cost = redistribution_cost(matrix, dst_part,
                                           replication=dst_rep)
                assert tables[0][i][j] == pytest.approx(
                    float(cost["modelled_time_s"]))

    def test_identical_layouts_price_to_zero(self):
        graph = matmul_chain("same", (GraphOp("s1", 128, 128, 128),
                                      GraphOp("s2", 128, 128, 128)))
        lattices = lattices_for(graph)
        tables = build_edge_tables(MACHINE, graph, lattices)
        src_lat, dst_lat = lattices[0], lattices[1]
        for i, src_rec in enumerate(src_lat.recommendations):
            src_layout = candidate_layout(MACHINE, src_lat.workload, src_rec, 2)
            for j, dst_rec in enumerate(dst_lat.recommendations):
                dst_layout = candidate_layout(MACHINE, dst_lat.workload,
                                              dst_rec, 0)
                if src_layout == dst_layout:
                    assert tables[0][i][j] == 0.0

    @pytest.mark.parametrize("graph", [chain_graph(), diamond_graph()],
                             ids=["chain", "diamond"])
    def test_each_distinct_pair_is_priced_once(self, graph, monkeypatch):
        """Lattice candidates share layouts; the table prices each pair once."""
        lattices = lattices_for(graph)
        calls = []
        original = graph_module.edge_reshard_cost

        def counting(runtime, shape, src, dst, itemsize=4):
            calls.append((shape, src, dst))
            return original(runtime, shape, src, dst, itemsize)

        monkeypatch.setattr(graph_module, "edge_reshard_cost", counting)
        tables = build_edge_tables(MACHINE, graph, lattices)
        monkeypatch.undo()
        assert len(calls) == len(set(calls))

        runtime = Runtime(machine=MACHINE)
        pairs = set()
        for pos, edge in enumerate(graph.edges):
            src_lat, dst_lat = lattices[edge.src], lattices[edge.dst]
            shape = (src_lat.workload.m, src_lat.workload.n)
            slot = 0 if edge.operand == "A" else 1
            for i, src_rec in enumerate(src_lat.recommendations):
                src = candidate_layout(MACHINE, src_lat.workload, src_rec, 2)
                for j, dst_rec in enumerate(dst_lat.recommendations):
                    dst = candidate_layout(MACHINE, dst_lat.workload, dst_rec, slot)
                    pairs.add((shape, src, dst))
                    assert tables[pos][i][j] == \
                        edge_reshard_cost(runtime, shape, src, dst)[0]
        assert set(calls) == pairs
        # Sharing is real: the lattices repeat layouts across candidates.
        num_entries = sum(len(row) for table in tables for row in table)
        assert len(pairs) < num_entries

    def test_tables_are_non_negative(self):
        graph = chain_graph()
        tables = build_edge_tables(MACHINE, graph, lattices_for(graph))
        assert all(value >= 0.0
                   for table in tables for row in table for value in row)


class TestSolvers:
    def test_chain_dp_matches_exhaustive(self):
        graph = chain_graph()
        lattices = lattices_for(graph)
        tables = build_edge_tables(MACHINE, graph, lattices)
        dp_assignment, dp_makespan = _solve_chain_dp(graph, lattices, tables)
        ex_assignment, ex_makespan = exhaustive_joint_plan(graph, lattices,
                                                           tables)
        assert dp_assignment == ex_assignment
        assert dp_makespan == pytest.approx(ex_makespan)

    def test_branch_and_bound_matches_exhaustive_on_dag(self):
        graph = diamond_graph()
        lattices = lattices_for(graph, lattice_size=3)
        tables = build_edge_tables(MACHINE, graph, lattices)
        bnb_assignment, bnb_makespan, expanded = _solve_dag_branch_and_bound(
            graph, lattices, tables)
        ex_assignment, ex_makespan = exhaustive_joint_plan(graph, lattices,
                                                           tables)
        assert bnb_assignment == ex_assignment
        assert bnb_makespan == pytest.approx(ex_makespan)
        assert expanded >= 1

    def test_solver_makespans_agree_with_assignment_timing(self):
        graph = chain_graph()
        lattices = lattices_for(graph)
        tables = build_edge_tables(MACHINE, graph, lattices)
        assignment, makespan = _solve_chain_dp(graph, lattices, tables)
        assert makespan == pytest.approx(
            assignment_timing(graph, lattices, tables, assignment).makespan)


class TestPlanGraphLayouts:
    def test_chain_uses_dp_and_never_loses_to_greedy(self):
        plan, stats = plan_graph_layouts(MACHINE, chain_graph(),
                                         **SEARCH_OPTIONS)
        assert plan.method == "chain_dp"
        assert plan.makespan <= plan.greedy_makespan
        assert plan.improvement >= 0.0
        assert len(plan.assignment) == len(plan.graph.ops)
        assert len(plan.recommendations) == len(plan.graph.ops)
        assert len(plan.edge_times) == len(plan.graph.edges)
        assert stats.num_simulated > 0

    def test_dag_uses_branch_and_bound(self):
        plan, _ = plan_graph_layouts(MACHINE, diamond_graph(),
                                     lattice_size=3, **SEARCH_OPTIONS)
        assert plan.method == "branch_and_bound"
        assert plan.makespan <= plan.greedy_makespan

    def test_makespan_consistent_with_parts(self):
        plan, _ = plan_graph_layouts(MACHINE, chain_graph(), **SEARCH_OPTIONS)
        lattices = lattices_for(plan.graph)
        tables = build_edge_tables(MACHINE, plan.graph, lattices)
        timing = assignment_timing(plan.graph, lattices, tables,
                                   plan.assignment)
        assert plan.makespan == pytest.approx(timing.makespan)
        assert plan.op_times == tuple(
            lattices[i].recommendations[plan.assignment[i]].simulated_time
            for i in range(len(plan.graph.ops)))

    def test_rejects_bad_lattice_size(self):
        with pytest.raises(ValueError):
            plan_graph_layouts(MACHINE, chain_graph(), lattice_size=0)

    def test_rejects_infeasible_memory_budget(self):
        with pytest.raises(ValueError, match="budget"):
            plan_graph_layouts(MACHINE, chain_graph(),
                               memory_budget_bytes=1.0, **SEARCH_OPTIONS)


class TestGraphPlanEntry:
    def plan(self):
        plan, stats = plan_graph_layouts(MACHINE, mlp_chain(96, 64),
                                         **SEARCH_OPTIONS)
        return GraphPlanEntry.from_plan(plan, num_simulated=stats.num_simulated,
                                        num_pruned=stats.num_pruned,
                                        fingerprint="fp-test")

    def test_round_trip(self):
        entry = self.plan()
        clone = GraphPlanEntry.from_dict(entry.to_dict())
        assert clone.graph == entry.graph
        assert clone.assignment == entry.assignment
        assert clone.makespan == pytest.approx(entry.makespan)
        assert clone.greedy_makespan == pytest.approx(entry.greedy_makespan)
        assert clone.method == entry.method
        assert clone.fingerprint == entry.fingerprint
        assert [r.plan_key() for r in clone.recommendations] == \
            [r.plan_key() for r in entry.recommendations]

    def test_decode_entry_dispatches_on_kind(self):
        entry = self.plan()
        decoded = decode_entry(entry.to_dict())
        assert isinstance(decoded, GraphPlanEntry)
        assert decoded.assignment == entry.assignment
        # Payloads without a kind stay plain PlanEntry...
        payload = entry.to_dict()
        payload.pop("kind")
        payload["workload"] = None
        plain = decode_entry(payload)
        assert type(plain) is PlanEntry
        # ...and unknown kinds are skipped (forward compatibility).
        payload["kind"] = "from-the-future"
        assert decode_entry(payload) is None

    def test_cache_save_load_round_trip(self, tmp_path):
        entry = self.plan()
        cache = PlanCache(capacity=8)
        cache.put("graph|k", entry)
        path = str(tmp_path / "plans.json")
        cache.save(path)
        fresh = PlanCache(capacity=8)
        assert fresh.load(path, fingerprint="fp-test") == 1
        loaded = fresh.get("graph|k")
        assert isinstance(loaded, GraphPlanEntry)
        assert loaded.assignment == entry.assignment
        assert loaded.makespan == pytest.approx(entry.makespan)
        assert loaded.graph == entry.graph


class TestServicePlanGraph:
    def test_cold_then_hit(self):
        with PlannerService(MACHINE, **SEARCH_OPTIONS) as service:
            graph = mlp_chain(96, 64)
            cold = service.plan_graph(graph)
            warm = service.plan_graph(graph)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.assignment == warm.assignment
        assert cold.makespan == pytest.approx(warm.makespan)
        assert cold.method == warm.method
        assert cold.search_stats is not None and warm.search_stats is None
        assert [r.plan_key() for r in cold.recommendations] == \
            [r.plan_key() for r in warm.recommendations]

    def test_signature_ignores_display_names(self):
        with PlannerService(MACHINE, **SEARCH_OPTIONS) as service:
            ops = (GraphOp("a", 96, 256, 64), GraphOp("b", 96, 64, 256))
            renamed = (GraphOp("x", 96, 256, 64), GraphOp("y", 96, 64, 256))
            first = service.plan_graph(matmul_chain("mlp", ops))
            second = service.plan_graph(matmul_chain("other", renamed))
        assert not first.cache_hit and second.cache_hit
        assert first.signature.key() == second.signature.key()

    def test_lattice_size_is_part_of_the_key(self):
        with PlannerService(MACHINE, **SEARCH_OPTIONS) as service:
            graph = mlp_chain(96, 64)
            service.plan_graph(graph, lattice_size=2)
            other = service.plan_graph(graph, lattice_size=3)
        assert not other.cache_hit

    def test_graph_and_single_op_keys_never_collide(self):
        with PlannerService(MACHINE, **SEARCH_OPTIONS) as service:
            graph = mlp_chain(96, 64)
            key = service.graph_signature_for(graph).key()
            assert key.startswith("graph|")
            for op in graph.ops:
                assert service.signature_for(op_workload(op)).key() != key

    def test_warm_start_from_store(self, tmp_path):
        store = str(tmp_path / "store.json")
        graph = mlp_chain(96, 64)
        with PlannerService(MACHINE, store_path=store, autosave=True,
                            **SEARCH_OPTIONS) as service:
            first = service.plan_graph(graph)
        with PlannerService(MACHINE, store_path=store,
                            **SEARCH_OPTIONS) as fresh:
            assert fresh.stats().warm_start_entries >= 1
            served = fresh.plan_graph(graph)
        assert served.cache_hit
        assert served.assignment == first.assignment
        assert served.makespan == pytest.approx(first.makespan)
