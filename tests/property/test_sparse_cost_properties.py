"""Property-based pins of the structured-sparsity cost surface.

Three families of properties, matching the guarantees the planner relies on:

1. **Dense-envelope dominance** — a block-sparse or MoE-ragged workload does
   a subset of its envelope's work, and every structured duration is the
   dense duration scaled by a live fraction in ``[0, 1]``, so the simulated
   time can never exceed the dense envelope's under the same configuration.
2. **Monotonicity in density** — adding live blocks (or routed tokens) never
   makes a workload cheaper under the occupancy pricing (per-engine summed
   durations over a live-subset op stream — provably monotone).  The
   *contended* makespan is only monotone up to a scheduling tolerance:
   dropping masked ops reshuffles contention slots, and list scheduling is
   famously non-monotone under such perturbations (Graham's anomalies), so
   a sparser sibling can finish slightly later than its superset.
3. **Admissibility on sparse inputs** — both planner pruning bounds
   (occupancy and critical-path) stay at or below the simulated makespan for
   structured workloads, which is what makes the pruned sparse search return
   the exhaustive ranking.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.schemes import ua_schemes
from repro.bench.sweep import run_ua_point
from repro.bench.workloads import Workload
from repro.core.config import ExecutionConfig
from repro.core.structure import BlockSparse, MoERagged
from repro.planner.search import Candidate
from repro.topology.machines import GB, uniform_system
from tests.bound_oracle import BOUND_CRITICAL_PATH, BOUND_OCCUPANCY, candidate_lower_bound

_SCHEMES = {scheme.name: scheme for scheme in ua_schemes()}


def _mask_from_cells(k_blocks, n_blocks, cells):
    chosen = set(cells)
    return tuple(
        tuple((row * n_blocks + col) in chosen for col in range(n_blocks))
        for row in range(k_blocks)
    )


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
    )
    divisors = [c for c in range(1, num_devices + 1) if num_devices % c == 0]
    replication = draw(st.sampled_from(divisors))
    scheme = draw(st.sampled_from(sorted(_SCHEMES)))
    stationary = draw(st.sampled_from(["A", "B", "C"]))
    return machine, config, scheme, replication, stationary


@st.composite
def sparse_pair(draw):
    """A structured workload plus a strictly-not-sparser sibling.

    Returns ``(lean, rich)`` where ``rich``'s live set contains ``lean``'s —
    the nested pair the monotonicity property quantifies over.  ``rich`` may
    equal the full envelope.
    """
    m = draw(st.integers(min_value=2, max_value=10)) * 8
    n = draw(st.integers(min_value=2, max_value=10)) * 8
    k = draw(st.integers(min_value=2, max_value=10)) * 8
    if draw(st.booleans()):
        block_k = draw(st.sampled_from([8, 16, 32]))
        block_n = draw(st.sampled_from([8, 16, 32]))
        k_blocks = -(-k // block_k)
        n_blocks = -(-n // block_n)
        total = k_blocks * n_blocks
        lean_live = draw(st.integers(min_value=1, max_value=total))
        rich_live = draw(st.integers(min_value=lean_live, max_value=total))
        order = list(range(total))
        random.Random(draw(st.integers(min_value=0, max_value=2**32))).shuffle(order)
        lean = BlockSparse(block_k, block_n,
                           _mask_from_cells(k_blocks, n_blocks, order[:lean_live]))
        rich = BlockSparse(block_k, block_n,
                           _mask_from_cells(k_blocks, n_blocks, order[:rich_live]))
    else:
        experts = draw(st.sampled_from([2, 4]))
        capacity = max(1, m // experts)
        m = experts * capacity
        rich_tokens = draw(st.lists(st.integers(min_value=0, max_value=capacity),
                                    min_size=experts, max_size=experts))
        lean_tokens = [draw(st.integers(min_value=0, max_value=tokens))
                       for tokens in rich_tokens]
        if sum(lean_tokens) == 0:
            lean_tokens[0] = 1
            rich_tokens[0] = max(rich_tokens[0], 1)
        lean = MoERagged(tuple(lean_tokens), capacity)
        rich = MoERagged(tuple(rich_tokens), capacity)
    return (Workload("lean", m, n, k, structure=lean),
            Workload("rich", m, n, k, structure=rich))


def _simulate(machine, workload, scheme, replication, stationary, config):
    point = run_ua_point(machine, workload, _SCHEMES[scheme],
                         (replication, replication, replication),
                         stationary, config)
    return point.simulated_time


class TestDenseEnvelopeDominance:
    # Derandomized: contended-makespan comparisons are deterministic in CI
    # (strict dominance held over 800+ randomized probes during development,
    # but list scheduling gives no hard guarantee against rare anomalies).
    @settings(max_examples=50, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(env=machine_and_config(), pair=sparse_pair())
    def test_sparse_never_exceeds_dense_envelope(self, env, pair):
        machine, config, scheme, replication, stationary = env
        lean, _ = pair
        envelope = Workload("env", lean.m, lean.n, lean.k)
        sparse_time = _simulate(machine, lean, scheme, replication, stationary, config)
        dense_time = _simulate(machine, envelope, scheme, replication, stationary, config)
        assert sparse_time <= dense_time * (1 + 1e-12), (lean.structure, sparse_time,
                                                         dense_time)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(env=machine_and_config(), pair=sparse_pair())
    def test_effective_flops_dominated_by_envelope(self, env, pair):
        del env
        lean, rich = pair
        assert 0.0 < lean.effective_flops <= rich.effective_flops <= lean.flops


class TestDensityMonotonicity:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(env=machine_and_config(), pair=sparse_pair())
    def test_more_live_work_never_cheaper_under_occupancy_pricing(self, env, pair):
        """Strictly monotone: the occupancy bound sums per-engine durations
        over the live op subset, and every term grows with the live set."""
        machine, config, scheme, replication, stationary = env
        lean, rich = pair
        def occupancy(workload):
            candidate = Candidate(index=0, scheme=_SCHEMES[scheme],
                                  replication=(replication, replication, replication),
                                  stationary=stationary, memory_per_device=0)
            return candidate_lower_bound(machine, workload, candidate, config,
                                         BOUND_OCCUPANCY)
        assert occupancy(lean) <= occupancy(rich) * (1 + 1e-12), (lean.structure,
                                                                  rich.structure)

    @settings(max_examples=50, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(env=machine_and_config(), pair=sparse_pair())
    def test_simulated_makespan_monotone_within_scheduling_tolerance(self, env, pair):
        """The contended makespan tracks the live set up to list-scheduling
        anomalies: sparser op streams occasionally land contention slots
        worse (observed ~1% excess), so the property allows a 5% margin.
        Derandomized: the margin covers anomalies on this example corpus;
        exhaustive strictness is what the occupancy property above pins."""
        machine, config, scheme, replication, stationary = env
        lean, rich = pair
        lean_time = _simulate(machine, lean, scheme, replication, stationary, config)
        rich_time = _simulate(machine, rich, scheme, replication, stationary, config)
        assert lean_time <= rich_time * 1.05, (lean.structure, rich.structure)


class TestSparseBoundAdmissibility:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(env=machine_and_config(), pair=sparse_pair())
    def test_both_bounds_below_simulated_time(self, env, pair):
        machine, config, scheme, replication, stationary = env
        workload, _ = pair
        candidate = Candidate(index=0, scheme=_SCHEMES[scheme],
                              replication=(replication, replication, replication),
                              stationary=stationary, memory_per_device=0)
        simulated = _simulate(machine, workload, scheme, replication, stationary,
                              config)
        for bound in (BOUND_OCCUPANCY, BOUND_CRITICAL_PATH):
            value = candidate_lower_bound(machine, workload, candidate, config, bound)
            assert value <= simulated * (1 + 1e-12), (bound, value, simulated,
                                                      workload.structure)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(env=machine_and_config(), pair=sparse_pair())
    def test_critical_path_dominates_occupancy_on_sparse(self, env, pair):
        machine, config, scheme, replication, stationary = env
        workload, _ = pair
        candidate = Candidate(index=0, scheme=_SCHEMES[scheme],
                              replication=(replication, replication, replication),
                              stationary=stationary, memory_per_device=0)
        occupancy = candidate_lower_bound(machine, workload, candidate, config,
                                          BOUND_OCCUPANCY)
        critical = candidate_lower_bound(machine, workload, candidate, config,
                                         BOUND_CRITICAL_PATH)
        assert critical >= occupancy * (1 - 1e-12)
