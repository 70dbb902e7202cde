"""Unit tests for the automatic partitioning selector (paper future-work hook).

``search_partitionings`` returns ``(recommendations, stats)``.
"""

import numpy as np
import pytest

from repro.bench.selector import PartitioningRecommendation
from repro.bench.schemes import scheme_by_name
from repro.bench.workloads import Workload, mlp1_workload, mlp2_workload
from repro.core.matmul import universal_matmul
from repro.planner.search import search_partitionings
from repro.runtime.runtime import Runtime
from repro.topology.machines import pvc_system, uniform_system

MACHINE = uniform_system(4)
SMALL = Workload("small", 96, 80, 64)


class TestRecommendPartitioning:
    def test_returns_requested_number_of_candidates(self):
        recommendations, _ = search_partitionings(MACHINE, SMALL, top_k=3,
                                                  replication_factors=[1, 2],
                                                  stationary_options=("B", "C"))
        assert len(recommendations) == 3
        assert all(isinstance(rec, PartitioningRecommendation) for rec in recommendations)

    def test_sorted_by_percent_of_peak(self):
        recommendations, _ = search_partitionings(MACHINE, SMALL, top_k=5,
                                                  replication_factors=[1, 2],
                                                  stationary_options=("B", "C"))
        values = [rec.percent_of_peak for rec in recommendations]
        assert values == sorted(values, reverse=True)

    def test_memory_budget_excludes_replication(self):
        """A budget only slightly above one shard per matrix forbids replication."""
        itemsize = 4
        tight = sum(rows * cols for rows, cols in SMALL.shapes) * itemsize / 4 * 1.2
        recommendations, _ = search_partitionings(MACHINE, SMALL, top_k=10,
                                                  memory_budget_bytes=tight,
                                                  replication_factors=[1, 2, 4],
                                                  stationary_options=("C",))
        assert recommendations
        assert all(rec.replication == (1, 1, 1) for rec in recommendations)

    def test_impossible_budget_raises(self):
        with pytest.raises(ValueError):
            search_partitionings(MACHINE, SMALL, memory_budget_bytes=16)

    def test_mlp1_recommendation_moves_only_a(self):
        """For the MLP-1 shape the selector must land on an A-moving family
        (column or inner product), matching the paper's Figure 2 analysis."""
        best = search_partitionings(pvc_system(12), mlp1_workload(8192),
                                    replication_factors=[1, 2],
                                    stationary_options=("B", "C"))[0][0]
        assert best.scheme.name in ("column", "inner")

    def test_mlp2_recommendation_avoids_moving_b(self):
        best = search_partitionings(pvc_system(12), mlp2_workload(8192),
                                    replication_factors=[1, 2],
                                    stationary_options=("B", "C"))[0][0]
        assert best.scheme.name in ("outer", "block")

    def test_describe_mentions_scheme_and_stationary(self):
        best = search_partitionings(MACHINE, SMALL, replication_factors=[1],
                                    stationary_options=("C",))[0][0]
        text = best.describe()
        assert best.scheme.label in text
        assert "Stationary" in text

    def test_build_matrices_and_multiply(self):
        """The recommendation is directly executable and numerically correct."""
        best = search_partitionings(MACHINE, SMALL, replication_factors=[1, 2],
                                    stationary_options=("B", "C"))[0][0]
        runtime = Runtime(machine=MACHINE)
        a, b, c = best.build_matrices(runtime, SMALL, dtype=np.float64)
        rng = np.random.default_rng(0)
        a_dense = rng.standard_normal((SMALL.m, SMALL.k))
        b_dense = rng.standard_normal((SMALL.k, SMALL.n))
        a.load_dense(a_dense)
        b.load_dense(b_dense)
        universal_matmul(a, b, c, stationary=best.stationary)
        np.testing.assert_allclose(c.to_dense(), a_dense @ b_dense, rtol=1e-9)

    def test_build_matrices_symbolic(self):
        best = search_partitionings(MACHINE, SMALL, replication_factors=[1],
                                    stationary_options=("C",))[0][0]
        runtime = Runtime(machine=MACHINE)
        a, b, c = best.build_matrices(runtime, SMALL, materialize=False)
        assert not a.materialized and not b.materialized and not c.materialized
