"""Unit tests for benchmark workloads and partitioning schemes."""

import pytest

from repro.bench.schemes import PartitioningScheme, aspect_grid, scheme_by_name, ua_schemes
from repro.bench.workloads import (
    BATCH_SIZES,
    MLP_HIDDEN,
    MLP_RATIO,
    WORKLOAD_SCHEMA_VERSION,
    Workload,
    attention_workload,
    block_sparse_workload,
    mlp1_workload,
    mlp2_workload,
    moe_workload,
    rectangular_series,
    square_workload,
    tall_skinny_workload,
)
from repro.bench.workloads import mlp1_series, mlp2_series
from repro.core.structure import BlockSparse, MoERagged, structure_from_dict


class TestWorkloads:
    def test_mlp1_dimensions_match_paper(self):
        """MLP-1: m = batch, n = 48K, k = 12K."""
        workload = mlp1_workload(4096)
        assert workload.m == 4096
        assert workload.n == 48 * 1024
        assert workload.k == 12 * 1024

    def test_mlp2_dimensions_match_paper(self):
        """MLP-2: m = batch, n = 12K, k = 48K."""
        workload = mlp2_workload(2048)
        assert workload.n == 12 * 1024
        assert workload.k == 48 * 1024

    def test_paper_batch_sizes(self):
        assert BATCH_SIZES == (1024, 2048, 4096, 8192)

    def test_paper_constants(self):
        assert MLP_HIDDEN == 12 * 1024
        assert MLP_RATIO == 4

    def test_flops(self):
        workload = Workload("w", 10, 20, 30)
        assert workload.flops == 2.0 * 10 * 20 * 30

    def test_shapes(self):
        workload = Workload("w", 10, 20, 30)
        assert workload.shapes == ((10, 30), (30, 20), (10, 20))

    def test_square(self):
        workload = square_workload(512)
        assert workload.m == workload.n == workload.k == 512

    def test_scaled(self):
        workload = mlp1_workload(1024).scaled(0.125)
        assert workload.m == 128
        assert workload.k == 1536

    def test_series_lengths(self):
        assert len(mlp1_series()) == 4
        assert len(mlp2_series((1024, 2048))) == 2

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Workload("bad", 0, 10, 10)

    def test_dict_roundtrip(self):
        workload = mlp1_workload(2048)
        assert Workload.from_dict(workload.to_dict()) == workload

    def test_to_dict_is_json_friendly(self):
        import json

        payload = json.loads(json.dumps(attention_workload(512).to_dict()))
        assert Workload.from_dict(payload) == attention_workload(512)

    def test_attention_is_square_output_tiny_k(self):
        workload = attention_workload(2048, head_dim=128)
        assert workload.m == workload.n == 2048
        assert workload.k == 128

    def test_tall_skinny_is_tall(self):
        workload = tall_skinny_workload(100000)
        assert workload.m > 100 * workload.n

    def test_rectangular_series_holds_flops_constant(self):
        series = rectangular_series(base=1024, aspects=(1, 2, 4))
        assert len(series) == 3
        flops = {workload.flops for workload in series}
        assert len(flops) == 1
        assert series[-1].n > series[0].n


class TestStructuredWorkloads:
    def test_block_sparse_factory_hits_requested_density(self):
        workload = block_sparse_workload(256, 512, 512, density=0.25,
                                         block_k=64, block_n=64, seed=1)
        structure = workload.structure
        assert isinstance(structure, BlockSparse)
        assert structure.density == pytest.approx(0.25, abs=1 / 64)
        assert workload.effective_flops < workload.flops

    def test_block_sparse_factory_is_deterministic(self):
        one = block_sparse_workload(256, 512, 512, density=0.3, seed=7)
        two = block_sparse_workload(256, 512, 512, density=0.3, seed=7)
        assert one == two
        other = block_sparse_workload(256, 512, 512, density=0.3, seed=8)
        assert one.structure != other.structure

    def test_moe_factory_envelope_is_expert_aligned(self):
        workload = moe_workload(4, 64, 512, 512, expert_tokens=[64, 5, 9, 1])
        assert workload.m == 4 * 64
        assert isinstance(workload.structure, MoERagged)
        assert workload.structure.total_tokens == 79
        assert workload.effective_flops == 2.0 * 79 * 512 * 512

    def test_moe_factory_random_split_is_deterministic(self):
        assert moe_workload(8, 32, 128, 128, seed=3) == moe_workload(8, 32, 128, 128, seed=3)

    def test_structure_envelope_mismatch_rejected(self):
        with pytest.raises(ValueError, match="envelope"):
            Workload("bad", 100, 64, 64,
                     structure=MoERagged(expert_tokens=(10, 10), capacity=64))
        with pytest.raises(ValueError, match="block"):
            Workload("bad", 64, 64, 64,
                     structure=BlockSparse(block_k=32, block_n=32,
                                           mask=((True,),)))

    def test_scaled_rejects_structured_workloads(self):
        workload = block_sparse_workload(128, 128, 128, density=0.5)
        with pytest.raises(ValueError, match="dense"):
            workload.scaled(0.5)

    def test_dict_roundtrip_carries_structure(self):
        import json

        for workload in (
            block_sparse_workload(256, 512, 512, density=0.25, seed=1),
            moe_workload(4, 64, 512, 512, expert_tokens=[64, 5, 9, 1]),
        ):
            payload = json.loads(json.dumps(workload.to_dict()))
            assert payload["schema"] == WORKLOAD_SCHEMA_VERSION
            assert Workload.from_dict(payload) == workload

    def test_schema_v1_payloads_deserialize_as_dense(self):
        legacy = {"name": "old", "m": 128, "n": 256, "k": 512}
        workload = Workload.from_dict(legacy)
        assert workload.structure.is_dense
        assert workload == Workload("old", 128, 256, 512)

    def test_unknown_structure_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload structure"):
            structure_from_dict({"kind": "butterfly"})


class TestAspectGrid:
    def test_square_shape_gets_square_grid(self):
        assert aspect_grid((1000, 1000), 16) == (4, 4)

    def test_tall_shape_gets_tall_grid(self):
        rows, cols = aspect_grid((100000, 100), 12)
        assert rows > cols

    def test_wide_shape_gets_wide_grid(self):
        rows, cols = aspect_grid((100, 100000), 12)
        assert cols > rows

    def test_product_equals_procs(self):
        for procs in (2, 6, 12, 8):
            rows, cols = aspect_grid((123, 456), procs)
            assert rows * cols == procs


class TestSchemes:
    def test_six_schemes_defined(self):
        names = {scheme.name for scheme in ua_schemes()}
        assert names == {"column", "row", "block", "inner", "outer", "traditional"}

    def test_labels_match_figure_legend(self):
        labels = {scheme.label for scheme in ua_schemes()}
        assert "UA - Column" in labels
        assert "UA - Outer Prod." in labels

    def test_scheme_by_name(self):
        assert scheme_by_name("column").name == "column"
        assert scheme_by_name("OUTER").name == "outer"

    def test_scheme_by_name_unknown(self):
        with pytest.raises(KeyError, match="available: .*'column'.*'traditional'"):
            scheme_by_name("diagonal")

    def test_schemes_are_built_once(self):
        assert scheme_by_name("outer") is scheme_by_name("OUTER")
        first, second = ua_schemes(), ua_schemes()
        assert first is not second and first == second
        assert all(left is right for left, right in zip(first, second))
        first.pop()
        assert len(second) == 6 and len(ua_schemes()) == 6

    def test_partitions_built_per_matrix(self):
        workload = mlp1_workload(1024)
        scheme = scheme_by_name("outer")
        part_a, part_b, part_c = scheme.partitions(workload, 12, 12, 12)
        assert part_a.name == "column"
        assert part_b.name == "row"
        assert part_c.name == "block"

    def test_column_scheme_only_moves_a(self):
        """Behavioural check of the scheme table's key claim."""
        from repro.bench.sweep import run_ua_point
        from repro.topology.machines import uniform_system

        point = run_ua_point(uniform_system(4), mlp1_workload(1024).scaled(1 / 64),
                             scheme_by_name("column"), stationary="C")
        assert point.extra["remote_accumulate_bytes"] == 0

    def test_outer_scheme_only_accumulates(self):
        from repro.bench.sweep import run_ua_point
        from repro.topology.machines import uniform_system

        point = run_ua_point(uniform_system(4), mlp2_workload(1024).scaled(1 / 64),
                             scheme_by_name("outer"), stationary="B")
        assert point.extra["remote_get_bytes"] == 0
        assert point.extra["remote_accumulate_bytes"] > 0
