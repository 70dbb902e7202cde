"""Unit tests for problem signatures: bucketing and machine fingerprints."""

import pytest

from repro.bench.workloads import Workload, mlp1_workload
from repro.planner.signature import (
    DEFAULT_BUCKET_RATIO,
    ProblemSignature,
    SignatureFactory,
    bucket_dim,
    machine_fingerprint,
    options_fingerprint,
)
from repro.topology.machines import h100_system, pvc_system, uniform_system


class TestBucketDim:
    def test_near_identical_dims_share_a_bucket(self):
        assert bucket_dim(4096) == bucket_dim(4100)
        assert bucket_dim(1000) == bucket_dim(1024)

    def test_paper_batch_sweep_stays_distinct(self):
        """1024/2048/4096/8192 are factors of 2 apart: separate buckets."""
        buckets = {bucket_dim(batch) for batch in (1024, 2048, 4096, 8192)}
        assert len(buckets) == 4

    def test_monotone(self):
        values = [bucket_dim(v) for v in (1, 7, 64, 500, 4096, 100000)]
        assert values == sorted(values)

    def test_ratio_one_disables_bucketing(self):
        assert bucket_dim(4097, ratio=1.0) == 4097
        assert bucket_dim(4097, ratio=None) == 4097

    def test_tiny_dims_stay_positive(self):
        assert bucket_dim(1) >= 1
        assert bucket_dim(2) >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bucket_dim(0)


class TestMachineFingerprint:
    def test_deterministic(self):
        assert machine_fingerprint(pvc_system(12)) == machine_fingerprint(pvc_system(12))

    def test_distinguishes_systems(self):
        prints = {
            machine_fingerprint(pvc_system(12)),
            machine_fingerprint(h100_system(8)),
            machine_fingerprint(uniform_system(4)),
        }
        assert len(prints) == 3

    def test_device_count_changes_fingerprint(self):
        assert machine_fingerprint(pvc_system(12)) != machine_fingerprint(pvc_system(6))


class TestProblemSignature:
    MACHINE = uniform_system(4)

    def test_bucketed_requests_share_a_key(self):
        sig_a = ProblemSignature.from_request(self.MACHINE, Workload("a", 4096, 512, 512))
        sig_b = ProblemSignature.from_request(self.MACHINE, Workload("b", 4100, 512, 512))
        assert sig_a == sig_b
        assert sig_a.key() == sig_b.key()

    def test_different_machines_never_collide(self):
        workload = mlp1_workload(1024)
        sig_a = ProblemSignature.from_request(self.MACHINE, workload)
        sig_b = ProblemSignature.from_request(h100_system(8), workload)
        assert sig_a.key() != sig_b.key()

    def test_options_digest_separates_keys(self):
        workload = mlp1_workload(1024)
        sig_a = ProblemSignature.from_request(self.MACHINE, workload,
                                              options=options_fingerprint(top_k=1))
        sig_b = ProblemSignature.from_request(self.MACHINE, workload,
                                              options=options_fingerprint(top_k=3))
        assert sig_a.key() != sig_b.key()

    def test_memory_budget_in_key(self):
        workload = mlp1_workload(1024)
        sig_a = ProblemSignature.from_request(self.MACHINE, workload)
        sig_b = ProblemSignature.from_request(self.MACHINE, workload,
                                              memory_budget_bytes=1e9)
        assert sig_a.key() != sig_b.key()

    def test_representative_workload_is_valid(self):
        sig = ProblemSignature.from_request(self.MACHINE, Workload("w", 4096, 512, 64))
        rep = sig.representative_workload()
        assert rep.m == sig.m and rep.n == sig.n and rep.k == sig.k
        assert rep.flops > 0

    def test_hashable(self):
        workload = mlp1_workload(1024)
        sig = ProblemSignature.from_request(self.MACHINE, workload)
        assert sig in {ProblemSignature.from_request(self.MACHINE, workload)}


class TestSignatureFactoryParity:
    """A factory built with a service's options derives the service's keys."""

    MACHINE = uniform_system(2)
    OPTIONS = {"replication_factors": [1]}

    def test_problem_keys_match_the_service(self):
        from repro.planner.service import PlannerService

        factory = SignatureFactory(self.MACHINE, **self.OPTIONS)
        with PlannerService(self.MACHINE, **self.OPTIONS) as service:
            for workload in (Workload("w192x128x96", 192, 128, 96),
                             Workload("w320x256x128", 320, 256, 128)):
                assert (factory.signature_for(workload).key()
                        == service.signature_for(workload).key())
                assert (factory.signature_for(workload, top_k=3).key()
                        == service.signature_for(workload, top_k=3).key())

    def test_graph_keys_match_the_service(self):
        from repro.core.graph import mlp_chain
        from repro.planner.service import PlannerService

        factory = SignatureFactory(self.MACHINE, **self.OPTIONS)
        graph = mlp_chain(96, 64)
        with PlannerService(self.MACHINE, **self.OPTIONS) as service:
            assert (factory.graph_signature_for(graph).key()
                    == service.plan_graph(graph).signature.key())

    @pytest.mark.parametrize("options", [
        {"top_k": 2},
        {"memory_budget_bytes": float(1 << 30)},
        {"schemes": ("column", "outer")},
        {"stationary_options": ("A",)},
        {"itemsize": 2},
        {"bucket_ratio": 1.0},
        {"config": "iteration_offset_off"},
    ], ids=["top_k", "memory_budget", "schemes", "stationary", "itemsize",
            "bucket_ratio", "config"])
    def test_every_planning_option_keys_alike(self, options):
        # Any option the factory hashed differently from the service would
        # send every request of a client-side ledger to a cold cache.
        from repro.bench.schemes import scheme_by_name
        from repro.core.config import ExecutionConfig
        from repro.planner.service import PlannerService

        options = dict(options)
        if "schemes" in options:
            options["schemes"] = [scheme_by_name(name)
                                  for name in options["schemes"]]
        if "config" in options:
            options["config"] = ExecutionConfig(simulate_only=True,
                                                iteration_offset=False)
        workload = Workload("w200x130x100", 200, 130, 100)
        factory = SignatureFactory(self.MACHINE, **options)
        default_key = SignatureFactory(self.MACHINE).signature_for(workload).key()
        with PlannerService(self.MACHINE, **options) as service:
            key = factory.signature_for(workload).key()
            assert key == service.signature_for(workload).key()
            assert key != default_key  # the option reaches the key

    def test_structured_keys_match_the_service(self):
        from repro.bench.workloads import block_sparse_workload, moe_workload
        from repro.planner.service import PlannerService

        factory = SignatureFactory(self.MACHINE, **self.OPTIONS)
        with PlannerService(self.MACHINE, **self.OPTIONS) as service:
            for workload in (
                    block_sparse_workload(128, 256, 256, density=0.1),
                    moe_workload(4, 64, 256, 128,
                                 expert_tokens=[64, 5, 9, 1])):
                key = factory.signature_for(workload).key()
                assert key == service.signature_for(workload).key()
                assert key != factory.signature_for(Workload(
                    "dense", workload.m, workload.n, workload.k)).key()
