"""Cross-fingerprint plan portability: seeds speed search, never change it.

The contract under test: a plan computed on one machine fingerprint may be
imported by a service for a *similar* machine (same portability profile,
i.e. same device count) only as a branch-and-bound **seed** — an incumbent
that tightens the prune threshold early.  The served recommendations must
be exactly what a cold search computes (property-tested over perturbed
machines), foreign plans must never be served directly (no stale-plan
leaks, no phantom cache hits), and incompatible fingerprints (different
device counts) must load nothing at all.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import Workload
from repro.planner import (
    PlannerService,
    SignatureFactory,
    load_portable_seeds,
    machine_fingerprint,
    machine_portability_profile,
    portable_plan_key,
    search_partitionings,
)
from repro.topology.machines import uniform_system

BASE_MACHINE = uniform_system(2)
SERVICE_OPTIONS = {"replication_factors": [1]}


def make_workload(m=192, n=128, k=96):
    return Workload(f"w{m}x{n}x{k}", m, n, k)


def perturbed(machine, *, flops_scale=1.0, link_scale=1.0, hbm_scale=1.0):
    """The same topology with scaled hardware rates — a sibling machine."""
    return dataclasses.replace(
        machine,
        name=f"{machine.name}-x{flops_scale}-{link_scale}-{hbm_scale}",
        flops_peak=machine.flops_peak * flops_scale,
        device_link_bandwidth=machine.device_link_bandwidth * link_scale,
        memory_bandwidth=machine.memory_bandwidth * hbm_scale)


def recommendation_tuples(recommendations):
    return [(r.scheme.name, tuple(r.replication), r.stationary,
             r.simulated_time, r.percent_of_peak) for r in recommendations]


@pytest.fixture(scope="module")
def donor_store(tmp_path_factory):
    """A plan store written by the base machine (the seed donor)."""
    path = str(tmp_path_factory.mktemp("portable") / "plans.json")
    with PlannerService(BASE_MACHINE, store_path=path,
                       **SERVICE_OPTIONS) as service:
        service.plan(make_workload(), top_k=2)
        service.plan(make_workload(320, 256, 128))
        service.save_store()
    return path


class TestPortabilityPrimitives:
    def test_profile_ignores_rates_but_not_device_count(self):
        base = machine_portability_profile(BASE_MACHINE)
        assert machine_portability_profile(
            perturbed(BASE_MACHINE, flops_scale=2.0, link_scale=0.5)) == base
        assert machine_portability_profile(uniform_system(4)) != base

    def test_fingerprint_still_separates_perturbed_machines(self):
        # Portability profiles deliberately collapse what fingerprints keep
        # apart: cache identity stays exact, only seeding is shared.
        sibling = perturbed(BASE_MACHINE, flops_scale=1.5)
        assert (machine_fingerprint(sibling)
                != machine_fingerprint(BASE_MACHINE))
        assert (machine_portability_profile(sibling)
                == machine_portability_profile(BASE_MACHINE))

    def test_portable_plan_key_is_shape_and_structure_only(self):
        dense = make_workload()
        assert portable_plan_key(dense) == "192x128x96|dense"
        renamed = Workload("other-name", dense.m, dense.n, dense.k)
        assert portable_plan_key(renamed) == portable_plan_key(dense)
        assert portable_plan_key(make_workload(64, 64, 64)) != \
            portable_plan_key(dense)

    def test_load_portable_seeds_reads_matching_profiles_only(self,
                                                              donor_store):
        profile = machine_portability_profile(BASE_MACHINE)
        seeds = load_portable_seeds(donor_store, profile)
        assert len(seeds) == 2  # one portable key per donor workload
        for specs in seeds.values():
            assert specs  # each carries at least the donor's winner
            for scheme_name, replication, stationary in specs:
                assert isinstance(scheme_name, str)
                assert len(replication) == 3
                assert stationary in ("A", "B", "C")
        # A different device count shares nothing.
        assert load_portable_seeds(
            donor_store, machine_portability_profile(uniform_system(4))) == {}

    def test_load_portable_seeds_tolerates_missing_and_malformed(self,
                                                                 tmp_path):
        profile = machine_portability_profile(BASE_MACHINE)
        assert load_portable_seeds(str(tmp_path / "absent.json"),
                                   profile) == {}
        garbled = tmp_path / "garbled.json"
        garbled.write_text("not json{")
        assert load_portable_seeds(str(garbled), profile) == {}

    @pytest.mark.parametrize("bad_m", [None, "x", 96.7])
    def test_entries_with_a_non_integer_dimension_are_skipped(
            self, donor_store, tmp_path, bad_m):
        payload = json.loads(open(donor_store).read())
        bad = json.loads(json.dumps(payload["entries"][0]))
        bad["plan"]["workload"]["m"] = bad_m
        payload["entries"] = [payload["entries"][1], bad]
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(payload))
        profile = machine_portability_profile(BASE_MACHINE)
        assert len(load_portable_seeds(str(doctored), profile)) == 1
        # A warm start on the doctored store keeps the good entry too.
        with PlannerService(BASE_MACHINE, store_path=str(doctored),
                            **SERVICE_OPTIONS) as service:
            assert len(service.cache) == 1

    def test_graph_entries_are_excluded_from_seeding(self, donor_store,
                                                     tmp_path):
        # Stamp a graph-plan marker onto a donor entry: joint graph plans
        # are machine-coupled through reshard costs and must not seed
        # single-op searches.
        payload = json.loads(open(donor_store).read())
        for item in payload["entries"]:
            item["plan"] = dict(item.get("plan") or {}, kind="graph_plan")
        doctored = tmp_path / "graphs.json"
        doctored.write_text(json.dumps(payload))
        assert load_portable_seeds(
            str(doctored), machine_portability_profile(BASE_MACHINE)) == {}


class TestSignatureFactoryParity:
    """Client-side keys must be byte-identical to server-side identities."""

    def test_problem_keys_match_the_service(self):
        factory = SignatureFactory(BASE_MACHINE, **SERVICE_OPTIONS)
        with PlannerService(BASE_MACHINE, **SERVICE_OPTIONS) as service:
            for workload in (make_workload(), make_workload(320, 256, 128)):
                assert (factory.signature_for(workload).key()
                        == service.signature_for(workload).key())
                assert (factory.signature_for(workload, top_k=3).key()
                        == service.signature_for(workload, top_k=3).key())

    def test_graph_keys_match_the_service(self):
        from repro.core.graph import mlp_chain

        factory = SignatureFactory(BASE_MACHINE, **SERVICE_OPTIONS)
        graph = mlp_chain(96, 64)
        with PlannerService(BASE_MACHINE, **SERVICE_OPTIONS) as service:
            assert (factory.graph_signature_for(graph).key()
                    == service.plan_graph(graph).signature.key())

    def test_serving_only_options_are_ignored(self):
        baseline = SignatureFactory(BASE_MACHINE, **SERVICE_OPTIONS)
        tolerant = SignatureFactory(
            BASE_MACHINE, store_path="/tmp/x.json", autosave=True,
            cache_capacity=7, num_threads=3, **SERVICE_OPTIONS)
        workload = make_workload()
        assert (tolerant.signature_for(workload).key()
                == baseline.signature_for(workload).key())


class TestSeededSearchExactness:
    def test_seeding_never_changes_the_ranking(self):
        workload = make_workload()
        cold, cold_stats = search_partitionings(
            BASE_MACHINE, workload, top_k=3, replication_factors=[1])
        seeds = [(r.scheme.name, tuple(r.replication), r.stationary)
                 for r in cold]
        seeded, seeded_stats = search_partitionings(
            BASE_MACHINE, workload, top_k=3, replication_factors=[1],
            seed_candidates=seeds)
        assert recommendation_tuples(seeded) == recommendation_tuples(cold)
        assert seeded_stats.num_seeded == len(seeds)
        # Seeds are simulated up front, never double-simulated later.
        assert seeded_stats.num_simulated <= cold_stats.num_simulated \
            + len(seeds)

    def test_unknown_seed_specs_are_ignored(self):
        workload = make_workload()
        cold, _ = search_partitionings(
            BASE_MACHINE, workload, top_k=2, replication_factors=[1])
        seeded, stats = search_partitionings(
            BASE_MACHINE, workload, top_k=2, replication_factors=[1],
            seed_candidates=[("no-such-scheme", (1, 2, 3), "A")])
        assert recommendation_tuples(seeded) == recommendation_tuples(cold)
        assert stats.num_seeded == 0

    @given(flops=st.floats(0.25, 4.0), link=st.floats(0.25, 4.0),
           hbm=st.floats(0.5, 2.0))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_donor_seeds_are_exact_on_perturbed_machines(self, flops, link,
                                                         hbm):
        # The donor's winner is just an incumbent on the sibling machine —
        # whatever the sibling's own cost model ranks first must win, seeded
        # or not, for any rate perturbation.
        sibling = perturbed(BASE_MACHINE, flops_scale=flops, link_scale=link,
                            hbm_scale=hbm)
        workload = make_workload()
        cold, _ = search_partitionings(sibling, workload, top_k=2,
                                       replication_factors=[1])
        donor, _ = search_partitionings(BASE_MACHINE, workload, top_k=2,
                                        replication_factors=[1])
        seeds = [(r.scheme.name, tuple(r.replication), r.stationary)
                 for r in donor]
        seeded, _ = search_partitionings(sibling, workload, top_k=2,
                                         replication_factors=[1],
                                         seed_candidates=seeds)
        assert recommendation_tuples(seeded) == recommendation_tuples(cold)


class TestServicePortability:
    def test_sibling_service_seeds_and_matches_cold_search(self, donor_store):
        sibling = perturbed(BASE_MACHINE, flops_scale=1.5, link_scale=0.75)
        workload = make_workload()
        with PlannerService(sibling, **SERVICE_OPTIONS) as cold_service:
            cold = cold_service.plan(workload, top_k=2)
        with PlannerService(sibling, portable_store_paths=[donor_store],
                            **SERVICE_OPTIONS) as service:
            assert service.stats().portable_seeds_loaded >= 2
            response = service.plan(workload, top_k=2)
            # Seeded, but not served from the foreign store: the answer is
            # a fresh search on the sibling's own cost model.
            assert not response.cache_hit
            assert service.stats().portable_seeded == 1
            assert (recommendation_tuples(response.recommendations)
                    == recommendation_tuples(cold.recommendations))

    def test_incompatible_fingerprints_never_leak_plans(self, donor_store):
        foreign = uniform_system(4)  # different device count
        workload = make_workload()
        with PlannerService(foreign, portable_store_paths=[donor_store],
                            **SERVICE_OPTIONS) as service:
            assert service.stats().portable_seeds_loaded == 0
            response = service.plan(workload)
            assert not response.cache_hit
            assert service.stats().portable_seeded == 0
            # Sanity: the answer is a genuine 4-device plan, not the
            # donor's 2-device one replayed.
            with PlannerService(foreign, **SERVICE_OPTIONS) as reference:
                assert (recommendation_tuples(response.recommendations)
                        == recommendation_tuples(
                            reference.plan(workload).recommendations))

    def test_exact_fingerprint_service_is_bit_identical_with_seeds(self,
                                                                   donor_store):
        # Same machine as the donor: seeds load (profiles match), but the
        # answers must be indistinguishable from an unseeded service.
        workload = make_workload()
        with PlannerService(BASE_MACHINE, **SERVICE_OPTIONS) as plain:
            expected = plain.plan(workload, top_k=2)
        with PlannerService(BASE_MACHINE, portable_store_paths=[donor_store],
                            **SERVICE_OPTIONS) as service:
            got = service.plan(workload, top_k=2)
            assert not got.cache_hit
            assert (recommendation_tuples(got.recommendations)
                    == recommendation_tuples(expected.recommendations))

    def test_import_portable_plans_is_callable_at_runtime(self, donor_store):
        sibling = perturbed(BASE_MACHINE, flops_scale=0.5)
        with PlannerService(sibling, **SERVICE_OPTIONS) as service:
            assert service.stats().portable_seeds_loaded == 0
            imported = service.import_portable_plans(donor_store)
            assert imported >= 2
            assert service.stats().portable_seeds_loaded == imported
            response = service.plan(make_workload())
            assert not response.cache_hit
            assert service.stats().portable_seeded == 1

    def test_second_plan_for_same_signature_hits_the_local_cache(self,
                                                                 donor_store):
        sibling = perturbed(BASE_MACHINE, flops_scale=2.0)
        workload = make_workload()
        with PlannerService(sibling, portable_store_paths=[donor_store],
                            **SERVICE_OPTIONS) as service:
            assert not service.plan(workload).cache_hit
            warm = service.plan(workload)
            assert warm.cache_hit  # locally computed entries cache normally
            assert service.stats().portable_seeded == 1  # seeded only once
