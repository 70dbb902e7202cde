"""Plans never cross machines: the machine fingerprint keeps caches apart.

Every signature key embeds the fingerprint of the machine it was planned
for, so a service on another machine — a sibling with scaled hardware rates
or one with a different device count — may load a foreign plan store (the
cost-model stamp matches) but never answers from it: every answer it gives
is exactly its own cold search.  A service on the same machine warm-starts
from the store bit for bit.
"""

import dataclasses
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import Workload
from repro.planner import PlannerService, SignatureFactory, machine_fingerprint
from repro.topology.machines import uniform_system

BASE_MACHINE = uniform_system(2)
SERVICE_OPTIONS = {"replication_factors": [1]}


def make_workload(m=192, n=128, k=96):
    return Workload(f"w{m}x{n}x{k}", m, n, k)


def perturbed(machine, *, flops_scale=1.0, link_scale=1.0, hbm_scale=1.0):
    """The same machine, same name, with scaled hardware rates."""
    return dataclasses.replace(
        machine,
        flops_peak=machine.flops_peak * flops_scale,
        device_link_bandwidth=machine.device_link_bandwidth * link_scale,
        memory_bandwidth=machine.memory_bandwidth * hbm_scale)


def recommendation_tuples(recommendations):
    return [(r.scheme.name, tuple(r.replication), r.stationary,
             r.simulated_time, r.percent_of_peak) for r in recommendations]


def cold_answer(machine, workload, top_k=1):
    with PlannerService(machine, **SERVICE_OPTIONS) as service:
        return recommendation_tuples(
            service.plan(workload, top_k=top_k).recommendations)


@pytest.fixture(scope="module")
def donor_store(tmp_path_factory):
    """A plan store written on the base machine: two single-op entries."""
    path = str(tmp_path_factory.mktemp("donor") / "plans.json")
    with PlannerService(BASE_MACHINE, store_path=path,
                        **SERVICE_OPTIONS) as service:
        service.plan(make_workload(), top_k=2)
        service.plan(make_workload(320, 256, 128))
        service.save_store()
    return path


@pytest.fixture
def store_copy(donor_store, tmp_path):
    """A private copy of the donor store, so no test can rewrite it."""
    path = str(tmp_path / "plans.json")
    shutil.copyfile(donor_store, path)
    return path


class TestFingerprintSeparation:
    @pytest.mark.parametrize("scale", [{"flops_scale": 1.5},
                                       {"link_scale": 0.5},
                                       {"hbm_scale": 2.0}],
                             ids=["flops", "link", "hbm"])
    def test_a_rate_change_alone_changes_every_key(self, scale):
        sibling = perturbed(BASE_MACHINE, **scale)
        assert sibling.name == BASE_MACHINE.name
        assert machine_fingerprint(sibling) != machine_fingerprint(BASE_MACHINE)
        base = SignatureFactory(BASE_MACHINE, **SERVICE_OPTIONS)
        other = SignatureFactory(sibling, **SERVICE_OPTIONS)
        for workload in (make_workload(), make_workload(320, 256, 128)):
            assert (other.signature_for(workload).key()
                    != base.signature_for(workload).key())

    def test_an_unchanged_copy_keeps_the_fingerprint(self):
        # Stores survive restarts: an equal MachineSpec rebuilt from scratch
        # must key exactly like the original.
        assert (machine_fingerprint(perturbed(BASE_MACHINE))
                == machine_fingerprint(BASE_MACHINE))
        assert (machine_fingerprint(uniform_system(2))
                == machine_fingerprint(BASE_MACHINE))


class TestStoreIsolation:
    def test_same_machine_serves_the_store_bit_identical(self, store_copy):
        workload = make_workload()
        expected = cold_answer(BASE_MACHINE, workload, top_k=2)
        with PlannerService(BASE_MACHINE, store_path=store_copy,
                            **SERVICE_OPTIONS) as service:
            assert service.stats().warm_start_entries == 2
            response = service.plan(workload, top_k=2)
            assert response.cache_hit
            assert recommendation_tuples(response.recommendations) == expected
            assert service.stats().plans_computed == 0

    def test_sibling_loads_the_store_but_never_serves_it(self, store_copy):
        sibling = perturbed(BASE_MACHINE, flops_scale=1.5, link_scale=0.75)
        workload = make_workload()
        with PlannerService(sibling, store_path=store_copy,
                            **SERVICE_OPTIONS) as service:
            # Same cost-model build, so the entries load; their keys carry
            # the donor's machine fingerprint, so none of them ever matches.
            assert service.stats().warm_start_entries == 2
            response = service.plan(workload, top_k=2)
            assert not response.cache_hit
            assert (recommendation_tuples(response.recommendations)
                    == cold_answer(sibling, workload, top_k=2))

    def test_incompatible_fingerprints_never_leak_plans(self, store_copy):
        foreign = uniform_system(4)  # different device count
        workload = make_workload()
        with PlannerService(foreign, store_path=store_copy,
                            **SERVICE_OPTIONS) as service:
            response = service.plan(workload)
            assert not response.cache_hit
            # A genuine 4-device plan, not the donor's 2-device one replayed.
            assert (recommendation_tuples(response.recommendations)
                    == cold_answer(foreign, workload))

    def test_second_plan_for_same_signature_hits_the_local_cache(
            self, store_copy):
        sibling = perturbed(BASE_MACHINE, flops_scale=2.0)
        workload = make_workload()
        with PlannerService(sibling, store_path=store_copy,
                            **SERVICE_OPTIONS) as service:
            first = service.plan(workload)
            assert not first.cache_hit
            warm = service.plan(workload)
            assert warm.cache_hit  # locally computed entries cache normally
            assert (recommendation_tuples(warm.recommendations)
                    == recommendation_tuples(first.recommendations))
            assert service.stats().plans_computed == 1

    @given(flops=st.floats(0.25, 4.0), link=st.floats(0.25, 4.0),
           hbm=st.floats(0.5, 2.0))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sibling_answers_are_its_own_cold_search(self, donor_store,
                                                     flops, link, hbm):
        # Whatever the sibling's own cost model ranks first must be served,
        # with the donor's store loaded or not, for any rate perturbation.
        sibling = perturbed(BASE_MACHINE, flops_scale=flops, link_scale=link,
                            hbm_scale=hbm)
        workload = make_workload()
        with PlannerService(sibling, store_path=donor_store,
                            **SERVICE_OPTIONS) as service:
            response = service.plan(workload, top_k=2)
        if machine_fingerprint(sibling) != machine_fingerprint(BASE_MACHINE):
            assert not response.cache_hit
        assert (recommendation_tuples(response.recommendations)
                == cold_answer(sibling, workload, top_k=2))
