"""A worker's spliced plan reply equals the encoded payload, byte for byte.

:func:`repro.serve.protocol.reply_frame` writes a plan reply from the served
entry's cached bytes plus the per-request fields; the reference is
``encode_frame(ok_response(plan_response_payload(...)))`` (or the graph
payload), which the benchmark's codec replay and every client read.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import Workload
from repro.core.graph import GraphOp, matmul_chain
from repro.planner import PlannerService
from repro.serve import protocol
from repro.serve.protocol import (
    encode_frame,
    graph_plan_response_payload,
    ok_response,
    plan_response_payload,
    reply_frame,
)
from repro.topology.machines import uniform_system

WORKLOAD = Workload("w", 96, 80, 64)
GRAPH = matmul_chain("g", (GraphOp("g1", 96, 80, 64), GraphOp("g2", 96, 64, 80)))
KINDS = {"plan": plan_response_payload, "graph": graph_plan_response_payload}
EDGE_FLOATS = [0.0, 1e-05, 6.8e-05, 1e16]


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def serve(service, kind):
    if kind == "plan":
        return service.plan(WORKLOAD, top_k=3)
    return service.plan_graph(GRAPH, lattice_size=2)


@pytest.fixture(scope="module")
def responses():
    """A miss, a hit and a stale hit of each kind, from one service."""
    clock = FakeClock()
    with PlannerService(uniform_system(2), replication_factors=[1, 2],
                        cache_ttl_seconds=10.0, cache_grace_seconds=100.0,
                        clock=clock) as service:
        out = {}
        for kind in KINDS:
            out[kind, "miss"] = serve(service, kind)
            clock.now += 1.0
            out[kind, "hit"] = serve(service, kind)
        clock.now += 20.0
        for kind in KINDS:
            out[kind, "stale"] = serve(service, kind)
    return out


def reference(kind, response, *args, **kwargs):
    return encode_frame(ok_response(KINDS[kind](response, *args, **kwargs)))


def test_served_outcomes(responses):
    for kind in KINDS:
        miss, hit, stale = (responses[kind, outcome] for outcome in ("miss", "hit", "stale"))
        assert not miss.cache_hit and miss.search_stats is not None
        assert hit.cache_hit and not hit.stale and hit.plan_age == 1.0
        assert stale.cache_hit and stale.stale
        assert miss.entry is hit.entry is stale.entry


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("outcome", ["miss", "hit", "stale"])
@pytest.mark.parametrize("traced", [False, True])
def test_frame_equals_encoded_payload(responses, kind, outcome, traced):
    response = responses[kind, outcome]
    spans = [{"name": "worker.plan", "trace_id": "ab" * 8, "start": 1.5}] if traced else None
    trace_id = "ab" * 8 if traced else None
    for generation in (0, 3):
        for value in EDGE_FLOATS:
            served = replace(response, planning_time=value, plan_age=value)
            assert (reply_frame(served, 1, 4242, trace_id=trace_id,
                                spans=spans, generation=generation)
                    == reference(kind, served, 1, 4242, trace_id=trace_id,
                                 spans=spans, generation=generation))


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=8))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(KINDS)),
       outcome=st.sampled_from(["miss", "hit", "stale"]),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       planning_time=st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
       plan_age=st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
       worker=st.integers(0, 64), pid=st.integers(1, 2 ** 22),
       generation=st.integers(0, 10 ** 6),
       trace_id=st.one_of(st.none(), st.text(max_size=20)),
       spans=st.one_of(st.none(), st.lists(
           st.dictionaries(st.text(max_size=6), JSON_SCALARS, max_size=4), max_size=3)))
def test_frame_equals_encoded_payload_property(responses, kind, outcome, flags,
                                               planning_time, plan_age, worker, pid,
                                               generation, trace_id, spans):
    cache_hit, coalesced, stale = flags
    served = replace(responses[kind, outcome], cache_hit=cache_hit, coalesced=coalesced,
                     stale=stale, planning_time=planning_time, plan_age=plan_age)
    args = (served, worker, pid)
    kwargs = dict(trace_id=trace_id, spans=spans, generation=generation)
    assert reply_frame(*args, **kwargs) == reference(kind, *args, **kwargs)


@pytest.mark.parametrize("kind", list(KINDS))
def test_second_serve_reuses_the_memo(kind, monkeypatch):
    with PlannerService(uniform_system(2), replication_factors=[1]) as service:
        first = serve(service, kind)
        assert first.entry.wire_parts is None  # in-process answers encode nothing
        reply_frame(first, 0, 1)
        parts = first.entry.wire_parts
        assert parts is not None
        hit = serve(service, kind)
        assert hit.entry is first.entry
        encoded = []
        monkeypatch.setattr(protocol, "recommendation_to_dict",
                            lambda rec: encoded.append(rec) or {})
        frame = reply_frame(hit, 0, 1)
        monkeypatch.undo()
        assert hit.entry.wire_parts is parts and encoded == []
        assert frame == reference(kind, hit, 0, 1)


def test_a_refreshed_entry_starts_without_a_memo():
    with PlannerService(uniform_system(2), replication_factors=[1]) as service:
        first = service.plan(WORKLOAD, top_k=3)
        reply_frame(first, 0, 1)
        assert service.refresh(first.signature, top_k=3)
        again = service.plan(WORKLOAD, top_k=3)
        assert again.cache_hit and again.entry is not first.entry
        assert again.entry.wire_parts is None
        assert reply_frame(again, 0, 1) == reference("plan", again, 0, 1)
