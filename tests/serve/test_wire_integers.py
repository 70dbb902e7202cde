"""Worker request dispatch: wire integers are read strictly, never coerced."""

import pytest

from repro.bench.workloads import Workload, block_sparse_workload, moe_workload
from repro.core.graph import GraphOp, matmul_chain
from repro.planner import PlannerService
from repro.serve import protocol
from repro.serve.protocol import recommendation_to_dict
from repro.serve.server import _dispatch
from repro.topology.machines import uniform_system

MACHINE = uniform_system(2)
SERVICE_OPTIONS = {"replication_factors": [1]}
WORKLOAD = Workload("w", 96, 80, 64)


@pytest.fixture
def service():
    with PlannerService(MACHINE, **SERVICE_OPTIONS) as planner:
        yield planner


def dispatch(service, message):
    """The worker's decoded reply to ``message``."""
    (reply,) = protocol.FrameDecoder().feed(_dispatch(0, service, message))
    return reply


def expected_recommendations(top_k):
    with PlannerService(MACHINE, **SERVICE_OPTIONS) as reference:
        response = reference.plan(WORKLOAD, top_k=top_k)
    return [recommendation_to_dict(r) for r in response.recommendations]


@pytest.mark.parametrize("field", ["top_k", "m"])
@pytest.mark.parametrize("value", [2.7, "3", True])
def test_non_integer_plan_field_is_a_typed_error(service, field, value):
    message = protocol.plan_request(WORKLOAD, top_k=2)
    if field == "top_k":
        message["top_k"] = value
    else:
        message["workload"]["m"] = value
    reply = dispatch(service, message)
    assert reply["ok"] is False
    assert reply["error"]["type"] == "PayloadError"
    assert field in reply["error"]["message"]
    assert service.stats().plans_computed == 0

    good = dispatch(service, protocol.plan_request(WORKLOAD, top_k=2))
    assert good["ok"] is True
    assert good["result"]["recommendations"] == expected_recommendations(2)


@pytest.mark.parametrize("place", ["lattice_size", "op", "edge"])
def test_non_integer_graph_field_is_a_typed_error(service, place):
    graph = matmul_chain("g", (GraphOp("g1", 96, 80, 64),
                               GraphOp("g2", 96, 64, 80)))
    message = protocol.plan_graph_request(graph, lattice_size=2)
    if place == "lattice_size":
        message["lattice_size"] = 2.7
    elif place == "op":
        message["graph"]["ops"][0]["n"] = "80"
    else:
        message["graph"]["edges"][0]["dst"] = True
    reply = dispatch(service, message)
    assert reply["ok"] is False
    assert reply["error"]["type"] == "PayloadError"
    assert service.stats().plans_computed == 0


@pytest.mark.parametrize("workload,field", [
    (moe_workload(4, 32, 80, 64, expert_tokens=[8, 4, 12, 8]), "capacity"),
    (block_sparse_workload(96, 128, 128, block_k=64, block_n=64, density=0.5),
     "block_k"),
    (moe_workload(4, 32, 80, 64, expert_tokens=[8, 4, 12, 8]), "expert_tokens"),
])
def test_non_integer_structure_field_is_a_typed_error(service, workload, field):
    message = protocol.plan_request(workload)
    structure = message["workload"]["structure"]
    if field == "expert_tokens":
        structure[field][1] = 2.7
    else:
        structure[field] = 2.7
    reply = dispatch(service, message)
    assert reply["ok"] is False
    assert reply["error"]["type"] == "PayloadError"
    assert field in reply["error"]["message"]
