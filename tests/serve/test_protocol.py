"""Unit tests for the length-prefixed JSON wire protocol."""

import socket
import threading

import pytest

from repro.bench.workloads import Workload, block_sparse_workload
from repro.serve import protocol
from repro.serve.protocol import (
    HEADER,
    MAX_MESSAGE_BYTES,
    FrameDecoder,
    ProtocolError,
    RemotePlanResponse,
    encode_frame,
    error_response,
    ok_response,
    plan_request,
    recv_message,
    send_message,
)


class TestFraming:
    def test_encode_frame_layout(self):
        frame = encode_frame({"op": "ping"})
        (length,) = HEADER.unpack(frame[:HEADER.size])
        assert length == len(frame) - HEADER.size

    def test_socketpair_roundtrip(self):
        left, right = socket.socketpair()
        try:
            send_message(left, {"op": "ping", "n": 42})
            assert recv_message(right) == {"op": "ping", "n": 42}
        finally:
            left.close()
            right.close()

    def test_recv_returns_none_on_clean_eof(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_message(right) is None
        finally:
            right.close()

    def test_recv_raises_on_mid_frame_disconnect(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame({"op": "ping"})
            left.sendall(frame[:-2])  # truncate the body
            left.close()
            with pytest.raises(ProtocolError):
                recv_message(right)
        finally:
            right.close()

    def test_recv_rejects_oversized_length(self):
        left, right = socket.socketpair()
        try:
            left.sendall(HEADER.pack(MAX_MESSAGE_BYTES + 1))
            with pytest.raises(ProtocolError):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_recv_rejects_non_object_body(self):
        left, right = socket.socketpair()
        try:
            body = b"[1,2,3]"
            left.sendall(HEADER.pack(len(body)) + body)
            with pytest.raises(ProtocolError):
                recv_message(right)
        finally:
            left.close()
            right.close()


    def test_recv_rejects_bytes_past_its_frame(self):
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame({"a": 1}) + encode_frame({"b": 2}))
            with pytest.raises(ProtocolError):
                recv_message(right)
        finally:
            left.close()
            right.close()


class TestBlockingRead:
    def test_pipelined_frames_come_out_one_at_a_time(self):
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame({"a": 1}) + encode_frame({"b": 2}))
            left.close()
            reader = FrameDecoder()
            assert reader.read(right) == {"a": 1}
            assert reader.read(right) == {"b": 2}
            assert reader.read(right) is None
        finally:
            right.close()

    def test_a_frame_longer_than_one_recv_is_assembled(self):
        big = {"blob": "x" * (3 * protocol.READ_SIZE)}
        left, right = socket.socketpair()
        try:
            sender = threading.Thread(target=left.sendall, args=(encode_frame(big),))
            sender.start()
            assert FrameDecoder().read(right) == big
            sender.join(timeout=10)
            assert not sender.is_alive()
        finally:
            left.close()
            right.close()


class TestFrameDecoder:
    def test_byte_at_a_time_reassembly(self):
        frames = encode_frame({"a": 1}) + encode_frame({"b": [2, 3]})
        decoder = FrameDecoder()
        seen = []
        for i in range(len(frames)):
            seen.extend(decoder.feed(frames[i:i + 1]))
        assert seen == [{"a": 1}, {"b": [2, 3]}]
        assert decoder.pending_bytes == 0

    def test_multiple_messages_in_one_feed(self):
        frames = encode_frame({"a": 1}) + encode_frame({"b": 2})
        assert FrameDecoder().feed(frames) == [{"a": 1}, {"b": 2}]

    def test_partial_frame_stays_buffered(self):
        frame = encode_frame({"op": "stats"})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:3]) == []
        assert decoder.pending_bytes == 3
        assert decoder.feed(frame[3:]) == [{"op": "stats"}]

    def test_oversized_header_raises(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(HEADER.pack(MAX_MESSAGE_BYTES + 1))

    def test_bad_json_raises(self):
        body = b"{nope"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(HEADER.pack(len(body)) + body)


class TestRequests:
    def test_plan_request_roundtrips_dense_workload(self):
        workload = Workload("w", 96, 80, 64)
        request = plan_request(workload, top_k=3)
        assert request["op"] == "plan" and request["top_k"] == 3
        assert Workload.from_dict(request["workload"]) == workload

    def test_plan_request_carries_structure(self):
        workload = block_sparse_workload(256, 256, 256, density=0.25, seed=7)
        request = plan_request(workload)
        restored = Workload.from_dict(request["workload"])
        assert restored.structure == workload.structure

    def test_ok_and_error_responses(self):
        assert ok_response({"x": 1}) == {"ok": True, "result": {"x": 1}}
        wrapped = error_response(ValueError("bad shape"))
        assert wrapped["ok"] is False
        assert wrapped["error"] == {"type": "ValueError", "message": "bad shape"}


class TestPlanResponsePayload:
    def _served_response(self):
        from repro.planner import PlannerService
        from repro.topology.machines import uniform_system

        with PlannerService(uniform_system(2), replication_factors=[1]) as service:
            return service.plan(Workload("w", 96, 80, 64))

    def test_roundtrip_preserves_recommendations_and_flags(self):
        response = self._served_response()
        payload = protocol.plan_response_payload(response, worker=3, pid=1234)
        remote = RemotePlanResponse.from_dict(payload)
        assert remote.worker == 3 and remote.pid == 1234
        assert remote.cache_hit == response.cache_hit
        assert remote.signature_key == response.signature.key()
        assert remote.num_simulated == response.search_stats.num_simulated
        best, reference = remote.recommendation, response.recommendation
        assert best.scheme.name == reference.scheme.name
        assert best.replication == reference.replication
        assert best.stationary == reference.stationary
        assert best.simulated_time == reference.simulated_time

    def test_wire_payload_is_json_safe(self):
        import json

        response = self._served_response()
        payload = protocol.plan_response_payload(response, worker=0, pid=1)
        assert RemotePlanResponse.from_dict(json.loads(json.dumps(payload)))


class TestProtocolVersion11:
    """Additive 1.1 fields: trace context, metrics op, plan_age/trace_id/spans."""

    def test_version_is_at_least_1_1(self):
        assert protocol.PROTOCOL_VERSION >= (1, 1)

    def test_untraced_plan_request_is_wire_identical_to_1_0(self):
        workload = Workload("w", 96, 80, 64)
        request = plan_request(workload)
        assert "trace" not in request  # old servers never see the new key

    def test_trace_context_travels_when_given(self):
        workload = Workload("w", 96, 80, 64)
        trace = {"trace_id": "t" * 16, "parent_span_id": "p" * 16}
        request = plan_request(workload, trace=trace)
        assert request["trace"] == trace

    def test_metrics_request_shape(self):
        assert protocol.metrics_request() == {"op": "metrics"}

    def test_response_telemetry_fields_roundtrip(self):
        from repro.planner import PlannerService
        from repro.topology.machines import uniform_system

        with PlannerService(uniform_system(2), replication_factors=[1]) as service:
            response = service.plan(Workload("w", 96, 80, 64))
        spans = [{"name": "worker.plan", "trace_id": "abc", "span_id": "s",
                  "parent_id": None, "start": 1.0, "duration": 0.1,
                  "attributes": {}, "pid": 7, "role": "worker-0"}]
        payload = protocol.plan_response_payload(response, worker=0, pid=7,
                                                 trace_id="abc", spans=spans)
        remote = RemotePlanResponse.from_dict(payload)
        assert remote.trace_id == "abc"
        assert remote.spans == spans
        assert remote.plan_age == response.plan_age

    def test_reply_missing_a_required_field_is_rejected(self):
        from repro.planner import PlannerService
        from repro.topology.machines import uniform_system

        with PlannerService(uniform_system(2), replication_factors=[1]) as service:
            response = service.plan(Workload("w", 96, 80, 64))
        payload = protocol.plan_response_payload(response, worker=0, pid=7)
        # Only the tracing fields are optional: an untraced reply parses.
        assert "trace_id" not in payload and "spans" not in payload
        remote = RemotePlanResponse.from_dict(payload)
        assert remote.trace_id is None and remote.spans == []
        for key in payload:
            partial = {k: v for k, v in payload.items() if k != key}
            with pytest.raises(protocol.ProtocolError, match="RemotePlanResponse"):
                RemotePlanResponse.from_dict(partial)


class TestProtocolVersion13:
    """Additive 1.3 op: joint graph planning over the same wire."""

    def _served_graph_response(self):
        from repro.core.graph import mlp_chain
        from repro.planner import PlannerService
        from repro.topology.machines import uniform_system

        graph = mlp_chain(96, 64)
        with PlannerService(uniform_system(2), replication_factors=[1]) as service:
            return graph, service.plan_graph(graph)

    def test_version_is_at_least_1_3(self):
        assert protocol.PROTOCOL_VERSION >= (1, 3)

    def test_plan_graph_request_shape(self):
        from repro.core.graph import OpGraph, mlp_chain

        graph = mlp_chain(96, 64)
        request = protocol.plan_graph_request(graph, lattice_size=6)
        assert request["op"] == "plan_graph" and request["lattice_size"] == 6
        assert OpGraph.from_dict(request["graph"]) == graph
        assert "trace" not in request  # untraced requests stay 1.3-minimal
        traced = protocol.plan_graph_request(graph, trace={"trace_id": "t"})
        assert traced["trace"] == {"trace_id": "t"}

    def test_graph_response_payload_roundtrip(self):
        import json

        from repro.serve.protocol import RemoteGraphPlanResponse

        graph, response = self._served_graph_response()
        payload = protocol.graph_plan_response_payload(response, worker=2,
                                                       pid=77)
        remote = RemoteGraphPlanResponse.from_dict(json.loads(json.dumps(payload)))
        assert remote.worker == 2 and remote.pid == 77
        assert remote.signature_key == response.signature.key()
        assert tuple(remote.assignment) == response.assignment
        assert remote.makespan == response.makespan
        assert remote.greedy_makespan == response.greedy_makespan
        assert remote.method == response.method
        assert remote.cache_hit == response.cache_hit
        assert len(remote.recommendations) == len(graph.ops)
        for wire, local in zip(remote.recommendations, response.recommendations):
            assert wire.scheme.name == local.scheme.name
            assert wire.simulated_time == local.simulated_time

    def test_graph_reply_missing_a_field_is_rejected(self):
        from repro.serve.protocol import RemoteGraphPlanResponse

        _, response = self._served_graph_response()
        payload = protocol.graph_plan_response_payload(response, worker=0, pid=1)
        for key in payload:
            partial = {k: v for k, v in payload.items() if k != key}
            with pytest.raises(protocol.ProtocolError,
                               match="RemoteGraphPlanResponse"):
                RemoteGraphPlanResponse.from_dict(partial)


class TestProtocolVersion15:
    """1.5: the ``stats`` reply's service counters lost the seed counters."""

    def test_version_is_at_least_1_5(self):
        assert protocol.PROTOCOL_VERSION >= (1, 5)

    @pytest.mark.parametrize("field", ["portable_seeds_loaded",
                                       "portable_seeded"])
    def test_a_1_4_stats_reply_is_rejected_by_name(self, field):
        # A 1.4 worker still sends the two counters; a 1.5 client names the
        # field it cannot place instead of silently dropping it.
        from repro.planner.cache import CacheStats
        from repro.planner.service import ServiceStats
        from repro.serve.stats import WorkerStats

        payload = WorkerStats(worker=0, pid=1, service=ServiceStats(),
                              cache=CacheStats()).to_dict()
        assert field not in payload["service"]
        payload["service"][field] = 0
        with pytest.raises(ProtocolError, match=field):
            WorkerStats.from_dict(payload)
