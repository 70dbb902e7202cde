"""PlanClient's ``timeout``: kernel socket timeouts on a blocking socket.

A connection blocks, and ``SO_RCVTIMEO``/``SO_SNDTIMEO`` bound each call,
so a round trip is one ``sendall`` and one ``recv`` with no ``poll`` beside
them (CPython polls only sockets that carry a Python-level timeout).
"""

import os
import socket
import struct
import tempfile
import threading
import time
import types

import pytest

from repro.bench.workloads import Workload
from repro.serve import PlanClient, PlanServer
from repro.serve import client as client_module
from repro.topology.machines import uniform_system

WORKLOAD = Workload("w", 96, 80, 64)


class SilentPeer:
    """Accepts connections and holds them open; never reads or writes."""

    def __init__(self, family):
        self.listener = socket.socket(family, socket.SOCK_STREAM)
        if family == socket.AF_UNIX:
            self._dir = tempfile.TemporaryDirectory()
            self.listener.bind(os.path.join(self._dir.name, "silent.sock"))
            self.address = self.listener.getsockname()
        else:
            self._dir = None
            self.listener.bind(("127.0.0.1", 0))
            self.address = self.listener.getsockname()[:2]
        self.listener.listen(8)
        self.held = []
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.held.append(conn)

    def close(self):
        try:
            self.listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.listener.close()
        self.thread.join(timeout=5)
        for conn in self.held:
            conn.close()
        if self._dir is not None:
            self._dir.cleanup()


@pytest.fixture(params=[socket.AF_UNIX, socket.AF_INET], ids=["unix", "tcp"])
def silent_peer(request):
    peer = SilentPeer(request.param)
    yield peer
    peer.close()
    assert not peer.thread.is_alive()


def timed_failure(call):
    """Run ``call`` in a thread: the error it raised and how long it took.

    Fails, instead of hanging, when the call is still blocked after 5 s.
    """
    outcome = {}

    def run():
        started = time.monotonic()
        try:
            call()
        except Exception as error:  # noqa: BLE001 - returned to the test
            outcome["error"] = error
        outcome["seconds"] = time.monotonic() - started

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive(), "the call never timed out"
    return outcome.get("error"), outcome["seconds"]


def test_unanswered_request_times_out(silent_peer):
    with PlanClient(silent_peer.address, timeout=0.2, retries=0) as client:
        error, seconds = timed_failure(lambda: client.plan(WORKLOAD))
    assert isinstance(error, ConnectionError)
    assert 0.15 <= seconds < 1.0


def test_unread_request_bounds_sendall(silent_peer):
    """A frame far larger than both socket buffers, to a peer that never
    reads: ``sendall`` stops at the send timeout instead of blocking."""
    huge = Workload("x" * (32 << 20), 96, 80, 64)
    with PlanClient(silent_peer.address, timeout=0.2, retries=0) as client:
        error, seconds = timed_failure(lambda: client.plan(huge))
    assert isinstance(error, ConnectionError)
    assert seconds < 1.5


@pytest.mark.parametrize("timeout", [0, -1.0])
def test_timeout_must_be_positive(timeout):
    with pytest.raises(ValueError):
        PlanClient("/nonexistent.sock", timeout=timeout)


class CountingSocket(socket.socket):
    """A socket that counts its send/receive calls."""

    calls = []

    def sendall(self, *args):
        CountingSocket.calls.append("sendall")
        return super().sendall(*args)

    def send(self, *args):
        CountingSocket.calls.append("send")
        return super().send(*args)

    def recv(self, *args):
        CountingSocket.calls.append("recv")
        return super().recv(*args)

    def recv_into(self, *args):
        CountingSocket.calls.append("recv_into")
        return super().recv_into(*args)


def test_a_round_trip_is_one_sendall_and_one_recv(monkeypatch):
    with PlanServer(uniform_system(2), num_workers=1,
                    service_options={"replication_factors": [1]}) as server:
        patched = types.SimpleNamespace(**vars(socket))
        patched.socket = CountingSocket
        monkeypatch.setattr(client_module, "socket", patched)
        with PlanClient(server.address, timeout=0.5) as client:
            client.plan(WORKLOAD)  # the miss: the worker plans it
            (sock,) = list(client._pool.queue)
            assert isinstance(sock, CountingSocket)
            assert sock.gettimeout() is None  # blocking: CPython adds no poll
            seconds, micros = struct.unpack(
                "@ll", sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, 16))
            assert seconds + micros / 1e6 == pytest.approx(0.5, abs=0.01)
            CountingSocket.calls.clear()
            for _ in range(5):
                assert client.plan(WORKLOAD).cache_hit
            assert CountingSocket.calls == ["sendall", "recv"] * 5
