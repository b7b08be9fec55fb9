"""The keep-alive transport between ServiceClient and the server.

One persistent HTTP/1.1 connection per client thread: requests reuse
it, a connection the server dropped while idle is re-sent on a fresh
one without touching the breaker, a closed server stops answering,
and a request whose body the handler could not consume ends the
connection instead of leaving bytes to be parsed as the next request.
"""

import socket
import statistics
import threading
import time

import pytest

from repro.service import api
from repro.service.api import make_server
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore


@pytest.fixture
def server(tmp_path):
    """A live server (scheduler not started: GETs only)."""
    scheduler = CampaignScheduler(ResultStore(tmp_path))
    server = make_server(scheduler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        scheduler.stop()
        thread.join(5)
        assert not thread.is_alive()


def _connections(server) -> int:
    return server.app._connections.value


def _raw_exchange(server, data: bytes, timeout: float = 5.0) -> bytes:
    """Send ``data`` on one raw socket; everything read until EOF."""
    host, port = server.server_address[:2]
    chunks = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(data)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # the server closed with our bytes unread
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestConnectionReuse:
    def test_fifty_requests_use_one_connection(self, server):
        before = _connections(server)
        with ServiceClient(url=server.url, retries=0) as client:
            times_ms = []
            for _ in range(50):
                t0 = time.perf_counter()
                assert client.health()["status"] == "ok"
                times_ms.append((time.perf_counter() - t0) * 1e3)
        assert _connections(server) == before + 1
        # A Nagle x delayed-ACK stall costs >= 40 ms per response.
        assert statistics.median(times_ms) < 20.0, times_ms

    def test_connection_count_is_scraped(self, server):
        with ServiceClient(url=server.url) as client:
            assert client.metric("repro_service_connections_total") == 1
            assert client.metric("repro_service_connections_total") == 1

    def test_each_thread_holds_its_own_connection(self, server):
        with ServiceClient(url=server.url, retries=0) as client:
            def work():
                for _ in range(5):
                    client.health()

            threads = [threading.Thread(target=work) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not any(t.is_alive() for t in threads)
            assert _connections(server) == 3


class TestClientLifecycle:
    def test_close_releases_and_client_reconnects(self, server):
        client = ServiceClient(url=server.url, retries=0)
        client.health()
        conn, _ = client._connection()
        assert conn.sock is not None
        client.close()
        assert conn.sock is None
        assert client.health()["status"] == "ok"  # reconnects
        assert _connections(server) == 2
        client.close()

    def test_context_manager_closes(self, server):
        with ServiceClient(url=server.url) as client:
            client.health()
            conn, _ = client._connection()
        assert conn.sock is None


class TestClosedServer:
    def test_closed_server_stops_answering(self, tmp_path):
        scheduler = CampaignScheduler(ResultStore(tmp_path))
        server = make_server(scheduler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(url=server.url, retries=0, timeout=5)
        try:
            assert client.health()["status"] == "ok"  # connection open
            server.shutdown()
            server.server_close()
            thread.join(5)
            with pytest.raises(ServiceUnavailable):
                client.health()
        finally:
            client.close()
            scheduler.stop()


class TestStaleConnection:
    def test_idle_dropped_connection_is_resent(self, server, monkeypatch):
        monkeypatch.setattr(api._Handler, "timeout", 0.2)
        client = ServiceClient(url=server.url, retries=0, timeout=5)
        failures = []
        monkeypatch.setattr(
            client.breaker, "record_failure", lambda: failures.append(1)
        )
        try:
            assert client.health()["status"] == "ok"
            time.sleep(0.6)  # the server drops the idle connection
            # retries=0: only the stale-connection re-send can succeed.
            assert client.health()["status"] == "ok"
        finally:
            client.close()
        assert failures == []
        assert client.breaker.failures == 0
        assert _connections(server) == 2


class TestHandlerHygiene:
    def test_unparseable_content_length_closes(self, server):
        answer = _raw_exchange(
            server,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: x\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert answer.startswith(b"HTTP/1.1 400"), answer
        assert answer.count(b"HTTP/1.1 ") == 1, answer
        assert b"Connection: close" in answer

    def test_negative_content_length_closes(self, server):
        answer = _raw_exchange(
            server,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert answer.startswith(b"HTTP/1.1 400"), answer
        assert answer.count(b"HTTP/1.1 ") == 1, answer

    def test_get_with_a_body_closes(self, server):
        answer = _raw_exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 34\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert answer.startswith(b"HTTP/1.1 200"), answer
        assert answer.count(b"HTTP/1.1 ") == 1, answer

    def test_unhandled_error_closes(self, server, monkeypatch):
        def boom(path):
            raise RuntimeError("boom")

        monkeypatch.setattr(server.app, "handle_get", boom)
        answer = _raw_exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert answer.startswith(b"HTTP/1.1 500"), answer
        assert answer.count(b"HTTP/1.1 ") == 1, answer

    def test_well_formed_requests_share_a_socket(self, server):
        answer = _raw_exchange(
            server,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n[]"
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        assert answer.startswith(b"HTTP/1.1 400"), answer  # not an object
        assert answer.count(b"HTTP/1.1 ") == 2, answer
