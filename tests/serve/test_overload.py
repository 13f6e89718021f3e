"""Overload resilience of the serve daemon (docs/serving.md): per-request
deadlines, admission control with fast shedding, the ``health`` probe,
client-side bounded retries, and HTTP truncated-body handling — the daemon
answers *something* to every request, never hangs a worker."""

import json
import socket as socketlib
import time
from concurrent.futures import Future

import pytest

from repro.core.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ServeError,
)
from repro.serve.client import ServeClient
from repro.serve.registry import ArtifactRegistry, artifact_key
from repro.serve.server import ReproServer
from repro.tensor.operation import GemmSpec

SPACE = 16  # tiny design-space cap keeps sweeps fast

PROBLEM = {"m": 128, "n": 128, "k": 128}


def offline_server() -> ReproServer:
    """A server whose ``handle`` is driven directly — no listeners, no
    worker threads — for transport-independent envelope semantics."""
    return ReproServer(port=0, default_space=SPACE)


def _poll(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# --------------------------------------------------------------- deadlines
class TestDeadlines:
    def test_budget_left_proceeds(self):
        server = offline_server()
        response = server.handle({"op": "ping", "id": "a", "deadline_s": 30.0})
        assert response["ok"]

    def test_expired_in_queue_rejected_before_any_work(self):
        """A request whose queue wait already consumed its budget is
        answered with a DeadlineExceededError envelope, not dispatched."""
        server = offline_server()
        response = server.handle(
            {"op": "tune", "params": dict(PROBLEM), "id": "q", "deadline_s": 0.05},
            queue_wait_s=1.0,
        )
        assert not response["ok"]
        err = response["error"]
        assert err["type"] == "DeadlineExceededError"
        assert err["stage"] == "deadline"
        assert "queued" in err["message"]
        assert server.counters["deadline_exceeded"] == 1
        assert server._stats["tune"].deadline_exceeded == 1
        # No sweep ran: the rejection happened before dispatch.
        assert server.counters["sweeps_run"] == 0

    def test_deadline_aborts_inflight_sweep(self):
        """A budget too small for the sweep aborts it mid-flight with the
        same envelope; a retry without a deadline then completes."""
        server = offline_server()
        response = server.handle(
            {"op": "tune", "params": dict(PROBLEM), "id": "d", "deadline_s": 0.001}
        )
        assert not response["ok"]
        assert response["error"]["type"] == "DeadlineExceededError"
        assert server.counters["deadline_exceeded"] == 1

        retry = server.handle({"op": "tune", "params": dict(PROBLEM), "id": "r"})
        assert retry["ok"]
        assert retry["result"]["served_from"] == "fresh"

    def test_waiter_deadline_on_anothers_inflight_solve(self):
        """A deduped waiter stops caring when its own budget runs out, even
        though the owner's solve keeps running."""
        server = offline_server()
        spec = GemmSpec("serve", 1, PROBLEM["m"], PROBLEM["n"], PROBLEM["k"])
        key = artifact_key(server.gpu, spec, "alcop", SPACE)
        server._inflight[key] = Future()  # an owner that never finishes
        t0 = time.monotonic()
        response = server.handle(
            {"op": "tune", "params": dict(PROBLEM), "id": "w", "deadline_s": 0.2}
        )
        assert not response["ok"]
        assert response["error"]["type"] == "DeadlineExceededError"
        assert "in-flight" in response["error"]["message"]
        assert time.monotonic() - t0 < 5.0  # bounded by the budget, not a hang

    def test_invalid_deadline_is_a_protocol_error(self):
        server = offline_server()
        for bad in (-1, 0, True, "soon"):
            response = server.handle({"op": "ping", "id": "x", "deadline_s": bad})
            assert not response["ok"]
            assert response["error"]["type"] == "ProtocolError"
        assert server.counters["deadline_exceeded"] == 0


# ------------------------------------------------------- admission control
class TestAdmissionControl:
    @pytest.fixture
    def tiny_server(self, tmp_path):
        """One worker, a two-deep queue: trivially drivable into overload."""
        server = ReproServer(
            socket_path=str(tmp_path / "tiny.sock"),
            registry=ArtifactRegistry(tmp_path / "reg"),
            workers=1,
            max_queue=2,
            default_space=SPACE,
        )
        server.start()
        try:
            yield server
        finally:
            server.stop()
            server.shutdown(timeout=10)

    def _pin(self, server, n):
        """Open ``n`` raw keep-alive connections that send nothing: each
        either parks a worker in readline() or sits in the queue."""
        conns = []
        for _ in range(n):
            sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            sock.connect(server.socket_path)
            conns.append(sock)
        return conns

    def _saturate(self, server):
        """Park every worker on an idle connection first, *then* fill the
        queue to its bound — two steps, or a pinned connection races the
        worker's dequeue and gets shed instead of queued."""
        pinned = self._pin(server, server.workers)
        assert _poll(
            lambda: len(server._open_conns) == server.workers
            and server._conn_queue.qsize() == 0
        ), "workers never parked on the idle connections"
        queued = self._pin(server, server.max_queue)
        assert _poll(
            lambda: server._conn_queue.qsize() >= server.max_queue
        ), "queue never filled"
        return pinned + queued

    def test_full_queue_sheds_with_retry_hint(self, tiny_server):
        client = ServeClient(socket_path=tiny_server.socket_path, timeout=10)
        assert client.wait_until_ready(timeout=10)
        conns = self._saturate(tiny_server)
        try:
            with pytest.raises(OverloadedError) as exc_info:
                client.ping()
            e = exc_info.value
            assert e.retry_after_s is not None and e.retry_after_s > 0
            assert tiny_server.counters["requests_shed"] >= 1
            admission = tiny_server._stats["admission"]
            assert admission.shed >= 1
            assert admission.requests >= 1 and admission.errors >= 1
            # Shedding is visible in the health payload too.
            health = tiny_server.handle({"op": "health", "id": "h"})
            assert health["result"]["state"] == "overloaded"
            assert health["result"]["shed"] >= 1
        finally:
            for sock in conns:
                sock.close()
        # The pinned connections are gone: the daemon recovers on its own.
        assert _poll(lambda: tiny_server._conn_queue.qsize() == 0)
        assert client.ping()["session"] == tiny_server.session_id

    def test_shed_envelope_is_fast_not_a_hang(self, tiny_server):
        """A shed client gets its answer in milliseconds — admission
        control must answer long before any timeout could."""
        conns = self._saturate(tiny_server)
        try:
            client = ServeClient(socket_path=tiny_server.socket_path, timeout=30)
            t0 = time.monotonic()
            with pytest.raises(OverloadedError):
                client.ping()
            assert time.monotonic() - t0 < 5.0
        finally:
            for sock in conns:
                sock.close()

    def test_client_retries_ride_out_the_overload(self, tiny_server):
        """With retries enabled the client absorbs the shed envelope,
        backs off by the server's hint, and succeeds once the pinned
        connections drain."""
        conns = self._saturate(tiny_server)
        import threading

        def free():
            time.sleep(0.3)
            for sock in conns:
                sock.close()

        releaser = threading.Thread(target=free)
        releaser.start()
        try:
            client = ServeClient(
                socket_path=tiny_server.socket_path, timeout=10,
                retries=20, backoff_s=0.05, max_backoff_s=0.25,
            )
            assert client.ping()["session"] == tiny_server.session_id
        finally:
            releaser.join()
        assert tiny_server.counters["requests_shed"] >= 1


# ------------------------------------------------------------- the health op
class TestHealthOp:
    def test_ready_when_idle(self):
        server = offline_server()
        response = server.handle({"op": "health", "id": "h"})
        assert response["ok"]
        result = response["result"]
        assert result["state"] == "ready"
        assert result["queue_depth"] == 0
        assert result["max_queue"] == server.max_queue
        assert result["shed"] == 0 and result["deadline_exceeded"] == 0

    def test_overloaded_when_queue_half_full(self):
        server = ReproServer(port=0, default_space=SPACE, max_queue=4)
        # Not started: nothing drains what we park in the queue.
        server._conn_queue.put_nowait(("jsonl", None, time.monotonic()))
        assert server.handle({"op": "health", "id": "h"})["result"]["state"] == "ready"
        server._conn_queue.put_nowait(("jsonl", None, time.monotonic()))
        assert (
            server.handle({"op": "health", "id": "h"})["result"]["state"]
            == "overloaded"
        )

    def test_draining_once_stop_is_signalled(self):
        server = offline_server()
        server._stop_event.set()
        assert (
            server.handle({"op": "health", "id": "h"})["result"]["state"]
            == "draining"
        )

    def test_client_health_helper(self, tmp_path):
        server = ReproServer(
            socket_path=str(tmp_path / "h.sock"), default_space=SPACE
        )
        server.start()
        try:
            client = ServeClient(socket_path=server.socket_path, timeout=10)
            assert client.wait_until_ready(timeout=10)
            health = client.health()
            assert health["state"] == "ready"
            assert health["workers"] == server.workers
        finally:
            server.stop()
            server.shutdown(timeout=10)


# --------------------------------------------------------- client-side retry
class _Flaky:
    """Scripted ``_request_once`` stand-in: raise each exception in turn,
    then answer."""

    def __init__(self, failures):
        self.failures = list(failures)
        self.calls = 0

    def __call__(self, op, params):
        self.calls += 1
        if self.failures:
            raise self.failures.pop(0)
        return {"answered": self.calls}


def _transient(message="connection reset"):
    err = ServeError(message)
    err.transient = True
    return err


class TestClientRetries:
    @pytest.fixture
    def sleeps(self, monkeypatch):
        """Capture backoff sleeps instead of serving them."""
        recorded = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", lambda s: recorded.append(s)
        )
        return recorded

    def _client(self, **kwargs):
        return ServeClient(socket_path="/nonexistent.sock", **kwargs)

    def test_transient_failures_retry_until_success(self, sleeps):
        client = self._client(retries=3, backoff_s=0.1)
        flaky = _Flaky([_transient(), _transient()])
        client._request_once = flaky
        assert client.request("ping") == {"answered": 3}
        assert flaky.calls == 3
        assert len(sleeps) == 2
        assert all(s > 0 for s in sleeps)

    def test_retries_exhausted_reraises(self, sleeps):
        client = self._client(retries=2, backoff_s=0.01)
        client._request_once = _Flaky([_transient()] * 5)
        with pytest.raises(ServeError):
            client.request("ping")

    def test_overloaded_honours_server_retry_hint(self, sleeps):
        client = self._client(retries=1, backoff_s=60.0)
        client._request_once = _Flaky(
            [OverloadedError("shed", retry_after_s=0.123)]
        )
        assert client.request("ping")["answered"] == 2
        assert sleeps == [0.123]

    def test_no_retry_on_protocol_or_deadline_errors(self, sleeps):
        for exc in (ProtocolError("bad request"), DeadlineExceededError("late")):
            client = self._client(retries=5)
            flaky = _Flaky([exc])
            client._request_once = flaky
            with pytest.raises(type(exc)):
                client.request("ping")
            assert flaky.calls == 1
        assert sleeps == []

    def test_no_retry_on_non_transient_server_errors(self, sleeps):
        client = self._client(retries=5)
        flaky = _Flaky([ServeError("sweep failed")])
        client._request_once = flaky
        with pytest.raises(ServeError):
            client.request("ping")
        assert flaky.calls == 1 and sleeps == []

    def test_zero_retries_is_the_default(self, sleeps):
        client = self._client()
        flaky = _Flaky([_transient()])
        client._request_once = flaky
        with pytest.raises(ServeError):
            client.request("ping")
        assert flaky.calls == 1 and sleeps == []

    def test_backoff_grows_and_caps(self):
        client = self._client(backoff_s=0.25, max_backoff_s=1.0)
        delays = [client._backoff(attempt) for attempt in range(8)]
        assert all(d <= 1.0 for d in delays)
        assert delays[-1] == 1.0  # the exponential schedule hits the cap

    def test_deadline_is_stamped_on_every_envelope(self):
        client = self._client(deadline_s=2.5)
        seen = {}
        client._roundtrip = lambda msg: (
            seen.update(msg) or {"ok": True, "result": {}}
        )
        client.request("ping")
        assert seen["deadline_s"] == 2.5

    def test_constructor_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            self._client(deadline_s=0)
        with pytest.raises(ValueError):
            self._client(deadline_s=-1.0)


# ------------------------------------------------------- HTTP truncated body
class TestHttpRobustness:
    @pytest.fixture
    def http_server(self):
        """TCP transport with a short idle bound so a truncated body is
        answered quickly."""
        server = ReproServer(
            port=0, workers=2, default_space=SPACE, idle_timeout=1.0
        )
        server.start()
        try:
            yield server
        finally:
            server.stop()
            server.shutdown(timeout=10)

    def _raw_http(self, server, raw, shutdown_wr=False, timeout=10.0):
        """Send raw bytes, optionally half-close, and read the full reply."""
        sock = socketlib.create_connection((server.host, server.port), timeout=timeout)
        try:
            sock.sendall(raw)
            if shutdown_wr:
                sock.shutdown(socketlib.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            return b"".join(chunks)
        finally:
            sock.close()

    @staticmethod
    def _envelope(response: bytes) -> dict:
        head, _, body = response.partition(b"\r\n\r\n")
        return json.loads(body)

    def test_missing_content_length_answered_as_400(self, http_server):
        response = self._raw_http(
            http_server, b"POST /rpc HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 400")
        envelope = self._envelope(response)
        assert not envelope["ok"]
        assert envelope["error"]["type"] == "ProtocolError"
        assert "Content-Length" in envelope["error"]["message"]

    def test_body_shorter_than_content_length_then_eof_is_400(self, http_server):
        """The client promises 100 bytes, sends 10, and closes: a truncated
        body, answered with an error envelope — not a crashed worker."""
        raw = (
            b"POST /rpc HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 100\r\n\r\n" + b'{"op": "pi'
        )
        response = self._raw_http(http_server, raw, shutdown_wr=True)
        assert response.startswith(b"HTTP/1.1 400")
        envelope = self._envelope(response)
        assert "truncated" in envelope["error"]["message"]

    def test_short_body_held_open_times_out_to_408(self, http_server):
        """The client promises 100 bytes, sends 10, and keeps the
        connection open: the read idles out and the daemon answers a 408
        envelope within the idle timeout instead of pinning the worker."""
        raw = (
            b"POST /rpc HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 100\r\n\r\n" + b'{"op": "pi'
        )
        t0 = time.monotonic()
        response = self._raw_http(http_server, raw, timeout=30.0)
        elapsed = time.monotonic() - t0
        assert response.startswith(b"HTTP/1.1 408")
        envelope = self._envelope(response)
        assert envelope["error"]["type"] == "ProtocolError"
        assert "truncated" in envelope["error"]["message"]
        assert elapsed < http_server.idle_timeout + 10.0
        assert http_server._stats["invalid"].errors >= 1

    def test_workers_survive_truncated_bodies(self, http_server):
        """After a volley of malformed HTTP, every worker thread is alive
        and a well-formed request round-trips."""
        volley = [
            b"POST /rpc HTTP/1.1\r\nHost: t\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: t\r\n\r\n",
            b"POST /rpc HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\nshort",
        ]
        for raw in volley:
            self._raw_http(http_server, raw, shutdown_wr=True)
        alive = [
            t for t in http_server._threads
            if t.name.startswith("repro-serve-worker") and t.is_alive()
        ]
        assert len(alive) == http_server.workers
        client = ServeClient(port=http_server.port, timeout=30)
        assert client.ping()["session"] == http_server.session_id


# -------------------------------------------------- overload status surface
class TestStatusOverloadSurface:
    def test_endpoint_snapshot_carries_overload_fields(self):
        server = offline_server()
        server.handle({"op": "ping", "id": "1"})
        server.handle({"op": "ping", "id": "2", "deadline_s": 0.01},
                      queue_wait_s=1.0)
        status = server.handle({"op": "status", "id": "s"})["result"]
        assert status["max_queue"] == server.max_queue
        ping = status["endpoints"]["ping"]
        for field in ("shed", "deadline_exceeded", "p99_ms"):
            assert field in ping, field
        assert ping["deadline_exceeded"] == 1
        assert status["counters"]["deadline_exceeded"] == 1
        assert "disk_errors" in status["measurer"]
