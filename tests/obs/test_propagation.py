"""Trace-context propagation edge cases across the serve and fleet
boundaries.

The contract: trace context is best-effort freight. Garbage or missing
context downgrades a request to untraced — never to an error — in both
compatibility directions (old client → new server, new client → old
server), and a fleet worker dying mid-trial costs the trace that shard's
detail, never the sweep's correctness or the trace's validity.
"""

import pytest

from repro import faults
from repro.gpusim.config import A100
from repro.obs import trace as obs_trace
from repro.obs.trace import SpanContext, Tracer, activate, new_id
from repro.serve.server import ReproServer
from repro.tensor.operation import GemmSpec
from repro.tuning.fleet import FleetCoordinator, LocalProcessWorker
from repro.tuning.measure import Measurer
from repro.tuning.space import SpaceOptions, enumerate_space

SPEC = GemmSpec("obs", 1, 128, 128, 256)


@pytest.fixture
def server(tmp_path):
    return ReproServer(socket_path=str(tmp_path / "d.sock"), default_space=12)


PARAMS = {"m": 128, "n": 128, "k": 128, "space": 12}


class TestServerSide:
    def test_garbage_trace_id_is_untraced_not_fatal(self, server):
        """Old-client compat and hostile input: a request whose trace_id is
        garbage is served normally, simply without tracing."""
        for bad in ("ZZZ!!", 42, None, [], {"nested": 1}, "short"):
            response = server.handle(
                {"op": "ping", "id": "x", "trace_id": bad})
            assert response["ok"], bad
            assert "spans" not in response["result"]

    def test_missing_trace_id_is_untraced(self, server):
        response = server.handle({"op": "tune", "params": dict(PARAMS)})
        assert response["ok"]
        assert "spans" not in response["result"]
        assert "trace_id" not in response["result"]

    def test_valid_context_returns_server_spans(self, server):
        ctx = SpanContext(new_id(), new_id())
        response = server.handle(
            {"op": "tune", "params": dict(PARAMS),
             "trace_id": ctx.trace_id, "parent_span_id": ctx.span_id})
        assert response["ok"]
        result = response["result"]
        assert result["trace_id"] == ctx.trace_id
        names = {s["name"] for s in result["spans"]}
        assert "serve:tune" in names and "sweep" in names
        root = next(s for s in result["spans"] if s["name"] == "serve:tune")
        assert root["parent_id"] == ctx.span_id

    def test_garbage_parent_joins_trace_without_parent(self, server):
        tid = new_id()
        response = server.handle(
            {"op": "ping", "id": "x",
             "trace_id": tid, "parent_span_id": "NOT-HEX"})
        assert response["ok"]
        root = next(s for s in response["result"]["spans"]
                    if s["name"] == "serve:ping")
        assert root["trace_id"] == tid and root["parent_id"] is None


class TestClientSide:
    def test_client_tolerates_old_server_response_without_spans(self):
        """New client → old server: the reply carries no spans/trace_id;
        the client's own span still records and nothing raises."""
        from repro.serve.client import ServeClient

        client = ServeClient(socket_path="/tmp/unused.sock")
        client._roundtrip = lambda envelope: {
            "ok": True, "id": envelope["id"], "result": {"pong": True}}
        tracer = Tracer()
        with activate(tracer):
            result = client.request("ping")
        assert result == {"pong": True}
        assert [s.name for s in tracer.spans()] == ["client:ping"]

    def test_client_injects_context_only_when_traced(self):
        from repro.serve.client import ServeClient

        seen = []

        def fake_roundtrip(envelope):
            seen.append(dict(envelope))
            return {"ok": True, "id": envelope["id"], "result": {}}

        client = ServeClient(socket_path="/tmp/unused.sock")
        client._roundtrip = fake_roundtrip
        client.request("ping")
        assert "trace_id" not in seen[-1]
        with activate(Tracer()):
            client.request("ping")
        assert obs_trace._ID_RE.match(seen[-1]["trace_id"])
        assert obs_trace._ID_RE.match(seen[-1]["parent_span_id"])


class _ScriptedConn:
    """Pipe stand-in replaying a fixed message sequence from the worker."""

    def __init__(self, messages):
        self._messages = list(messages)
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)

    def poll(self, timeout=None):
        return bool(self._messages)

    def recv(self):
        return self._messages.pop(0)


class TestFleetSide:
    def test_old_worker_done_without_spans_is_tolerated(self):
        """Old worker → new coordinator: a bare ("done", sid) message (no
        spans element) completes the shard cleanly."""
        worker = LocalProcessWorker(A100)
        worker._conn = _ScriptedConn([("result", 0, 0, 5.0, True),
                                      ("done", 0)])
        results = []
        worker.measure_shard(SPEC, 0, 0, [(0, None)],
                             lambda idx, lat, persist: results.append(idx))
        assert results == [0]
        # The outbound shard message still carries the (absent) trace slot.
        assert worker._conn.sent[0][:3] == ("shard", 0, 0)
        assert worker._conn.sent[0][5] is None

    def test_worker_crash_mid_trial_keeps_trace_valid(self):
        """A worker dying mid-trial under an active trace: the sweep still
        matches the serial bits, and the stitched trace stays a single
        valid tree (the requeued attempt's spans fill in)."""
        space = enumerate_space(SPEC, A100, SpaceOptions(max_size=12))
        serial = Measurer(A100).sweep(SPEC, space)
        plan = faults.FaultPlan(
            [faults.FaultRule("fleet", "worker-death", match="|attempt=0|")],
            seed=1)
        tracer = Tracer()
        with activate(tracer, all_threads=True):
            with faults.injected(plan):
                coord = FleetCoordinator(SPEC, space, gpu=A100,
                                         workers=2, shard_size=3)
                result = coord.run()
        assert result.latencies == serial
        assert result.telemetry.worker_deaths >= 1
        spans = tracer.spans()
        names = {s.name for s in spans}
        assert {"fleet:coordinator", "fleet:dispatch",
                "fleet:worker-shard", "fleet:trial"} <= names
        assert len({s.trace_id for s in spans}) == 1
        # Export must still be serializable after the chaos.
        events = tracer.to_chrome_trace()["traceEvents"]
        assert len(events) == len(spans)

    def test_untraced_fleet_run_ships_no_spans(self):
        space = enumerate_space(SPEC, A100, SpaceOptions(max_size=8))
        coord = FleetCoordinator(SPEC, space, gpu=A100, workers=2)
        result = coord.run()
        assert len(result.latencies) == len(space)
