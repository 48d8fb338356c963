"""Server/client integration over a real unix socket."""

import asyncio
import json
import threading
import time

import pytest

from repro.core.enumerator import EnumerationConfig
from repro.core.synthesis import OracleSpec, SynthesisOptions, synthesize
from repro.models.registry import get_model
from repro.obs import load_report
from repro.service.client import Client, ServiceError, parse_address
from repro.service.jobs import JobManager
from repro.service.protocol import SynthesisRequest
from repro.service.server import serve_async


@pytest.fixture
def daemon(tmp_path):
    """A running daemon on a unix socket; yields (client, manager)."""
    socket_path = str(tmp_path / "repro.sock")
    manager = JobManager(workers=1, cnf_cache_dir=str(tmp_path / "cnf"))
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(
            serve_async(
                manager,
                socket_path=socket_path,
                ready=lambda addr: ready.set(),
            )
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10), "daemon never came up"
    client = Client(socket_path, timeout=60)
    yield client, manager
    try:
        client.shutdown()
    except ServiceError:
        pass
    thread.join(5)
    manager.close()


def tiny_options(bound: int = 2, **knobs) -> SynthesisOptions:
    knobs.setdefault("config", EnumerationConfig(max_events=bound))
    return SynthesisOptions(bound=bound, **knobs)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("localhost:8765") == (None, "localhost", 8765)
        assert parse_address("127.0.0.1:80") == (None, "127.0.0.1", 80)

    def test_unix_paths(self):
        assert parse_address("/tmp/repro.sock") == ("/tmp/repro.sock", "", None)
        assert parse_address("./daemon.sock") == ("./daemon.sock", "", None)
        # a path with a colon is still a path
        assert parse_address("/tmp/a:b/x.sock")[0] == "/tmp/a:b/x.sock"


class TestWireProtocol:
    def test_ping(self, daemon):
        client, _ = daemon
        assert client.ping()

    def test_submit_status_result(self, daemon):
        client, _ = daemon
        status, deduped = client.submit(
            SynthesisRequest("tso", tiny_options())
        )
        assert not deduped
        assert status.job_id
        result = client.result(status.job_id, timeout=60)
        assert result.state == "done"
        assert len(result.result.union) > 0
        assert client.status(status.job_id).state == "done"
        listed = client.jobs()
        assert [s.job_id for s in listed] == [status.job_id]

    def test_synthesize_round_trip_byte_identical(self, daemon):
        client, _ = daemon
        options = tiny_options(
            bound=3, oracle_spec=OracleSpec(oracle="relational")
        )
        remote = client.synthesize("tso", options)
        local = synthesize(get_model("tso"), options)
        assert remote.union.to_json() == local.union.to_json()
        for name in local.per_axiom:
            assert (
                remote.per_axiom[name].to_json()
                == local.per_axiom[name].to_json()
            )

    def test_metrics_exposed(self, daemon):
        client, _ = daemon
        client.synthesize("tso", tiny_options())
        metrics = client.metrics()
        assert metrics["jobs_finished"] >= 1
        assert "dedup_hits" in metrics
        assert "worker_warm_misses" in metrics

    def test_unknown_job_is_service_error(self, daemon):
        client, _ = daemon
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("job-9999")

    def test_unknown_op_is_service_error(self, daemon):
        client, _ = daemon
        with pytest.raises(ServiceError, match="unknown op"):
            client.call("frobnicate")

    def test_malformed_request_payload_is_service_error(self, daemon):
        client, _ = daemon
        with pytest.raises(ServiceError, match="model"):
            client.call("submit", request={"options": {"bound": 2}})

    def test_unreachable_daemon(self, tmp_path):
        client = Client(str(tmp_path / "nothing.sock"), timeout=1)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.ping()


class TestRawWire:
    """Drive the socket by hand: the envelope contract, not the client."""

    def _exchange(self, daemon, line: bytes) -> dict:
        import socket as socketlib

        client, _ = daemon
        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(client.address)
        try:
            sock.sendall(line)
            chunks = b""
            while not chunks.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks += chunk
        finally:
            sock.close()
        return json.loads(chunks.decode())

    def test_non_envelope_line_answers_service_error(self, daemon):
        doc = self._exchange(daemon, b'{"op": "ping"}\n')
        report = load_report(doc)
        assert report.schema_name == "service-error"
        assert "envelope" in report.payload["error"]

    def test_garbage_line_answers_service_error(self, daemon):
        doc = self._exchange(daemon, b"not json\n")
        assert load_report(doc).schema_name == "service-error"

    def test_wrong_schema_name_rejected(self, daemon):
        bad = {
            "schema": {"name": "synthesis-request", "version": 1},
            "tool": "litmus-synth",
            "command": "service",
            "payload": {"op": "ping"},
        }
        doc = self._exchange(daemon, json.dumps(bad).encode() + b"\n")
        report = load_report(doc)
        assert report.schema_name == "service-error"
        assert "service-request" in report.payload["error"]

    def test_every_response_is_an_envelope(self, daemon):
        client, _ = daemon
        for op in ("ping", "jobs", "metrics"):
            report = client.call(op)
            doc = report.to_json_dict()
            assert set(doc) == {"schema", "tool", "command", "payload"}
            assert doc["tool"] == "litmus-synth"


class TestTcpTransport:
    def test_tcp_round_trip(self):
        manager = JobManager(workers=1)
        ready: list[str] = []
        ready_event = threading.Event()

        def on_ready(address: str) -> None:
            ready.append(address)
            ready_event.set()

        thread = threading.Thread(
            target=lambda: asyncio.run(
                serve_async(manager, port=0, ready=on_ready)
            ),
            daemon=True,
        )
        thread.start()
        assert ready_event.wait(10)
        client = Client(ready[0], timeout=30)
        try:
            assert client.ping()
            result = client.synthesize("tso", tiny_options())
            assert len(result.union) > 0
        finally:
            client.shutdown()
            thread.join(5)
            manager.close()


class TestShutdown:
    def test_idle_client_does_not_log_a_cancelled_handler(
        self, daemon, caplog
    ):
        import logging
        import socket as socketlib

        client, _ = daemon
        idle = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        idle.settimeout(10)
        idle.connect(client.address)
        try:
            assert client.ping()  # the idle connection is accepted by now
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                client.shutdown()
                # the server hangs up on the idle client instead of
                # cancelling its handler
                assert idle.recv(1) == b""
                time.sleep(0.2)  # let the server's loop finish exiting
        finally:
            idle.close()
        assert [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ] == []
