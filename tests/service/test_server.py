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
from repro.service.jobs import SHUTDOWN_ERROR, JobManager
from repro.service.protocol import JobProgress, JobResult, SynthesisRequest
from repro.service.server import serve_async


def start_daemon(manager, socket_path):
    """Serve ``manager`` on a unix socket from a background thread;
    returns ``(client, serve_thread)``."""
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
    return Client(socket_path, timeout=60), thread


@pytest.fixture
def daemon(tmp_path):
    """A running daemon on a unix socket; yields (client, manager)."""
    manager = JobManager(workers=1, cnf_cache_dir=str(tmp_path / "cnf"))
    client, thread = start_daemon(manager, str(tmp_path / "repro.sock"))
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

    def test_waiting_submit_streams_status_progress_result(self, daemon):
        client, _ = daemon
        request = SynthesisRequest("tso", tiny_options())
        schemas = [
            report.schema_name
            for report in client.stream(
                "submit", request=request.to_payload(), wait=True
            )
        ]
        assert schemas[0] == "job-status"
        assert schemas[-1] == "job-result"
        assert len(schemas) >= 3
        assert set(schemas[1:-1]) == {"job-progress"}

    def test_result_replays_recorded_progress_then_result(self, daemon):
        client, manager = daemon
        status, _ = client.submit(SynthesisRequest("tso", tiny_options()))
        assert manager.result(status.job_id, timeout=60).state == "done"
        reports = list(client.stream("result", job_id=status.job_id))
        assert [r.schema_name for r in reports[:-1]] == ["job-progress"] * (
            len(reports) - 1
        )
        assert reports[-1].schema_name == "job-result"
        progress = [JobProgress.from_payload(r.payload) for r in reports[:-1]]
        recorded = manager.status(status.job_id).progress_events
        assert [p.seq for p in progress] == list(range(recorded))
        assert progress[0].event["phase"] == "start"
        assert progress[-1].event["phase"] == "finish"

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

    def test_misspelled_field_is_service_error(self, daemon):
        client, manager = daemon
        request = SynthesisRequest("tso", tiny_options())
        with pytest.raises(ServiceError, match=r"unknown submit fields \['wiat'\]"):
            client.call("submit", request=request.to_payload(), wiat=True)
        assert manager.jobs() == []  # refused before anything was queued

    def test_every_op_refuses_the_removed_client_field(self, daemon):
        client, _ = daemon
        for op in (
            "submit", "status", "result", "cancel",
            "jobs", "metrics", "ping", "shutdown",
        ):
            with pytest.raises(ServiceError, match=rf"unknown {op} fields \['client'\]"):
                client.call(op, client="alice")
        assert client.ping()  # the refused shutdown stopped nothing

    def test_malformed_request_payload_is_service_error(self, daemon):
        client, _ = daemon
        with pytest.raises(ServiceError, match="model"):
            client.call("submit", request={"options": {"bound": 2}})

    def test_unreachable_daemon(self, tmp_path):
        client = Client(str(tmp_path / "nothing.sock"), timeout=1)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.ping()


class TickingWorker:
    """Stub worker emitting a progress event every 50 ms for up to 10 s
    (or until released), then failing: a job whose stream never goes
    quiet."""

    index = 0

    def __init__(self):
        self.release = threading.Event()

    def run(self, request, progress=None):
        for tick in range(200):
            if self.release.wait(0.05):
                break
            progress({"phase": "tick", "n": tick})
        raise RuntimeError("released")

    def as_metrics(self):
        return {}


@pytest.fixture
def ticking_daemon(tmp_path):
    """A daemon whose one worker is a :class:`TickingWorker`; yields the
    client."""
    worker = TickingWorker()
    manager = JobManager(workers=1, worker_factory=lambda i: worker)
    client, thread = start_daemon(manager, str(tmp_path / "repro.sock"))
    yield client
    worker.release.set()
    client.shutdown()
    thread.join(5)
    manager.close()


class TestWaitDeadline:
    def test_timeout_bounds_the_whole_wait(self, ticking_daemon):
        client = ticking_daemon
        # without and with a progress callback: the same deadline
        for on_progress in (None, [].append):
            started = time.monotonic()
            with pytest.raises(ServiceError, match="still running"):
                client.synthesize(
                    "tso", tiny_options(), timeout=0.5, on_progress=on_progress
                )
            assert time.monotonic() - started < 2.0

    def test_deadline_holds_when_events_never_pause(self):
        from repro.service.server import _wait

        class EndlessManager:
            # every wait finds one more event at once, so the wait's own
            # timeout never expires
            def wait_events(self, job_id, start, timeout):
                return [{"phase": "tick", "n": start}], False

        async def drain() -> None:
            async for _ in _wait(EndlessManager(), "job-0001", 0.2):
                pass

        started = time.monotonic()
        with pytest.raises(TimeoutError, match="still running"):
            asyncio.run(asyncio.wait_for(drain(), 5))
        assert time.monotonic() - started < 2.0

    def test_timeout_too_large_to_wait_on_is_refused(self, ticking_daemon):
        client = ticking_daemon
        status, _ = client.submit(SynthesisRequest("tso", tiny_options()))
        with pytest.raises(ServiceError, match="out of range"):
            client.result(status.job_id, timeout=float("inf"))
        assert client.ping()


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

    def test_non_string_op_answers_service_error(self, daemon):
        request = {
            "schema": {"name": "service-request", "version": 1},
            "tool": "litmus-synth",
            "command": "service",
            "payload": {"op": ["ping"]},
        }
        doc = self._exchange(daemon, json.dumps(request).encode() + b"\n")
        report = load_report(doc)
        assert report.schema_name == "service-error"
        assert "unknown op ['ping']" in report.payload["error"]

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

    def test_shutdown_ends_a_waited_on_running_job(self, tmp_path, caplog):
        import logging

        from tests.service.test_pool_process import KillableProcessWorker

        worker = KillableProcessWorker()
        manager = JobManager(workers=1, worker_factory=lambda i: worker)
        client, thread = start_daemon(manager, str(tmp_path / "repro.sock"))
        # bound 2 parks the worker's child in a 60 s sleep
        status, _ = client.submit(SynthesisRequest("tso", tiny_options(bound=2)))
        attached = threading.Event()
        waited: list[JobResult] = []

        def wait() -> None:
            # the replayed start event proves the wait is attached
            report = client.wait(
                "result", lambda event: attached.set(), job_id=status.job_id
            )
            waited.append(JobResult.from_payload(report.payload))

        waiter = threading.Thread(target=wait, daemon=True)
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                waiter.start()
                assert attached.wait(30), "the wait never attached"
                started = time.monotonic()
                assert client.shutdown()
                thread.join(5)
                assert not thread.is_alive(), "daemon outlived the shutdown"
                assert time.monotonic() - started < 5.0
                waiter.join(5)
                assert not waiter.is_alive()
        finally:
            manager.close()
        assert len(waited) == 1
        assert waited[0].state == "failed"
        assert waited[0].error == SHUTDOWN_ERROR
        assert worker.pid is None  # the parked child was stopped
        assert [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ] == []
