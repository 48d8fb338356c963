"""The process-backed worker pool: byte-identity across worker and job
counts, streamed progress events, mid-job child death, and interpreter
exit without an explicit close."""

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro
from repro.core.enumerator import EnumerationConfig
from repro.core.synthesis import OracleSpec, synthesize
from repro.exec.fanout import (
    RemoteJobError,
    ResidentProcess,
    ResidentTask,
    WorkerDied,
)
from repro.models.registry import get_model
from repro.service.client import Client, ServiceError
from repro.service.jobs import JobManager
from repro.service.pool import ResidentWorker
from repro.service.protocol import (
    JobProgress,
    JobState,
    SynthesisRequest,
    result_from_payload,
    result_to_payload,
)
from repro.service.server import serve_async


def tiny_request(bound: int = 2, **knobs) -> SynthesisRequest:
    knobs.setdefault("config", EnumerationConfig(max_events=bound))
    return SynthesisRequest.build("tso", bound=bound, **knobs)


class BlockingStub:
    """In-process stub worker that parks until released, so a job stays
    running deterministically."""

    index = 0

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def run(self, request, progress=None):
        self.started.set()
        assert self.release.wait(30), "test never released the worker"
        result = synthesize(get_model(request.model), request.options)
        return result, {}

    def as_metrics(self):
        return {"worker_jobs": 0}


@contextlib.contextmanager
def daemon(manager, tmp_path):
    """Serve ``manager`` on a unix socket; yields a connected client."""
    socket_path = str(tmp_path / "repro.sock")
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
    try:
        yield client
    finally:
        try:
            client.shutdown()
        except ServiceError:
            pass
        thread.join(5)
        manager.close()


# -- byte-identity across the worker x jobs grid -------------------------------


class TestPoolGrid:
    # jobs=2: a worker's child fans the request out to children of its
    # own, which a daemonic child may not start
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_suites_byte_identical_across_pools(self, jobs, workers, tmp_path):
        requests = [
            tiny_request(bound=3, jobs=jobs),
            tiny_request(
                bound=2, jobs=jobs, oracle_spec=OracleSpec(oracle="relational")
            ),
        ]
        local = [
            synthesize(get_model(req.model), req.options) for req in requests
        ]
        manager = JobManager(workers=workers, cnf_cache_dir=str(tmp_path / "cnf"))
        try:
            submitted = [manager.submit(req)[0] for req in requests]
            for job, expected in zip(submitted, local):
                result = manager.result(job.job_id, timeout=120)
                assert result.state == JobState.DONE.value, result.error
                remote = result.result
                assert remote.union.to_json() == expected.union.to_json()
                for axiom, suite in expected.per_axiom.items():
                    assert (
                        remote.per_axiom[axiom].to_json() == suite.to_json()
                    ), axiom
        finally:
            manager.close()


# -- streamed progress events --------------------------------------------------


class TestProgressEvents:
    def test_job_accumulates_events_start_to_finish(self):
        with JobManager(workers=1) as manager:
            job, _ = manager.submit(tiny_request(bound=3))
            manager.result(job.job_id, timeout=60)
            events, terminal = manager.wait_events(job.job_id, 0, timeout=5)
            assert terminal
            assert events[0]["phase"] == "start"
            assert events[0]["model"] == "tso"
            assert events[-1]["phase"] == "finish"
            assert events[-1]["minimal"] >= 1
            assert manager.status(job.job_id).progress_events == len(events)

    def test_progress_envelope_round_trips(self):
        progress = JobProgress(
            job_id="job-0001",
            seq=2,
            event={"phase": "enumerate", "candidates": 2000},
        )
        report = progress.to_report()
        assert report.schema_name == "job-progress"
        assert JobProgress.from_payload(report.payload) == progress

    def test_process_worker_streams_events_over_pipe(self):
        worker = ResidentWorker()
        try:
            events = []
            result, _ = worker.run(
                tiny_request(bound=2), progress=events.append
            )
            assert [e["phase"] for e in events][0] == "start"
            assert events[-1]["phase"] == "finish"
            local = synthesize(
                get_model("tso"), tiny_request(bound=2).options
            )
            assert result.union.to_json() == local.union.to_json()
        finally:
            worker.close()

    def test_wait_events_unknown_id_and_timeout(self):
        stub = BlockingStub()
        manager = JobManager(workers=1, worker_factory=lambda i: stub)
        try:
            assert manager.wait_events("job-9999", 0, timeout=0.1) is None
            job, _ = manager.submit(tiny_request())
            assert stub.started.wait(10)
            # the start of the event stream: the stub emits nothing, so
            # a bounded wait on a running job times out
            with pytest.raises(TimeoutError):
                manager.wait_events(job.job_id, 0, timeout=0.05)
            stub.release.set()
            events, terminal = manager.wait_events(job.job_id, 0, timeout=30)
            assert terminal and events == []
        finally:
            stub.release.set()
            manager.close()

    def test_streamed_synthesize_matches_blocking(self, tmp_path):
        manager = JobManager(workers=1)
        with daemon(manager, tmp_path) as client:
            request = tiny_request(bound=3)
            events = []
            streamed = client.synthesize(
                "tso", request.options, on_progress=events.append
            )
            local = synthesize(get_model("tso"), request.options)
            assert streamed.union.to_json() == local.union.to_json()
            assert events[0]["phase"] == "start"
            assert events[-1]["phase"] == "finish"
            assert manager.jobs()[0].progress_events == len(events)


# -- warm counters and child death --------------------------------------------


def _crash_setup(payload):
    return payload


def _crash_work(state, job, emit):
    if job.get("event"):
        emit({"phase": "echo", "n": job["n"]})
    if job.get("die"):
        os._exit(1)  # simulate a mid-job crash
    if job.get("raise"):
        raise ValueError("boom")
    return {"n": job["n"], "state": state}


def _block_setup(payload):
    return None


def _block_work(state, job, emit):
    emit({"phase": "start", "model": job["request"]["model"]})
    if job["block"]:
        time.sleep(60)  # park until the parent kills this child
    request = SynthesisRequest.from_payload(job["request"])
    result = synthesize(get_model(request.model), request.options)
    return result_to_payload(result), dict(result.oracle_stats)


class KillableProcessWorker:
    """Process-backed pool worker whose child parks on ``bound == 2``
    jobs — the deterministic stand-in for 'killed mid-synthesis'."""

    def __init__(self, index: int = 0):
        self.index = index
        self._proc = ResidentProcess(
            ResidentTask(setup=_block_setup, work=_block_work, payload=None)
        )

    @property
    def pid(self):
        return self._proc.pid

    def run(self, request, progress=None):
        payload, metrics = self._proc.run(
            {
                "request": request.to_payload(),
                "block": request.options.bound == 2,
            },
            on_event=progress,
        )
        return result_from_payload(payload), dict(metrics)

    def as_metrics(self):
        return {"worker_jobs": 0}

    def interrupt(self):
        self._proc.interrupt()

    def close(self):
        self._proc.close()


class TestResidentProcess:
    def test_events_and_results_cross_the_pipe(self):
        proc = ResidentProcess(
            ResidentTask(setup=_crash_setup, work=_crash_work, payload="s")
        )
        try:
            events = []
            out = proc.run({"n": 7, "event": True}, on_event=events.append)
            assert out == {"n": 7, "state": "s"}
            assert events == [{"phase": "echo", "n": 7}]
        finally:
            proc.close()

    def test_remote_exception_reports_and_child_survives(self):
        proc = ResidentProcess(
            ResidentTask(setup=_crash_setup, work=_crash_work, payload="s")
        )
        try:
            proc.run({"n": 1})
            pid = proc.pid
            with pytest.raises(RemoteJobError) as excinfo:
                proc.run({"n": 2, "raise": True})
            assert excinfo.value.exc_type == "ValueError"
            assert "boom" in str(excinfo.value)
            # the child kept its state and its pid — only the job failed
            assert proc.run({"n": 3}) == {"n": 3, "state": "s"}
            assert proc.pid == pid
        finally:
            proc.close()

    def test_mid_job_death_raises_and_next_job_respawns(self):
        proc = ResidentProcess(
            ResidentTask(setup=_crash_setup, work=_crash_work, payload="s")
        )
        try:
            proc.run({"n": 1})
            pid = proc.pid
            with pytest.raises(WorkerDied):
                proc.run({"n": 2, "die": True})
            assert proc.run({"n": 3}) == {"n": 3, "state": "s"}
            assert proc.pid != pid
        finally:
            proc.close()


class TestProcessRecycling:
    def test_warm_counters_accumulate_without_recycling(self, tmp_path):
        request = tiny_request(oracle_spec=OracleSpec(oracle="relational"))
        manager = JobManager(workers=1, cnf_cache_dir=str(tmp_path / "cnf"))
        try:
            for _ in range(2):
                job, _ = manager.submit(request)
                manager.result(job.job_id, timeout=120)
            metrics = manager.metrics()
            assert metrics["worker_warm_hits"] == 1
            assert metrics["worker_warm_misses"] == 1
        finally:
            manager.close()

    def test_killed_child_fails_job_and_pool_recovers(self):
        worker = KillableProcessWorker()
        manager = JobManager(workers=1, worker_factory=lambda i: worker)
        try:
            doomed, _ = manager.submit(tiny_request(bound=2))
            # synchronize on the start event: the child is now parked
            events, terminal = manager.wait_events(
                doomed.job_id, 0, timeout=30
            )
            assert events[0]["phase"] == "start" and not terminal
            os.kill(worker.pid, signal.SIGKILL)
            result = manager.result(doomed.job_id, timeout=30)
            assert result.state == JobState.FAILED.value
            assert "WorkerDied" in result.error
            # the pool survives: the next job spawns a fresh child
            follow_up, _ = manager.submit(tiny_request(bound=3))
            result = manager.result(follow_up.job_id, timeout=60)
            assert result.state == JobState.DONE.value
            assert len(result.result.union) > 0
        finally:
            manager.close()


class TestInterpreterExit:
    def test_unclosed_manager_lets_the_interpreter_exit(self):
        # Worker children are not daemonic (so they may fan out), and
        # multiprocessing joins non-daemonic children at exit; a shutdown
        # hook must stop them or this script would never end.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = textwrap.dedent(
            """
            from repro.core.enumerator import EnumerationConfig
            from repro.service.jobs import JobManager
            from repro.service.protocol import SynthesisRequest

            manager = JobManager(workers=1)
            job, _ = manager.submit(
                SynthesisRequest.build(
                    "tso", bound=2, config=EnumerationConfig(max_events=2)
                )
            )
            print(manager.result(job.job_id, timeout=60).state)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "done"
