"""Job queue lifecycle: submit → status → result, dedup, cancel, warm
checkers across jobs, shutdown."""

import multiprocessing
import sys
import threading
import time

import pytest

from repro.core.enumerator import EnumerationConfig
from repro.core.synthesis import OracleSpec, SynthesisOptions, synthesize
from repro.models.registry import get_model
from repro.service.jobs import SHUTDOWN_ERROR, JobManager
from repro.service.pool import ResidentWorker
from repro.service.protocol import JobState, SynthesisRequest


def tiny_request(bound: int = 2, **knobs) -> SynthesisRequest:
    knobs.setdefault("config", EnumerationConfig(max_events=bound))
    spec_knobs = {
        key: knobs.pop(key)
        for key in ("oracle", "cnf_cache_dir")
        if key in knobs
    }
    if spec_knobs:
        knobs["oracle_spec"] = OracleSpec(**spec_knobs)
    return SynthesisRequest.build("tso", bound=bound, **knobs)


class BlockingWorker:
    """Stub worker that parks on an event so jobs stay RUNNING/QUEUED
    deterministically — the dedup and cancel tests need a wedged queue."""

    def __init__(self, index: int = 0):
        self.index = index
        self.release = threading.Event()
        self.started = threading.Event()

    def run(self, request, progress=None):
        self.started.set()
        assert self.release.wait(30), "test never released the worker"
        result = synthesize(get_model(request.model), request.options)
        return result, {"stub": 1}

    def as_metrics(self):
        return {"worker_jobs": 0}


class TestLifecycle:
    def test_submit_status_result_round_trip(self):
        with JobManager(workers=1) as manager:
            job, deduped = manager.submit(tiny_request())
            assert not deduped
            result = manager.result(job.job_id, timeout=60)
            assert result.state == JobState.DONE.value
            assert result.result is not None
            assert len(result.result.union) > 0
            status = manager.status(job.job_id)
            assert status.state == JobState.DONE.value
            assert status.queue_seconds is not None
            assert status.run_seconds is not None
            assert status.worker == 0

    def test_result_matches_local_run_byte_identically(self):
        request = tiny_request(bound=3)
        with JobManager(workers=1) as manager:
            job, _ = manager.submit(request)
            remote = manager.result(job.job_id, timeout=60).result
        local = synthesize(get_model("tso"), request.options)
        assert remote.union.to_json() == local.union.to_json()

    def test_unknown_job_ids(self):
        with JobManager(workers=1) as manager:
            assert manager.status("job-9999") is None
            assert manager.result("job-9999") is None
            assert manager.cancel("job-9999") is None

    def test_failed_job_reports_error(self):
        from repro.core.minimality import CriterionMode

        # the Fig. 19 workaround criterion is explicit-oracle-only, so
        # build_checker raises and the job lands FAILED with the message
        request = SynthesisRequest(
            "tso",
            SynthesisOptions(
                bound=2,
                oracle_spec=OracleSpec(oracle="relational"),
                mode=CriterionMode.EXECUTION_WA,
            ),
        )
        with JobManager(workers=1) as manager:
            job, _ = manager.submit(request)
            result = manager.result(job.job_id, timeout=60)
        assert result.state == JobState.FAILED.value
        assert result.result is None
        assert "explicit" in result.error

    def test_result_timeout_raises(self):
        worker = BlockingWorker()
        manager = JobManager(workers=1, worker_factory=lambda i: worker)
        try:
            job, _ = manager.submit(tiny_request())
            with pytest.raises(TimeoutError):
                manager.result(job.job_id, timeout=0.05)
        finally:
            worker.release.set()
            manager.close()


class TestDedup:
    def test_identical_active_submissions_coalesce(self):
        worker = BlockingWorker()
        manager = JobManager(workers=1, worker_factory=lambda i: worker)
        try:
            first, deduped_first = manager.submit(tiny_request())
            assert worker.started.wait(10)  # job is now RUNNING
            second, deduped_second = manager.submit(tiny_request())
            third, deduped_third = manager.submit(tiny_request())
            assert not deduped_first
            assert deduped_second and deduped_third
            assert second.job_id == first.job_id == third.job_id
            assert manager.status(first.job_id).clients == 3
            assert manager.metrics()["dedup_hits"] == 2
            assert manager.metrics()["jobs_submitted"] == 1
            worker.release.set()
            result = manager.result(first.job_id, timeout=30)
            assert result.state == JobState.DONE.value
        finally:
            worker.release.set()
            manager.close()

    def test_different_requests_do_not_coalesce(self):
        worker = BlockingWorker()
        manager = JobManager(workers=1, worker_factory=lambda i: worker)
        try:
            first, _ = manager.submit(tiny_request(bound=2))
            second, deduped = manager.submit(tiny_request(bound=3))
            assert not deduped
            assert second.job_id != first.job_id
        finally:
            worker.release.set()
            manager.close()

    def test_finished_job_is_rerun_not_replayed(self):
        """A repeat of a *completed* request runs again (that re-run is
        how warm-cache hit rates are measured) instead of serving the
        memoized result."""
        with JobManager(workers=1) as manager:
            first, _ = manager.submit(tiny_request())
            manager.result(first.job_id, timeout=60)
            second, deduped = manager.submit(tiny_request())
            assert not deduped
            assert second.job_id != first.job_id
            manager.result(second.job_id, timeout=60)
            assert manager.metrics()["dedup_hits"] == 0


class TestCancel:
    def test_cancel_queued_job(self):
        worker = BlockingWorker()
        manager = JobManager(workers=1, worker_factory=lambda i: worker)
        try:
            running, _ = manager.submit(tiny_request(bound=2))
            assert worker.started.wait(10)
            queued, _ = manager.submit(tiny_request(bound=3))
            status = manager.cancel(queued.job_id)
            assert status.state == JobState.CANCELLED.value
            result = manager.result(queued.job_id, timeout=5)
            assert result.state == JobState.CANCELLED.value
            assert result.result is None
            # a fresh identical submission does not coalesce onto the
            # cancelled job
            again, deduped = manager.submit(tiny_request(bound=3))
            assert not deduped and again.job_id != queued.job_id
            worker.release.set()
        finally:
            worker.release.set()
            manager.close()

    def test_cancel_running_job_is_refused(self):
        worker = BlockingWorker()
        manager = JobManager(workers=1, worker_factory=lambda i: worker)
        try:
            job, _ = manager.submit(tiny_request())
            assert worker.started.wait(10)
            status = manager.cancel(job.job_id)
            assert status.state == JobState.RUNNING.value
            worker.release.set()
            assert (
                manager.result(job.job_id, timeout=30).state
                == JobState.DONE.value
            )
        finally:
            worker.release.set()
            manager.close()

    def test_queue_position_reported(self):
        worker = BlockingWorker()
        manager = JobManager(workers=1, worker_factory=lambda i: worker)
        try:
            manager.submit(tiny_request(bound=2))
            assert worker.started.wait(10)
            second, _ = manager.submit(tiny_request(bound=3))
            third, _ = manager.submit(tiny_request(bound=4))
            assert manager.status(second.job_id).position == 0
            assert manager.status(third.job_id).position == 1
            worker.release.set()
        finally:
            worker.release.set()
            manager.close()


class TestRecycling:
    def test_warm_checker_reused_without_recycling(self):
        request = tiny_request(oracle="relational")
        with JobManager(workers=1) as manager:
            for _ in range(3):
                job, _ = manager.submit(request)
                manager.result(job.job_id, timeout=60)
            metrics = manager.metrics()
            assert metrics["worker_warm_hits"] == 2
            assert metrics["worker_warm_misses"] == 1

    def test_recycled_worker_hits_disk_cnf_cache(self, tmp_path):
        """The restart-survival story: closing a worker drops its child
        and every in-memory cache, so the next job's fresh child re-reads
        compiled CNF from disk and reports a nonzero compile hit rate
        over warm entries."""
        request = tiny_request(oracle="relational")
        manager = JobManager(workers=1, cnf_cache_dir=str(tmp_path / "cnf"))
        try:
            first, _ = manager.submit(request)
            cold = manager.result(first.job_id, timeout=60).result
            assert cold.oracle_stats["compile_misses"] > 0
            assert cold.oracle_stats["compile_hits"] == 0
            # the worker thread is idle once the job is terminal
            manager.workers[0].close()

            second, _ = manager.submit(request)
            warm = manager.result(second.job_id, timeout=60).result
            assert warm.oracle_stats["compile_hit_rate"] > 0
            assert warm.oracle_stats["compile_warm_entries"] > 0
            assert warm.oracle_stats["compile_misses"] == 0
            # identical answers either way
            assert warm.union.to_json() == cold.union.to_json()
        finally:
            manager.close()


class TestResidentWorker:
    def test_per_model_cache_dir_injected(self, tmp_path):
        worker = ResidentWorker(cnf_cache_base=str(tmp_path))
        effective = worker.effective_request(tiny_request(oracle="relational"))
        assert effective.options.oracle_spec.cnf_cache_dir == str(
            tmp_path / "tso"
        )

    def test_explicit_oracle_gets_no_cache_dir(self, tmp_path):
        worker = ResidentWorker(cnf_cache_base=str(tmp_path))
        effective = worker.effective_request(tiny_request(oracle="explicit"))
        assert effective.options.oracle_spec.cnf_cache_dir is None

    def test_traced_requests_keep_the_warm_checker(self, tmp_path):
        # Tracing is observation only: a traced jobs=1 request still runs
        # in process over the resident checker, and its oracle stats are
        # this job's share (the repeat answers from the warm caches).
        worker = ResidentWorker()
        request = tiny_request(
            oracle="relational", trace_dir=str(tmp_path / "trace")
        )
        try:
            first, _ = worker.run(request)
            second, _ = worker.run(request)
        finally:
            worker.close()
        assert worker.as_metrics()["worker_warm_hits"] == 1
        assert worker.as_metrics()["worker_warm_misses"] == 1
        assert first.oracle_stats["analyses"] > 0
        assert second.oracle_stats["analyses"] == 0
        assert second.union.to_json() == first.union.to_json()
        assert (tmp_path / "trace" / "shard-0000.jsonl").exists()

    def test_caller_supplied_cache_dir_wins(self, tmp_path):
        worker = ResidentWorker(cnf_cache_base=str(tmp_path))
        request = tiny_request(
            oracle="relational", cnf_cache_dir=str(tmp_path / "mine")
        )
        effective = worker.effective_request(request)
        assert effective.options.oracle_spec.cnf_cache_dir == str(
            tmp_path / "mine"
        )


class TestTrace:
    def test_trace_dir_is_lintable_and_renders(self, tmp_path):
        from repro.analysis import lint_trace_dir
        from repro.obs import summarize_trace_dir

        trace_dir = tmp_path / "trace"
        manager = JobManager(workers=1, trace_dir=str(trace_dir))
        try:
            request = tiny_request(oracle="relational")
            for _ in range(2):
                job, _ = manager.submit(request)
                manager.result(job.job_id, timeout=60)
        finally:
            manager.close()
        assert lint_trace_dir(str(trace_dir)) == []
        payload = summarize_trace_dir(str(trace_dir))
        assert payload["spans"]["job"]["count"] == 2
        assert payload["counters"].get("sat_queries", 0) >= 0
        assert payload["meta"]["command"] == "serve"


class TestMetricsShape:
    def test_queue_wait_measured(self):
        worker = BlockingWorker()
        manager = JobManager(workers=1, worker_factory=lambda i: worker)
        try:
            first, _ = manager.submit(tiny_request(bound=2))
            assert worker.started.wait(10)
            time.sleep(0.05)
            second, _ = manager.submit(tiny_request(bound=3))
            time.sleep(0.05)
            worker.release.set()
            manager.result(second.job_id, timeout=30)
            status = manager.status(second.job_id)
            assert status.queue_seconds is not None
            assert status.queue_seconds >= 0.04
        finally:
            worker.release.set()
            manager.close()


class EmittingStub:
    """Stub worker emitting progress events as fast as it can until the
    closing manager interrupts it."""

    def __init__(self, index: int = 0):
        self.index = index
        self.stop = threading.Event()

    def run(self, request, progress=None):
        tick = 0
        while not self.stop.is_set():
            progress({"phase": "tick", "n": tick})
            tick += 1
        raise RuntimeError("stopped")

    def interrupt(self):
        self.stop.set()

    def as_metrics(self):
        return {}


class TestShutdown:
    def test_close_under_load_ends_every_wait(self):
        # more workers than cores, a short switch interval, and waiters
        # racing the close: every wait must end with the job terminal
        # and every event it took, none appended after
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            manager = JobManager(workers=4, worker_factory=EmittingStub)
            jobs = [manager.submit(tiny_request(bound=b))[0] for b in range(2, 10)]
            seen: dict[str, tuple] = {}

            def follow(job_id: str) -> None:
                seq, terminal = 0, False
                while not terminal:
                    events, terminal = manager.wait_events(job_id, seq, timeout=30)
                    seq += len(events)
                seen[job_id] = (seq, manager.result(job_id, timeout=0))

            followers = [
                threading.Thread(target=follow, args=(job.job_id,))
                for job in jobs
            ]
            for thread in followers:
                thread.start()
            time.sleep(0.2)
            manager.close()
            for thread in followers:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        states = sorted(seen[job.job_id][1].state for job in jobs)
        assert states == ["cancelled"] * 4 + ["failed"] * 4
        for job in jobs:
            seq, result = seen[job.job_id]
            assert result.error == SHUTDOWN_ERROR
            assert seq == manager.status(job.job_id).progress_events
            assert (seq > 0) == (result.state == "failed")

    def test_close_as_a_job_starts_leaves_no_child(self):
        from tests.service.test_pool_process import KillableProcessWorker

        # the job's thread may spawn its worker's child after close()
        # ended the job; close() must still stop it
        before = set(multiprocessing.active_children())
        manager = JobManager(workers=1, worker_factory=KillableProcessWorker)
        # bound 2 parks the child: only close() can end this job
        job, _ = manager.submit(tiny_request(bound=2))
        deadline = time.monotonic() + 10
        while manager.status(job.job_id).state == "queued":
            assert time.monotonic() < deadline, "the job never started"
        manager.close()
        assert manager.result(job.job_id, timeout=0).error == SHUTDOWN_ERROR
        leaked = [
            child
            for child in multiprocessing.active_children()
            if child not in before and child.is_alive()
        ]
        assert leaked == []
