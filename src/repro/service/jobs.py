"""The service job queue: submit, dedup, run, report.

The :class:`JobManager` is the daemon's engine and is deliberately
transport-free — one thread per worker, a :class:`queue.Queue`, and one
condition variable that every progress event and every terminal state
transition notifies, so :meth:`JobManager.wait_events` and
:meth:`JobManager.result` are the same wait.  The asyncio server in
:mod:`repro.service.server` is a thin wire adapter over it, and tests
drive it directly without any sockets.  The queue is first in, first
out, with no per-submitter accounting: the daemon serves one caller's
synthesis pipeline.

**Request deduplication.**  Submissions are keyed by
:meth:`SynthesisRequest.fingerprint`.  While a job for a fingerprint is
*active* (queued or running), an identical submission coalesces onto it:
no new job, the client count bumps, and every waiter gets the same
result.  A fingerprint whose job already finished starts a *new* job —
re-running a warm request is exactly how cache warmth is measured, and
serving stale results from an unbounded memo is a retention policy this
daemon does not want.

**Tracing.**  With a ``trace_dir`` the manager writes a standard
:mod:`repro.obs` trace (``meta.json`` + ``service.jsonl``): one
``begin``/``span`` event pair plus a counters snapshot per finished job,
all emitted at completion time under the manager lock, because
:class:`repro.obs.Tracer` is single-threaded by design.  ``repro
report`` and the OBS lints read it like any other trace directory.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.synthesis import SynthesisResult
from repro.obs import Tracer, merge_metrics, write_trace_meta
from repro.service.pool import ResidentWorker
from repro.service.protocol import (
    JobResult,
    JobState,
    JobStatus,
    SynthesisRequest,
)

__all__ = ["SHUTDOWN_ERROR", "Job", "JobManager"]

#: the error of every job still queued or running when the manager closes
SHUTDOWN_ERROR = "the service shut down before the job finished"


@dataclass
class Job:
    """One unit of queued synthesis work (manager-internal, mutable)."""

    job_id: str
    seq: int
    request: SynthesisRequest
    fingerprint: str
    state: JobState = JobState.QUEUED
    clients: int = 1
    events: list[dict] = field(default_factory=list)
    submitted: float = field(default_factory=time.perf_counter)
    started: float | None = None
    finished: float | None = None
    worker: int | None = None
    error: str | None = None
    result: SynthesisResult | None = None
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def queue_seconds(self) -> float | None:
        if self.started is None:
            return None
        return self.started - self.submitted

    @property
    def run_seconds(self) -> float | None:
        if self.started is None or self.finished is None:
            return None
        return self.finished - self.started


class JobManager:
    """Worker threads + queue + dedup index; the daemon minus the sockets.

    Args:
        workers: resident worker count; each
            :class:`~repro.service.pool.ResidentWorker` keeps its warm
            state in a dedicated child process, so concurrent jobs run
            truly in parallel.
        cnf_cache_dir: base directory for the workers' per-model CNF
            compilation caches (see
            :meth:`repro.service.pool.ResidentWorker.effective_request`).
        trace_dir: optional :mod:`repro.obs` trace directory.
        worker_factory: test hook — a callable ``(index) -> worker``
            returning anything with ``run(request, progress=...)`` and
            ``as_metrics()``; :meth:`close` also calls its optional
            ``interrupt()`` (stop the running job, from another thread)
            and ``close()``.
    """

    def __init__(
        self,
        workers: int = 1,
        cnf_cache_dir: str | None = None,
        trace_dir: str | None = None,
        worker_factory: Callable[[int], Any] | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._lock = threading.Lock()
        #: shares the manager lock; notified on every appended progress
        #: event and every terminal state transition
        self._events = threading.Condition(self._lock)
        self._queue: queue.Queue[Job | None] = queue.Queue()
        self._jobs: dict[str, Job] = {}
        self._active: dict[str, Job] = {}  # fingerprint -> queued/running job
        self._seq = itertools.count(1)
        self.dedup_hits = 0
        self.jobs_submitted = 0
        self.jobs_finished = 0
        self._closed = False
        if worker_factory is None:
            worker_factory = lambda index: ResidentWorker(  # noqa: E731
                index, cnf_cache_base=cnf_cache_dir
            )
        self.workers = [worker_factory(index) for index in range(workers)]
        self._tracer: Tracer | None = None
        self._trace_id = itertools.count(1)
        if trace_dir is not None:
            write_trace_meta(trace_dir, "serve", workers=workers)
            self._tracer = Tracer(os.path.join(trace_dir, "service.jsonl"))
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(worker,),
                name=f"repro-service-worker-{worker.index}",
                daemon=True,
            )
            for worker in self.workers
        ]
        for thread in self._threads:
            thread.start()

    # -- client-facing operations ------------------------------------------

    def submit(self, request: SynthesisRequest) -> tuple[Job, bool]:
        """Enqueue a request; returns ``(job, deduped)``.

        ``deduped`` is True when the submission coalesced onto an
        already-active identical job instead of creating a new one.
        """
        fingerprint = request.fingerprint()
        with self._lock:
            if self._closed:
                raise RuntimeError("job manager is closed")
            active = self._active.get(fingerprint)
            if active is not None and not active.state.terminal:
                active.clients += 1
                self.dedup_hits += 1
                return active, True
            seq = next(self._seq)
            job = Job(
                job_id=f"job-{seq:04d}",
                seq=seq,
                request=request,
                fingerprint=fingerprint,
            )
            self._jobs[job.job_id] = job
            self._active[fingerprint] = job
            self.jobs_submitted += 1
        self._queue.put(job)
        return job, False

    def status(self, job_id: str) -> JobStatus | None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            return self._status_locked(job)

    def jobs(self) -> list[JobStatus]:
        """Every known job, submission order."""
        with self._lock:
            return [
                self._status_locked(job)
                for job in sorted(self._jobs.values(), key=lambda j: j.seq)
            ]

    def result(self, job_id: str, timeout: float | None = None) -> JobResult | None:
        """Block until the job reaches a terminal state (or timeout).

        Returns ``None`` for unknown ids; raises :class:`TimeoutError`
        when the wait expires."""
        with self._events:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if not self._events.wait_for(lambda: job.state.terminal, timeout):
                raise TimeoutError(f"job {job_id} still {job.state.value}")
            return JobResult(
                job_id=job.job_id,
                state=job.state.value,
                error=job.error,
                result=job.result,
            )

    def wait_events(
        self, job_id: str, start: int = 0, timeout: float | None = None
    ) -> tuple[list[dict], bool] | None:
        """Block until job ``job_id`` has progress events past ``start``
        (or reaches a terminal state); return ``(new_events, terminal)``.

        The server's one wait calls this in a loop, advancing ``start``
        by however many events each call returned; a job takes no events
        once terminal, so ``terminal`` means the stream is complete.
        Returns ``None`` for unknown ids and raises :class:`TimeoutError`
        when ``timeout`` expires first.
        """
        with self._events:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if not self._events.wait_for(
                lambda: len(job.events) > start or job.state.terminal, timeout
            ):
                raise TimeoutError(f"job {job_id} still {job.state.value}")
            return list(job.events[start:]), job.state.terminal

    def cancel(self, job_id: str) -> JobStatus | None:
        """Cancel a *queued* job; running and finished jobs are left
        alone (the synthesis loop has no safe preemption point)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state is JobState.QUEUED:
                self._finish_locked(
                    job, JobState.CANCELLED, "cancelled while queued"
                )
            return self._status_locked(job)

    def metrics(self) -> dict[str, int | float]:
        """Service-level counters plus the summed worker counters."""
        with self._lock:
            queued = sum(
                1 for j in self._jobs.values() if j.state is JobState.QUEUED
            )
            running = sum(
                1 for j in self._jobs.values() if j.state is JobState.RUNNING
            )
            base: dict[str, int | float] = {
                "jobs_submitted": self.jobs_submitted,
                "jobs_finished": self.jobs_finished,
                "jobs_queued": queued,
                "jobs_running": running,
                "dedup_hits": self.dedup_hits,
            }
            worker_totals = merge_metrics(
                *(worker.as_metrics() for worker in self.workers)
            )
        return {**base, **worker_totals}

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, end every unfinished job, close the trace.

        Queued jobs are cancelled and running ones fail, both with
        :data:`SHUTDOWN_ERROR`, so every waiter gets its terminal answer
        at once.  A worker whose thread is still busy has its child
        interrupted (the abandoned job's run raises) before the thread
        is joined; each worker is closed once its thread has ended."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for job in self._jobs.values():
                if job.state is JobState.QUEUED:
                    self._finish_locked(job, JobState.CANCELLED, SHUTDOWN_ERROR)
                elif job.state is JobState.RUNNING:
                    self._finish_locked(job, JobState.FAILED, SHUTDOWN_ERROR)
        for _ in self._threads:
            self._queue.put(None)
        deadline = time.monotonic() + timeout
        for worker, thread in zip(self.workers, self._threads):
            # an idle thread ends on its sentinel; a busy one runs a job
            # ended above, and is interrupted until it ends (a job that
            # started as the manager closed may spawn its child late)
            interrupt = getattr(worker, "interrupt", None)
            thread.join(0.05)
            while thread.is_alive() and time.monotonic() < deadline:
                if interrupt is not None:
                    interrupt()
                thread.join(0.05)
        for worker in self.workers:
            close_worker = getattr(worker, "close", None)
            if close_worker is not None:
                close_worker()
        with self._lock:
            if self._tracer is not None:
                self._tracer.close()
                self._tracer = None

    def __enter__(self) -> JobManager:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _finish_locked(
        self, job: Job, state: JobState, error: str | None = None
    ) -> None:
        """Move ``job`` to terminal ``state`` and wake every waiter."""
        job.state = state
        job.error = error
        job.finished = time.perf_counter()
        self._active.pop(job.fingerprint, None)
        self._events.notify_all()

    def _status_locked(self, job: Job) -> JobStatus:
        position = None
        if job.state is JobState.QUEUED:
            position = sum(
                1
                for other in self._jobs.values()
                if other.state is JobState.QUEUED and other.seq < job.seq
            )
        return JobStatus(
            job_id=job.job_id,
            state=job.state.value,
            fingerprint=job.fingerprint,
            model=job.request.model,
            bound=job.request.options.bound,
            clients=job.clients,
            position=position,
            queue_seconds=job.queue_seconds,
            run_seconds=job.run_seconds,
            worker=job.worker,
            error=job.error,
            progress_events=len(job.events),
            metrics=dict(job.metrics),
        )

    def _worker_loop(self, worker: Any) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                if job.state is not JobState.QUEUED:
                    continue  # cancelled while queued
                job.state = JobState.RUNNING
                job.started = time.perf_counter()
                job.worker = worker.index

            def emit(event: dict, job: Job = job) -> None:
                with self._events:
                    if not job.state.terminal:  # not after close() ended it
                        job.events.append(dict(event))
                        self._events.notify_all()

            try:
                result, metrics = worker.run(job.request, progress=emit)
                error = None
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                result, metrics, error = None, {}, f"{type(exc).__name__}: {exc}"
            with self._lock:
                if job.state.terminal:
                    continue  # close() ended it while it ran
                if error is None:
                    job.result = result
                    job.metrics = dict(metrics)
                self._finish_locked(
                    job, JobState.DONE if error is None else JobState.FAILED, error
                )
                self.jobs_finished += 1
                self._trace_job_locked(job)

    def _trace_job_locked(self, job: Job) -> None:
        """Emit one complete begin/span pair (plus counters) per job.

        The tracer is not thread-safe and a job's duration is already
        known at completion, so both events are written here, under the
        manager lock — every ``begin`` has its ``span``, which is what
        the OBS001 lint checks.
        """
        tracer = self._tracer
        if tracer is None:
            return
        span_id = next(self._trace_id)
        tracer.event("begin", id=span_id, name="job", parent=None)
        attrs = {
            "job": job.job_id,
            "model": job.request.model,
            "bound": job.request.options.bound,
            "state": job.state.value,
            "clients": job.clients,
            "worker": job.worker,
            "progress_events": len(job.events),
            "queue_seconds": round(job.queue_seconds or 0.0, 6),
        }
        tracer.event(
            "span",
            id=span_id,
            name="job",
            parent=None,
            wall=round(job.run_seconds or 0.0, 6),
            attrs=attrs,
        )
        if job.metrics:
            raw = {
                key: value
                for key, value in job.metrics.items()
                if not key.endswith("_rate")
            }
            tracer.counters(raw, job=job.job_id)
