"""Resident synthesis workers: warm oracle state across service jobs.

A one-shot ``synthesize`` call builds its :class:`MinimalityChecker`
(and with it the analysis memo, the incremental-solver session LRU, and
the CNF compilation cache), uses it for one run, and throws it away.
The daemon's whole point is to *not* do that: a :class:`ResidentWorker`
keeps one warm checker per oracle configuration alive across jobs, so a
repeated request answers out of session/analysis caches and a restarted
daemon re-reads compiled CNF from the disk cache instead of compiling.

Two deliberate behaviors:

* **Per-model CNF cache directories.**  When the pool has a cache base
  and a relational-incremental request left ``cnf_cache_dir`` unset, the
  worker fills in ``<base>/<model>`` — one directory per model, so a
  multi-model daemon never mixes fingerprints (the SAT008 lint's
  complaint) and the warm-entry count stays meaningful.
* **Delta metrics.**  A resident oracle's counters are cumulative by
  design; the synthesis loop reports every shard's share of them
  (:func:`repro.obs.metrics_delta` — gauges such as
  ``compile_warm_entries`` stay absolute, which is the warmth the
  SAT009 lint keys on), so a job's ``oracle_stats`` are per-job numbers
  whether its checker is warm or fresh.

Recycling (``recycle_after=N``) drops every warm checker after N jobs —
bounding memory growth of the session LRU and analysis memos, and, for
tests, forcing the next job through the disk CNF cache.

Two worker species share one interface (``run(request, progress=...)``
/ ``recycle()`` / ``as_metrics()``):

* :class:`ResidentWorker` — in-process, checker warm in this
  interpreter.  CPU-bound jobs on sibling workers serialize on the GIL.
* :class:`ProcessResidentWorker` — the same worker hosted in one
  dedicated child process via :class:`repro.exec.fanout.ResidentProcess`.
  Sibling workers run truly in parallel; warm checkers live in the
  child, the disk CNF cache is shared, and recycling restarts the child
  (so recycled memory is *really* returned).  Progress events stream
  back over the pipe while the job runs.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import replace

from repro.core.minimality import CriterionMode, MinimalityChecker
from repro.core.synthesis import SynthesisOptions, SynthesisResult, build_checker
from repro.exec.fanout import ResidentProcess, ResidentTask
from repro.exec.runtime import run_sharded
from repro.models.registry import get_model
from repro.service.protocol import (
    SynthesisRequest,
    result_from_payload,
    result_to_payload,
    with_cnf_cache_dir,
)

__all__ = [
    "ProcessResidentWorker",
    "ResidentWorker",
    "checker_key",
]


def checker_key(model: str, opts: SynthesisOptions) -> tuple:
    """The oracle-configuration identity a warm checker can serve.

    Everything :func:`repro.core.synthesis.build_checker` consumes —
    two requests mapping to the same key are safe to answer with the
    same resident checker, whatever their bound/axioms/config."""
    return (model, CriterionMode(opts.mode).value, opts.oracle_spec)


class ResidentWorker:
    """One worker slot of the service pool.

    Not thread-safe on its own — the :class:`repro.service.jobs.JobManager`
    runs each worker on a dedicated thread, so a worker only ever executes
    one job at a time.  ``as_metrics`` may race a running job by one
    counter; the manager snapshots under its own lock.
    """

    def __init__(
        self,
        index: int = 0,
        recycle_after: int = 0,
        cnf_cache_base: str | None = None,
    ):
        self.index = index
        #: drop warm checkers after this many jobs (0 = never)
        self.recycle_after = recycle_after
        self.cnf_cache_base = cnf_cache_base
        self._checkers: dict[tuple, MinimalityChecker] = {}
        self.jobs_done = 0
        self.recycles = 0
        self.warm_hits = 0
        self.warm_misses = 0
        self._lock = threading.Lock()

    # -- option resolution -------------------------------------------------

    def effective_request(self, request: SynthesisRequest) -> SynthesisRequest:
        """The request as this worker will actually run it.

        Fills in the pool's per-model CNF cache directory for
        relational-incremental requests that left ``cnf_cache_dir``
        unset; everything else passes through untouched."""
        spec = request.options.oracle_spec
        if (
            self.cnf_cache_base is not None
            and spec.oracle == "relational"
            and spec.incremental
            and spec.cnf_cache_dir is None
        ):
            import os

            return with_cnf_cache_dir(
                request, os.path.join(self.cnf_cache_base, request.model)
            )
        return request

    def _checker_for(self, request: SynthesisRequest) -> MinimalityChecker:
        key = checker_key(request.model, request.options)
        checker = self._checkers.get(key)
        if checker is not None:
            self.warm_hits += 1
            return checker
        self.warm_misses += 1
        opts = request.options
        checker = build_checker(get_model(request.model), opts.mode, opts.oracle_spec)
        self._checkers[key] = checker
        return checker

    def recycle(self) -> None:
        """Drop every warm checker (sessions, memos, in-memory CNF LRU).
        The disk CNF cache layer survives — that is what makes the next
        job's ``compile_hit_rate`` a restart-survival measurement."""
        with self._lock:
            self._checkers.clear()
            self.recycles += 1

    # -- job execution -----------------------------------------------------

    def run(
        self,
        request: SynthesisRequest,
        progress: Callable[[dict], None] | None = None,
    ) -> tuple[SynthesisResult, dict[str, float]]:
        """Run one job; return the result plus this job's metric delta.

        ``progress`` receives the job's structured progress events: one
        ``{"phase": "start", ...}`` up front, then whatever the
        synthesis run emits through ``progress_events`` (periodic
        ``enumerate`` events and a terminal ``finish`` when unsharded,
        per-shard ``shard`` events when sharded).

        Every in-process run (``jobs=1``, traced or not) uses this
        worker's warm checker; a ``jobs > 1`` run's pool workers warm
        their own caches (and share the disk CNF cache directory).
        """
        request = self.effective_request(request)
        opts = request.options
        if progress is not None:
            progress(
                {
                    "phase": "start",
                    "model": request.model,
                    "bound": opts.bound,
                }
            )
            opts = replace(opts, progress_events=progress)
        checker = self._checker_for(request) if opts.jobs == 1 else None
        result = run_sharded(get_model(request.model), opts, checker=checker)
        metrics = dict(result.oracle_stats)
        with self._lock:
            self.jobs_done += 1
            due = (
                self.recycle_after > 0
                and self.jobs_done % self.recycle_after == 0
            )
        if due:
            self.recycle()
        return result, metrics

    def as_metrics(self) -> dict[str, int | float]:
        """Raw worker counters, :class:`repro.obs.Stats` style."""
        return {
            "worker_jobs": self.jobs_done,
            "worker_recycles": self.recycles,
            "worker_warm_hits": self.warm_hits,
            "worker_warm_misses": self.warm_misses,
        }


# -- the process-backed worker ------------------------------------------------
#
# The child process hosts a plain ResidentWorker (recycle_after=0 — the
# *parent* recycles by restarting the whole child, which is the stronger
# guarantee).  Both bridge functions are module-level so the ResidentTask
# pickles by reference under fork and spawn alike.


def _process_setup(payload: dict) -> ResidentWorker:
    return ResidentWorker(
        index=payload["index"],
        recycle_after=0,
        cnf_cache_base=payload["cnf_cache_base"],
    )


def _process_work(
    worker: ResidentWorker, job: dict, emit: Callable[[dict], None]
) -> tuple[dict, dict, dict]:
    request = SynthesisRequest.from_payload(job)
    result, metrics = worker.run(request, progress=emit)
    return result_to_payload(result), metrics, worker.as_metrics()


class ProcessResidentWorker:
    """A :class:`ResidentWorker` hosted in its own child process.

    Same interface and same per-model CNF cache policy (the child runs
    the exact same ``ResidentWorker`` code), but CPU-bound jobs on
    sibling workers no longer share a GIL.  Results cross the pipe in
    the wire form (:func:`repro.service.protocol.result_to_payload`),
    whose reconstruction is byte-identical by construction — the same
    marshalling every remote client already gets.

    ``recycle()`` restarts the child process; the on-disk CNF cache
    survives, everything in child memory is rebuilt.  A child killed
    mid-job raises :class:`repro.exec.fanout.WorkerDied` for that job;
    the next job spawns a fresh child.
    """

    def __init__(
        self,
        index: int = 0,
        recycle_after: int = 0,
        cnf_cache_base: str | None = None,
    ):
        self.index = index
        self.recycle_after = recycle_after
        self.cnf_cache_base = cnf_cache_base
        self.jobs_done = 0
        self.recycles = 0
        self._warm_hits = 0
        self._warm_misses = 0
        #: the child's counter snapshot at the end of its previous job —
        #: resets with the child, so parent-side totals survive restarts
        self._last_child: dict[str, int | float] = {}
        self._lock = threading.Lock()
        self._proc = ResidentProcess(
            ResidentTask(
                setup=_process_setup,
                work=_process_work,
                payload={"index": index, "cnf_cache_base": cnf_cache_base},
            )
        )

    @property
    def pid(self) -> int | None:
        """The live child's PID (None before the first job)."""
        return self._proc.pid

    def recycle(self) -> None:
        """Restart the child process (next job respawns it warm-free)."""
        with self._lock:
            self._proc.restart()
            self._last_child = {}
            self.recycles += 1

    def run(
        self,
        request: SynthesisRequest,
        progress: Callable[[dict], None] | None = None,
    ) -> tuple[SynthesisResult, dict[str, float]]:
        try:
            payload, metrics, child_counters = self._proc.run(
                request.to_payload(), on_event=progress
            )
        except Exception:
            with self._lock:
                self._last_child = {}  # whatever died took its counters
            raise
        with self._lock:
            self._warm_hits += child_counters.get(
                "worker_warm_hits", 0
            ) - self._last_child.get("worker_warm_hits", 0)
            self._warm_misses += child_counters.get(
                "worker_warm_misses", 0
            ) - self._last_child.get("worker_warm_misses", 0)
            self._last_child = dict(child_counters)
            self.jobs_done += 1
            due = (
                self.recycle_after > 0
                and self.jobs_done % self.recycle_after == 0
            )
        if due:
            self.recycle()
        return result_from_payload(payload), dict(metrics)

    def close(self) -> None:
        """Shut the child down for good (daemon shutdown path)."""
        self._proc.close()

    def as_metrics(self) -> dict[str, int | float]:
        return {
            "worker_jobs": self.jobs_done,
            "worker_recycles": self.recycles,
            "worker_warm_hits": self._warm_hits,
            "worker_warm_misses": self._warm_misses,
        }
