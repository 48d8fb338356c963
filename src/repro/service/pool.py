"""Resident synthesis workers: warm oracle state across service jobs.

A one-shot ``synthesize`` call builds its :class:`MinimalityChecker`
(and with it the analysis memo, the incremental-solver session LRU, and
the CNF compilation cache), uses it for one run, and throws it away.
The daemon's whole point is to *not* do that: a :class:`ResidentWorker`
hosts one dedicated child process (:class:`repro.exec.fanout.ResidentProcess`)
that keeps one warm checker per oracle configuration alive across jobs,
so a repeated request answers out of session/analysis caches and a
restarted daemon re-reads compiled CNF from the disk cache instead of
compiling.  Sibling workers run truly in parallel, and the disk CNF
cache is shared between them.

Two deliberate behaviors:

* **Per-model CNF cache directories.**  When the pool has a cache base
  and a relational request left ``cnf_cache_dir`` unset, the
  worker fills in ``<base>/<model>`` — one directory per model, so a
  multi-model daemon never mixes fingerprints (the SAT008 lint's
  complaint) and the warm-entry count stays meaningful.
* **Delta metrics.**  A resident oracle's counters are cumulative by
  design; the synthesis loop reports every shard's share of them
  (:func:`repro.obs.metrics_delta` — gauges such as
  ``compile_warm_entries`` stay absolute, which is the warmth the
  SAT009 lint keys on), so a job's ``oracle_stats`` are per-job numbers
  whether its checker is warm or fresh.

Results cross the pipe in the wire form
(:func:`repro.service.protocol.result_to_payload`), whose reconstruction
is byte-identical by construction — the same marshalling every remote
client already gets.  A child lives until the daemon shuts down: every
warm cache in it is a bounded LRU, so its memory levels off after the
first few jobs instead of growing with the job count.
"""

from __future__ import annotations

import os
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
    "ResidentWorker",
    "checker_key",
]


def checker_key(model: str, opts: SynthesisOptions) -> tuple:
    """The oracle-configuration identity a warm checker can serve.

    Everything :func:`repro.core.synthesis.build_checker` consumes —
    two requests mapping to the same key are safe to answer with the
    same resident checker, whatever their bound/axioms/config."""
    return (model, CriterionMode(opts.mode).value, opts.oracle_spec)


# -- the child side -------------------------------------------------------------
#
# Module-level so the ResidentTask pickles by reference under fork and
# spawn alike.  The child's state is its warm-checker dict.


def _no_checkers(payload: None) -> dict[tuple, MinimalityChecker]:
    return {}


def _run_job(
    checkers: dict[tuple, MinimalityChecker],
    job: dict,
    emit: Callable[[dict], None],
) -> tuple[dict, bool | None]:
    """Run one request; return its wire-form result and whether a warm
    checker served it (None: a ``jobs > 1`` run, whose children warm
    their own)."""
    request = SynthesisRequest.from_payload(job)
    opts = request.options
    emit({"phase": "start", "model": request.model, "bound": opts.bound})
    model = get_model(request.model)
    checker, warm = None, None
    if opts.jobs == 1:
        key = checker_key(request.model, opts)
        checker = checkers.get(key)
        warm = checker is not None
        if checker is None:
            checker = build_checker(model, opts.mode, opts.oracle_spec)
            checkers[key] = checker
    result = run_sharded(model, replace(opts, progress_events=emit), checker=checker)
    return result_to_payload(result), warm


class ResidentWorker:
    """One worker slot of the service pool, backed by one child process.

    The :class:`repro.service.jobs.JobManager` runs each worker on a
    dedicated thread, so a worker only ever executes one job at a time
    and only that thread writes its counters.  ``as_metrics`` may race
    a running job by one counter; the manager snapshots under its own
    lock.
    """

    def __init__(self, index: int = 0, cnf_cache_base: str | None = None):
        self.index = index
        self.cnf_cache_base = cnf_cache_base
        self.jobs_done = 0
        self.warm_hits = 0
        self.warm_misses = 0
        self._proc = ResidentProcess(
            ResidentTask(setup=_no_checkers, work=_run_job, payload=None)
        )

    def effective_request(self, request: SynthesisRequest) -> SynthesisRequest:
        """The request as this worker will actually run it.

        Fills in the pool's per-model CNF cache directory for relational
        requests that left ``cnf_cache_dir`` unset; everything else
        passes through untouched."""
        spec = request.options.oracle_spec
        if (
            self.cnf_cache_base is not None
            and spec.oracle == "relational"
            and spec.cnf_cache_dir is None
        ):
            return with_cnf_cache_dir(
                request, os.path.join(self.cnf_cache_base, request.model)
            )
        return request

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

        Every ``jobs=1`` run (traced or not) uses the child's warm
        checker; a ``jobs > 1`` run fans out from the child, and its
        children warm their own caches (and share the disk CNF cache
        directory).  A job that raises in the child fails with
        :class:`repro.exec.fanout.RemoteJobError`; a child killed
        mid-job fails it with :class:`repro.exec.fanout.WorkerDied`, and
        the next job spawns a fresh child.
        """
        request = self.effective_request(request)
        payload, warm = self._proc.run(request.to_payload(), on_event=progress)
        result = result_from_payload(payload)
        self.jobs_done += 1
        if warm is True:
            self.warm_hits += 1
        elif warm is False:
            self.warm_misses += 1
        return result, dict(result.oracle_stats)

    def interrupt(self) -> None:
        """Stop the running job's child from another thread (daemon
        shutdown): the job fails with
        :class:`repro.exec.fanout.WorkerDied`."""
        self._proc.interrupt()

    def close(self) -> None:
        """Shut the child down (daemon shutdown path).  Every warm
        checker goes with it; the disk CNF cache survives, and a later
        job spawns a fresh child."""
        self._proc.close()

    def as_metrics(self) -> dict[str, int | float]:
        """Raw worker counters, :class:`repro.obs.Stats` style."""
        return {
            "worker_jobs": self.jobs_done,
            "worker_warm_hits": self.warm_hits,
            "worker_warm_misses": self.warm_misses,
        }
