#!/usr/bin/env python
"""CI serve smoke: boot the synthesis daemon and exercise its contract.

Boots `repro.service` on a unix socket with one resident worker, then:

* submits two identical requests while the worker is busy and asserts
  the second coalesces onto the first (``dedup_hits`` and shared job id),
* submits one distinct request and asserts it does NOT coalesce,
* asserts the daemon's suites are byte-identical to a local
  ``synthesize`` run with the same options,
* restarts the daemon over the same CNF cache directory and asserts the
  repeated request reports a warm compile layer
  (``compile_hit_rate > 0`` over ``compile_warm_entries``) while
  streaming live progress events (at least ``start`` and ``finish``),
  then submits the same request with ``jobs=2`` (a worker fanning out
  to children of its own) and asserts the suite is byte-identical,
* races six CPU-bound relational jobs (rvwmo, tso_vmem, sc_vmem and
  scc one bound lower, tso and sc) through a one-worker and a
  two-worker daemon (fresh CNF dirs each; every worker's child started
  beforehand by a small armv8 job, outside the timed window) and
  asserts two workers are at least 1.3x faster wall-clock on hosts
  with two or more CPUs, byte-identical, and that every job streamed
  >= 1 progress event,
* waits on a long job (explicit-oracle power, bound 4) from a thread,
  shuts the daemon down, and asserts it exits within 5 s while the
  waiter gets a terminal ``job-result`` (``shutdown_with_waiter_s``),
* fails whenever a daemon outlives its shutdown by 10 s,
* lints the emitted service trace directory (no orphan spans, every
  span timed) and writes the combined measurement to
  ``BENCH_serve.json`` (``bench-serve`` v3: a ``workers`` block in
  place of v2's ``pools``).

Exit status 0 on success.  Run from the repository root:

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import sys
import tempfile
import threading
import time

from repro.analysis import lint_trace_dir
from repro.core.enumerator import EnumerationConfig
from repro.core.synthesis import OracleSpec, synthesize
from repro.models.registry import get_model
from repro.obs import Report
from repro.service import (
    Client,
    JobManager,
    JobResult,
    ServiceError,
    SynthesisRequest,
    serve_async,
)

BOUND = int(os.environ.get("SERVE_SMOKE_BOUND", "4"))
OUT = os.environ.get("SERVE_SMOKE_OUT", "BENCH_serve.json")
TRACE_DIR = os.environ.get("SERVE_SMOKE_TRACE_DIR", "BENCH_serve_trace")
#: two workers must beat one by this factor on the raced workload
MIN_WORKER_SPEEDUP = float(os.environ.get("SERVE_SMOKE_MIN_SPEEDUP", "1.3"))
#: a daemon must exit this many seconds after a shutdown, even with a
#: client waiting on a running job
SHUTDOWN_LIMIT_S = 5.0
#: the raced jobs at the default bound, longest first, so two workers
#: split them evenly: rvwmo about 3 s on one CPU, the others about 1 s
RACE = (
    ("rvwmo", BOUND - 1),
    ("tso_vmem", BOUND - 1),
    ("sc_vmem", BOUND - 1),
    ("scc", BOUND - 1),
    ("tso", BOUND),
    ("sc", BOUND),
)
#: starts each worker's child before a race; raced by no job
WARMUP_MODEL = "armv8"


def request(
    bound: int = BOUND, model: str = "tso", jobs: int = 1
) -> SynthesisRequest:
    return SynthesisRequest.build(
        model,
        bound=bound,
        jobs=jobs,
        config=EnumerationConfig(max_events=bound, max_addresses=2),
        oracle_spec=OracleSpec(oracle="relational"),
    )


class Daemon:
    """A serve_async loop on a background thread, stoppable."""

    def __init__(self, socket_path: str, failures: list[str], **manager_knobs):
        self.socket_path = socket_path
        self.failures = failures
        self.manager = JobManager(**manager_knobs)
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def body() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await serve_async(
                self.manager,
                socket_path=self.socket_path,
                ready=lambda addr: self._ready.set(),
                stop=self._stop,
            )

        asyncio.run(body())

    def __enter__(self) -> "Daemon":
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("daemon never came up")
        return self

    def stopped(self, timeout: float) -> bool:
        """Wait up to ``timeout`` s for the serve loop to end."""
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def __exit__(self, *exc) -> None:
        assert self._loop is not None and self._stop is not None
        with contextlib.suppress(RuntimeError):  # loop already gone
            self._loop.call_soon_threadsafe(self._stop.set)
        if not self.stopped(10):
            self.failures.append(
                f"daemon on {self.socket_path} still running 10 s after "
                "its shutdown"
            )
        self.manager.close()


def shutdown_with_waiter(workdir: str, failures: list[str]) -> float:
    """Shut a daemon down while a client waits on a long running job.

    Returns the seconds from the shutdown request to the daemon's exit;
    the waiter must get a terminal ``job-result`` for the job.
    """
    socket_path = os.path.join(workdir, "repro-shutdown.sock")
    with Daemon(socket_path, failures, workers=1) as daemon:
        client = Client(socket_path)
        status, _ = client.submit(SynthesisRequest.build("power", bound=4))
        attached = threading.Event()
        waited: list = []

        def wait() -> None:
            try:
                report = client.wait(
                    "result",
                    lambda event: attached.set(),
                    job_id=status.job_id,
                )
                waited.append(JobResult.from_payload(report.payload))
            except ServiceError as exc:
                waited.append(exc)

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        if not attached.wait(60):
            failures.append("waiter saw no progress event from the long job")
        started = time.perf_counter()
        client.shutdown()
        exited = daemon.stopped(SHUTDOWN_LIMIT_S)
        elapsed = time.perf_counter() - started
        if not exited:
            failures.append(
                f"daemon with a waiter still running {SHUTDOWN_LIMIT_S:.0f} s "
                "after shutdown"
            )
        waiter.join(SHUTDOWN_LIMIT_S)
        if not waited or not isinstance(waited[0], JobResult):
            failures.append(
                f"waiter got no job-result at shutdown: {waited or 'nothing'}"
            )
        elif waited[0].state != "failed":
            failures.append(
                f"running job ended {waited[0].state} at shutdown, not failed"
            )
    return elapsed


def race_workers(
    workers: int, workdir: str, failures: list[str], local: dict
) -> tuple[float, dict]:
    """Race the :data:`RACE` jobs through a ``workers``-worker daemon.

    Returns the wall-clock seconds from first submission to last result
    plus the per-job measurement block.  Each arm gets its own socket
    and a fresh CNF cache directory so both daemons do the same (cold,
    CPU-bound) work.  Each worker's child process starts lazily on its
    first job, so every worker first runs one small job of a model no
    raced job uses (it warms no raced checker and no raced CNF entry),
    and the timed window holds the raced jobs only.  ``local`` caches
    one local union per raced model for the byte-identical check.
    """
    socket_path = os.path.join(workdir, f"repro-w{workers}.sock")
    jobs_block: dict = {}
    with Daemon(
        socket_path,
        failures,
        workers=workers,
        cnf_cache_dir=os.path.join(workdir, f"cnf-w{workers}"),
    ):
        client = Client(socket_path)
        # one axiom each, so no warm-up coalesces onto another; a worker
        # that finishes its first warm-up may take the next one too, so
        # rounds repeat until every worker has run one
        warmups = [
            SynthesisRequest.build(
                WARMUP_MODEL,
                bound=2,
                axioms=(axiom,),
                oracle_spec=OracleSpec(oracle="relational"),
            )
            for axiom in get_model(WARMUP_MODEL).axiom_names()[:workers]
        ]
        warmed: set[int | None] = set()
        for _ in range(5):
            for status in [client.submit(warmup)[0] for warmup in warmups]:
                client.result(status.job_id, timeout=600)
                warmed.add(client.status(status.job_id).worker)
            if len(warmed) == workers:
                break
        else:
            failures.append(
                f"{workers}-worker daemon: five warm-up rounds ran on "
                f"workers {sorted(warmed)} only"
            )
        raced = [(model, request(bound, model)) for model, bound in RACE]
        t0 = time.perf_counter()
        submitted = [client.submit(req)[0] for _, req in raced]
        results = [
            client.result(status.job_id, timeout=600) for status in submitted
        ]
        wall = time.perf_counter() - t0
        for (model, req), status, result in zip(raced, submitted, results):
            if result.state != "done":
                failures.append(
                    f"{workers}-worker daemon: {model} job finished "
                    f"{result.state}: {result.error}"
                )
                continue
            final = client.status(status.job_id)
            if final.progress_events < 1:
                failures.append(
                    f"{workers}-worker daemon: {model} job streamed "
                    f"{final.progress_events} progress events"
                )
            if model not in local:
                local[model] = synthesize(get_model(model), req.options).union
            if result.result.union.to_json() != local[model].to_json():
                failures.append(
                    f"{workers}-worker daemon: {model} union differs "
                    "from local run"
                )
            jobs_block[model] = {
                "job_id": status.job_id,
                "progress_events": final.progress_events,
            }
    return wall, jobs_block


def main() -> int:
    failures: list[str] = []
    workdir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    socket_path = os.path.join(workdir, "repro.sock")
    cnf_dir = os.path.join(workdir, "cnf")
    measurement: dict = {"bound": BOUND}

    # --- cold daemon: dedup + byte-identical contract ------------------
    with Daemon(
        socket_path,
        failures,
        workers=1,
        cnf_cache_dir=cnf_dir,
        trace_dir=TRACE_DIR,
    ):
        client = Client(socket_path)
        first, deduped_first = client.submit(request())
        second, deduped_second = client.submit(request())
        distinct, deduped_distinct = client.submit(request(bound=BOUND - 1))
        if deduped_first:
            failures.append("first submission claims to be a duplicate")
        if not deduped_second or second.job_id != first.job_id:
            failures.append(
                "identical active submission did not coalesce "
                f"({first.job_id} vs {second.job_id})"
            )
        if deduped_distinct or distinct.job_id == first.job_id:
            failures.append("distinct request coalesced onto the first job")

        cold = client.result(first.job_id, timeout=600)
        client.result(distinct.job_id, timeout=600)
        if cold.state != "done":
            failures.append(f"cold job finished {cold.state}: {cold.error}")

        metrics = client.metrics()
        measurement["cold_metrics"] = metrics
        if metrics.get("dedup_hits", 0) < 1:
            failures.append(f"dedup_hits = {metrics.get('dedup_hits')}")
        if metrics.get("jobs_submitted") != 2:
            failures.append(f"jobs_submitted = {metrics.get('jobs_submitted')}")

        local = synthesize(get_model("tso"), request().options)
        if cold.result.union.to_json() != local.union.to_json():
            failures.append("daemon union differs from local run")
        for name, suite in local.per_axiom.items():
            if cold.result.per_axiom[name].to_json() != suite.to_json():
                failures.append(f"daemon per-axiom suite differs: {name}")
        cold_stats = dict(cold.result.oracle_stats)
        measurement["cold_oracle_stats"] = cold_stats
        if cold_stats.get("compile_misses", 0) <= 0:
            failures.append("cold run reported no compile misses")

    # --- restarted daemon: the warm-compile story ----------------------
    with Daemon(socket_path, failures, workers=1, cnf_cache_dir=cnf_dir):
        client = Client(socket_path)
        events: list[dict] = []
        warm = client.synthesize(
            "tso", request().options, timeout=600, on_progress=events.append
        )
        phases = [event.get("phase") for event in events]
        measurement["streamed_progress_events"] = len(events)
        if len(events) < 1 or phases[0] != "start" or phases[-1] != "finish":
            failures.append(
                f"streamed synthesize saw phases {phases} (want start.."
                "finish)"
            )
        warm_stats = dict(warm.oracle_stats)
        measurement["warm_oracle_stats"] = warm_stats
        if warm_stats.get("compile_warm_entries", 0) <= 0:
            failures.append(
                "restarted daemon found no warm CNF entries "
                f"(stats: {warm_stats})"
            )
        if warm_stats.get("compile_hit_rate", 0.0) <= 0.0:
            failures.append(
                "restarted daemon reported compile_hit_rate = "
                f"{warm_stats.get('compile_hit_rate')}"
            )
        if warm.union.to_json() != local.union.to_json():
            failures.append("warm daemon union differs from local run")

        sharded = client.synthesize("tso", request(jobs=2).options, timeout=600)
        measurement["sharded_job"] = {"jobs": 2, "shards": sharded.shard_count}
        if sharded.union.to_json() != local.union.to_json():
            failures.append("jobs=2 daemon union differs from local run")

    # --- one worker vs two on a concurrent workload --------------------
    raced_local: dict = {}
    one_wall, one_jobs = race_workers(1, workdir, failures, raced_local)
    two_wall, two_jobs = race_workers(2, workdir, failures, raced_local)
    speedup = one_wall / two_wall if two_wall else 0.0
    # a second worker cannot run in parallel without a second CPU;
    # record the skip instead of failing on starved runners
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    measurement["workers"] = {
        "workload": {"jobs": [f"{model}:{bound}" for model, bound in RACE]},
        "one_worker": {"wall_seconds": one_wall, "jobs": one_jobs},
        "two_workers": {"wall_seconds": two_wall, "jobs": two_jobs},
        "speedup": speedup,
        "cpus": cpus,
        "speedup_enforced": cpus >= 2,
    }
    if cpus >= 2 and speedup < MIN_WORKER_SPEEDUP:
        failures.append(
            f"two-worker speedup {speedup:.2f}x over one worker "
            f"(want >= {MIN_WORKER_SPEEDUP}x; one {one_wall:.2f}s, "
            f"two {two_wall:.2f}s)"
        )
    elif cpus < 2:
        print(
            f"note: single-CPU runner ({cpus} usable); measured "
            f"{speedup:.2f}x but not enforcing the "
            f">= {MIN_WORKER_SPEEDUP}x worker speedup",
        )

    # --- shutdown with a client waiting on a running job --------------
    measurement["shutdown_with_waiter_s"] = shutdown_with_waiter(
        workdir, failures
    )

    # --- the trace the first daemon emitted must lint clean ------------
    findings = lint_trace_dir(TRACE_DIR)
    measurement["trace_findings"] = [f.id for f in findings]
    for finding in findings:
        failures.append(f"trace lint: [{finding.id}] {finding.message}")

    report = Report(
        schema_name="bench-serve",
        schema_version=3,
        command="serve-smoke",
        payload=measurement,
    )
    with open(OUT, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"measurement written to {OUT}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    dedup = measurement["cold_metrics"]["dedup_hits"]
    rate = measurement["warm_oracle_stats"]["compile_hit_rate"]
    print(
        f"serve smoke OK: dedup_hits={dedup}, "
        f"warm compile_hit_rate={rate:.2f}, "
        f"two-worker speedup {speedup:.2f}x, shutdown with a waiter "
        f"{measurement['shutdown_with_waiter_s']:.2f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
