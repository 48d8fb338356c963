"""The typed request/response protocol of the synthesis service.

Every document that crosses the client/daemon boundary is a
:class:`repro.obs.Report` envelope — the same shape every ``--json``
CLI surface and ``BENCH_*.json`` artifact already uses — wrapping one
of three payload schemas:

``synthesis-request`` (v1)
    a :class:`SynthesisRequest`: a model *name* plus the wire-safe
    subset of :class:`repro.core.synthesis.SynthesisOptions` (the
    :class:`~repro.core.synthesis.OracleSpec` included).  Its :meth:`fingerprint
    <SynthesisRequest.fingerprint>` is the content digest the job queue
    dedups on: two clients submitting equal requests coalesce onto one
    job.
``job-status`` (v1)
    a :class:`JobStatus`: queue/run state, timings, dedup client count,
    and the per-job oracle metric delta.
``job-progress`` (v1)
    a :class:`JobProgress`: one streamed progress event — the structured
    dict a worker's ``progress_events`` callback emitted (enumeration /
    shard / oracle counters, always carrying a ``"phase"`` key) plus its
    per-job sequence number.  Sent by every wait on a job — a ``submit``
    with ``"wait": true`` (after its ``job-status``) and a ``result`` —
    from the job's first event up to its terminal ``job-result``.
``job-result`` (v2)
    a :class:`JobResult`: terminal state plus the full
    :class:`~repro.core.synthesis.SynthesisResult` — suites serialized
    entry-by-entry so the client-side reconstruction is *byte-identical*
    to a local run's suites (same entries, same order, same JSON).  v2
    dropped the per-axiom seconds.

Requests carrying process-local values (an explicit ``candidates``
stream, a ``progress_events`` callback) cannot cross the wire;
:meth:`SynthesisRequest.to_payload` rejects them with
:class:`ValueError` instead of silently dropping them.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

from repro.core.enumerator import EnumerationConfig
from repro.core.minimality import CriterionMode
from repro.core.suite import TestSuite
from repro.core.synthesis import OracleSpec, SynthesisOptions, SynthesisResult
from repro.obs import Report

__all__ = [
    "REQUEST_SCHEMA_NAME",
    "REQUEST_SCHEMA_VERSION",
    "JOB_STATUS_SCHEMA_NAME",
    "JOB_STATUS_SCHEMA_VERSION",
    "JOB_PROGRESS_SCHEMA_NAME",
    "JOB_PROGRESS_SCHEMA_VERSION",
    "JOB_RESULT_SCHEMA_NAME",
    "JOB_RESULT_SCHEMA_VERSION",
    "JOB_LIST_SCHEMA_NAME",
    "SERVICE_METRICS_SCHEMA_NAME",
    "SERVICE_ERROR_SCHEMA_NAME",
    "SERVICE_INFO_SCHEMA_NAME",
    "WIRE_SCHEMA_NAME",
    "WIRE_SCHEMA_VERSION",
    "JobState",
    "SynthesisRequest",
    "JobStatus",
    "JobProgress",
    "JobResult",
    "envelope",
    "error_envelope",
    "result_to_payload",
    "result_from_payload",
]

REQUEST_SCHEMA_NAME = "synthesis-request"
REQUEST_SCHEMA_VERSION = 1
JOB_STATUS_SCHEMA_NAME = "job-status"
JOB_STATUS_SCHEMA_VERSION = 1
JOB_PROGRESS_SCHEMA_NAME = "job-progress"
JOB_PROGRESS_SCHEMA_VERSION = 1
JOB_RESULT_SCHEMA_NAME = "job-result"
JOB_RESULT_SCHEMA_VERSION = 2
JOB_LIST_SCHEMA_NAME = "job-list"
SERVICE_METRICS_SCHEMA_NAME = "service-metrics"
SERVICE_ERROR_SCHEMA_NAME = "service-error"
SERVICE_INFO_SCHEMA_NAME = "service-info"
#: the one request shape the daemon reads off a connection
WIRE_SCHEMA_NAME = "service-request"
WIRE_SCHEMA_VERSION = 1

#: SynthesisOptions fields that never serialize (process-local values)
_LOCAL_ONLY = ("candidates", "progress_events")


class JobState(str, enum.Enum):
    """Lifecycle of one service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


def envelope(
    schema_name: str,
    schema_version: int,
    payload: dict[str, Any],
    command: str = "service",
) -> Report:
    """One service document in the unified Report envelope."""
    return Report(
        schema_name=schema_name,
        schema_version=schema_version,
        command=command,
        payload=payload,
    )


def error_envelope(message: str) -> Report:
    """The one failure shape the daemon answers with."""
    return envelope(SERVICE_ERROR_SCHEMA_NAME, 1, {"error": message})


@dataclass(frozen=True)
class SynthesisRequest:
    """The single public entry shape of the synthesis pipeline.

    Wraps a model *name* (resolved via the registry on whichever side
    runs the work) and a :class:`SynthesisOptions`.  Accepted directly
    by :func:`repro.synthesize` and by the service daemon; the content
    :meth:`fingerprint` is what request deduplication keys on.
    """

    model: str
    options: SynthesisOptions

    @classmethod
    def build(cls, model: str, bound: int = 4, **knobs: Any) -> SynthesisRequest:
        """Convenience constructor: ``SynthesisRequest.build("tso",
        bound=4, oracle_spec=OracleSpec(oracle="relational"), ...)``."""
        return cls(model=model, options=SynthesisOptions(bound=bound, **knobs))

    def to_payload(self) -> dict[str, Any]:
        """The wire form.  Raises :class:`ValueError` for requests
        carrying process-local values that cannot serialize."""
        opts = self.options
        for name in _LOCAL_ONLY:
            if getattr(opts, name) is not None:
                raise ValueError(
                    f"SynthesisOptions.{name} is process-local and cannot "
                    "be sent to a synthesis service"
                )
        return {
            "model": self.model,
            "options": {
                "bound": opts.bound,
                "axioms": list(opts.axioms) if opts.axioms is not None else None,
                "mode": CriterionMode(opts.mode).value,
                "config": asdict(opts.config) if opts.config is not None else None,
                "exact_symmetry": opts.exact_symmetry,
                "jobs": opts.jobs,
                "checkpoint_dir": opts.checkpoint_dir,
                "shards": opts.shards,
                "oracle_spec": opts.oracle_spec.to_payload(),
                "trace_dir": opts.trace_dir,
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> SynthesisRequest:
        model = payload.get("model")
        if not isinstance(model, str) or not model:
            raise ValueError("synthesis request needs a model name")
        raw = payload.get("options")
        if not isinstance(raw, Mapping):
            raise ValueError("synthesis request needs an options object")
        raw = dict(raw)
        config = raw.pop("config", None)
        mode = raw.pop("mode", CriterionMode.EXACT.value)
        known = {
            "bound",
            "axioms",
            "exact_symmetry",
            "jobs",
            "checkpoint_dir",
            "shards",
            "oracle_spec",
            "trace_dir",
        }
        unknown = set(raw) - known
        if unknown:
            # includes the loose pre-1.2 oracle keys, removed in 1.3,
            # and the candidate filter's "reject", removed in 1.6
            raise ValueError(
                f"unknown synthesis option fields {sorted(unknown)} "
                "(oracle knobs travel nested in the oracle_spec object)"
            )
        spec_payload = raw.pop("oracle_spec", None)
        spec = (
            OracleSpec.from_payload(dict(spec_payload))
            if spec_payload is not None
            else OracleSpec()
        )
        axioms = raw.pop("axioms", None)
        options = SynthesisOptions(
            mode=CriterionMode(mode),
            config=EnumerationConfig(**config) if config is not None else None,
            axioms=tuple(axioms) if axioms is not None else None,
            oracle_spec=spec,
            **raw,
        )
        return cls(model=model, options=options)

    def fingerprint(self) -> str:
        """Content digest of the wire form — the dedup key.  Stable
        across processes and runs (no salted ``hash()``)."""
        canonical = json.dumps(self.to_payload(), sort_keys=True)
        return hashlib.blake2b(
            canonical.encode(), digest_size=12
        ).hexdigest()

    def to_report(self) -> Report:
        return envelope(
            REQUEST_SCHEMA_NAME, REQUEST_SCHEMA_VERSION, self.to_payload()
        )


@dataclass(frozen=True)
class JobStatus:
    """A point-in-time snapshot of one job, safe to ship as JSON.

    ``clients`` counts the submissions coalesced onto this job
    (1 = no dedup).  ``queue_seconds`` is filled once the job starts;
    ``run_seconds`` once it finishes.  ``metrics`` is the per-job
    oracle counter *delta* plus derived rates (warm-cache hit rates,
    dedup-visible session reuse) — empty until the job completes.
    """

    job_id: str
    state: str
    fingerprint: str
    model: str
    bound: int
    clients: int = 1
    position: int | None = None
    queue_seconds: float | None = None
    run_seconds: float | None = None
    worker: int | None = None
    error: str | None = None
    progress_events: int = 0
    metrics: dict[str, float] = field(default_factory=dict)

    def to_payload(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "model": self.model,
            "bound": self.bound,
            "clients": self.clients,
            "position": self.position,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
            "worker": self.worker,
            "error": self.error,
            "progress_events": self.progress_events,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> JobStatus:
        return cls(
            job_id=str(payload["job_id"]),
            state=str(payload["state"]),
            fingerprint=str(payload.get("fingerprint", "")),
            model=str(payload.get("model", "")),
            bound=int(payload.get("bound", 0)),
            clients=int(payload.get("clients", 1)),
            position=payload.get("position"),
            queue_seconds=payload.get("queue_seconds"),
            run_seconds=payload.get("run_seconds"),
            worker=payload.get("worker"),
            error=payload.get("error"),
            progress_events=int(payload.get("progress_events", 0)),
            metrics=dict(payload.get("metrics", {})),
        )

    def to_report(self) -> Report:
        return envelope(
            JOB_STATUS_SCHEMA_NAME, JOB_STATUS_SCHEMA_VERSION, self.to_payload()
        )

    def summary(self) -> str:
        bits = [f"{self.job_id} {self.state}", f"{self.model} bound={self.bound}"]
        if self.clients > 1:
            bits.append(f"clients={self.clients}")
        if self.position is not None:
            bits.append(f"position={self.position}")
        if self.queue_seconds is not None:
            bits.append(f"queued={self.queue_seconds:.3f}s")
        if self.run_seconds is not None:
            bits.append(f"ran={self.run_seconds:.3f}s")
        if self.error:
            bits.append(f"error={self.error}")
        return "  ".join(bits)


@dataclass(frozen=True)
class JobProgress:
    """One streamed progress event of one running job.

    ``event`` is the structured dict the worker's ``progress_events``
    callback emitted — always carrying a ``"phase"`` key (``start`` /
    ``enumerate`` / ``shard`` / ``finish``) plus phase-specific
    counters.  ``seq`` is the 0-based position in the job's event
    stream, so a client resuming a dropped stream can dedup.
    """

    job_id: str
    seq: int
    event: dict[str, Any]

    def to_payload(self) -> dict[str, Any]:
        return {"job_id": self.job_id, "seq": self.seq, "event": dict(self.event)}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> JobProgress:
        return cls(
            job_id=str(payload["job_id"]),
            seq=int(payload["seq"]),
            event=dict(payload.get("event", {})),
        )

    def to_report(self) -> Report:
        return envelope(
            JOB_PROGRESS_SCHEMA_NAME,
            JOB_PROGRESS_SCHEMA_VERSION,
            self.to_payload(),
        )


# -- result marshalling ------------------------------------------------------------


def result_to_payload(result: SynthesisResult) -> dict[str, Any]:
    """Full wire form of a :class:`SynthesisResult` (suites included)."""
    return {
        "model": result.model_name,
        "bound": result.bound,
        "jobs": result.jobs,
        "shards": result.shard_count,
        "candidates": result.candidates,
        "unique_candidates": result.unique_candidates,
        "minimal_tests": result.minimal_tests,
        "wall_seconds": result.wall_seconds,
        "cpu_seconds": result.cpu_seconds,
        "oracle": dict(result.oracle_stats),
        "per_axiom": {
            name: suite.to_dict()
            for name, suite in result.per_axiom.items()
        },
        "union": result.union.to_dict(),
    }


def result_from_payload(payload: Mapping[str, Any]) -> SynthesisResult:
    return SynthesisResult(
        model_name=payload["model"],
        bound=payload["bound"],
        per_axiom={
            name: TestSuite.from_dict(item)
            for name, item in payload["per_axiom"].items()
        },
        union=TestSuite.from_dict(payload["union"]),
        candidates=payload.get("candidates", 0),
        unique_candidates=payload.get("unique_candidates", 0),
        minimal_tests=payload.get("minimal_tests", 0),
        wall_seconds=payload.get("wall_seconds", 0.0),
        cpu_seconds=payload.get("cpu_seconds", 0.0),
        jobs=payload.get("jobs", 1),
        shard_count=payload.get("shards", 0),
        oracle_stats=dict(payload.get("oracle", {})),
    )


@dataclass(frozen=True)
class JobResult:
    """The terminal answer for one job.

    ``result`` is populated only for :attr:`JobState.DONE`; failed and
    cancelled jobs carry ``error`` instead.
    """

    job_id: str
    state: str
    error: str | None = None
    result: SynthesisResult | None = None

    def to_payload(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "error": self.error,
            "result": (
                result_to_payload(self.result) if self.result is not None else None
            ),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> JobResult:
        raw = payload.get("result")
        return cls(
            job_id=str(payload["job_id"]),
            state=str(payload["state"]),
            error=payload.get("error"),
            result=result_from_payload(raw) if raw is not None else None,
        )

    def to_report(self) -> Report:
        return envelope(
            JOB_RESULT_SCHEMA_NAME, JOB_RESULT_SCHEMA_VERSION, self.to_payload()
        )


def with_cnf_cache_dir(
    request: SynthesisRequest, directory: str
) -> SynthesisRequest:
    """A copy of ``request`` with the daemon's default CNF cache
    directory filled in (only when the request left it unset)."""
    spec = request.options.oracle_spec
    if spec.cnf_cache_dir is not None:
        return request
    return SynthesisRequest(
        model=request.model,
        options=replace(
            request.options,
            oracle_spec=replace(spec, cnf_cache_dir=directory),
        ),
    )
