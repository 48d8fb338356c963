"""Synthesis-as-a-service: daemon, job queue, and thin client.

The package splits along the process boundary:

* :mod:`repro.service.protocol` — the typed request/response shapes
  (:class:`SynthesisRequest`, :class:`JobStatus`, :class:`JobResult`)
  and their :class:`repro.obs.Report` envelope serialization;
* :mod:`repro.service.pool` — resident worker processes keeping oracle
  caches warm across jobs;
* :mod:`repro.service.jobs` — the transport-free job queue with
  request-fingerprint deduplication;
* :mod:`repro.service.server` — the asyncio wire adapter behind
  ``repro serve``;
* :mod:`repro.service.client` — the synchronous client behind
  ``repro submit`` / ``repro jobs`` / ``synthesize --server``.

A daemon's answers are *byte-identical* to local runs: results cross
the wire entry-by-entry and are reassembled in candidate order, so the
suite ``synthesize --server ADDR --out FILE`` writes equals the local
one.  The daemon serves one caller's pipeline: submissions carry no
client name, and a failure is a ``service-error`` envelope holding only
its message.
"""

from repro.service.client import Client, ServiceError, parse_address
from repro.service.jobs import Job, JobManager
from repro.service.pool import ResidentWorker
from repro.service.protocol import (
    JobProgress,
    JobResult,
    JobState,
    JobStatus,
    SynthesisRequest,
    result_from_payload,
    result_to_payload,
)
from repro.service.server import serve, serve_async

__all__ = [
    "SynthesisRequest",
    "JobState",
    "JobStatus",
    "JobProgress",
    "JobResult",
    "result_to_payload",
    "result_from_payload",
    "Job",
    "JobManager",
    "ResidentWorker",
    "Client",
    "ServiceError",
    "parse_address",
    "serve",
    "serve_async",
]
