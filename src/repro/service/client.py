"""The thin synchronous client of the synthesis daemon.

One :class:`Client` per daemon address; one socket connection per call
(holding connections open buys nothing and leaks file descriptors into
forked test runners).  Addresses are either a filesystem path (a unix
socket) or ``host:port``; :func:`parse_address` decides by shape.

Most exchanges are one request line and one response line; waiting on a
job (:meth:`Client.wait`, behind :meth:`Client.result` and
:meth:`Client.synthesize`) reads the job's progress envelopes and then
its result off the same connection.  Every method unwraps the daemon's
:class:`repro.obs.Report` envelope into the matching protocol type and
converts ``service-error`` envelopes into :class:`ServiceError` —
callers never see raw wire documents unless they ask for them
(``call``, ``wait``).
"""

from __future__ import annotations

import contextlib
import json
import socket
from typing import Any, Callable, Iterator

from repro.core.synthesis import SynthesisOptions, SynthesisResult
from repro.obs import Report, load_report
from repro.service.protocol import (
    JOB_PROGRESS_SCHEMA_NAME,
    JOB_RESULT_SCHEMA_NAME,
    SERVICE_ERROR_SCHEMA_NAME,
    WIRE_SCHEMA_NAME,
    WIRE_SCHEMA_VERSION,
    JobProgress,
    JobResult,
    JobStatus,
    SynthesisRequest,
    envelope,
)

__all__ = ["Client", "ServiceError", "parse_address"]


class ServiceError(RuntimeError):
    """The daemon answered with a ``service-error`` envelope (or the
    transport failed)."""


def parse_address(address: str) -> tuple[str | None, str, int | None]:
    """Split an address into ``(socket_path, host, port)``.

    ``host:port`` shapes (exactly one colon, integer tail) are TCP;
    everything else is a unix socket path — which keeps bare paths like
    ``/tmp/repro.sock`` and relative ones like ``./daemon.sock`` working
    without a scheme prefix.
    """
    host, sep, tail = address.rpartition(":")
    if sep and host and "/" not in address:
        try:
            return None, host, int(tail)
        except ValueError:
            pass
    return address, "", None


class Client:
    """Talk to one daemon.  ``Client("host:8765")`` or
    ``Client("/tmp/repro.sock")``."""

    def __init__(self, address: str, timeout: float | None = 60.0):
        self.address = address
        #: socket timeout: the longest silence tolerated between two
        #: envelopes (None: wait forever)
        self.timeout = timeout
        self._socket_path, self._host, self._port = parse_address(address)

    # -- transport ---------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            target: Any = self._socket_path
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            target = (self._host, self._port)
        sock.settimeout(self.timeout)
        try:
            sock.connect(target)
        except OSError as exc:
            sock.close()
            raise ServiceError(
                f"cannot reach synthesis service at {self.address}: {exc}"
            ) from exc
        return sock

    def call(self, op: str, **fields: Any) -> Report:
        """One request/response exchange; returns the raw envelope —
        the first one :meth:`stream` yields.

        Raises :class:`ServiceError` for transport failures and for
        ``service-error`` answers."""
        replies = self.stream(op, **fields)
        try:
            report = next(replies, None)
        finally:
            replies.close()  # closes the socket
        if report is None:
            raise ServiceError(
                f"the service at {self.address} closed the connection "
                "without answering"
            )
        return report

    def stream(self, op: str, **fields: Any) -> Iterator[Report]:
        """One request, many response envelopes, on one connection.

        Yields each envelope as it arrives; the iterator ends after the
        terminal ``job-result`` or when the daemon hangs up.
        ``service-error`` envelopes raise :class:`ServiceError`.
        """
        request = envelope(
            WIRE_SCHEMA_NAME, WIRE_SCHEMA_VERSION, {"op": op, **fields}
        )
        line = json.dumps(request.to_json_dict(), sort_keys=True) + "\n"
        sock = self._connect()
        try:
            sock.sendall(line.encode("utf-8"))
            buffer = b""
            closed = False
            while True:
                newline = buffer.find(b"\n")
                if newline < 0:
                    if closed:
                        if buffer.strip():
                            raise ServiceError(
                                f"the service at {self.address} closed the "
                                "stream mid-envelope"
                            )
                        return  # clean end without a job-result: hangup
                    try:
                        chunk = sock.recv(65536)
                    except TimeoutError as exc:
                        raise ServiceError(
                            "timed out waiting for the service at "
                            f"{self.address}"
                        ) from exc
                    if not chunk:
                        closed = True
                    buffer += chunk
                    continue
                raw, buffer = buffer[:newline], buffer[newline + 1 :]
                if not raw.strip():
                    continue
                try:
                    report = load_report(json.loads(raw.decode("utf-8")))
                except (UnicodeDecodeError, ValueError) as exc:
                    raise ServiceError(
                        f"unparseable service response: {exc}"
                    ) from exc
                if report.schema_name == SERVICE_ERROR_SCHEMA_NAME:
                    raise ServiceError(
                        str(report.payload.get("error", "unknown error"))
                    )
                yield report
                if report.schema_name == JOB_RESULT_SCHEMA_NAME:
                    return
        finally:
            sock.close()

    # -- operations --------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.call("ping").payload.get("ok"))

    def submit(self, request: SynthesisRequest) -> tuple[JobStatus, bool]:
        """Submit without waiting; returns ``(status, deduped)``."""
        report = self.call("submit", request=request.to_payload())
        return (
            JobStatus.from_payload(report.payload),
            bool(report.payload.get("deduped")),
        )

    def status(self, job_id: str) -> JobStatus:
        return JobStatus.from_payload(self.call("status", job_id=job_id).payload)

    def jobs(self) -> list[JobStatus]:
        report = self.call("jobs")
        return [
            JobStatus.from_payload(item) for item in report.payload.get("jobs", [])
        ]

    def wait(
        self,
        op: str,
        on_progress: Callable[[dict], None] | None = None,
        **fields: Any,
    ) -> Report:
        """One waiting exchange — ``result``, or ``submit`` with
        ``wait=True`` — returning its ``job-result`` envelope.

        ``on_progress`` receives each of the job's progress event dicts
        (``{"phase": "start", ...}`` and friends) as the daemon streams
        them.  A wire ``timeout`` field bounds the whole wait; when it
        expires the daemon answers a ``service-error``, raised here as
        :class:`ServiceError`.
        """
        with contextlib.closing(self.stream(op, **fields)) as replies:
            for report in replies:
                if report.schema_name == JOB_PROGRESS_SCHEMA_NAME:
                    if on_progress is not None:
                        on_progress(JobProgress.from_payload(report.payload).event)
                elif report.schema_name == JOB_RESULT_SCHEMA_NAME:
                    return report
        raise ServiceError(
            f"the service at {self.address} ended the stream without a "
            "job-result"
        )

    def result(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Wait (at most ``timeout`` seconds) until the job finishes."""
        return JobResult.from_payload(
            self.wait("result", job_id=job_id, timeout=timeout).payload
        )

    def cancel(self, job_id: str) -> JobStatus:
        return JobStatus.from_payload(self.call("cancel", job_id=job_id).payload)

    def metrics(self) -> dict[str, int | float]:
        return dict(self.call("metrics").payload.get("metrics", {}))

    def shutdown(self) -> bool:
        return bool(self.call("shutdown").payload.get("ok"))

    def synthesize(
        self,
        model: str,
        options: SynthesisOptions,
        timeout: float | None = None,
        on_progress: Callable[[dict], None] | None = None,
    ) -> SynthesisResult:
        """Submit, wait, and return the reconstructed result — the
        remote twin of :func:`repro.synthesize` (same suites, byte for
        byte).

        ``timeout`` bounds the whole wait; ``on_progress`` receives the
        job's progress events live (see :meth:`wait`).
        """
        request = SynthesisRequest(model=model, options=options)
        report = self.wait(
            "submit",
            on_progress,
            request=request.to_payload(),
            wait=True,
            timeout=timeout,
        )
        job = JobResult.from_payload(report.payload)
        if job.result is None:
            raise ServiceError(
                f"job {job.job_id} finished {job.state}: "
                f"{job.error or 'no result'}"
            )
        return job.result
