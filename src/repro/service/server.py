"""The wire layer of the synthesis daemon.

One asyncio server (``asyncio.start_unix_server`` for ``--socket``,
``asyncio.start_server`` for ``--port``) speaking newline-delimited JSON:
each request line is a :class:`repro.obs.Report` envelope with the
``service-request`` schema and a payload of ``{"op": ..., ...}``; each
response line is an envelope whose schema names the answer
(``job-status``, ``job-progress``, ``job-result``, ``job-list``,
``service-metrics``, ``service-info``, or ``service-error``).

The server is a *thin adapter*: every operation maps 1:1 onto a
:class:`repro.service.jobs.JobManager` method, and every op handler
yields its answer as a sequence of envelopes that one loop writes.  The
only blocking call — :meth:`~repro.service.jobs.JobManager.wait_events`,
inside the one wait on a job (:func:`_wait`) — runs on the default
executor via :func:`asyncio.to_thread`, so one slow job never stalls
other clients' status polls.

Operations (request payload → response envelopes):

=========  =====================================  ======================
op         extra payload fields                   response envelopes
=========  =====================================  ======================
submit     ``request`` (synthesis-request          job-status; with
           payload), optional ``wait`` (bool),     ``wait`` then
           ``timeout`` (s)                         job-progress...,
                                                   job-result
status     ``job_id``                              job-status
result     ``job_id``, optional ``timeout`` (s)    job-progress...,
                                                   job-result
cancel     ``job_id``                              job-status
jobs       —                                       job-list
metrics    —                                       service-metrics
ping       —                                       service-info
shutdown   —                                       service-info
=========  =====================================  ======================

Any other payload field (a misspelled ``wiat``, the ``client`` field
removed in 1.9) is refused with a ``service-error`` that names it, as
:meth:`~repro.service.protocol.SynthesisRequest.from_payload` refuses
unknown option fields.

Waiting on a job is one exchange, whichever op asks for it: the job's
``job-progress`` events from its first one, then its ``job-result``, all
on the asking connection — a client renders live progress without
polling, and ``result`` on a finished job replays its recorded events.
``timeout`` bounds the whole wait, measured once by the server; when it
expires the exchange ends with a ``service-error``.

Shutdown closes the manager first: queued jobs are cancelled and
running ones fail, so every waiting exchange ends with a terminal
``job-result`` before the server hangs up.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, AsyncIterator, Callable

from repro.obs import Report, load_report
from repro.service.jobs import JobManager
from repro.service.protocol import (
    JOB_LIST_SCHEMA_NAME,
    SERVICE_INFO_SCHEMA_NAME,
    SERVICE_METRICS_SCHEMA_NAME,
    WIRE_SCHEMA_NAME,
    JobProgress,
    SynthesisRequest,
    envelope,
    error_envelope,
)

__all__ = ["handle_request", "serve", "serve_async"]

#: maximum request line length (a synthesis request is tiny; anything
#: bigger is a confused client)
_LINE_LIMIT = 1 << 20


async def _wait(
    manager: JobManager, job_id: str, timeout: float | None
) -> AsyncIterator[Report]:
    """The one wait on a job: its progress events, then its result.

    ``timeout`` (seconds, or None for no limit) bounds the whole wait;
    it expires as a :class:`TimeoutError`.
    """
    deadline = None if timeout is None else time.monotonic() + float(timeout)
    seq, terminal = 0, False
    while not terminal:
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        waited = await asyncio.to_thread(
            manager.wait_events, job_id, seq, remaining
        )
        if waited is None:
            raise ValueError(f"unknown job {job_id!r}")
        events, terminal = waited
        for event in events:
            # wait_events cannot time out on a job whose events never pause
            if not terminal and deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still running")
            yield JobProgress(job_id=job_id, seq=seq, event=event).to_report()
            seq += 1
    result = manager.result(job_id)  # terminal: answers at once
    assert result is not None
    yield result.to_report()


async def _op_submit(
    manager: JobManager, payload: dict[str, Any]
) -> AsyncIterator[Report]:
    raw = payload.get("request")
    if not isinstance(raw, dict):
        raise ValueError("submit needs a 'request' payload")
    request = SynthesisRequest.from_payload(raw)
    job, deduped = manager.submit(request)
    status = manager.status(job.job_id)
    assert status is not None
    head = status.to_report()
    head.payload["deduped"] = deduped
    yield head
    if payload.get("wait"):
        async for report in _wait(manager, job.job_id, payload.get("timeout")):
            yield report


async def _op_status(
    manager: JobManager, payload: dict[str, Any]
) -> AsyncIterator[Report]:
    status = manager.status(str(payload.get("job_id")))
    if status is None:
        raise ValueError(f"unknown job {payload.get('job_id')!r}")
    yield status.to_report()


def _op_result(
    manager: JobManager, payload: dict[str, Any]
) -> AsyncIterator[Report]:
    return _wait(manager, str(payload.get("job_id")), payload.get("timeout"))


async def _op_cancel(
    manager: JobManager, payload: dict[str, Any]
) -> AsyncIterator[Report]:
    status = manager.cancel(str(payload.get("job_id")))
    if status is None:
        raise ValueError(f"unknown job {payload.get('job_id')!r}")
    yield status.to_report()


async def _op_jobs(
    manager: JobManager, payload: dict[str, Any]
) -> AsyncIterator[Report]:
    yield envelope(
        JOB_LIST_SCHEMA_NAME,
        1,
        {"jobs": [status.to_payload() for status in manager.jobs()]},
    )


async def _op_metrics(
    manager: JobManager, payload: dict[str, Any]
) -> AsyncIterator[Report]:
    yield envelope(SERVICE_METRICS_SCHEMA_NAME, 1, {"metrics": manager.metrics()})


_OPS: dict[str, Callable[..., AsyncIterator[Report]]] = {
    "submit": _op_submit,
    "status": _op_status,
    "result": _op_result,
    "cancel": _op_cancel,
    "jobs": _op_jobs,
    "metrics": _op_metrics,
}

#: the payload fields each op accepts besides ``op`` itself
_FIELDS: dict[str, tuple[str, ...]] = {
    "submit": ("request", "wait", "timeout"),
    "status": ("job_id",),
    "result": ("job_id", "timeout"),
    "cancel": ("job_id",),
    "jobs": (),
    "metrics": (),
    "ping": (),
    "shutdown": (),
}


async def handle_request(
    manager: JobManager,
    line: bytes,
    stop: asyncio.Event | None = None,
) -> AsyncIterator[Report]:
    """Answer one wire request line with its response envelopes.

    Never raises: malformed lines, unknown ops, and operation failures
    (an unknown job, an expired wait, a closed manager) all end the
    answer with a ``service-error`` envelope, so one bad client cannot
    take a connection handler down.
    """
    try:
        document = json.loads(line.decode("utf-8"))
        report = load_report(document)
    except (UnicodeDecodeError, ValueError) as exc:
        yield error_envelope(f"bad request envelope: {exc}")
        return
    if report.schema_name != WIRE_SCHEMA_NAME:
        yield error_envelope(
            f"expected a {WIRE_SCHEMA_NAME!r} envelope, got "
            f"{report.schema_name!r}"
        )
        return
    payload = report.payload
    op = payload.get("op")
    if not isinstance(op, str) or op not in _FIELDS:
        known = ", ".join(sorted(_FIELDS))
        yield error_envelope(f"unknown op {op!r} (known ops: {known})")
        return
    allowed = _FIELDS[op]
    unknown = sorted(set(payload) - {"op", *allowed})
    if unknown:
        yield error_envelope(
            f"unknown {op} fields {unknown} "
            f"(allowed: {', '.join(allowed) or 'none'})"
        )
        return
    if op == "ping":
        yield envelope(SERVICE_INFO_SCHEMA_NAME, 1, {"ok": True, "op": "ping"})
        return
    if op == "shutdown":
        if stop is not None:
            stop.set()
        yield envelope(SERVICE_INFO_SCHEMA_NAME, 1, {"ok": True, "op": "shutdown"})
        return
    try:
        async for response in _OPS[op](manager, payload):
            yield response
    # TimeoutError: an expired wait; OverflowError: a timeout too large to
    # wait on; RuntimeError: manager closed mid-shutdown
    except (ValueError, TypeError, TimeoutError, OverflowError, RuntimeError) as exc:
        yield error_envelope(str(exc))


async def _send(writer: asyncio.StreamWriter, report: Report) -> None:
    writer.write(
        json.dumps(report.to_json_dict(), sort_keys=True).encode("utf-8") + b"\n"
    )
    await writer.drain()


async def serve_async(
    manager: JobManager,
    socket_path: str | None = None,
    host: str = "127.0.0.1",
    port: int | None = None,
    ready: Callable[[str], None] | None = None,
    stop: asyncio.Event | None = None,
) -> None:
    """Run the daemon until ``stop`` is set (or forever).

    Exactly one of ``socket_path`` / ``port`` selects the transport.
    ``ready`` is called once with the bound address — the CLI prints it,
    tests use it as the started latch.
    """
    if (socket_path is None) == (port is None):
        raise ValueError("serve needs exactly one of socket_path or port")
    if stop is None:
        stop = asyncio.Event()

    #: every open connection's handler task
    handlers: set[asyncio.Task] = set()
    #: the writer of every handler waiting for its client's next request
    idle: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def on_connect(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        handlers.add(task)
        task.add_done_callback(handlers.discard)
        try:
            while not stop.is_set():
                idle[task] = writer
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await _send(writer, error_envelope("request line too long"))
                    break
                finally:
                    idle.pop(task, None)
                if not line.strip():
                    break  # EOF or blank line = polite hangup
                async for response in handle_request(manager, line, stop):
                    await _send(writer, response)
        except ConnectionError:
            pass  # client vanished mid-reply; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    if socket_path is not None:
        server = await asyncio.start_unix_server(
            on_connect, path=socket_path, limit=_LINE_LIMIT
        )
        address = socket_path
    else:
        server = await asyncio.start_server(
            on_connect, host=host, port=port, limit=_LINE_LIMIT
        )
        bound = server.sockets[0].getsockname()
        address = f"{bound[0]}:{bound[1]}"
    async with server:
        if ready is not None:
            ready(address)
        try:
            await stop.wait()
        finally:
            # End every job before hanging up, so each waiting exchange
            # finishes with a terminal job-result.  The close runs on its
            # own thread: the default executor may be full of waits that
            # only the close can end.
            with ThreadPoolExecutor(1) as closer:
                await asyncio.get_running_loop().run_in_executor(
                    closer, manager.close
                )
            # Hang up on idle clients, so their handlers read EOF and end
            # on their own: a cancelled one makes asyncio (3.10, 3.11)
            # log a spurious CancelledError traceback.  Busy handlers end
            # after their exchange; any still running after the grace
            # period is cancelled.
            for writer in idle.values():
                writer.close()
            if handlers:
                await asyncio.wait(list(handlers), timeout=1.0)
            for task in list(handlers):
                task.cancel()


def serve(
    manager: JobManager,
    socket_path: str | None = None,
    host: str = "127.0.0.1",
    port: int | None = None,
    ready: Callable[[str], None] | None = None,
) -> None:
    """Blocking entry point: run the daemon until interrupted."""
    try:
        asyncio.run(
            serve_async(
                manager, socket_path=socket_path, host=host, port=port, ready=ready
            )
        )
    except KeyboardInterrupt:
        pass
