"""The wire layer of the synthesis daemon.

One asyncio server (``asyncio.start_unix_server`` for ``--socket``,
``asyncio.start_server`` for ``--port``) speaking newline-delimited JSON:
each request line is a :class:`repro.obs.Report` envelope with the
``service-request`` schema and a payload of ``{"op": ..., ...}``; each
response line is an envelope whose schema names the answer
(``job-status``, ``job-result``, ``job-list``, ``service-metrics``,
``service-info``, or ``service-error``).

The server is a *thin adapter*: every operation maps 1:1 onto a
:class:`repro.service.jobs.JobManager` method.  The only blocking call
— ``result``'s wait-for-completion — is pushed onto the default
executor via :func:`asyncio.to_thread`, so one slow job never stalls
other clients' status polls.

Operations (request payload → response schema):

=========  =====================================  ====================
op         extra payload fields                   response schema
=========  =====================================  ====================
submit     ``request`` (synthesis-request          job-status
           payload), optional ``wait`` (bool),     (job-result if wait)
           ``stream`` (bool), ``client`` (str)
status     ``job_id``                              job-status
result     ``job_id``, optional ``timeout``        job-result
cancel     ``job_id``                              job-status
jobs       —                                       job-list
metrics    —                                       service-metrics
ping       —                                       service-info
shutdown   —                                       service-info
=========  =====================================  ====================

A submit with ``"stream": true`` is the one multi-envelope exchange:
the response is a *sequence* of lines on the same connection — one
``job-status`` (with ``deduped``), zero or more ``job-progress`` events
as the job runs, and a terminal ``job-result`` — so a client renders
live progress without polling.  ``client`` names the submitter for the
per-client queue quota; an over-quota submission answers with a
``service-error`` envelope whose ``code`` is ``"quota-exceeded"``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Callable

from repro.obs import Report, load_report
from repro.service.jobs import JobManager
from repro.service.protocol import (
    JOB_LIST_SCHEMA_NAME,
    SERVICE_INFO_SCHEMA_NAME,
    SERVICE_METRICS_SCHEMA_NAME,
    WIRE_SCHEMA_NAME,
    JobProgress,
    QuotaExceededError,
    SynthesisRequest,
    envelope,
    error_envelope,
)

__all__ = ["handle_request", "serve", "serve_async"]

#: maximum request line length (a synthesis request is tiny; anything
#: bigger is a confused client)
_LINE_LIMIT = 1 << 20


async def _op_submit(manager: JobManager, payload: dict[str, Any]) -> Report:
    raw = payload.get("request")
    if not isinstance(raw, dict):
        return error_envelope("submit needs a 'request' payload")
    request = SynthesisRequest.from_payload(raw)
    job, deduped = manager.submit(
        request, client=str(payload.get("client", "anonymous"))
    )
    if payload.get("wait"):
        result = await asyncio.to_thread(
            manager.result, job.job_id, payload.get("timeout")
        )
        assert result is not None  # the id came from this submit
        return result.to_report()
    status = manager.status(job.job_id)
    assert status is not None
    report = status.to_report()
    report.payload["deduped"] = deduped
    return report


async def _op_submit_stream(
    manager: JobManager, payload: dict[str, Any]
) -> AsyncIterator[Report]:
    """The streaming submit exchange: status, progress events, result."""
    raw = payload.get("request")
    if not isinstance(raw, dict):
        yield error_envelope("submit needs a 'request' payload")
        return
    try:
        request = SynthesisRequest.from_payload(raw)
        job, deduped = manager.submit(
            request, client=str(payload.get("client", "anonymous"))
        )
    except QuotaExceededError as exc:
        yield error_envelope(str(exc), code=exc.code)
        return
    except (ValueError, TypeError, RuntimeError) as exc:
        yield error_envelope(str(exc))
        return
    status = manager.status(job.job_id)
    assert status is not None
    head = status.to_report()
    head.payload["deduped"] = deduped
    yield head
    start = 0
    timeout = payload.get("timeout")
    while True:
        try:
            waited = await asyncio.to_thread(
                manager.wait_events, job.job_id, start, timeout
            )
        except TimeoutError as exc:
            yield error_envelope(str(exc))
            return
        assert waited is not None  # the id came from this submit
        events, terminal = waited
        for event in events:
            yield JobProgress(
                job_id=job.job_id, seq=start, event=event
            ).to_report()
            start += 1
        if terminal and not events:
            break
    result = await asyncio.to_thread(manager.result, job.job_id)
    assert result is not None
    yield result.to_report()


async def _op_status(manager: JobManager, payload: dict[str, Any]) -> Report:
    status = manager.status(str(payload.get("job_id")))
    if status is None:
        return error_envelope(f"unknown job {payload.get('job_id')!r}")
    return status.to_report()


async def _op_result(manager: JobManager, payload: dict[str, Any]) -> Report:
    job_id = str(payload.get("job_id"))
    try:
        result = await asyncio.to_thread(
            manager.result, job_id, payload.get("timeout")
        )
    except TimeoutError as exc:
        return error_envelope(str(exc))
    if result is None:
        return error_envelope(f"unknown job {job_id!r}")
    return result.to_report()


async def _op_cancel(manager: JobManager, payload: dict[str, Any]) -> Report:
    status = manager.cancel(str(payload.get("job_id")))
    if status is None:
        return error_envelope(f"unknown job {payload.get('job_id')!r}")
    return status.to_report()


async def _op_jobs(manager: JobManager, payload: dict[str, Any]) -> Report:
    return envelope(
        JOB_LIST_SCHEMA_NAME,
        1,
        {"jobs": [status.to_payload() for status in manager.jobs()]},
    )


async def _op_metrics(manager: JobManager, payload: dict[str, Any]) -> Report:
    return envelope(SERVICE_METRICS_SCHEMA_NAME, 1, {"metrics": manager.metrics()})


_OPS: dict[str, Callable[..., Any]] = {
    "submit": _op_submit,
    "status": _op_status,
    "result": _op_result,
    "cancel": _op_cancel,
    "jobs": _op_jobs,
    "metrics": _op_metrics,
}


async def handle_request(
    manager: JobManager,
    line: bytes,
    stop: asyncio.Event | None = None,
) -> Report:
    """Answer one wire request line with one response envelope.

    Never raises: malformed lines, unknown ops, and operation failures
    all come back as ``service-error`` envelopes, so one bad client
    cannot take a connection handler down.
    """
    try:
        document = json.loads(line.decode("utf-8"))
        report = load_report(document)
    except (UnicodeDecodeError, ValueError) as exc:
        return error_envelope(f"bad request envelope: {exc}")
    if report.schema_name != WIRE_SCHEMA_NAME:
        return error_envelope(
            f"expected a {WIRE_SCHEMA_NAME!r} envelope, got "
            f"{report.schema_name!r}"
        )
    payload = report.payload
    op = payload.get("op")
    if op == "ping":
        return envelope(SERVICE_INFO_SCHEMA_NAME, 1, {"ok": True, "op": "ping"})
    if op == "shutdown":
        if stop is not None:
            stop.set()
        return envelope(
            SERVICE_INFO_SCHEMA_NAME, 1, {"ok": True, "op": "shutdown"}
        )
    handler = _OPS.get(op)
    if handler is None:
        known = ", ".join(sorted([*_OPS, "ping", "shutdown"]))
        return error_envelope(f"unknown op {op!r} (known ops: {known})")
    try:
        return await handler(manager, payload)
    except (ValueError, TypeError) as exc:
        return error_envelope(str(exc))
    except QuotaExceededError as exc:
        return error_envelope(str(exc), code=exc.code)
    except RuntimeError as exc:  # manager closed mid-shutdown
        return error_envelope(str(exc))


def _stream_payload(line: bytes) -> dict[str, Any] | None:
    """The payload of a well-formed streaming-submit line, else None.

    Anything that is not exactly a streaming submit (bad JSON, wrong
    schema, other ops) falls through to :func:`handle_request`, which
    owns all the error reporting.
    """
    try:
        report = load_report(json.loads(line.decode("utf-8")))
    except (UnicodeDecodeError, ValueError):
        return None
    if report.schema_name != WIRE_SCHEMA_NAME:
        return None
    payload = report.payload
    if payload.get("op") == "submit" and payload.get("stream"):
        return payload
    return None


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

    #: every open connection's handler task and its writer
    handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def on_connect(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            handlers[task] = writer
            task.add_done_callback(lambda done: handlers.pop(done, None))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        json.dumps(
                            error_envelope("request line too long").to_json_dict()
                        ).encode() + b"\n"
                    )
                    await writer.drain()
                    break
                if not line.strip():
                    break  # EOF or blank line = polite hangup
                streaming = _stream_payload(line)
                if streaming is not None:
                    async for response in _op_submit_stream(manager, streaming):
                        writer.write(
                            json.dumps(
                                response.to_json_dict(), sort_keys=True
                            ).encode("utf-8")
                            + b"\n"
                        )
                        await writer.drain()
                    continue
                response = await handle_request(manager, line, stop)
                writer.write(
                    json.dumps(
                        response.to_json_dict(), sort_keys=True
                    ).encode("utf-8")
                    + b"\n"
                )
                await writer.drain()
                if stop.is_set():
                    break  # this exchange asked for shutdown
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
        await stop.wait()
        # Hang up on every client, so an idle handler reads EOF and ends
        # on its own: a cancelled one makes asyncio (3.10, 3.11) log a
        # spurious CancelledError traceback.  A handler that is still
        # waiting on a job after a second is cancelled — the exiting
        # server cannot answer it anyway.
        for writer in handlers.values():
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
