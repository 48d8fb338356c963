"""Span tracing with an append-only JSONL event sink.

A :class:`Tracer` owns one event stream (usually one ``.jsonl`` file in
a trace directory).  :meth:`Tracer.span` opens a :class:`Span` context
manager that measures monotonic wall time and nests: each span records
the id of the span that was open when it started, so a trace file can
be folded back into a tree.

Two event kinds matter to every consumer:

``begin``
    written when a span opens (``{"ev": "begin", "id", "name",
    "parent"}``).  A ``begin`` without a matching ``span`` event marks
    a crash or a forgotten ``__exit__`` — the OBS001 lint looks for
    exactly that.
``span``
    written when a span closes, carrying ``wall`` seconds plus any
    attributes attached at open time.

Every trace file starts with a ``header`` event naming the trace
schema; a directory mixing headers is refused by the OBS002 lint.
Event lines are serialised with :func:`format_event` (sorted keys,
compact separators) so byte-for-byte comparison of two traces is
meaningful.
"""

from __future__ import annotations

import io
import json
import os
import time
from typing import IO, Any, Iterator

from .report import TOOL_NAME

__all__ = [
    "TRACE_SCHEMA_NAME",
    "TRACE_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "BufferTracer",
    "null_tracer",
    "format_event",
    "header_event",
    "read_events",
    "write_trace_meta",
]

TRACE_SCHEMA_NAME = "repro-trace"
TRACE_SCHEMA_VERSION = 1


def format_event(event: dict[str, Any]) -> str:
    """Serialise one event as a canonical JSONL line."""
    return json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"


def header_event() -> dict[str, Any]:
    """The first event of every trace file."""
    return {
        "ev": "header",
        "schema": {"name": TRACE_SCHEMA_NAME, "version": TRACE_SCHEMA_VERSION},
    }


def write_trace_meta(trace_dir: str, command: str, **fields: Any) -> None:
    """Write a trace directory's ``meta.json`` (creating the directory).

    The header every trace directory shares — trace schema, tool and
    ``command`` — plus the caller's ``fields``, with sorted keys, so
    two runs' files compare byte for byte.
    """
    os.makedirs(trace_dir, exist_ok=True)
    meta = {
        "schema": {"name": TRACE_SCHEMA_NAME, "version": TRACE_SCHEMA_VERSION},
        "tool": TOOL_NAME,
        "command": command,
        **fields,
    }
    with open(os.path.join(trace_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_events(path: str) -> Iterator[dict[str, Any]]:
    """Yield the events of one trace file, skipping torn trailing lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a killed worker
            if isinstance(event, dict):
                yield event


class Span:
    """One timed region; created via :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        self.tracer._open(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall = time.perf_counter() - self._start
        self.tracer._close(self, wall)

    def annotate(self, **attrs: Any) -> None:
        """Attach extra attributes, emitted with the closing event."""
        self.attrs.update(attrs)


class Tracer:
    """Writes span/metric events to one JSONL sink.

    Constructed with a path (the file is created and a header written),
    an open text handle, or nothing — a sink-less tracer still nests and
    times spans but emits no bytes, so instrumented code needs no
    ``if tracing`` guards.
    """

    def __init__(self, sink: str | IO[str] | None = None) -> None:
        self._owns_sink = isinstance(sink, str)
        if isinstance(sink, str):
            os.makedirs(os.path.dirname(sink) or ".", exist_ok=True)
            self._sink: IO[str] | None = open(sink, "w", encoding="utf-8")
        else:
            self._sink = sink
        self._next_id = 1
        self._stack: list[int] = []
        if self._sink is not None:
            self._write(header_event())

    # -- plumbing ----------------------------------------------------
    def _write(self, event: dict[str, Any]) -> None:
        if self._sink is None:
            return
        self._sink.write(format_event(event))
        self._sink.flush()

    def _open(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1] if self._stack else None
        self._stack.append(span.span_id)
        self._write(
            {
                "ev": "begin",
                "id": span.span_id,
                "name": span.name,
                "parent": span.parent_id,
            }
        )

    def _close(self, span: Span, wall: float) -> None:
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
        elif span.span_id in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span.span_id)
        event: dict[str, Any] = {
            "ev": "span",
            "id": span.span_id,
            "name": span.name,
            "parent": span.parent_id,
            "wall": round(wall, 6),
        }
        if span.attrs:
            event["attrs"] = span.attrs
        self._write(event)

    # -- public API --------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a named, timed region: ``with tracer.span("merge"): ...``"""
        return Span(self, name, span_id=0, parent_id=None, attrs=attrs)

    def event(self, ev: str, **fields: Any) -> None:
        """Emit a free-form event (e.g. final counter snapshots)."""
        payload = {"ev": ev, **fields}
        self._write(payload)

    def counters(self, counters: dict[str, int | float], **fields: Any) -> None:
        """Emit a counter snapshot event."""
        self.event("counters", counters=dict(sorted(counters.items())), **fields)

    def close(self) -> None:
        if self._sink is not None and self._owns_sink:
            self._sink.close()
        self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def null_tracer() -> Tracer:
    """A tracer that times spans but writes nothing."""
    return Tracer(None)


class BufferTracer(Tracer):
    """A tracer capturing events in memory (used by tests and lints)."""

    def __init__(self) -> None:
        self.buffer = io.StringIO()
        super().__init__(self.buffer)

    def events(self) -> list[dict[str, Any]]:
        return [
            json.loads(line)
            for line in self.buffer.getvalue().splitlines()
            if line.strip()
        ]
