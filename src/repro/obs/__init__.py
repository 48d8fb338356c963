"""repro.obs — tracing, metrics and the unified report envelope.

Three small layers, usable independently:

- :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer` JSONL event
  streams with monotonic timings and parent/child nesting;
- :mod:`repro.obs.metrics` — the :class:`Stats` protocol
  (``as_metrics()``), a process-local :class:`MetricsRegistry`, and the
  shared :func:`derive_rates`/:func:`merge_metrics`/:func:`metrics_delta`
  helpers all stats surfaces now go through;
- :mod:`repro.obs.report` — the single :class:`Report` envelope every
  ``--json`` output and ``BENCH_*.json`` artifact is wrapped in, with a
  deprecating loader for pre-envelope documents.

:mod:`repro.obs.render` turns a ``--trace-dir`` directory into the
per-phase/per-shard tables behind the ``repro report`` subcommand.
"""

from .metrics import (
    MetricsRegistry,
    Stats,
    current_registry,
    derive_rates,
    merge_metrics,
    metrics_delta,
    metrics_of,
    use_registry,
)
from .render import (
    TRACE_REPORT_SCHEMA_NAME,
    TRACE_REPORT_SCHEMA_VERSION,
    render_trace_text,
    summarize_trace_dir,
    trace_files,
)
from .report import TOOL_NAME, Report, load_report
from .trace import (
    TRACE_SCHEMA_NAME,
    TRACE_SCHEMA_VERSION,
    BufferTracer,
    Span,
    Tracer,
    format_event,
    header_event,
    null_tracer,
    read_events,
    write_trace_meta,
)

__all__ = [
    "Stats",
    "MetricsRegistry",
    "current_registry",
    "use_registry",
    "derive_rates",
    "merge_metrics",
    "metrics_delta",
    "metrics_of",
    "Report",
    "load_report",
    "TOOL_NAME",
    "Span",
    "Tracer",
    "BufferTracer",
    "null_tracer",
    "format_event",
    "header_event",
    "read_events",
    "write_trace_meta",
    "TRACE_SCHEMA_NAME",
    "TRACE_SCHEMA_VERSION",
    "TRACE_REPORT_SCHEMA_NAME",
    "TRACE_REPORT_SCHEMA_VERSION",
    "summarize_trace_dir",
    "render_trace_text",
    "trace_files",
]
