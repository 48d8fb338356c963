"""Process-local metrics registry and the ``Stats`` protocol.

Every subsystem that keeps counters (the SAT solver, both oracles, the
CNF cache) exposes them through one shape: :class:`Stats`, a protocol
with a single ``as_metrics()`` method returning a flat mapping of raw,
summable numbers.  Raw means *no derived values*: hit-rates and other
ratios are computed on demand by :func:`derive_rates`, so that merging
stats from many shards is plain key-wise addition.

The :class:`MetricsRegistry` is a process-local bag of counters: code
deep in the stack (the relational compiler) counts into the active one,
:func:`current_registry`, and each shard installs a fresh one with
:func:`use_registry` and reads it back through ``as_metrics()``.  It
carries no locks: one registry belongs to one process, and merged views
are produced by summing ``as_metrics()`` snapshots.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Protocol, runtime_checkable

__all__ = [
    "Stats",
    "MetricsRegistry",
    "current_registry",
    "use_registry",
    "derive_rates",
    "merge_metrics",
    "metrics_delta",
    "metrics_of",
]


@runtime_checkable
class Stats(Protocol):
    """Anything that can report raw, summable counters.

    Implementations must return only plain ``int``/``float`` values and
    must not include derived quantities (keys ending in ``_rate`` are
    reserved for :func:`derive_rates`).
    """

    def as_metrics(self) -> dict[str, int | float]:
        """Return a flat snapshot of raw counters."""
        ...  # pragma: no cover - protocol body


class MetricsRegistry:
    """A process-local bag of counters."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}

    def count(self, name: str, amount: int | float = 1) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def as_metrics(self) -> dict[str, int | float]:
        """The registry is itself a :class:`Stats`: raw counters, with
        int-valued floats normalized to int."""
        normalized: dict[str, int | float] = {}
        for key, value in self._counters.items():
            as_int = int(value)
            normalized[key] = as_int if as_int == value else value
        return normalized


_REGISTRY_STACK: list[MetricsRegistry] = [MetricsRegistry()]


def current_registry() -> MetricsRegistry:
    """The registry active for this process (innermost ``use_registry``)."""
    return _REGISTRY_STACK[-1]


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily make ``registry`` the process-local default."""
    _REGISTRY_STACK.append(registry)
    try:
        yield registry
    finally:
        _REGISTRY_STACK.pop()


#: snapshot keys that are gauges (absolute levels), not counters: a
#: delta keeps their value and a merge takes the maximum
GAUGES = frozenset({"compile_warm_entries"})


def metrics_of(stats: object) -> dict[str, int | float]:
    """A raw snapshot of anything implementing :class:`Stats` (else ``{}``)."""
    as_metrics = getattr(stats, "as_metrics", None)
    return dict(as_metrics()) if as_metrics is not None else {}


def metrics_delta(
    before: dict[str, int | float], after: dict[str, int | float]
) -> dict[str, int | float]:
    """What happened between two snapshots of one long-lived :class:`Stats`.

    Counters subtract; gauges keep their absolute ``after`` value (a
    startup constant minus itself would read 0 and hide it).
    """
    return {
        key: value if key in GAUGES else value - before.get(key, 0)
        for key, value in after.items()
    }


def merge_metrics(*snapshots: dict[str, int | float]) -> dict[str, int | float]:
    """Key-wise sum of raw metric snapshots (rates are never summed;
    gauges merge by maximum)."""
    total: dict[str, int | float] = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key.endswith("_rate"):
                continue
            if key in GAUGES:
                total[key] = max(total.get(key, value), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def _rate(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def derive_rates(metrics: dict[str, int | float]) -> dict[str, float]:
    """Compute the derived ratios a raw snapshot supports.

    Each rate appears only when its constituent counters are present,
    so sequential and merged stats expose identical key sets for the
    same oracle.
    """
    rates: dict[str, float] = {}
    if "analyses" in metrics:
        # "analyses"/"observations" count cache *misses* (work done);
        # total calls are hits + misses.
        hits = metrics.get("analysis_hits", 0)
        rates["analysis_hit_rate"] = _rate(hits, hits + metrics["analyses"])
    if "observations" in metrics:
        hits = metrics.get("observe_hits", 0)
        rates["observe_hit_rate"] = _rate(hits, hits + metrics["observations"])
    compiles = metrics.get("compile_hits", 0) + metrics.get("compile_misses", 0)
    if "compile_hits" in metrics or "compile_misses" in metrics:
        rates["compile_hit_rate"] = _rate(metrics.get("compile_hits", 0), compiles)
    if "sat_queries" in metrics:
        rates["sat_reuse_rate"] = _rate(
            metrics.get("sat_reuse_hits", 0), metrics["sat_queries"]
        )
    return rates
