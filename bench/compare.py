"""Compare two benchmark results metric by metric.

Each end-to-end metric gets a verdict against the regression bound that
``BENCHMARK.json`` fixes for it:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread between one run's samples (quartile
  distance over the median) is wider than the bound, so a difference
  of that size cannot be told from noise, unless every sample of B
  reads better than every sample of A;
* ``ok`` — otherwise.

``error_rate`` has a bound of 0: any increase is a regression.  Count
metrics (unit ``count``, and the suite counts of every job) must match
exactly, or the verdict is ``mismatch``.  Results from machines with a
different ``nproc`` or Python version are refused outright.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["relative_iqr", "verdict", "compare_results"]

#: which sample list carries the spread of each end-to-end metric
SAMPLES = {
    "setup_s": "setup_s",
    "job_s_p50": "job_s",
    "candidates_per_s": "candidates_per_s",
}

#: environment fields that must agree before two results are compared
SAME_MACHINE = ("nproc", "python")


def relative_iqr(samples: list[float]) -> float:
    """Quartile distance over the median (0 for fewer than 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    a: list[float], b: list[float], bound: float, better: str
) -> tuple[float, float, str]:
    """``(relative delta of the medians, spread, verdict)`` for B vs A."""
    a_med, b_med = statistics.median(a), statistics.median(b)
    if a_med:
        delta = (b_med - a_med) / abs(a_med)
    else:
        delta = 0.0 if b_med == a_med else math.copysign(math.inf, b_med)
    worse = delta if better == "lower" else -delta
    spread = max(relative_iqr(a), relative_iqr(b))
    if spread > bound:
        if better == "lower":
            clear = max(b) < min(a)
        else:
            clear = min(b) > max(a)
        return delta, spread, "ok" if clear else "unresolved"
    return delta, spread, "regressed" if worse > bound else "ok"


def _samples(entry: dict, metric: str) -> list[float]:
    key = SAMPLES.get(metric)
    samples = entry.get("samples", {}).get(key) if key else None
    return samples or [entry["metrics"][metric]["value"]]


def compare_results(a: dict, b: dict, spec: dict) -> tuple[list[dict], int]:
    """Compare two ``bench`` report payloads under ``spec``
    (the parsed ``BENCHMARK.json``).

    Returns ``(rows, exit code)``: 1 when any row regressed or
    mismatched, else 0.  Raises ValueError for results from different
    machines.
    """
    for key in SAME_MACHINE:
        if a["env"].get(key) != b["env"].get(key):
            raise ValueError(
                f"refusing to compare results with different {key}: "
                f"{a['env'].get(key)!r} vs {b['env'].get(key)!r}"
            )
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows: list[dict] = []
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        shared = [m for m in wa["metrics"] if m in wb["metrics"]]
        for metric in shared:
            va = wa["metrics"][metric]["value"]
            vb = wb["metrics"][metric]["value"]
            row = {"workload": name, "metric": metric, "a": va, "b": vb}
            if metric in bounded:
                delta, spread, result = verdict(
                    _samples(wa, metric),
                    _samples(wb, metric),
                    bounded[metric]["bound"],
                    bounded[metric]["better"],
                )
                row.update(delta=delta, spread=spread,
                           bound=bounded[metric]["bound"], verdict=result)
            elif metric == "error_rate":
                row.update(bound=0.0, verdict="regressed" if vb > va else "ok")
            elif units.get(metric) == "count":
                row.update(bound=0.0, verdict="ok" if va == vb else "mismatch")
            else:
                continue  # per-layer times and ratios carry no bound
            rows.append(row)
        for count in sorted(set(wa["counts"]) | set(wb["counts"])):
            va, vb = wa["counts"].get(count), wb["counts"].get(count)
            rows.append({
                "workload": name, "metric": count, "a": va, "b": vb,
                "bound": 0.0, "verdict": "ok" if va == vb else "mismatch",
            })
    failed = any(row["verdict"] in ("regressed", "mismatch") for row in rows)
    return rows, 1 if failed else 0
