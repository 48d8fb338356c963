"""Benchmark workloads and the closed loop that runs one of them.

A workload is one fixed synthesis cell (model, bound, oracle, jobs).
:func:`run_cell` runs inside a fresh subprocess (``python3
bench/workloads.py '<json spec>'``): one smaller warm-up job, then jobs
back to back, the next starting only after the previous one finished,
until the measuring window is used up.  Every job builds a fresh checker,
as a command-line user would, and every suite it produces is checked
against ``golden.json``.  The child prints its result as one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass

import layers

__all__ = ["Cell", "WORKLOADS", "load_golden", "check_result", "run_cell"]

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")


@dataclass(frozen=True)
class Cell:
    """One synthesis configuration: what a single job runs."""

    model: str
    bound: int
    oracle: str = "explicit"
    jobs: int = 1

    @classmethod
    def parse(cls, text: str) -> Cell:
        """``MODEL:BOUND:ORACLE:JOBS``, e.g. ``power:4:explicit:1``."""
        try:
            model, bound, oracle, jobs = text.split(":")
            return cls(model, int(bound), oracle, int(jobs))
        except ValueError:
            raise ValueError(
                f"bad cell {text!r}; expected MODEL:BOUND:ORACLE:JOBS"
            ) from None

    @property
    def suite_key(self) -> str:
        """Golden-suite key: the union suite depends on model and bound
        only, never on the oracle or the job count."""
        return f"{self.model}:{self.bound}"

    def describe(self) -> str:
        return (
            f"{self.model} bound {self.bound}, {self.oracle} oracle, "
            f"jobs={self.jobs}"
        )


#: the standing workloads; BENCHMARK.json records why each was chosen
WORKLOADS: dict[str, Cell] = {
    "enum-armv8-b3": Cell("armv8", 3),
    "oracle-tso-b5": Cell("tso", 5),
    "sat-tso-b4": Cell("tso", 4, "relational"),
    "sharded-tso-b5-j2": Cell("tso", 5, jobs=2),
}


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def suite_digest(result) -> str:
    return hashlib.sha256(result.union.to_json().encode()).hexdigest()


def check_result(cell: Cell, result, golden: dict) -> str | None:
    """Why ``result`` is wrong for ``cell``, or None when it is right."""
    digest = suite_digest(result)
    want = golden["suites"].get(cell.suite_key)
    if want is not None and digest != want:
        return f"union suite sha256 {digest[:12]} != golden {want[:12]}"
    for axiom, count in golden["paper_counts"].get(cell.suite_key, {}).items():
        got = len(result.per_axiom[axiom])
        if got != count:
            return f"{axiom} suite has {got} tests, the paper count is {count}"
    return None


def _synthesize(cell: Cell, bound: int, trace_dir: str | None = None, jobs=None):
    from repro.core.synthesis import OracleSpec, SynthesisOptions, synthesize
    from repro.models.registry import get_model

    opts = SynthesisOptions(
        bound=bound,
        oracle_spec=OracleSpec(oracle=cell.oracle),
        jobs=cell.jobs if jobs is None else jobs,
        trace_dir=trace_dir,
    )
    return synthesize(get_model(cell.model), opts)


class _Loop:
    """Job bookkeeping for one run: walls, counts and failures."""

    def __init__(self, cell: Cell, golden: dict, seconds: float):
        self.cell = cell
        self.golden = golden
        self.seconds = seconds
        self.jobs: list[dict] = []
        self.errors: list[str] = []
        self.start = time.perf_counter()

    def more(self) -> bool:
        """Start another job only if a typical one ends inside the window."""
        typical = statistics.median(job["wall"] for job in self.jobs)
        return time.perf_counter() - self.start + typical <= self.seconds

    def run(self, kind: str, job) -> dict | None:
        """Run ``job() -> (result, wall, extra)`` and check its suite."""
        start = time.perf_counter()
        try:
            result, wall, extra = job()
        except Exception:
            self.errors.append(traceback.format_exc(limit=3))
            wall = time.perf_counter() - start
            self.jobs.append({"kind": kind, "wall": wall, "ok": False})
            return None
        problem = check_result(self.cell, result, self.golden)
        if problem is not None:
            self.errors.append(f"job {len(self.jobs)} ({kind}): {problem}")
        record = {
            "kind": kind,
            "wall": wall,
            "ok": problem is None,
            "candidates": result.candidates,
            "unique_candidates": result.unique_candidates,
            "minimal_tests": result.minimal_tests,
            "union_tests": len(result.union),
            "digest": suite_digest(result),
            **extra,
        }
        self.jobs.append(record)
        return record


def _untraced_job(cell: Cell, jobs=None):
    start = time.perf_counter()
    result = _synthesize(cell, cell.bound, jobs=jobs)
    return result, time.perf_counter() - start, {}


def _traced_job(cell: Cell, scratch: str, sequential_wall: float):
    if cell.jobs == 1:
        result, wall, metrics, records = layers.traced_sequential_job(
            cell.model, cell.bound, cell.oracle
        )
    else:
        trace_dir = tempfile.mkdtemp(dir=scratch)
        try:
            start = time.perf_counter()
            result = _synthesize(cell, cell.bound, trace_dir=trace_dir)
            wall = time.perf_counter() - start
            metrics, records = layers.exec_metrics(
                trace_dir, result, wall, sequential_wall
            )
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
    return result, wall, {"layers": metrics, "records": records}


def _spans(jobs: list[dict]) -> list[dict]:
    """One record per traced job and one per layer, parented to the job."""
    spans = []
    for index, job in enumerate(jobs):
        if "records" not in job:
            continue
        spans.append({"job": index, "name": "job", "parent": None, "wall": job["wall"]})
        spans.extend(
            {"job": index, "name": name, "parent": "job",
             "self_s": seconds, "calls": calls}
            for name, (seconds, calls) in sorted(job["records"].items())
        )
    return spans


def _peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _layer_medians(traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"] if traced else {}
    return {
        name: statistics.median(job["layers"][name] for job in traced)
        for name in names
    }


def run_cell(cell: Cell, seconds: float, trace: bool, scratch: str) -> dict:
    """Measure one cell for ``seconds``; see the module docstring.

    Untraced runs time plain ``synthesize()`` jobs.  Traced runs
    alternate traced and untraced jobs, so the tracing overhead is
    measured in the same process; a sharded cell first runs one
    sequential job of the same cell as the base of ``exec.cpu_inflation``.
    """
    _synthesize(cell, max(1, cell.bound - 1))  # warm-up, discarded
    loop = _Loop(cell, load_golden(), seconds)
    sequential_wall = 0.0
    if trace and cell.jobs > 1:
        record = loop.run("sequential", lambda: _untraced_job(cell, jobs=1))
        sequential_wall = record["wall"] if record else 0.0
    kinds = ("traced", "untraced") if trace else ("untraced",)
    measured = 0
    # at least one job of each kind, however long a job takes
    while measured < len(kinds) or loop.more():
        kind = kinds[measured % len(kinds)]
        measured += 1
        if kind == "traced":
            loop.run(kind, lambda: _traced_job(cell, scratch, sequential_wall))
        else:
            loop.run(kind, lambda: _untraced_job(cell))

    done = [job for job in loop.jobs if "candidates" in job]
    untraced = [job["wall"] for job in done if job["kind"] == "untraced"]
    traced = [job for job in done if job["kind"] == "traced"]
    out = {
        "cell": asdict(cell),
        "failed": sum(not job["ok"] for job in loop.jobs),
        "errors": loop.errors,
        "spans": _spans(loop.jobs),
        "jobs": loop.jobs,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if trace:
        metrics = _layer_medians(traced)
        if untraced and traced:
            traced_p50 = statistics.median(job["wall"] for job in traced)
            metrics["trace.overhead"] = traced_p50 / statistics.median(untraced) - 1
        out["layers"] = metrics
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    result = run_cell(
        Cell(**spec["cell"]), spec["seconds"], spec["trace"], spec["scratch"]
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
