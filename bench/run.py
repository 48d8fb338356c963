"""One-command benchmark of the synthesis pipeline.

Run every standing workload, each in its own fresh subprocess::

    python3 bench/run.py                       # all workloads, end to end
    python3 bench/run.py --trace 1             # per-layer self times
    python3 bench/run.py --workload oracle-tso-b5 --seed 7 --seconds 25
    python3 bench/run.py --trace 1 --cell power:4:explicit:1   # one-off profile
    python3 bench/run.py compare A.json B.json

Every run writes one ``repro.obs.Report`` envelope (schema ``bench``
v1) to ``--out``; a traced run also writes its per-job layer records
next to it as ``<out stem>.spans.jsonl``.  With ``--workload`` the last
line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names, units,
directions and regression bounds live in ``BENCHMARK.json``.  The exit
code is 1 when any job failed or produced a suite that differs from
``bench/golden.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_OUT = os.path.join(BENCH_DIR, "out", "latest.json")

SCHEMA_NAME = "bench"
SCHEMA_VERSION = 1
SEED = 2017
#: fresh interpreters timed per run for ``setup_s``
SETUP_SAMPLES = 9
#: a single ``--workload`` invocation must end within this many seconds
DEADLINE_S = 170.0

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
from repro.core.minimality import CriterionMode
from repro.core.synthesis import OracleSpec, build_checker
from repro.models.registry import get_model
build_checker(get_model(sys.argv[1]), CriterionMode.EXACT, OracleSpec(oracle=sys.argv[2]))
print(time.perf_counter() - start)
"""


def _child_env(scratch: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = scratch
    return env


def _run_child(argv: list[str], env: dict, deadline: float | None) -> str:
    """Run a child in its own process group and return its last output
    line; kill the group if it outlives ``deadline`` (monotonic)."""
    timeout = None if deadline is None else max(10.0, deadline - time.monotonic())
    proc = subprocess.Popen(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{argv[1]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited with {proc.returncode}")
    return out.strip().splitlines()[-1]


def _setup_samples(cell, env: dict, deadline: float | None) -> list[float]:
    return [
        float(_run_child(
            [sys.executable, "-c", SETUP_CODE, cell.model, cell.oracle],
            env, deadline,
        ))
        for _ in range(SETUP_SAMPLES)
    ]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(name, cell, why, args, spec, scratch, deadline) -> tuple[dict, list]:
    """Run one workload; returns its report entry and its span records."""
    env = _child_env(scratch)
    trace = bool(args.trace)
    setup = [] if trace else _setup_samples(cell, env, deadline)
    child_spec = {
        "cell": dataclasses.asdict(cell),
        "seconds": args.seconds, "trace": trace, "scratch": scratch,
    }
    raw = json.loads(_run_child(
        [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
         json.dumps(child_spec)],
        env, deadline,
    ))
    done = [job for job in raw["jobs"] if "candidates" in job]
    untraced = [job for job in done if job["kind"] == "untraced"]
    first = done[0] if done else {}
    entry = {
        "cell": child_spec["cell"],
        "why": why,
        "attempted": len(raw["jobs"]),
        "failed": raw["failed"],
        "correct": raw["failed"] == 0 and bool(done),
        "errors": raw["errors"],
        "counts": {key: first.get(key) for key in (
            "candidates", "unique_candidates", "minimal_tests", "union_tests")},
        "digest": first.get("digest"),
    }
    if trace:
        listed = spec["per_layer"]
        values = raw["layers"]
        unknown = set(values) - {m["name"] for m in listed}
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    else:
        listed = spec["end_to_end"]
        walls = [job["wall"] for job in untraced]
        rates = [job["candidates"] / job["wall"] for job in untraced]
        entry["samples"] = {"setup_s": setup, "job_s": walls, "candidates_per_s": rates}
        values = {
            "setup_s": statistics.median(setup),
            "job_s_p50": statistics.median(walls) if walls else 0.0,
            "candidates_per_s": sum(job["candidates"] for job in untraced) / sum(walls)
            if walls else 0.0,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    # layers that never run in the traced process (the sequential layers
    # of a sharded job, SAT on the explicit oracle) read 0
    entry["metrics"] = {
        m["name"]: _metric(values.get(m["name"], 0.0), m["unit"]) for m in listed
    }
    entry["metrics"]["error_rate"] = _metric(
        raw["failed"] / max(1, len(raw["jobs"])), "ratio"
    )
    spans = [{"workload": name, **record} for record in raw["spans"]]
    return entry, spans


def environment(seed: int) -> dict:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        head = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_head": head,
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def print_entry(name: str, cell, entry: dict) -> None:
    print(
        f"{name}: {cell.describe()} ({entry['attempted']} jobs, "
        f"{entry['failed']} failed)"
    )
    samples = entry.get("samples", {})
    for metric, m in entry["metrics"].items():
        note = ""
        if metric == "setup_s":
            note = f"  median of {len(samples['setup_s'])} interpreters"
        elif metric == "job_s_p50":
            note = f"  median of {len(samples['job_s'])} jobs"
        print(f"  {metric:<28}{m['value']:>14.6g} {m['unit']}{note}")
    digest = entry["digest"] or "-"
    print(
        f"  union suite: {entry['counts']['union_tests']} tests, "
        f"sha256 {digest[:16]}, golden {'ok' if entry['correct'] else 'FAILED'}"
    )
    for error in entry["errors"]:
        print("  error: " + error.strip().replace("\n", "\n    "))


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def bench(args, spec: dict) -> int:
    from repro.obs import Report
    from workloads import WORKLOADS

    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.cell:
        c = args.cell
        name = f"cell-{c.model}-{c.bound}-{c.oracle}-{c.jobs}"
        todo = [(name, c, "one-off profile")]
    else:
        names = [args.workload] if args.workload else list(WORKLOADS)
        random.Random(args.seed).shuffle(names)
        todo = [(n, WORKLOADS[n], whys[n]) for n in names]

    scratch = os.path.join(os.path.dirname(os.path.abspath(args.out)), "tmp")
    os.makedirs(scratch, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S if args.workload else None
    env = environment(args.seed)
    entries: dict[str, dict] = {}
    spans: list[dict] = []
    for name, cell, why in todo:
        entries[name], records = measure(
            name, cell, why, args, spec, scratch, deadline
        )
        spans.extend(records)
        print_entry(name, cell, entries[name])

    report = Report(
        schema_name=SCHEMA_NAME,
        schema_version=SCHEMA_VERSION,
        command="bench",
        payload={"env": env, "seconds": args.seconds, "trace": bool(args.trace),
                 "workloads": entries},
    )
    _write(args.out, report.to_json() + "\n")
    if args.trace:
        stem = os.path.splitext(args.out)[0]
        _write(stem + ".spans.jsonl",
               "".join(json.dumps(record) + "\n" for record in spans))
    ok = all(entry["correct"] for entry in entries.values())
    if args.workload:
        entry = entries[args.workload]
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        print(json.dumps({
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {m["name"]: entry["metrics"][m["name"]] for m in listed},
        }))
    return 0 if ok else 1


def compare(paths: list[str], spec: dict) -> int:
    from repro.obs import load_report
    from compare import compare_results

    if len(paths) != 2:
        print("usage: bench/run.py compare A.json B.json", file=sys.stderr)
        return 2
    payloads = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            report = load_report(fh.read())
        if (report.schema_name, report.schema_version) != (SCHEMA_NAME, SCHEMA_VERSION):
            print(f"error: {path} is not a {SCHEMA_NAME} v{SCHEMA_VERSION} report",
                  file=sys.stderr)
            return 2
        payloads.append(report.payload)
    try:
        rows, code = compare_results(payloads[0], payloads[1], spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':<20}{'metric':<28}{'A':>12}{'B':>12}{'delta':>9}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for row in rows:
        delta = f"{row['delta']:+.1%}" if "delta" in row else "-"
        spread = f"{row['spread']:.1%}" if "spread" in row else "-"
        print(f"{row['workload']:<20}{row['metric']:<28}{row['a']:>12.6g}"
              f"{row['b']:>12.6g}{delta:>9}{spread:>9}{row['bound']:>7.0%}"
              f"  {row['verdict']}")
    return code


def main(argv: list[str]) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    if argv[:1] == ["compare"]:
        return compare(argv[1:], spec)

    from workloads import WORKLOADS, Cell

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--cell", type=Cell.parse, metavar="MODEL:BOUND:ORACLE:JOBS",
                       help="profile a one-off cell instead of the standing set")
    parser.add_argument("--seed", type=int, default=SEED,
                        help="orders the workloads of a set; recorded")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer self times instead of end-to-end metrics")
    parser.add_argument("--out", default=DEFAULT_OUT, help="report path")
    return bench(parser.parse_args(argv), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
