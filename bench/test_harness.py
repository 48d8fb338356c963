"""Self-tests of the benchmark harness: ``python -m pytest bench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
from compare import compare_results, relative_iqr, verdict  # noqa: E402
from workloads import Cell, check_result, load_golden, suite_digest  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


# -- self-time accounting ------------------------------------------------------


def _fake_clock(*ticks: float):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_calls():
    # outer runs 0..10 and calls inner 2..5; inner then runs alone 20..21
    timer = layers.SelfTimer(clock=_fake_clock(0, 2, 5, 10, 20, 21))
    inner = timer.wrap("inner", lambda: None)
    outer = timer.wrap("outer", lambda: inner())
    outer()
    inner()
    assert timer.records == {"outer": [7, 1], "inner": [4, 2]}
    # self times partition the covered wall time: 10 (outer) + 1 (inner)
    assert timer.total() == 11


def test_self_time_survives_exceptions_and_times_iteration():
    timer = layers.SelfTimer(clock=_fake_clock(0, 1, 1, 3, 3, 4, 4, 6))

    def boom():
        raise KeyError("x")

    failing = timer.wrap("boom", boom)
    with pytest.raises(KeyError):
        failing()
    assert list(timer.iterate("items", ["a", "b"])) == ["a", "b"]
    assert timer.records["boom"] == [1, 1]
    # two items plus the final StopIteration
    assert timer.records["items"] == [2 + 1 + 2, 3]
    assert timer._stack == []


# -- compare verdicts ------------------------------------------------------------


def test_verdicts_on_hand_made_samples():
    tight = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(tight, [x * 1.05 for x in tight], 0.10, "lower")[2] == "ok"
    delta, spread, result = verdict(tight, [x * 1.2 for x in tight], 0.10, "lower")
    assert result == "regressed" and delta == pytest.approx(0.2)
    assert spread == pytest.approx(relative_iqr(tight))
    # a throughput drop is a regression; a rise is not
    assert verdict(tight, [x * 0.8 for x in tight], 0.10, "higher")[2] == "regressed"
    assert verdict(tight, [x * 1.5 for x in tight], 0.10, "higher")[2] == "ok"
    wide = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert verdict(wide, [x * 1.3 for x in wide], 0.10, "lower")[2] == "unresolved"
    # ... unless every sample of B beats every sample of A
    assert verdict(wide, [x * 0.4 for x in wide], 0.10, "lower")[2] == "ok"


def _payload(job_s, error_rate=0.0, candidates=257, nproc=2):
    return {
        "env": {"nproc": nproc, "python": "3.11.7"},
        "workloads": {
            "w": {
                "samples": {"setup_s": [0.2, 0.2], "job_s": job_s,
                            "candidates_per_s": [candidates / s for s in job_s]},
                "metrics": {
                    "setup_s": {"value": 0.2, "unit": "s"},
                    "job_s_p50": {"value": sorted(job_s)[len(job_s) // 2], "unit": "s"},
                    "error_rate": {"value": error_rate, "unit": "ratio"},
                    "enumerate.candidates": {"value": candidates, "unit": "count"},
                },
                "counts": {"candidates": candidates, "union_tests": 15},
            }
        },
    }


def _verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_compare_results():
    base = _payload([1.0, 1.0, 1.01])
    rows, code = compare_results(base, _payload([1.0, 1.01, 1.0]), SPEC)
    assert code == 0 and set(_verdicts(rows).values()) == {"ok"}

    rows, code = compare_results(base, _payload([2.0, 2.0, 2.02]), SPEC)
    assert code == 1 and _verdicts(rows)["job_s_p50"] == "regressed"

    rows, code = compare_results(base, _payload([1.0, 1.0, 1.01], error_rate=0.1), SPEC)
    assert code == 1 and _verdicts(rows)["error_rate"] == "regressed"

    rows, code = compare_results(base, _payload([1.0, 1.0, 1.01], candidates=258), SPEC)
    verdicts = _verdicts(rows)
    assert code == 1
    assert verdicts["candidates"] == verdicts["enumerate.candidates"] == "mismatch"

    with pytest.raises(ValueError, match="nproc"):
        compare_results(base, _payload([1.0], nproc=4), SPEC)


# -- traced jobs leave the program's behaviour alone -----------------------------


def test_traced_job_matches_untraced_and_golden():
    from repro.core.synthesis import SynthesisOptions, synthesize
    from repro.models.registry import get_model

    golden = load_golden()
    cell = Cell("tso", 3)
    plain = synthesize(get_model("tso"), SynthesisOptions(bound=3))
    traced, wall, metrics, records = layers.traced_sequential_job("tso", 3, "explicit")
    assert suite_digest(traced) == suite_digest(plain) == golden["suites"]["tso:3"]
    assert check_result(cell, traced, golden) is None
    assert metrics["enumerate.candidates"] == plain.candidates
    assert sum(seconds for seconds, _ in records.values()) <= wall
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    exec_only = {m for m in per_layer if m.startswith("exec.")} | {"trace.overhead"}
    assert set(metrics) == per_layer - exec_only


def test_sharded_trace_yields_exec_metrics(tmp_path):
    from repro.core.synthesis import SynthesisOptions, synthesize
    from repro.models.registry import get_model

    result = synthesize(
        get_model("tso"), SynthesisOptions(bound=3, jobs=2, trace_dir=str(tmp_path))
    )
    metrics, phases = layers.exec_metrics(str(tmp_path), result, result.wall_seconds, 1.0)
    assert {"plan", "shards", "merge"} <= set(phases)
    assert metrics["exec.shard_imbalance"] >= 1.0
    assert metrics["exec.cpu_s"] == result.cpu_seconds
    assert suite_digest(result) == load_golden()["suites"]["tso:3"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sat-tso-b4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
