"""Reusable perf workloads (shared by the bench suite and CI smoke jobs).

The benchmark harness (``benchmarks/``) and the CI smoke script
(``scripts/difftest_smoke.py``) must measure the *same* workload the
same way, or their numbers aren't comparable — so the measurement lives
here and both call it.
"""

from __future__ import annotations

import time

from repro.obs import Report

__all__ = [
    "DIFFTEST_BENCH_SCHEMA",
    "DIFFTEST_BENCH_SCHEMA_NAME",
    "difftest_campaign_report",
]

DIFFTEST_BENCH_SCHEMA_NAME = "bench-difftest"
#: v1 was the pre-envelope top-level shape; v2 wraps the same payload in
#: the unified :class:`repro.obs.Report` envelope.
DIFFTEST_BENCH_SCHEMA = 2


def difftest_campaign_report(
    model_name: str,
    seed: int = 0,
    budget: int = 200,
    mutants: tuple[str, ...] = (),
    jobs: int = 1,
    corpus_dir: str | None = None,
) -> dict:
    """Run one difftest campaign and wrap its report for ``BENCH_*.json``
    as a :class:`repro.obs.Report` envelope (``bench-difftest`` v2).

    Wall time and throughput live *next to* the campaign report, never
    inside it — the report itself stays byte-deterministic.  The
    determinism check re-runs the same campaign sequentially (without
    the corpus, whose replay counts would differ after the first arm
    appended to it) and compares JSON bytes.
    """
    from repro.difftest import CampaignOptions, run_campaign

    options = CampaignOptions(
        model=model_name,
        seed=seed,
        budget=budget,
        mutants=tuple(mutants),
        corpus_dir=corpus_dir,
        jobs=jobs,
    )
    t0 = time.perf_counter()
    report = run_campaign(options)
    wall = time.perf_counter() - t0
    def bare(j: int) -> CampaignOptions:
        return CampaignOptions(
            model=model_name,
            seed=seed,
            budget=budget,
            mutants=tuple(mutants),
            jobs=j,
        )

    byte_identical = (
        run_campaign(bare(jobs)).to_json() == run_campaign(bare(1)).to_json()
    )
    payload = {
        "workload": {
            "model": model_name,
            "seed": seed,
            "budget": budget,
            "mutants": sorted(mutants),
            "jobs": jobs,
        },
        "wall_seconds": wall,
        "tests_per_second": report.tests_run / wall if wall else 0.0,
        "byte_identical": byte_identical,
        "report": report.to_json_dict(),
    }
    return Report(
        schema_name=DIFFTEST_BENCH_SCHEMA_NAME,
        schema_version=DIFFTEST_BENCH_SCHEMA,
        command="bench",
        payload=payload,
    ).to_json_dict()
