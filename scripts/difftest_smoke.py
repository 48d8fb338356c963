#!/usr/bin/env python
"""CI differential-testing smoke: fixed-seed campaigns on tso and sc.

Runs one seeded campaign per model with one injected known-buggy mutant
each, writes the combined measurement to ``BENCH_difftest.json`` (a
``bench-difftest`` v2 Report envelope whose payload maps model name to
each campaign's own envelope), and fails when:

* a stock-model discrepancy survives (the two oracles disagreed), or
* a corpus replay entry went stale, or
* an injected mutant survives (the harness is blind to that bug), or
* an injected ``empty:fr`` skipped no test (``mutant_skips`` is 0: the
  static ``fr`` emptiness check never fired), or
* a shrunken kill reproducer is larger than the test that found it, or
* the ``--jobs N`` report is not byte-identical to the sequential one.

Exit status 0 on success.  Run from the repository root:

    PYTHONPATH=src python scripts/difftest_smoke.py
"""

from __future__ import annotations

import json
import os
import sys

from repro.bench import (
    DIFFTEST_BENCH_SCHEMA,
    DIFFTEST_BENCH_SCHEMA_NAME,
    difftest_campaign_report,
)
from repro.obs import Report

SEED = int(os.environ.get("DIFFTEST_SMOKE_SEED", "2017"))
BUDGET = int(os.environ.get("DIFFTEST_SMOKE_BUDGET", "2000"))
JOBS = int(os.environ.get("DIFFTEST_SMOKE_JOBS", "2"))
OUT = os.environ.get("DIFFTEST_SMOKE_OUT", "BENCH_difftest.json")

CAMPAIGNS = (
    ("tso", ("drop:sc_per_loc", "empty:fr")),
    ("sc", ("drop:sequential_consistency",)),
)


def check(model: str, entry: dict) -> list[str]:
    measurement = entry["payload"]
    report = measurement["report"]["payload"]
    failures = []
    if report["discrepancies"] or report["unshrunk_discrepancies"]:
        failures.append(
            f"{model}: stock oracles disagree "
            f"({len(report['discrepancies'])} discrepancies)"
        )
    if report["replay"]["stale"]:
        failures.append(f"{model}: stale corpus entries on replay")
    for tag in report["surviving_mutants"]:
        failures.append(f"{model}: injected mutant {tag} survived")
    if "empty:fr" in report["mutants"] and not report["mutant_skips"]:
        failures.append(f"{model}: empty:fr skipped no test (mutant_skips 0)")
    for tag, kill in report["mutant_kills"].items():
        if kill["events"] > kill["original_events"]:
            failures.append(
                f"{model}: {tag} reproducer grew while shrinking "
                f"({kill['original_events']} -> {kill['events']} events)"
            )
    if not measurement["byte_identical"]:
        failures.append(
            f"{model}: jobs={JOBS} report differs from the sequential one"
        )
    return failures


def main() -> int:
    campaigns: dict[str, dict] = {}
    failures: list[str] = []
    for model, mutants in CAMPAIGNS:
        entry = difftest_campaign_report(
            model, seed=SEED, budget=BUDGET, mutants=mutants, jobs=JOBS
        )
        campaigns[model] = entry
        failures.extend(check(model, entry))
        measurement = entry["payload"]
        report = measurement["report"]["payload"]
        print(
            f"difftest smoke: model={model} seed={SEED} budget={BUDGET} "
            f"jobs={JOBS} wall={measurement['wall_seconds']:.2f}s "
            f"kills={sorted(report['mutant_kills'])} "
            f"mutant_skips={report['mutant_skips']} "
            f"clean={report['clean']}"
        )
    document = Report(
        schema_name=DIFFTEST_BENCH_SCHEMA_NAME,
        schema_version=DIFFTEST_BENCH_SCHEMA,
        command="bench",
        payload={"campaigns": campaigns},
    ).to_json_dict()
    with open(OUT, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
