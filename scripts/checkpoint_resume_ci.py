#!/usr/bin/env python
"""CI exercise for the sharded runtime's kill/resume path.

Flow:

1. synthesize the sequential golden suite (``--jobs 1``, no checkpoint);
2. launch a parallel checkpointed run and SIGKILL it mid-flight;
3. if the run won the race and finished anyway, truncate its shard log
   so the resume genuinely has work left to do;
4. resume against the same checkpoint directory;
5. assert the resumed union suite is byte-identical to the golden one
   and that the ``--json`` counters match.

Exit status 0 on success.  Run from the repository root:

    PYTHONPATH=src python scripts/checkpoint_resume_ci.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

MODEL = "tso"
BOUND = int(os.environ.get("RESUME_CI_BOUND", "3"))
JOBS = os.environ.get("RESUME_CI_JOBS", "2")
KILL_AFTER = float(os.environ.get("RESUME_CI_KILL_AFTER", "1.0"))


def cli(*args: str) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "synthesize",
        "--model",
        MODEL,
        "--bound",
        str(BOUND),
        "--max-addresses",
        "2",
        *args,
    ]


def run(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    print("+", " ".join(argv), flush=True)
    return subprocess.run(argv, check=True, capture_output=True, text=True, **kwargs)


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="resume-ci-")
    golden_path = os.path.join(workdir, "golden.json")
    resumed_path = os.path.join(workdir, "resumed.json")
    ckpt = os.path.join(workdir, "checkpoint")
    shards_log = os.path.join(ckpt, "shards.jsonl")

    # 1. sequential golden
    golden = run(cli("--out", golden_path, "--json"))
    golden_summary = json.loads(golden.stdout)["payload"]

    # 2. parallel checkpointed run, killed mid-flight
    proc = subprocess.Popen(
        cli("--jobs", JOBS, "--checkpoint-dir", ckpt),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    time.sleep(KILL_AFTER)
    finished = proc.poll() is not None
    if not finished:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        print(f"killed run after {KILL_AFTER}s", flush=True)

    # 3. guarantee the resume has pending shards
    done = 0
    if os.path.exists(shards_log):
        with open(shards_log) as fh:
            lines = fh.readlines()
        done = len(lines)
        if finished or done > 1:
            keep = max(1, done // 2)
            with open(shards_log, "w") as fh:
                fh.writelines(lines[:keep])
            print(f"truncated shard log {done} -> {keep} shards", flush=True)
            done = keep
    print(f"checkpoint holds {done} completed shard(s)", flush=True)

    # 4. resume
    resumed = run(
        cli("--jobs", JOBS, "--checkpoint-dir", ckpt, "--out", resumed_path, "--json")
    )
    resumed_summary = json.loads(resumed.stdout)["payload"]

    # 5. byte-identical suites, matching counters
    with open(golden_path, "rb") as fh:
        golden_bytes = fh.read()
    with open(resumed_path, "rb") as fh:
        resumed_bytes = fh.read()
    if golden_bytes != resumed_bytes:
        print("FAIL: resumed union suite differs from sequential golden")
        return 1
    for key in ("candidates", "unique_candidates", "minimal_tests", "suite_counts"):
        if golden_summary[key] != resumed_summary[key]:
            print(
                f"FAIL: {key} mismatch: "
                f"{golden_summary[key]!r} != {resumed_summary[key]!r}"
            )
            return 1
    print(
        "OK: resumed parallel suite byte-identical to sequential golden "
        f"({golden_summary['suite_counts']['union']} union tests, "
        f"jobs={JOBS}, resumed from {done} checkpointed shard(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
