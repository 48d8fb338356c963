"""The synthesis driver every run goes through.

``run_sharded(model, opts)`` is what :func:`repro.core.synthesis.synthesize`
dispatches to, for every option set:

1. plan the shard partition (:mod:`repro.exec.sharding`) — a plain
   ``jobs=1`` run is a single shard over the unsharded stream;
2. replay completed shards from the checkpoint store, if any;
3. run the remaining shards through :func:`repro.exec.fanout.fanout` —
   in this process for ``jobs=1``, over resident child processes
   otherwise — with each shard executing the one synthesis loop
   (:func:`repro.core.synthesis.synthesize_shard`), checkpointing and reporting
   progress as each shard completes;
4. merge everything deterministically (:mod:`repro.exec.merge`).

The merged result is byte-identical for every job and shard count —
parallelism, resume and tracing are pure wall-clock concerns.

Each worker child (or, for ``jobs=1``, this process) sets up once per
run and keeps two things across the shards it runs: its minimality
checker, with the oracle's warm caches, and the enumerator's
thread-unit pools, so each pool is built once per child instead of once
per shard.  The pools never outlive the run; only a resident checker
passed in for ``jobs=1`` does.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro.core.minimality import MinimalityChecker
from repro.core.synthesis import (
    SynthesisOptions,
    SynthesisResult,
    build_checker,
    check_oracle_spec,
    synthesize_shard,
)
from repro.exec.checkpoint import (
    CheckpointStore,
    run_fingerprint,
    saved_shard_count,
)
from repro.exec.fanout import ResidentTask, fanout
from repro.exec.merge import merge_shards
from repro.exec.sharding import plan_shards
from repro.models.base import MemoryModel
from repro.obs import Tracer, null_tracer, write_trace_meta

__all__ = ["run_sharded"]


# -- the fan-out task -----------------------------------------------------------
#
# Module-level so the task pickles by reference into child processes.
# The payload is ``(model, opts, checker, shard_count)``; the checker is a
# resident one only in process, and each child builds its own once.  The
# state adds the child's thread-unit pool mapping, filled by its first
# shard and read by the rest.


def _setup(payload: tuple) -> tuple:
    model, opts, checker, shard_count = payload
    if checker is None:
        checker = build_checker(model, opts.mode, opts.oracle_spec)
    return model, opts, checker, shard_count, {}


def _work(state: tuple, index: int, emit: object) -> dict:
    model, opts, checker, shard_count, pools = state
    return synthesize_shard(
        model, opts, checker, shard=(index, shard_count), pools=pools
    )


def run_sharded(
    model: MemoryModel,
    opts: SynthesisOptions,
    checker: MinimalityChecker | None = None,
) -> SynthesisResult:
    """Run one synthesis: plan, replay, fan out, merge.

    ``checker`` is a resident checker for in-process (``jobs=1``) runs;
    child processes always build their own.  An axiom the model does
    not define, or an oracle the model or criterion cannot use, raises
    :class:`ValueError` here, in the caller's process, before any shard
    runs.
    """
    sharded = (
        opts.jobs > 1 or opts.shards is not None or opts.checkpoint_dir is not None
    )
    if opts.candidates is not None and sharded:
        raise ValueError(
            "an explicit candidates stream cannot be sharded; "
            "run it with jobs=1 and no checkpoint_dir"
        )
    opts.axiom_names(model)  # an unknown axiom fails here, not in a child
    if checker is None:
        check_oracle_spec(model, opts.mode, opts.oracle_spec)
    start = time.perf_counter()
    if opts.trace_dir is not None:
        # no worker counts or timings: meta is part of what consumers
        # compare, and a trace is byte-identical at every --jobs value
        write_trace_meta(
            opts.trace_dir,
            "synthesize",
            model=model.name,
            bound=opts.bound,
            oracle=opts.oracle_spec.oracle,
        )
        tracer = Tracer(os.path.join(opts.trace_dir, "driver.jsonl"))
    else:
        tracer = null_tracer()

    with tracer:
        with tracer.span("plan"):
            shards = opts.shards if sharded else 1
            if shards is None and opts.checkpoint_dir is not None:
                # A resume may change jobs (scheduling) but never the
                # partition: without an explicit shard count, adopt the
                # checkpoint's.
                shards = saved_shard_count(opts.checkpoint_dir)
            shard_count = plan_shards(opts.jobs, shards)

        with tracer.span("replay"):
            store: CheckpointStore | None = None
            completed: dict[int, dict] = {}
            if opts.checkpoint_dir is not None:
                store = CheckpointStore(
                    opts.checkpoint_dir, run_fingerprint(model, opts, shard_count)
                )
                completed = store.load()
            pending = [i for i in range(shard_count) if i not in completed]

        events = opts.progress_events
        candidates_done = sum(
            r["stats"]["candidates"] for r in completed.values()
        )

        def finish(result: dict) -> None:
            nonlocal candidates_done
            completed[result["shard"]] = result
            candidates_done += result["stats"]["candidates"]
            if store is not None:
                store.record(result)
            if not sharded:
                return  # the loop itself reported progress
            if events is not None:
                events(
                    {
                        "phase": "shard",
                        "shard": result["shard"],
                        "shards": shard_count,
                        "candidates": result["stats"]["candidates"],
                        "unique": result["stats"]["unique"],
                        "minimal": len(result["records"]),
                        "total_candidates": candidates_done,
                    }
                )

        with tracer.span("shards", pending=len(pending)):
            # A sharded loop reports per shard (above), not per candidate.
            shard_opts = replace(opts, progress_events=None) if sharded else opts
            resident = checker if opts.jobs == 1 else None
            task = ResidentTask(
                _setup, _work, (model, shard_opts, resident, shard_count)
            )
            for _, result in fanout(task, pending, opts.jobs):
                finish(result)

        wall_seconds = time.perf_counter() - start
        with tracer.span("merge"):
            result = merge_shards(
                model,
                opts,
                list(completed.values()),
                wall_seconds=wall_seconds,
                shard_count=shard_count if sharded else 0,
            )
    if events is not None and not sharded:
        events(
            {
                "phase": "finish",
                "candidates": result.candidates,
                "unique": result.unique_candidates,
                "minimal": result.minimal_tests,
            }
        )
    return result
