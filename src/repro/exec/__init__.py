"""The synthesis runtime: plan, checkpoint, fan out, merge.

The synthesis loop (:func:`repro.core.synthesis.synthesize_shard`) is
embarrassingly parallel — every candidate's minimality check is
independent — so this package splits the candidate space into
deterministic shards, runs them in process or over resident child
processes, and merges the streams back into suites byte-identical for
every job count.
A plain ``jobs=1`` run is a single in-process shard through the same
merge.  Shard results double as checkpoints, so a killed run resumes.

Users normally reach this through the public API::

    from repro import SynthesisOptions, synthesize
    result = synthesize(model, SynthesisOptions(bound=4, jobs=4,
                                                checkpoint_dir="ckpt/"))

Modules:

* :mod:`repro.exec.sharding`   — shard planning / over-partitioning
* :mod:`repro.exec.merge`      — order-restoring deterministic merge
* :mod:`repro.exec.checkpoint` — JSONL shard store with run fingerprint
* :mod:`repro.exec.runtime`    — the driver tying it together
* :mod:`repro.exec.fanout`     — the one child-process primitive
"""

from repro.exec.checkpoint import (
    CheckpointError,
    CheckpointStore,
    run_fingerprint,
    saved_shard_count,
)
from repro.exec.fanout import (
    RemoteJobError,
    ResidentProcess,
    ResidentTask,
    WorkerDied,
    fanout,
    run_fanout,
)
from repro.exec.merge import merge_shards
from repro.exec.runtime import run_sharded
from repro.exec.sharding import DEFAULT_SHARDS_PER_JOB, plan_shards

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "run_fingerprint",
    "saved_shard_count",
    "RemoteJobError",
    "ResidentProcess",
    "ResidentTask",
    "WorkerDied",
    "fanout",
    "run_fanout",
    "merge_shards",
    "run_sharded",
    "DEFAULT_SHARDS_PER_JOB",
    "plan_shards",
]
