"""Shard planning for the parallel synthesis runtime.

A *shard* is one deterministic slice of the candidate space — the
``shard=(i, n)`` argument of
:func:`repro.core.enumerator.enumerate_tests`.  Shards are the unit of
work distribution, of checkpointing, and of progress reporting.

The planner over-partitions: more shards than workers.  Work items vary
wildly in cost (the last thread-size partitions dominate), so handing
each worker exactly one slice would leave most of the pool idle behind
the slowest one.  Round-robin item assignment inside the enumerator
already spreads the expensive partitions across shards; over-partitioning
on top keeps the pool busy until the end and bounds the work lost when a
checkpointed run is killed mid-shard.
"""

from __future__ import annotations

__all__ = ["plan_shards", "DEFAULT_SHARDS_PER_JOB"]

#: shards allocated per worker process when the caller does not pin a
#: total — enough granularity for balance and resume without drowning in
#: per-shard overhead (each shard counts through every work-item ordinal
#: to find its own; the thread-unit pools are built once per worker
#: child, not per shard).
DEFAULT_SHARDS_PER_JOB = 4


def plan_shards(jobs: int, shards: int | None = None) -> int:
    """The shard count a run over ``jobs`` workers executes.

    ``shards`` pins the total explicitly (checkpoint resume must reuse
    the original partition; the store validates this via its fingerprint).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    count = jobs * DEFAULT_SHARDS_PER_JOB if shards is None else shards
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    return count
