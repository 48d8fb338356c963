"""Shard-level checkpointing for long synthesis runs.

Layout under the checkpoint directory::

    meta.json      run fingerprint (model, bound, options, shard count)
    shards.jsonl   one JSON line per completed shard (its full result)

``shards.jsonl`` is append-only and flushed per shard, so a killed run
loses at most the shards in flight.  On restart with the same options the
store replays completed shards and the runtime only schedules the rest.
A torn final line (the process died mid-write) is detected and dropped;
that shard simply reruns.  Restarting with *different* options against
the same directory is a hard error — silently mixing partitions would
corrupt the merge.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

from repro.core.minimality import CriterionMode
from repro.core.synthesis import SynthesisOptions
from repro.models.base import MemoryModel

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "run_fingerprint",
    "saved_shard_count",
]

_META_VERSION = 2
_META_NAME = "meta.json"
_SHARDS_NAME = "shards.jsonl"


class CheckpointError(RuntimeError):
    """The checkpoint directory does not match the requested run."""


def run_fingerprint(
    model: MemoryModel, opts: SynthesisOptions, shard_count: int
) -> dict:
    """The identity a checkpoint directory is bound to.

    Everything that changes the per-shard output is included; knobs that
    only change scheduling (``jobs``) or reporting (``progress_events``) are
    deliberately left out so a resume may use a different worker count.
    """
    return {
        "meta_version": _META_VERSION,
        "model": model.name,
        "bound": opts.bound,
        "axioms": list(opts.axioms) if opts.axioms is not None else None,
        "mode": CriterionMode(opts.mode).value,
        "config": asdict(opts.resolved_config(model)),
        "exact_symmetry": opts.exact_symmetry,
        "shard_count": shard_count,
        # the candidate filter hook is gone; every checkpoint written
        # without it recorded null here, and keeping the key lets those
        # resume (one written with the hook is refused as a mismatch)
        "reject": None,
        # the oracle backend determines the shard stats payload (and is
        # the knob equivalence claims are made against), so a resume must
        # not switch it mid-run; ``cnf_cache_dir`` is a pure wall-clock
        # knob and stays out, like ``jobs``
        "oracle": opts.oracle_spec.oracle,
    }


def saved_shard_count(directory: str) -> int | None:
    """The shard partition an existing checkpoint was written with.

    A resume that does not pin ``shards`` explicitly must adopt the
    original partition — the default is derived from ``jobs``, and a
    resume is allowed to change ``jobs``.  Returns ``None`` when the
    directory holds no (readable) checkpoint yet.
    """
    meta_path = os.path.join(directory, _META_NAME)
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    count = meta.get("shard_count")
    return count if isinstance(count, int) and count >= 1 else None


class CheckpointStore:
    """Append-only store of completed shard results."""

    def __init__(self, directory: str, fingerprint: dict):
        self.directory = directory
        self.fingerprint = fingerprint
        os.makedirs(directory, exist_ok=True)
        self._meta_path = os.path.join(directory, _META_NAME)
        self._shards_path = os.path.join(directory, _SHARDS_NAME)
        if os.path.exists(self._meta_path):
            with open(self._meta_path) as fh:
                existing = json.load(fh)
            if existing != fingerprint:
                diff = sorted(
                    key
                    for key in set(existing) | set(fingerprint)
                    if existing.get(key) != fingerprint.get(key)
                )
                raise CheckpointError(
                    f"checkpoint at {directory} was written by a different "
                    f"run (mismatched: {', '.join(diff)}); point "
                    "--checkpoint-dir at a fresh directory or rerun with "
                    "the original options"
                )
        else:
            with open(self._meta_path, "w") as fh:
                json.dump(fingerprint, fh, indent=2)

    def load(self) -> dict[int, dict]:
        """Completed shard results keyed by shard index.

        Skips torn/corrupt lines (a kill mid-append) — those shards just
        run again.  The first record per shard wins, matching the
        runtime's skip-completed scheduling.
        """
        done: dict[int, dict] = {}
        if not os.path.exists(self._shards_path):
            return done
        with open(self._shards_path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    result = json.loads(line)
                except json.JSONDecodeError:
                    continue
                shard = result.get("shard")
                if isinstance(shard, int) and shard not in done:
                    done[shard] = result
        return done

    def record(self, shard_result: dict) -> None:
        """Durably append one completed shard."""
        line = json.dumps(shard_result, separators=(",", ":"))
        with open(self._shards_path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
