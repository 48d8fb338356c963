"""Deterministic merge of shard results into a :class:`SynthesisResult`.

Every run — a plain ``jobs=1`` run is one unsharded shard — ends here.
Shards complete in nondeterministic order (pool scheduling), but every
record carries its global ``(item, pos)`` enumeration coordinate, so
sorting the union of all records by that key reconstructs the exact
unsharded candidate order.  Replaying suite insertion in that order —
including the cross-shard canonical-form dedup the per-shard loops could
not see — makes the merged suites *byte-identical* for every job and
shard count: same representatives, same witnesses, same JSON
serialization.
"""

from __future__ import annotations

import os
import time

from repro.core.canonical import canonical_form
from repro.core.suite import TestSuite, outcome_from_dict, test_from_dict
from repro.core.synthesis import SynthesisOptions, SynthesisResult, fingerprint
from repro.litmus.test import LitmusTest
from repro.models.base import MemoryModel
from repro.obs import derive_rates, format_event, header_event, merge_metrics

__all__ = ["merge_shards"]


def _write_merged_trace(
    trace_dir: str,
    model: MemoryModel,
    opts: SynthesisOptions,
    merged_records: list[dict],
    candidates: int,
    unique: int,
) -> None:
    """``merged.jsonl``: the deterministic merged event stream.

    Only order- and content-stable facts appear (no wall times, no
    worker counts), and records are already in global ``(item, pos)``
    order — so the file is byte-identical for every ``--jobs`` value,
    exactly like the merged suites.
    """
    lines = [format_event(header_event())]
    lines.append(
        format_event(
            {"ev": "meta", "command": "synthesize", "model": model.name, "bound": opts.bound}
        )
    )
    for rec in merged_records:
        lines.append(
            format_event(
                {
                    "ev": "test",
                    "item": rec["item"],
                    "pos": rec["pos"],
                    "minimal_for": list(rec["minimal_for"]),
                    "digest": rec["digest"],
                }
            )
        )
    lines.append(
        format_event(
            {
                "ev": "summary",
                "candidates": candidates,
                "unique": unique,
                "minimal": len(merged_records),
            }
        )
    )
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, "merged.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def merge_shards(
    model: MemoryModel,
    opts: SynthesisOptions,
    shard_results: list[dict],
    wall_seconds: float,
    shard_count: int,
) -> SynthesisResult:
    """Fold shard results (any order) into the final result."""
    merge_t0 = time.perf_counter()
    axiom_names = opts.axiom_names(model)
    per_axiom = {
        name: TestSuite(model.name, name, opts.exact_symmetry)
        for name in axiom_names
    }
    union = TestSuite(model.name, "union", opts.exact_symmetry)

    records = sorted(
        (rec for result in shard_results for rec in result["records"]),
        key=lambda rec: (rec["item"], rec["pos"]),
    )
    seen: set[LitmusTest] = set()
    n_minimal = 0
    merged_records: list[dict] = []
    for rec in records:
        test = test_from_dict(rec["test"])
        canon = canonical_form(test)
        if canon in seen:
            # A symmetric twin from another shard already claimed this
            # class; the sequential loop would never have re-checked it.
            continue
        seen.add(canon)
        n_minimal += 1
        merged_records.append({**rec, "digest": fingerprint(canon)})
        witness = None
        for name in rec["minimal_for"]:
            witness = outcome_from_dict(rec["witnesses"][name])
            per_axiom[name].add(test, witness, [name])
        assert witness is not None
        union.add(test, witness, rec["minimal_for"])

    n_candidates = 0
    unique_digests: set[str] = set()
    cpu_seconds = time.perf_counter() - merge_t0
    for result in shard_results:
        stats = result["stats"]
        n_candidates += stats["candidates"]
        unique_digests.update(stats["digests"])
        cpu_seconds += stats["cpu_seconds"]
    # One shared aggregation path for all stats surfaces: sum the raw
    # counters, then recompute every derived rate the counters support.
    oracle_totals: dict[str, float] = dict(
        merge_metrics(*(r["stats"].get("oracle", {}) for r in shard_results))
    )
    oracle_totals.update(derive_rates(oracle_totals))

    if opts.trace_dir is not None:
        _write_merged_trace(
            opts.trace_dir,
            model,
            opts,
            merged_records,
            candidates=n_candidates,
            unique=len(unique_digests),
        )

    return SynthesisResult(
        model_name=model.name,
        bound=opts.bound,
        per_axiom=per_axiom,
        union=union,
        candidates=n_candidates,
        unique_candidates=len(unique_digests),
        minimal_tests=n_minimal,
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        jobs=opts.jobs,
        shard_count=shard_count,
        oracle_stats=oracle_totals,
    )
