"""The sharded differential-testing campaign driver.

A campaign is: replay the persisted corpus, then fuzz ``budget`` seeded
tests through every check of :class:`~repro.difftest.harness.DiffHarness`,
shrink what disagreed, persist the reproducers.  The fuzzing fans out
over :func:`repro.exec.fanout.run_fanout` with the round-robin index
assignment the synthesis runtime uses (test ``i`` goes to shard
``i % shard_count``), and every test's randomness comes from a stream
keyed by ``(seed, i)`` alone — so the set of generated tests, and hence
the whole report, is independent of ``jobs`` and of the shard partition.

Determinism contract: with the same seed, options, and corpus state, the
``--json`` report is byte-identical at any ``--jobs`` value.  Nothing
wall-clock-derived goes into the report, discrepancies are ordered by
``(index, kind, tag)``, and shrinking happens in the parent process on
the merged stream.

Mutant bookkeeping: the *lowest-index* killing test per tag is the
canonical kill; it is shrunk and reported next to the original event
count so the "reproducer no larger than the test that found it"
guarantee is checkable from the report alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from repro.difftest.corpus import Corpus
from repro.difftest.discrepancy import KINDS, Discrepancy, discrepancy_fingerprint
from repro.difftest.generator import GeneratorConfig, TestGenerator
from repro.difftest.harness import DiffHarness
from repro.difftest.mutate import model_fingerprint
from repro.difftest.rng import stream
from repro.difftest.shrink import shrink
from repro.exec.fanout import ResidentTask, run_fanout
from repro.exec.sharding import plan_shards
from repro.models.registry import get_model
from repro.obs import (
    Report,
    Tracer,
    format_event,
    header_event,
    null_tracer,
    write_trace_meta,
)

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CAMPAIGN_SCHEMA_NAME",
    "CampaignOptions",
    "CampaignReport",
    "run_campaign",
]

CAMPAIGN_SCHEMA_NAME = "difftest-campaign"
#: v1 was the pre-envelope top-level shape; v2 wraps the same payload in
#: the unified :class:`repro.obs.Report` envelope.
CAMPAIGN_SCHEMA = 2

#: stock discrepancies shrunk per campaign (a healthy run has zero; a
#: broken oracle can produce hundreds, and shrinking each would stall
#: the report that says so)
_MAX_SHRINKS = 25


@dataclass(frozen=True)
class CampaignOptions:
    """Everything one campaign run needs (picklable, crosses workers)."""

    model: str
    seed: int = 0
    budget: int = 100
    mutants: tuple[str, ...] = ()
    corpus_dir: str | None = None
    jobs: int = 1
    #: pin the shard count (None: jobs * DEFAULT_SHARDS_PER_JOB)
    shards: int | None = None
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    #: cross-check the minimality criterion through both oracles
    minimality: bool = True
    #: optional :mod:`repro.obs` trace directory (driver phase spans +
    #: the deterministic merged discrepancy stream)
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class CampaignReport:
    """One campaign's findings, ready for text or JSON rendering."""

    options: CampaignOptions
    tests_run: int
    #: shrunken stock (non-mutant) discrepancies, (index, kind)-ordered
    stock: list[Discrepancy]
    #: per-tag canonical kill (lowest finding index, shrunk) + original size
    kills: dict[str, tuple[Discrepancy, int]]
    surviving: tuple[str, ...]
    replay_confirmed: int
    replay_stale: list[Discrepancy]
    corpus_added: int
    #: stock discrepancies found but left unshrunk (over the cap)
    unshrunk: int = 0
    #: ``empty:fr`` checks skipped as statically vacuous (no fr edge to
    #: forget; see :attr:`DiffHarness.mutant_skips`)
    mutant_skips: int = 0

    @property
    def clean(self) -> bool:
        """No stock disagreement, no surviving mutant, no stale corpus
        entry — the campaign's pass/fail verdict."""
        return (
            not self.stock
            and not self.surviving
            and not self.replay_stale
        )

    # -- rendering -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The machine-readable report: a :class:`repro.obs.Report`
        envelope around the ``difftest-campaign`` payload (schema v2)."""
        opts = self.options
        payload = {
            "model": opts.model,
            "model_fingerprint": model_fingerprint(get_model(opts.model)),
            "seed": opts.seed,
            "budget": opts.budget,
            "mutants": sorted(opts.mutants),
            "generator": asdict(opts.generator),
            "tests_run": self.tests_run,
            "discrepancies": [d.to_dict() for d in self.stock],
            "unshrunk_discrepancies": self.unshrunk,
            "mutant_kills": {
                tag: {
                    "original_events": original,
                    "events": disc.test.num_events,
                    **disc.to_dict(),
                }
                for tag, (disc, original) in sorted(self.kills.items())
            },
            "mutant_skips": self.mutant_skips,
            "surviving_mutants": sorted(self.surviving),
            "replay": {
                "confirmed": self.replay_confirmed,
                "stale": [d.to_dict() for d in self.replay_stale],
            },
            "corpus_added": self.corpus_added,
            "clean": self.clean,
        }
        return Report(
            schema_name=CAMPAIGN_SCHEMA_NAME,
            schema_version=CAMPAIGN_SCHEMA,
            command="difftest",
            payload=payload,
        ).to_json_dict()

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        opts = self.options
        lines = [
            f"difftest model={opts.model} seed={opts.seed} "
            f"budget={opts.budget}: {len(self.stock)} stock "
            f"discrepancies; mutants: {len(self.kills)} killed, "
            f"{len(self.surviving)} surviving; replay: "
            f"{self.replay_confirmed} confirmed, "
            f"{len(self.replay_stale)} stale"
        ]
        if self.mutant_skips:
            lines.append(
                f"  SKIPPED  {self.mutant_skips} statically-vacuous "
                "empty:fr checks (no fr edge to forget)"
            )
        for disc in self.stock:
            lines.append(
                f"  DISAGREE [{disc.kind}] test #{disc.index}: {disc.detail}"
            )
        if self.unshrunk:
            lines.append(
                f"  (+{self.unshrunk} further discrepancies left unshrunk)"
            )
        for tag, (disc, original) in sorted(self.kills.items()):
            lines.append(
                f"  KILLED   {tag} by test #{disc.index} "
                f"({original} -> {disc.test.num_events} events)"
            )
        for tag in sorted(self.surviving):
            lines.append(f"  SURVIVED {tag}  (harness blind to this bug!)")
        for disc in self.replay_stale:
            lines.append(
                f"  STALE    [{disc.kind}] corpus entry no longer "
                f"reproduces: {disc.detail}"
            )
        verdict = "CLEAN" if self.clean else "FAILED"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


# -- child side (module-level for child-process pickling) --------------------


@dataclass(frozen=True)
class _ShardPayload:
    options: CampaignOptions
    shard_count: int


def _setup_worker(payload: _ShardPayload):
    opts = payload.options
    harness = DiffHarness(
        opts.model,
        mutants=opts.mutants,
        minimality=opts.minimality,
    )
    generator = TestGenerator(harness.model.vocabulary, opts.generator)
    return payload, harness, generator


def _fuzz_shard(state, shard_index: int, emit) -> dict:
    payload, harness, generator = state
    opts = payload.options
    found: list[dict] = []
    tests_run = 0
    # The harness persists across the shards one process computes, so
    # report this shard's *delta* (like the synthesis worker's oracle
    # counters) — the driver sums deltas without double counting.
    skips_before = harness.mutant_skips
    for index in range(shard_index, opts.budget, payload.shard_count):
        rng = stream(opts.seed, index)
        test = generator.generate(rng)
        tests_run += 1
        for disc in harness.check(test, seed=opts.seed, index=index):
            found.append(disc.to_dict())
    return {
        "tests": tests_run,
        "discrepancies": found,
        "mutant_skips": harness.mutant_skips - skips_before,
    }


# -- the driver ---------------------------------------------------------------


def _sort_key(disc: Discrepancy):
    return (disc.index, KINDS.index(disc.kind), disc.mutant or "", disc.detail)


def _write_campaign_trace(
    trace_dir: str, options: CampaignOptions, merged: list[Discrepancy], tests_run: int
) -> None:
    """``meta.json`` + the deterministic ``merged.jsonl`` for a campaign."""
    write_trace_meta(
        trace_dir,
        "difftest",
        model=options.model,
        seed=options.seed,
        budget=options.budget,
    )
    lines = [format_event(header_event())]
    lines.append(
        format_event(
            {
                "ev": "meta",
                "command": "difftest",
                "model": options.model,
                "seed": options.seed,
            }
        )
    )
    for disc in merged:
        lines.append(
            format_event(
                {
                    "ev": "discrepancy",
                    "index": disc.index,
                    "kind": disc.kind,
                    "mutant": disc.mutant,
                }
            )
        )
    lines.append(
        format_event(
            {"ev": "summary", "tests_run": tests_run, "found": len(merged)}
        )
    )
    with open(os.path.join(trace_dir, "merged.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def run_campaign(options: CampaignOptions) -> CampaignReport:
    """Run one campaign: replay, fuzz (sharded), shrink, persist."""
    tracer = (
        Tracer(os.path.join(options.trace_dir, "driver.jsonl"))
        if options.trace_dir is not None
        else null_tracer()
    )
    with tracer:
        return _run_campaign(options, tracer)


def _run_campaign(options: CampaignOptions, tracer: Tracer) -> CampaignReport:
    harness = DiffHarness(
        options.model,
        mutants=options.mutants,
        minimality=options.minimality,
    )
    corpus = Corpus(options.corpus_dir) if options.corpus_dir else None

    # 1. Replay the persisted reproducers before any new fuzzing.
    replay_confirmed = 0
    replay_stale: list[Discrepancy] = []
    with tracer.span("replay"):
        if corpus is not None:
            for disc in corpus.load(options.model):
                try:
                    ok = harness.reproduces(disc)
                except KeyError:
                    ok = False  # entry names a mutant the registry dropped
                if ok:
                    replay_confirmed += 1
                else:
                    replay_stale.append(disc)

    # 2. Fuzz, fanned out over deterministic shards.
    with tracer.span("fuzz") as fuzz_span:
        shard_count = plan_shards(options.jobs, options.shards)
        payload = _ShardPayload(options, shard_count)
        task = ResidentTask(
            setup=_setup_worker, work=_fuzz_shard, payload=payload
        )
        results = run_fanout(task, shard_count, options.jobs)
        tests_run = sum(r["tests"] for r in results)
        mutant_skips = sum(r.get("mutant_skips", 0) for r in results)
        merged = [
            Discrepancy.from_dict(item)
            for result in results
            for item in result["discrepancies"]
        ]
        merged.sort(key=_sort_key)
        fuzz_span.annotate(tests=tests_run, found=len(merged))

    if options.trace_dir is not None:
        _write_campaign_trace(options.trace_dir, options, merged, tests_run)

    # 3. Split stock findings from mutant kills; dedup stock by content.
    stock_raw: list[Discrepancy] = []
    seen: set[str] = set()
    kills_raw: dict[str, Discrepancy] = {}
    for disc in merged:
        if disc.kind == "mutant":
            assert disc.mutant is not None
            kills_raw.setdefault(disc.mutant, disc)  # lowest index wins
        else:
            fp = discrepancy_fingerprint(disc)
            if fp not in seen:
                seen.add(fp)
                stock_raw.append(disc)

    # 4. Shrink in the parent (merged order => deterministic output).
    with tracer.span("shrink"):
        stock = [shrink(harness, d) for d in stock_raw[:_MAX_SHRINKS]]
        unshrunk = max(0, len(stock_raw) - _MAX_SHRINKS)
        kills = {
            tag: (shrink(harness, disc), disc.test.num_events)
            for tag, disc in kills_raw.items()
        }
        surviving = tuple(t for t in options.mutants if t not in kills)

    # 5. Persist the shrunken reproducers.
    corpus_added = 0
    with tracer.span("persist"):
        if corpus is not None:
            corpus_added = corpus.append(
                options.model, stock + [d for d, _ in kills.values()]
            )

    return CampaignReport(
        options=options,
        tests_run=tests_run,
        stock=stock,
        kills=kills,
        surviving=surviving,
        replay_confirmed=replay_confirmed,
        replay_stale=replay_stale,
        corpus_added=corpus_added,
        unshrunk=unshrunk,
        mutant_skips=mutant_skips,
    )
