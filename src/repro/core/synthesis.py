"""The synthesis pipeline (paper §5): enumerate → check minimality →
canonicalize → emit per-axiom and union suites.

``synthesize`` is the top-level entry point the paper's Fig. 5a ``run
generate`` corresponds to: it streams every candidate test within the
size bound, keeps those satisfying the minimality criterion for at least
one axiom, and collects one suite per axiom plus the union suite.  Each
unique candidate is checked once for all axioms: only the forbidden set
depends on the axiom, so the relaxed tests and the observability answers
are shared (:meth:`MinimalityChecker.check_axioms`).

The stable call form takes a :class:`SynthesisOptions` value::

    result = synthesize(model, SynthesisOptions(bound=4, jobs=4))

Oracle configuration travels as one :class:`OracleSpec` value
(``SynthesisOptions(bound=4, oracle_spec=OracleSpec(oracle="relational"))``).

:func:`synthesize_shard` is the one per-candidate loop.  Every run is a set of
shards folded by the same order-restoring merge: a plain ``jobs=1`` run
is a single in-process shard over the unsharded stream, while ``jobs >
1`` (or ``shards``/``checkpoint_dir``) partitions the stream and fans
the shards out through :mod:`repro.exec`.  The merged output is
byte-identical for every job and shard count.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace

from repro.litmus.test import LitmusTest
from repro.models.base import MemoryModel
from repro.obs import (
    MetricsRegistry,
    Tracer,
    metrics_delta,
    metrics_of,
    null_tracer,
    use_registry,
)
from repro.core.canonical import canonical_form
from repro.core.enumerator import EnumerationConfig, ThreadUnit, enumerate_shard
from repro.core.minimality import CriterionMode, MinimalityChecker
from repro.core.suite import outcome_to_dict, test_to_dict

__all__ = [
    "OracleSpec",
    "SynthesisOptions",
    "SynthesisResult",
    "RESULT_SCHEMA_NAME",
    "RESULT_SCHEMA_VERSION",
    "ORACLES",
    "build_checker",
    "check_oracle_spec",
    "fingerprint",
    "run_sequential",
    "synthesize_shard",
    "synthesize",
]

#: recognized ``SynthesisOptions.oracle`` backends
ORACLES = ("explicit", "relational")

#: payload schema of the JSON document ``SynthesisResult.to_json_dict``
#: emits (and the CLI's ``synthesize --json`` prints).  v1 was the
#: implicit pre-1.1 counts-only shape; v2 added the wall/cpu seconds
#: split, shard bookkeeping, and aggregated oracle cache statistics; v3
#: wraps the payload in the unified :class:`repro.obs.Report` envelope;
#: v4 drops the per-axiom seconds (one criterion pass answers every
#: axiom of a candidate, so no time belongs to one axiom).
RESULT_SCHEMA_NAME = "synthesis-result"
RESULT_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class OracleSpec:
    """The oracle configuration of one synthesis run, as a single value.

    Bundles everything that selects and tunes the criterion oracle.
    One ``OracleSpec`` is consumed identically by in-process runs, every
    pool worker, and the service daemon's resident pools, so the same
    value always resolves to the same pipeline (and the same request
    fingerprint).

    Attributes:
        oracle: which execution oracle answers criterion queries —
            ``"explicit"`` (enumeration, the default) or ``"relational"``
            (the SAT/model-finding stack; only for models with an Alloy
            encoding).
        cnf_cache_dir: optional on-disk CNF compilation cache directory
            for the relational oracle, shared across worker processes
            and across runs.
    """

    oracle: str = "explicit"
    cnf_cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.oracle not in ORACLES:
            raise ValueError(
                f"unknown oracle {self.oracle!r}; choose from {ORACLES}"
            )

    def to_payload(self) -> dict:
        """The JSON-safe wire form (see :mod:`repro.service.protocol`)."""
        return {"oracle": self.oracle, "cnf_cache_dir": self.cnf_cache_dir}

    @classmethod
    def from_payload(cls, payload: dict) -> OracleSpec:
        unknown = set(payload) - {"oracle", "cnf_cache_dir"}
        if unknown:
            raise ValueError(f"unknown oracle spec fields {sorted(unknown)}")
        return cls(**payload)


@dataclass
class SynthesisOptions:
    """Everything ``synthesize`` needs besides the model itself.

    Attributes:
        bound: maximum instruction count per test.
        axioms: which axioms to build suites for (default: all of them).
        mode: criterion evaluation mode (Fig. 5b exact by default).
        config: enumeration bounds (defaults derive from ``bound``).
        exact_symmetry: use the exact canonicalizer (False reproduces the
            paper's greedy one, WWC blind spot included).
        candidates: explicit candidate stream (overrides the enumerator —
            used by tests and suite-from-corpus workflows; incompatible
            with ``jobs > 1`` / checkpointing).
        progress_events: callback invoked with structured progress
            event dicts (always carrying a ``"phase"`` key) — an
            ``enumerate`` event every 1000 candidates plus a final
            ``finish`` event in an unsharded run, one ``shard`` event
            (with the running ``total_candidates``) per completed shard
            in a sharded one.  Process-local (never serializes); the
            service daemon wires it to the streamed ``job-progress``
            wire messages.
        jobs: worker process count; ``jobs > 1`` fans the shards out
            over a process pool (:mod:`repro.exec`).
        checkpoint_dir: directory for shard-level checkpoints; a rerun
            with the same options resumes, skipping completed shards.
        shards: total shard count (default: one unsharded shard for a
            plain ``jobs=1`` run, else ``4 * jobs`` — small enough to
            amortize worker warm-up, large enough for balance and useful
            checkpoint granularity).
        oracle_spec: the oracle configuration (:class:`OracleSpec`) —
            backend choice plus the relational oracle's CNF-cache
            directory.
        trace_dir: optional directory for :mod:`repro.obs` trace files
            (driver phase spans, per-shard span/counter streams, and the
            deterministic ``merged.jsonl``, byte-identical for every job
            count).  Tracing never changes which code runs; render with
            ``repro report``.
    """

    bound: int
    axioms: Sequence[str] | None = None
    mode: CriterionMode = CriterionMode.EXACT
    config: EnumerationConfig | None = None
    exact_symmetry: bool = True
    candidates: Iterable[LitmusTest] | None = None
    progress_events: Callable[[dict], None] | None = None
    jobs: int = 1
    checkpoint_dir: str | None = None
    shards: int | None = None
    oracle_spec: OracleSpec = field(default_factory=OracleSpec)
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not isinstance(self.oracle_spec, OracleSpec):
            raise TypeError(
                "oracle_spec must be an OracleSpec, got "
                f"{type(self.oracle_spec).__name__}"
            )

    def resolved_config(
        self, model: MemoryModel | None = None
    ) -> EnumerationConfig:
        """The enumeration bounds, derived from ``bound`` when no
        explicit ``config`` was given.

        Models whose vocabulary declares transistency support default to
        ``max_aliases=1``, so enhanced candidates with one
        virtual->physical alias join the stream; consistency-only models
        keep the byte-identical ``max_aliases=0`` space.
        """
        if self.config is not None:
            return self.config
        max_aliases = (
            1 if model is not None and model.vocabulary.has_vmem else 0
        )
        return EnumerationConfig(
            max_events=self.bound, max_aliases=max_aliases
        )

    def axiom_names(self, model: MemoryModel) -> tuple[str, ...]:
        """The axioms to build suites for; :class:`ValueError` names
        any the model does not define."""
        known = model.axiom_names()
        if self.axioms is None:
            return known
        unknown = [name for name in self.axioms if name not in known]
        if unknown:
            raise ValueError(
                f"unknown axiom {unknown[0]!r} for {model.name!r} "
                f"(axioms: {', '.join(known)})"
            )
        return tuple(self.axioms)


@dataclass
class SynthesisResult:
    """Per-axiom suites, the union suite, and bookkeeping counters.

    ``wall_seconds`` is elapsed real time for the whole run;
    ``cpu_seconds`` is the summed busy time of every shard plus the
    merge (about ``wall_seconds`` for in-process runs, roughly ``jobs ×
    wall`` for well-balanced parallel ones).
    """

    model_name: str
    bound: int
    per_axiom: dict[str, TestSuite]
    union: TestSuite
    candidates: int = 0
    unique_candidates: int = 0
    minimal_tests: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    jobs: int = 1
    shard_count: int = 0
    oracle_stats: dict[str, float] = field(default_factory=dict)

    def counts(self) -> dict:
        out: dict = {name: len(suite) for name, suite in self.per_axiom.items()}
        out["union"] = len(self.union)
        out["wall_seconds"] = self.wall_seconds
        out["cpu_seconds"] = self.cpu_seconds
        return out

    def to_json_dict(self) -> dict:
        """The stable machine-readable summary: a
        :class:`repro.obs.Report` envelope around the ``synthesis-result``
        payload (schema v4)."""
        from repro.obs import Report

        suite_counts: dict = {
            name: len(suite) for name, suite in self.per_axiom.items()
        }
        suite_counts["union"] = len(self.union)
        payload = {
            "model": self.model_name,
            "bound": self.bound,
            "jobs": self.jobs,
            "shards": self.shard_count,
            "candidates": self.candidates,
            "unique_candidates": self.unique_candidates,
            "minimal_tests": self.minimal_tests,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "suite_counts": suite_counts,
            "oracle": dict(self.oracle_stats),
        }
        return Report(
            schema_name=RESULT_SCHEMA_NAME,
            schema_version=RESULT_SCHEMA_VERSION,
            command="synthesize",
            payload=payload,
        ).to_json_dict()

    def summary(self) -> str:
        rate = self.candidates / self.wall_seconds if self.wall_seconds else 0.0
        head = (
            f"model={self.model_name} bound={self.bound} "
            f"candidates={self.candidates} unique={self.unique_candidates} "
            f"wall={self.wall_seconds:.2f}s cpu={self.cpu_seconds:.2f}s "
            f"({rate:.0f} cand/s)"
        )
        if self.jobs > 1 or self.shard_count:
            head += f" jobs={self.jobs} shards={self.shard_count}"
        lines = [head]
        for name, suite in self.per_axiom.items():
            lines.append(f"  {name:<16s} {len(suite):5d} tests")
        lines.append(f"  {'union':<16s} {len(self.union):5d} tests")
        hit_rate = self.oracle_stats.get("observe_hit_rate")
        if hit_rate is not None:
            lines.append(
                f"  oracle cache: analysis "
                f"{self.oracle_stats.get('analysis_hit_rate', 0.0):.0%} hits, "
                f"observe {hit_rate:.0%} hits"
            )
        return "\n".join(lines)


def check_oracle_spec(
    model: MemoryModel, mode: CriterionMode, spec: OracleSpec
) -> None:
    """Raise :class:`ValueError` unless ``spec`` can serve ``model``
    under ``mode``.

    The relational oracle needs an Alloy encoding of the model and the
    exact or execution criterion.  :func:`build_checker` calls this, and
    the sharded runtime calls it in the parent before any shard runs,
    so a bad combination fails at once instead of inside a child.
    """
    if spec.oracle != "relational":
        return
    if CriterionMode(mode) is CriterionMode.EXECUTION_WA:
        raise ValueError(
            "the Fig. 19 workaround criterion needs the explicit "
            "oracle; use oracle='explicit' with mode=execution-wa"
        )
    from repro.alloy.models import ALLOY_MODELS

    if model.name not in ALLOY_MODELS:
        known = ", ".join(sorted(ALLOY_MODELS))
        raise ValueError(
            f"the relational oracle has no Alloy encoding for "
            f"{model.name!r} (available: {known}); use oracle='explicit'"
        )


def build_checker(
    model: MemoryModel,
    mode: CriterionMode,
    spec: OracleSpec | None = None,
) -> MinimalityChecker:
    """Build the minimality checker for one :class:`OracleSpec`.

    Shared by in-process runs, every pool worker, and the service
    daemon's resident pools, so every path resolves the same spec to
    the exact same pipeline.
    """
    mode = CriterionMode(mode)
    if spec is None:
        spec = OracleSpec()
    check_oracle_spec(model, mode, spec)
    if spec.oracle == "relational":
        from repro.alloy.oracle import AlloyOracle

        backend = AlloyOracle(model.name, cnf_cache_dir=spec.cnf_cache_dir)
        return MinimalityChecker(model, mode, oracle=backend)
    return MinimalityChecker(model, mode)


def _resolve_request(model, options):
    """Map the ``SynthesisRequest`` call forms onto (model, options).

    Accepts ``synthesize(request)`` (the request names its own model)
    and ``synthesize(model, request)`` (the names must agree).  Returns
    ``None`` when no request is involved.  The service protocol module
    is imported lazily: it imports this module at load time, so the
    top level here must stay request-free.
    """
    from repro.service.protocol import SynthesisRequest

    if isinstance(model, SynthesisRequest):
        if options is not None:
            raise TypeError(
                "synthesize(request) takes no second positional argument"
            )
        from repro.models.registry import get_model

        return get_model(model.model), model.options
    if isinstance(options, SynthesisRequest):
        if options.model != model.name:
            raise ValueError(
                f"request names model {options.model!r} but synthesize() "
                f"was called with {model.name!r}"
            )
        return model, options.options
    return None


def synthesize(
    model: MemoryModel,
    options: SynthesisOptions | None = None,
) -> SynthesisResult:
    """Synthesize the comprehensive suites for one model.

    Stable forms::

        synthesize(model, SynthesisOptions(bound=4, ...))
        synthesize(SynthesisRequest(model="tso", options=...))

    The request form (:class:`repro.service.protocol.SynthesisRequest`)
    is the wire-serializable shape the synthesis service daemon accepts;
    locally it resolves the model by name and runs identically.

    The pre-1.1 loose-keyword form (``synthesize(model, bound,
    axioms=..., ...)``) completed its deprecation window and was
    removed in 1.2; it now raises :class:`TypeError`.
    """
    if not isinstance(model, MemoryModel) or not isinstance(
        options, (SynthesisOptions, type(None))
    ):
        resolved = _resolve_request(model, options)
        if resolved is not None:
            model, options = resolved
    if not isinstance(options, SynthesisOptions):
        raise TypeError(
            "synthesize() takes a SynthesisOptions (or a SynthesisRequest); "
            "the loose-keyword form was removed in 1.2 — build the options "
            "value explicitly: synthesize(model, SynthesisOptions(bound=...))"
        )
    from repro.exec.runtime import run_sharded

    return run_sharded(model, options)


def run_sequential(
    model: MemoryModel,
    opts: SynthesisOptions,
    checker: MinimalityChecker | None = None,
) -> SynthesisResult:
    """Run one synthesis in this process, optionally over a resident
    checker (``opts.jobs`` is ignored).

    ``checker`` lets a long-lived host inject a warm
    :class:`MinimalityChecker` whose oracle caches — analysis memos,
    incremental solver sessions, the CNF compilation cache — survive
    across calls.  It must have been built for the same model and
    oracle configuration as ``opts`` (see :func:`build_checker`); when
    omitted, a fresh one is built.  The returned ``oracle_stats`` are
    this run's share of the oracle's counters either way.
    """
    from repro.exec.runtime import run_sharded

    return run_sharded(model, replace(opts, jobs=1), checker=checker)


def fingerprint(test: LitmusTest) -> str:
    """A stable short digest of a test's structure.

    Used to count *globally* unique canonical forms across shards without
    shipping the tests themselves: each shard digests its locally-unique
    canonical forms, and the merge unions the digest sets.  Digests are
    content-derived (no ``hash()`` — that is salted per interpreter), so
    they agree across worker processes and across runs.  The alias map
    joins the payload only when present, so digests of consistency-only
    tests (and the checkpoints holding them) are unchanged.
    """
    fields: tuple = (
        test.threads,
        sorted(test.rmw),
        sorted(test.deps),
        test.scopes,
    )
    if test.addr_map is not None:
        fields += (test.addr_map,)
    return hashlib.blake2b(repr(fields).encode(), digest_size=8).hexdigest()


def synthesize_shard(
    model: MemoryModel,
    opts: SynthesisOptions,
    checker: MinimalityChecker,
    shard: tuple[int, int] = (0, 1),
    pools: dict[int, list[ThreadUnit]] | None = None,
) -> dict:
    """The synthesis loop over one shard of the candidate stream.

    Streams ``opts.candidates`` (each candidate its own work item) or
    the enumerator's ``shard=(index, count)`` slice — ``(0, 1)`` is the
    whole unsharded stream — canonicalizes, and checks each new
    canonical class against the criterion with one
    :meth:`~repro.core.minimality.MinimalityChecker.check_axioms` call
    that answers every axiom.  Returns a *shard result*: plain JSON, so
    the same payload serves the process pipe and the checkpoint file::

        {"shard": index,
         "records": [{"item": <global work-item ordinal>,
                      "pos":  <candidate position within the item>,
                      "test": <test_to_dict form>,
                      "minimal_for": [axiom, ...],   # axiom order
                      "witnesses": {axiom: <outcome_to_dict form>}}],
         "stats": {"candidates", "unique", "digests", "cpu_seconds",
                   "oracle"}}

    ``(item, pos)`` is a global sort key: ordering every shard's records
    by it reconstructs the unsharded candidate order, which is what lets
    :mod:`repro.exec.merge` produce byte-identical suites.  ``oracle``
    is this shard's share of ``checker``'s counters (a resident checker
    persists across shards and runs).  ``pools`` is the enumerator's
    thread-unit pool mapping (see
    :func:`~repro.core.enumerator.enumerate_shard`), shared by the
    shards one process runs.  ``opts.progress_events`` hears
    every 1000th candidate; with ``opts.trace_dir`` the shard streams a
    span + counters trace to ``shard-NNNN.jsonl``.
    """
    t0 = time.perf_counter()
    index = shard[0]
    axiom_names = opts.axiom_names(model)
    if opts.candidates is not None:
        stream: Iterable[tuple[int, LitmusTest]] = enumerate(opts.candidates)
    else:
        stream = enumerate_shard(
            model.vocabulary,
            opts.resolved_config(model),
            shard=shard,
            pools=pools,
        )
    events = opts.progress_events
    seen: set[LitmusTest] = set()
    digests: list[str] = []
    records: list[dict] = []
    n_candidates = 0
    current_item = -1
    pos = 0
    oracle_before = metrics_of(checker.oracle)
    tracer = (
        Tracer(os.path.join(opts.trace_dir, f"shard-{index:04d}.jsonl"))
        if opts.trace_dir is not None
        else null_tracer()
    )
    registry = MetricsRegistry()
    with tracer, use_registry(registry):
        with tracer.span("shard", shard=index) as shard_span:
            for item, test in stream:
                if item != current_item:
                    current_item, pos = item, 0
                else:
                    pos += 1
                n_candidates += 1
                if n_candidates % 1000 == 0 and events is not None:
                    events({"phase": "enumerate", "candidates": n_candidates})
                canon = canonical_form(test)
                if canon in seen:
                    continue
                seen.add(canon)
                digests.append(fingerprint(canon))
                results = checker.check_axioms(test, axiom_names)
                minimal_for: list[str] = []
                witnesses: dict[str, dict] = {}
                for name in axiom_names:
                    result = results[name]
                    if result.is_minimal:
                        assert result.witness is not None
                        minimal_for.append(name)
                        witnesses[name] = outcome_to_dict(result.witness)
                if minimal_for:
                    records.append(
                        {
                            "item": item,
                            "pos": pos,
                            "test": test_to_dict(test),
                            "minimal_for": minimal_for,
                            "witnesses": witnesses,
                        }
                    )
            shard_span.annotate(
                candidates=n_candidates, unique=len(seen), minimal=len(records)
            )
        oracle_delta = metrics_delta(oracle_before, metrics_of(checker.oracle))
        registry.count("candidates", n_candidates)
        registry.count("unique_candidates", len(seen))
        registry.count("minimal_records", len(records))
        tracer.counters({**registry.as_metrics(), **oracle_delta}, shard=index)
    return {
        "shard": index,
        "records": records,
        "stats": {
            "candidates": n_candidates,
            "unique": len(seen),
            "digests": digests,
            "cpu_seconds": time.perf_counter() - t0,
            "oracle": oracle_delta,
        },
    }
