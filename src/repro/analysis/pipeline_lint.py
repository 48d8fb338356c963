"""Pipeline lint: sanity checks over clause sets headed for the solver.

The Tseitin compiler (:mod:`repro.relational.circuit`) and the relational
translator are supposed to emit tight CNF: every allocated variable
reachable from the root, no degenerate clauses.  These passes verify that
on real encodings and on raw DIMACS input.

Diagnostic ids:

=======  ========  ==========================================================
id       severity  meaning
=======  ========  ==========================================================
SAT001   warning   variable never referenced by any clause (orphan)
SAT002   warning   tautological clause (contains ``v`` and ``-v``)
SAT003   error     empty clause (formula trivially unsatisfiable)
SAT004   info      duplicate literal within one clause
SAT005   error     literal references a variable beyond ``num_vars``
SAT006   info      unit clause in the input (fine, but worth surfacing)
SAT007   warning   oracle configuration silently ignores the CNF cache
SAT008   warning   CNF cache directory mixes incompatible fingerprints
SAT009   warning   warm CNF cache produced zero compile hits
=======  ========  ==========================================================

SAT007/SAT008/SAT009 are collection-level checks over oracle
*configurations*, on-disk cache directories, and run metrics rather than
clause sets, so (like ``find_duplicate_tests`` in the litmus family)
they are plain functions: :func:`lint_oracle_options`,
:func:`lint_cnf_cache_dir`, and :func:`lint_warm_compile`.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import (
    ClauseLintContext,
    register_pass,
    run_family,
)
from repro.sat.solver import Solver
from repro.sat.types import index_lit

__all__ = [
    "lint_clause_context",
    "lint_oracle_options",
    "lint_cnf_cache_dir",
    "lint_warm_compile",
    "context_from_solver",
    "context_from_dimacs",
]


@register_pass(
    "pipeline-clause-shape",
    "pipeline",
    "degenerate clauses: empty, tautological, duplicated literals",
    ids=("SAT002", "SAT003", "SAT004", "SAT006"),
)
def check_clause_shapes(ctx: ClauseLintContext):
    """SAT002/SAT003/SAT004/SAT006 over each clause in input order."""
    for i, clause in enumerate(ctx.clauses):
        subject = f"{ctx.subject}:c{i}"
        if not clause:
            yield Diagnostic(
                "SAT003",
                Severity.ERROR,
                subject,
                "empty clause: the formula is trivially unsatisfiable",
                hint="an empty clause at encoding time means the "
                "translation contradicted itself",
            )
            continue
        lits = set(clause)
        if len(lits) < len(clause):
            yield Diagnostic(
                "SAT004",
                Severity.INFO,
                subject,
                "clause repeats a literal",
                hint="harmless but wasteful; the encoder should dedup",
            )
        if any(-lit in lits for lit in lits):
            yield Diagnostic(
                "SAT002",
                Severity.WARNING,
                subject,
                "tautological clause (contains a literal and its "
                "negation); it constrains nothing",
                hint="the encoder emitted dead weight; a tautology "
                "usually signals a polarity bug upstream",
            )
        elif len(lits) == 1:
            yield Diagnostic(
                "SAT006",
                Severity.INFO,
                subject,
                f"unit clause fixes literal {next(iter(lits))} at "
                "encoding time",
                hint="expected for root assertions; a flood of units "
                "suggests the encoding could be simplified upstream",
            )


@register_pass(
    "pipeline-variable-use",
    "pipeline",
    "orphan and out-of-range variables",
    ids=("SAT001", "SAT005"),
)
def check_variable_use(ctx: ClauseLintContext):
    """SAT001/SAT005: every declared variable should appear in some
    clause (or be pre-marked via ``referenced_vars``, e.g. level-0 unit
    assignments a solver consumed on entry), and no literal may exceed
    the declared variable count."""
    used: set[int] = set(ctx.referenced_vars)
    for i, clause in enumerate(ctx.clauses):
        for lit in clause:
            var = abs(lit)
            used.add(var)
            if var > ctx.num_vars:
                yield Diagnostic(
                    "SAT005",
                    Severity.ERROR,
                    f"{ctx.subject}:c{i}",
                    f"literal {lit} references variable {var} beyond the "
                    f"declared {ctx.num_vars}",
                    hint="the header/num_vars and the clause emitter "
                    "disagree",
                )
    for var in range(1, ctx.num_vars + 1):
        if var not in used:
            yield Diagnostic(
                "SAT001",
                Severity.WARNING,
                f"{ctx.subject}:v{var}",
                f"variable {var} is never referenced by any clause "
                "(orphan Tseitin variable)",
                hint="orphans bloat the search space and usually mean a "
                "circuit node was allocated but never asserted",
            )


# -- context builders ------------------------------------------------------------


def context_from_solver(name: str, solver: Solver) -> ClauseLintContext:
    """Lint context for a live solver's clause database.

    The solver consumes unit clauses at level 0 (they become trail
    assignments, not stored clauses) and drops tautologies on entry, so
    the trail is pre-marked as referenced — variables fixed that way are
    used, just not visible in ``solver.clauses``.
    """
    clauses = [
        [index_lit(idx) for idx in clause.lits] for clause in solver.clauses
    ]
    referenced = {abs(index_lit(idx)) for idx in solver.trail}
    return ClauseLintContext(
        name,
        num_vars=solver.num_vars,
        clauses=clauses,
        referenced_vars=referenced,
    )


def context_from_dimacs(
    name: str, num_vars: int, clauses: Iterable[Iterable[int]]
) -> ClauseLintContext:
    """Lint context for parsed DIMACS input (pre-solver, nothing
    consumed, so no pre-marked references)."""
    return ClauseLintContext(
        name, num_vars=num_vars, clauses=[list(c) for c in clauses]
    )


def lint_clause_context(ctx: ClauseLintContext) -> Iterable[Diagnostic]:
    """Run every registered pipeline pass over one context."""
    return run_family("pipeline", ctx)


# -- oracle configuration checks (SAT007/SAT008) --------------------------------


def lint_oracle_options(opts) -> list[Diagnostic]:
    """SAT007: an oracle knob the chosen oracle silently ignores.

    Takes an :class:`repro.core.synthesis.OracleSpec` or anything with
    an ``oracle_spec`` attribute (a
    :class:`repro.core.synthesis.SynthesisOptions`).  The one such knob
    is ``cnf_cache_dir``: the user *asked* for caching, and the explicit
    oracle quietly never compiles anything to cache.
    """
    target = getattr(opts, "oracle_spec", opts)
    if target.oracle == "relational" or target.cnf_cache_dir is None:
        return []
    return [
        Diagnostic(
            "SAT007",
            Severity.WARNING,
            "options:cnf_cache_dir",
            "cnf_cache_dir only affects the relational oracle; the "
            "explicit oracle ignores it",
            hint="pass oracle='relational' (CLI: --oracle relational) to "
            "make the knob effective",
        )
    ]


def lint_cnf_cache_dir(directory: str) -> list[Diagnostic]:
    """SAT008: on-disk CNF cache entries that cannot serve each other.

    Every entry is self-describing (``schema`` + ``model`` fields, see
    :mod:`repro.alloy.cache`).  A directory mixing model fingerprints or
    holding stale-schema/corrupt entries still *works* — lookups filter
    by fingerprint — but the misses are silent, which is exactly how a
    mis-pointed ``--cnf-cache-dir`` hides.
    """
    from repro.alloy.cache import CACHE_SCHEMA

    out: list[Diagnostic] = []
    if not os.path.isdir(directory):
        return out
    models: set[str] = set()
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json") or entry.startswith("."):
            continue
        path = os.path.join(directory, entry)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            out.append(
                Diagnostic(
                    "SAT008",
                    Severity.WARNING,
                    f"{directory}:{entry}",
                    "unreadable CNF cache entry (corrupt or foreign "
                    "file); every lookup hitting it misses silently",
                    hint="delete the file or point --cnf-cache-dir at a "
                    "dedicated directory",
                )
            )
            continue
        schema = data.get("schema")
        if schema != CACHE_SCHEMA:
            out.append(
                Diagnostic(
                    "SAT008",
                    Severity.WARNING,
                    f"{directory}:{entry}",
                    f"stale cache entry (schema {schema!r}, current "
                    f"{CACHE_SCHEMA}); it will never hit again",
                    hint="safe to delete; the cache rewrites entries on "
                    "the next compile",
                )
            )
            continue
        model = data.get("model")
        if isinstance(model, str):
            models.add(model)
    if len(models) > 1:
        listed = ", ".join(sorted(models))
        out.append(
            Diagnostic(
                "SAT008",
                Severity.WARNING,
                directory,
                f"cache directory mixes {len(models)} incompatible model "
                f"fingerprints ({listed}); entries from one model never "
                "serve another",
                hint="use one cache directory per model to keep hit "
                "rates meaningful",
            )
        )
    return out


def lint_warm_compile(
    metrics: dict, subject: str = "oracle"
) -> list[Diagnostic]:
    """SAT009: a warm run whose CNF compilation cache never hit.

    ``metrics`` is any raw counter snapshot following the
    :class:`repro.obs.Stats` conventions (a ``SynthesisResult``'s
    ``oracle_stats``, a merged trace's counters, a service job's
    per-job delta).  *Warm* means the cache's disk layer already held
    entries when the oracle started (``compile_warm_entries > 0`` —
    a daemon restart over a populated ``--cnf-cache-dir``, or a rerun
    sharing one).  If such a run compiled problems (``compile_misses``)
    yet served none from the cache, every lookup missed silently: the
    classic signatures are a mis-pointed directory, a stale cache
    schema, or a model-fingerprint mismatch after a model edit.
    """
    warm = metrics.get("compile_warm_entries", 0)
    hits = metrics.get("compile_hits", 0)
    misses = metrics.get("compile_misses", 0)
    if warm and misses and not hits:
        return [
            Diagnostic(
                "SAT009",
                Severity.WARNING,
                subject,
                f"warm run (disk cache held {int(warm)} entries at "
                f"start) compiled {int(misses)} problems but reports "
                "compile_hit_rate 0.0; every cache lookup missed "
                "silently",
                hint="check that --cnf-cache-dir points at the directory "
                "the previous run populated and that the model was not "
                "edited since (a fingerprint mix in the directory is "
                "reported as SAT008)",
            )
        ]
    return []
