"""Static perturbation-applicability analysis: LIT010/LIT011.

The minimality criterion (paper Definition 1) quantifies over every
application of every relaxation the model's vocabulary admits.  LIT010
asks the relaxations' own ``applications()`` generators
(:mod:`repro.relax.instruction`) whether any application exists.

Diagnostic ids:

=======  ========  ==========================================================
id       severity  meaning
=======  ========  ==========================================================
LIT010   warning   no relaxation application exists (statically degenerate)
LIT011   info      rf/co(/sc) bounds statically empty (single execution)
=======  ========  ==========================================================

LIT010 is a warning about hand-written tests: every enumerated
candidate has at least two events, so RI always applies to it.  LIT011
stays informational: a test whose dynamic relations are all statically
empty admits exactly one well-formed execution and can never exhibit a
forbidden outcome, and keeping such tests out of the candidate stream
is the enumerator's communication prune's job.

Also here: :func:`dynamic_intervals`, the static bounds behind LIT011,
and :func:`fr_statically_empty`, the emptiness analysis the difftest
``empty:fr`` mutation consults.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.alloy.encoding import CO, RF, SC_REL, LitmusEncoding
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.absint import Interval, env_from_problem, eval_expr
from repro.analysis.registry import LitmusLintContext, register_pass
from repro.litmus.test import LitmusTest
from repro.relational import ast
from repro.relax.instruction import relaxations_for

__all__ = [
    "check_static_applicability",
    "check_singleton_executions",
    "dynamic_intervals",
    "fr_statically_empty",
]


@register_pass(
    "litmus-static-applicability",
    "litmus",
    "tests no instruction relaxation can weaken",
    ids=("LIT010",),
)
def check_static_applicability(
    ctx: LitmusLintContext,
) -> Iterator[Diagnostic]:
    """LIT010: zero relaxation applications under the model's
    vocabulary.  Minimality quantifies vacuously over such tests — they
    carry no evidence about any axiom and never belong in a suite."""
    if ctx.model is None:
        return
    vocab = ctx.model.vocabulary
    relaxations = relaxations_for(vocab)
    if any(True for r in relaxations for _ in r.applications(ctx.test, vocab)):
        return
    columns = ", ".join(sorted(r.name for r in relaxations)) or "none"
    yield Diagnostic(
        "LIT010",
        Severity.WARNING,
        ctx.subject,
        f"no relaxation application exists under the {ctx.model.name} "
        f"vocabulary (columns checked: {columns}); the minimality "
        "criterion is vacuous for this test",
        hint="a minimal test must admit at least one weakening (paper "
        "Definition 1)",
    )


@register_pass(
    "litmus-singleton-execution",
    "litmus",
    "tests whose dynamic relations are statically fixed",
    ids=("LIT011",),
)
def check_singleton_executions(
    ctx: LitmusLintContext,
) -> Iterator[Diagnostic]:
    """LIT011: every dynamic relation's upper bound is statically empty,
    so the test has exactly one well-formed execution."""
    with_sc = bool(
        ctx.model is not None
        and getattr(ctx.model, "uses_sc_order", False)
    )
    intervals = dynamic_intervals(ctx.test, with_sc=with_sc)
    if any(interval.upper for interval in intervals.values()):
        return
    names = "/".join(sorted(intervals))
    yield Diagnostic(
        "LIT011",
        Severity.INFO,
        ctx.subject,
        f"dynamic relations ({names}) have statically empty upper "
        "bounds: the test admits exactly one well-formed execution, so "
        "no outcome can ever be forbidden",
        hint="informational; such tests cannot discriminate between "
        "models and never enter a synthesized suite",
    )


def dynamic_intervals(
    test: LitmusTest, with_sc: bool = False
) -> dict[str, Interval]:
    """Static bounds of the dynamic relations, keyed by relation name."""
    problem = LitmusEncoding(test, with_sc=with_sc).problem
    env = env_from_problem(problem)
    names = [RF, CO] + ([SC_REL] if with_sc else [])
    return {name: eval_expr(ast.Rel(name), env) for name in names}


def fr_statically_empty(test: LitmusTest) -> bool:
    """Can ``fr`` (Fig. 4's from-reads) ever hold a tuple on this test?

    ``fr``'s upper bound is the set of same-address (read, write) pairs
    — the subtracted ``no_later`` term has an empty lower bound because
    ``rf`` does — so the abstract answer is exact: an empty upper bound
    means *every* execution of the test has an empty ``fr``, making any
    ``empty:fr``-style mutation behaviourally identical to the stock
    model on this test."""
    encoding = LitmusEncoding(test)
    env = env_from_problem(encoding.problem)
    return not eval_expr(LitmusEncoding.fr(), env).upper
