"""Static perturbation-applicability analysis: LIT010/LIT011.

The minimality criterion (paper Definition 1) quantifies over every
application of every relaxation the model's vocabulary admits.  The
number of applications is a closed-form function of the test's
instruction mix — no generator walk, no solver round-trip — which is
what :func:`application_counts` computes, mirroring the per-relaxation
``applications()`` logic in :mod:`repro.relax.instruction` exactly (a
property test asserts the equality).

Diagnostic ids:

=======  ========  ==========================================================
id       severity  meaning
=======  ========  ==========================================================
LIT010   warning   no relaxation application exists (statically degenerate)
LIT011   info      rf/co(/sc) bounds statically empty (single execution)
=======  ========  ==========================================================

LIT010 is a warning, so it feeds the enumerator's existing
``early_reject`` hook (:func:`repro.analysis.early_reject` rejects at
warning severity) — such candidates are dropped before any oracle
query.  LIT011 stays informational: a test whose dynamic relations are
all statically empty admits exactly one well-formed execution and can
never exhibit a forbidden outcome, but rejecting it is the enumerator's
communication filter's job.

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
from repro.models.base import Vocabulary
from repro.relational import ast
from repro.relax.instruction import relaxations_for

__all__ = [
    "application_counts",
    "check_static_applicability",
    "check_singleton_executions",
    "dynamic_intervals",
    "fr_statically_empty",
]


def application_counts(
    test: LitmusTest, vocab: Vocabulary
) -> dict[str, int]:
    """``len(list(r.applications(test, vocab)))`` per applicable
    relaxation, computed in closed form."""
    return {
        relaxation.name: _count(relaxation.name, test, vocab)
        for relaxation in relaxations_for(vocab)
    }


def _count(name: str, test: LitmusTest, vocab: Vocabulary) -> int:
    if name == "RI":
        return test.num_events if test.num_events > 1 else 0
    if name == "DRMW":
        return len(test.rmw)
    if name == "DF":
        return sum(
            len(vocab.fence_demotions.get(inst.fence, ()))
            for inst in test.instructions
            if inst.is_fence
        )
    if name == "DMO":
        return sum(
            len(vocab.order_demotions.get(inst.order, ()))
            for inst in test.instructions
            if not inst.is_fence
        )
    if name == "RD":
        return len(
            {d.src for d in test.deps} | {r for r, _ in test.rmw}
        )
    if name == "DS":
        levels = sorted(vocab.scopes)
        return sum(
            1
            for inst in test.instructions
            if inst.scope is not None
            and inst.scope in vocab.scopes
            and levels.index(inst.scope) > 0
        )
    if name == "DV":
        return sum(1 for inst in test.instructions if inst.is_vmem)
    if name == "UA":
        return len(test.addr_map or ())
    raise ValueError(f"unknown relaxation {name!r}")


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
    counts = application_counts(ctx.test, ctx.model.vocabulary)
    if any(counts.values()):
        return
    columns = ", ".join(sorted(counts)) or "none"
    yield Diagnostic(
        "LIT010",
        Severity.WARNING,
        ctx.subject,
        f"no relaxation application exists under the {ctx.model.name} "
        f"vocabulary (columns checked: {columns}); the minimality "
        "criterion is vacuous for this test",
        hint="a minimal test must admit at least one weakening (paper "
        "Definition 1); the early-reject hook drops such candidates "
        "before any solver query",
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
