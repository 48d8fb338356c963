"""Model lint: static and probe-based checks over memory-model axioms.

Two kinds of model definition exist in this repository and both are
covered:

* the **relational-AST twins** (:mod:`repro.alloy.models`) — dicts of
  :class:`~repro.relational.ast.Formula` trees, checked structurally
  (relation usage, closure misuse, duplicates) and semantically via a
  tiny-bound solver probe over :data:`~repro.analysis.probes.PROBE_BATTERY`;
* the **executable models** (:mod:`repro.models`) — callables over a
  :class:`~repro.semantics.relations.RelationView`, checked by evaluating
  them over every execution of the same probe battery.

Diagnostic ids:

=======  ========  ==========================================================
id       severity  meaning
=======  ========  ==========================================================
MDL001   error     declared free relation never referenced by any axiom
MDL002   warning   axiom vacuously true: rejects nothing across the battery
MDL003   error     axiom unsatisfiable: rejects everything across the battery
MDL004   warn/err  ``Acyclic``/``Irreflexive`` over a closure expression
MDL005   warning   two axioms are structurally identical
MDL006   error     ``wa_axioms`` axiom names out of sync with ``axioms``
MDL010   warning   axiom folds to true on every probe (statically vacuous)
MDL011   error     axiom folds to false on a probe (unsat by construction)
MDL012   warning   operator-induced statically-empty subexpression (dead)
=======  ========  ==========================================================

MDL010–012 need no solver query: they read the constant folding of the
relational translator (:class:`~repro.relational.translate.Translator`),
the same translation the relational oracle solves, over each probe's
Kodkod bounds.  A tuple no instance can hold gets no matrix entry and a
formula the bounds decide folds to ``TRUE``/``FALSE``, so they run even
without ``probe``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.alloy.encoding import LitmusEncoding
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.probes import PROBE_BATTERY
from repro.analysis.registry import (
    ModelLintContext,
    register_pass,
    run_family,
)
from repro.relational import ast
from repro.relational.circuit import FALSE, TRUE, Circuit
from repro.relational.solve import ModelFinder
from repro.relational.translate import Translator
from repro.semantics.enumerate import enumerate_executions

__all__ = [
    "walk_nodes",
    "referenced_relations",
    "render_expr",
    "lint_model_context",
    "alloy_context",
    "model_context",
]


# -- AST traversal ---------------------------------------------------------------


def walk_nodes(node: ast.Expr | ast.Formula) -> Iterator[ast.Expr | ast.Formula]:
    """Yield every node of a Formula/Expr tree (preorder).

    Thin alias of :func:`repro.relational.ast.walk`, kept for the
    existing pass/test surface.
    """
    return ast.walk(node)


def referenced_relations(*roots: ast.Expr | ast.Formula) -> set[str]:
    """Names of every :class:`~repro.relational.ast.Rel` under the roots."""
    names: set[str] = set()
    for root in roots:
        for node in walk_nodes(root):
            if isinstance(node, ast.Rel):
                names.add(node.name)
    return names


# -- structural passes -----------------------------------------------------------


@register_pass(
    "model-unused-relation",
    "model",
    "free declared relations every axiom ignores",
    ids=("MDL001",),
)
def check_unused_relations(ctx: ModelLintContext) -> Iterator[Diagnostic]:
    """MDL001: a relation with free (solver-chosen) tuples that no axiom
    constrains yields garbage instances — almost always a typo'd name."""
    if ctx.formulas is None or ctx.problem is None:
        return
    used = referenced_relations(*ctx.formulas.values())
    for name, decl in sorted(ctx.problem.declarations.items()):
        if decl.free and name not in used:
            yield Diagnostic(
                "MDL001",
                Severity.ERROR,
                f"{ctx.subject}:{name}",
                f"free relation {name!r} is never referenced by any axiom",
                hint="axioms must constrain every dynamic relation; "
                "check for a misspelled Rel name",
            )


@register_pass(
    "model-closure-misuse",
    "model",
    "Acyclic/Irreflexive applied to closure expressions",
    ids=("MDL004",),
)
def check_closure_misuse(ctx: ModelLintContext) -> Iterator[Diagnostic]:
    """MDL004: ``Acyclic(^r)`` is redundant, ``Irreflexive(^r)`` should be
    ``Acyclic(r)``, and either applied to a *reflexive* closure is
    unsatisfiable outright (the diagonal is always present)."""
    if ctx.formulas is None:
        return
    for axiom_name, formula in ctx.formulas.items():
        subject = f"{ctx.subject}:{axiom_name}"
        for node in walk_nodes(formula):
            if isinstance(node, (ast.Acyclic, ast.Irreflexive)):
                op = type(node).__name__
                if isinstance(node.expr, ast.RClosure):
                    yield Diagnostic(
                        "MDL004",
                        Severity.ERROR,
                        subject,
                        f"{op}(*r) is unsatisfiable: a reflexive closure "
                        "always contains the diagonal",
                        hint="apply the predicate to the plain or "
                        "transitive closure instead",
                    )
                elif isinstance(node.expr, ast.Closure):
                    hint = (
                        "Acyclic already closes its argument; drop the ^"
                        if op == "Acyclic"
                        else "Irreflexive(^r) is Acyclic(r); prefer Acyclic"
                    )
                    yield Diagnostic(
                        "MDL004",
                        Severity.WARNING,
                        subject,
                        f"{op}(^r) applies a cycle predicate to an "
                        "explicitly closed expression",
                        hint=hint,
                    )


@register_pass(
    "model-duplicate-axiom",
    "model",
    "axioms that duplicate or shadow one another",
    ids=("MDL005", "MDL006"),
)
def check_duplicate_axioms(ctx: ModelLintContext) -> Iterator[Diagnostic]:
    """MDL005/MDL006: duplicate axiom bodies within one set, and
    ``wa_axioms`` drifting out of sync with ``axioms``."""
    if ctx.formulas is not None:
        yield from _duplicate_bodies(ctx, ctx.formulas)
    if ctx.model is not None:
        axioms = dict(ctx.model.axioms())
        yield from _duplicate_bodies(ctx, axioms)
        wa = dict(ctx.model.wa_axioms())
        if set(wa) != set(axioms):
            missing = sorted(set(axioms) - set(wa))
            extra = sorted(set(wa) - set(axioms))
            yield Diagnostic(
                "MDL006",
                Severity.ERROR,
                ctx.subject,
                "workaround axiom set out of sync with the base axioms "
                f"(missing: {missing or '[]'}, extra: {extra or '[]'})",
                hint="wa_axioms must name exactly the axioms() keys so "
                "per-axiom suites stay addressable in workaround mode",
            )


def _duplicate_bodies(ctx: ModelLintContext, axioms: dict) -> Iterator[Diagnostic]:
    items = list(axioms.items())
    for i, (name_a, body_a) in enumerate(items):
        for name_b, body_b in items[i + 1 :]:
            if body_a == body_b or body_a is body_b:
                yield Diagnostic(
                    "MDL005",
                    Severity.WARNING,
                    f"{ctx.subject}:{name_b}",
                    f"axiom {name_b!r} duplicates axiom {name_a!r}",
                    hint="duplicate axioms produce identical per-axiom "
                    "suites and double the oracle work; drop one",
                )


# -- probe passes ----------------------------------------------------------------


@register_pass(
    "model-axiom-probe",
    "model",
    "tiny-bound vacuity/unsatisfiability probe",
    ids=("MDL002", "MDL003"),
)
def check_axiom_probe(ctx: ModelLintContext) -> Iterator[Diagnostic]:
    """MDL002/MDL003 via the probe battery (see module docstring)."""
    if not ctx.probe:
        return
    if ctx.formulas is not None:
        yield from _probe_formulas(ctx)
    elif ctx.model is not None:
        yield from _probe_callables(ctx)


def _probe_formulas(ctx: ModelLintContext) -> Iterator[Diagnostic]:
    assert ctx.formulas is not None
    verdicts = {name: [False, False] for name in ctx.formulas}  # [sat, rej]
    for probe in PROBE_BATTERY:
        for name, formula in ctx.formulas.items():
            sat_seen, rej_seen = verdicts[name]
            if sat_seen and rej_seen:
                continue
            encoding = LitmusEncoding(probe, with_sc=ctx.needs_sc)
            facts = encoding.facts()
            if not sat_seen:
                finder = ModelFinder(encoding.problem)
                sat_seen = finder.check(facts & formula)
            if not rej_seen:
                finder = ModelFinder(encoding.problem)
                rej_seen = finder.check(facts & ast.Not(formula))
            verdicts[name] = [sat_seen, rej_seen]
    yield from _probe_verdicts(ctx, verdicts)


def _probe_callables(ctx: ModelLintContext) -> Iterator[Diagnostic]:
    assert ctx.model is not None
    model = ctx.model
    axioms = dict(model.axioms())
    verdicts = {name: [False, False] for name in axioms}  # [sat, rej]
    for probe in PROBE_BATTERY:
        for execution in enumerate_executions(
            probe, with_sc=model.uses_sc_order
        ):
            view = model.view(execution)
            for name, axiom in axioms.items():
                sat_seen, rej_seen = verdicts[name]
                if sat_seen and rej_seen:
                    continue
                if axiom(view):
                    sat_seen = True
                else:
                    rej_seen = True
                verdicts[name] = [sat_seen, rej_seen]
    yield from _probe_verdicts(ctx, verdicts)


def _probe_verdicts(
    ctx: ModelLintContext, verdicts: dict[str, list[bool]]
) -> Iterator[Diagnostic]:
    n = len(PROBE_BATTERY)
    for name, (sat_seen, rej_seen) in verdicts.items():
        subject = f"{ctx.subject}:{name}"
        if not sat_seen:
            yield Diagnostic(
                "MDL003",
                Severity.ERROR,
                subject,
                f"axiom rejects every well-formed execution of all "
                f"{n} probe tests (unsatisfiable under probe bounds)",
                hint="an always-false axiom makes every candidate "
                "forbidden; check operator polarity",
            )
        elif not rej_seen:
            yield Diagnostic(
                "MDL002",
                Severity.WARNING,
                subject,
                f"axiom accepts every well-formed execution of all "
                f"{n} probe tests (vacuously true under probe bounds)",
                hint="a never-rejecting axiom contributes an empty "
                "suite; the definition is probably degenerate",
            )


# -- constant-folding passes ----------------------------------------------------

#: binary operators that can produce an empty relation from nonempty
#: operands — the shapes MDL012's deadness criterion is about
_KILLER_NODES = (
    ast.Inter,
    ast.Diff,
    ast.Join,
    ast.DomRestrict,
    ast.RanRestrict,
)


@register_pass(
    "model-constant-folding",
    "model",
    "translator constant folding: vacuous, unsatisfiable, and dead axioms",
    ids=("MDL010", "MDL011", "MDL012"),
)
def check_axiom_folding(ctx: ModelLintContext) -> Iterator[Diagnostic]:
    """MDL010/MDL011/MDL012 (see module docstring).  Runs regardless of
    ``ctx.probe``: building relation matrices only allocates variables."""
    if ctx.formulas is None:
        return
    translators = [
        Translator(
            LitmusEncoding(probe, with_sc=ctx.needs_sc).problem, Circuit()
        )
        for probe in PROBE_BATTERY
    ]
    for axiom_name, formula in ctx.formulas.items():
        subject = f"{ctx.subject}:{axiom_name}"
        try:
            verdicts = [t.formula(formula) for t in translators]
        except (KeyError, TypeError):
            continue  # misspelled Rel names are MDL001's job
        if all(v == TRUE for v in verdicts):
            yield Diagnostic(
                "MDL010",
                Severity.WARNING,
                subject,
                f"axiom is abstractly true on every probe structure "
                f"({len(translators)} probes): no choice of rf/co could "
                "ever violate it",
                hint="a statically-vacuous axiom contributes an empty "
                "per-axiom suite; the definition is probably degenerate "
                "(the solver probe MDL002 confirms semantically)",
            )
        false_count = verdicts.count(FALSE)
        if false_count:
            yield Diagnostic(
                "MDL011",
                Severity.ERROR,
                subject,
                f"axiom is abstractly false on {false_count} probe "
                "structure(s): unsatisfiable by construction, no choice "
                "of rf/co can satisfy it",
                hint="an always-false axiom makes every candidate "
                "forbidden; check operator polarity (the solver probe "
                "MDL003 confirms semantically)",
            )
        yield from _dead_subexpressions(subject, formula, translators)


def _expr_children(node: ast.Expr | ast.Formula) -> tuple[ast.Expr, ...]:
    return tuple(
        child for child in ast.children(node) if isinstance(child, ast.Expr)
    )


def _dead_subexpressions(
    subject: str, formula: ast.Formula, translators: list[Translator]
) -> Iterator[Diagnostic]:
    """MDL012: maximal operator-induced dead subexpressions, top-down
    (a flagged node's descendants are not re-flagged).

    Only *operator-induced* deadness counts: a killer node with no
    matrix entry on any probe although its operands all have entries on
    one common probe (intersecting disjoint relations, a join with no
    matching middle column).  A merely unexercised vocabulary relation —
    ``FenceAcqRel`` on a battery without acq_rel fences — does not
    qualify, so the stock models stay clean."""
    reported: set[str] = set()

    def visit(node: ast.Expr) -> Iterator[Diagnostic]:
        kids = _expr_children(node)
        if isinstance(node, _KILLER_NODES):
            try:
                dead_everywhere = all(
                    not t.expr(node).entries for t in translators
                )
                operands_live_somewhere = any(
                    all(t.expr(kid).entries for kid in kids)
                    for t in translators
                )
            except (KeyError, TypeError):
                return
            if dead_everywhere and operands_live_somewhere:
                rendered = render_expr(node)
                if rendered not in reported:
                    reported.add(rendered)
                    yield Diagnostic(
                        "MDL012",
                        Severity.WARNING,
                        subject,
                        f"subexpression {rendered} is statically empty "
                        "on every probe although its operands are not: "
                        "the operator combination can never produce a "
                        "tuple",
                        hint="an always-empty term is dead weight in the "
                        "axiom; check for disjoint intersections, joins "
                        "with no matching column, or a misdirected "
                        "restriction",
                    )
                return  # maximal node reported; skip descendants
        for kid in kids:
            yield from visit(kid)

    for node in ast.walk(formula):
        if isinstance(node, ast.Formula):
            for root in _expr_children(node):
                yield from visit(root)


_BINOPS: dict[type, str] = {
    ast.Union: "+",
    ast.Inter: "&",
    ast.Diff: "-",
    ast.Join: ".",
    ast.Product: "->",
}


def render_expr(expr: ast.Expr) -> str:
    """Alloy-flavoured one-line rendering of an expression (MDL012
    prints the dead term with it)."""
    if isinstance(expr, ast.Rel):
        return expr.name
    if isinstance(expr, ast.Iden):
        return "iden"
    if isinstance(expr, ast.NoneExpr):
        return "none"
    if isinstance(expr, ast.UnivExpr):
        return "univ"
    op = _BINOPS.get(type(expr))
    if op is not None:
        left = render_expr(expr.left)  # type: ignore[attr-defined]
        right = render_expr(expr.right)  # type: ignore[attr-defined]
        return f"({left} {op} {right})"
    if isinstance(expr, ast.Transpose):
        return f"~{render_expr(expr.inner)}"
    if isinstance(expr, ast.Closure):
        return f"^{render_expr(expr.inner)}"
    if isinstance(expr, ast.RClosure):
        return f"*{render_expr(expr.inner)}"
    if isinstance(expr, ast.DomRestrict):
        return f"({render_expr(expr.set_expr)} <: {render_expr(expr.rel)})"
    if isinstance(expr, ast.RanRestrict):
        return f"({render_expr(expr.rel)} :> {render_expr(expr.set_expr)})"
    return type(expr).__name__


# -- context builders / entry points --------------------------------------------


def alloy_context(
    name: str,
    formulas: dict[str, ast.Formula],
    needs_sc: bool = False,
    probe: bool = True,
) -> ModelLintContext:
    """Context for an AST-formula model, with a probe-derived problem so
    the unused-relation pass has declarations to check against."""
    encoding = LitmusEncoding(PROBE_BATTERY[0], with_sc=needs_sc)
    encoding.facts()  # force atom_*/pair_* declarations for completeness
    return ModelLintContext(
        name,
        formulas=formulas,
        problem=encoding.problem,
        probe=probe,
        needs_sc=needs_sc,
    )


def model_context(model, probe: bool = True) -> ModelLintContext:
    """Context for an executable :class:`~repro.models.base.MemoryModel`."""
    return ModelLintContext(
        model.name, model=model, probe=probe, needs_sc=model.uses_sc_order
    )


def lint_model_context(ctx: ModelLintContext) -> Iterable[Diagnostic]:
    """Run every registered model pass over one context."""
    return run_family("model", ctx)
