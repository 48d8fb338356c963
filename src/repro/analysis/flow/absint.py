"""Abstract interpretation of relational expressions over tuple-set intervals.

The abstract domain is the *interval* lattice over tuple sets: each
expression evaluates to a pair ``[lower, upper]`` of tuple sets meaning
"every concretization contains at least ``lower`` and at most ``upper``".
Relation declarations seed the environment with their Kodkod bounds
(:class:`~repro.relational.problem.Declaration`), so constants evaluate
exactly (``lower == upper``) while free dynamic relations stay genuinely
abstract.  Every operator of the AST (:mod:`repro.relational.ast`) has a
monotone transfer function — for ``Diff`` the bounds cross over
(``[l1 - u2, u1 - l2]``), everything else is pointwise.

Formulas evaluate to Kleene three-valued logic (:class:`Tri`): a
``TRUE``/``FALSE`` verdict is sound for *every* concretization of the
environment, ``UNKNOWN`` means the bounds cannot decide.  With an
**exact** environment (every binding ``lower == upper``) every rule is
complete, so a ground formula always gets a ``TRUE``/``FALSE`` verdict.
Emptiness of ``upper`` is preserved by every operator except
``RClosure``/``Iden``/``UnivExpr``, which is what lets the difftest
campaign prove ``empty:fr``-style mutations vacuous without a solver.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.relational import ast

__all__ = [
    "Tri",
    "Interval",
    "AbstractEnv",
    "UnboundRelation",
    "exact",
    "env_from_problem",
    "eval_expr",
    "eval_formula",
    "render_expr",
    "render_formula",
]

Tup = tuple[int, ...]


class Tri(enum.Enum):
    """Kleene three-valued truth."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def negate(self) -> "Tri":
        if self is Tri.TRUE:
            return Tri.FALSE
        if self is Tri.FALSE:
            return Tri.TRUE
        return Tri.UNKNOWN

    def and_(self, other: "Tri") -> "Tri":
        if self is Tri.FALSE or other is Tri.FALSE:
            return Tri.FALSE
        if self is Tri.TRUE and other is Tri.TRUE:
            return Tri.TRUE
        return Tri.UNKNOWN

    def or_(self, other: "Tri") -> "Tri":
        if self is Tri.TRUE or other is Tri.TRUE:
            return Tri.TRUE
        if self is Tri.FALSE and other is Tri.FALSE:
            return Tri.FALSE
        return Tri.UNKNOWN


def _tri(decided_true: bool, decided_false: bool) -> Tri:
    if decided_true:
        return Tri.TRUE
    if decided_false:
        return Tri.FALSE
    return Tri.UNKNOWN


@dataclass(frozen=True)
class Interval:
    """``[lower, upper]``: tuples that must / may be in the relation."""

    lower: frozenset[Tup]
    upper: frozenset[Tup]

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError("interval lower bound exceeds upper bound")

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

    @property
    def definitely_empty(self) -> bool:
        return not self.upper

    @property
    def definitely_nonempty(self) -> bool:
        return bool(self.lower)


def exact(tuples: Iterable[Tup]) -> Interval:
    """The degenerate interval of a fully-known relation value."""
    ts = frozenset(tuples)
    return Interval(ts, ts)


class UnboundRelation(KeyError):
    """An expression referenced a relation the environment does not bind."""


@dataclass
class AbstractEnv:
    """Universe size plus per-relation interval bindings."""

    universe_size: int
    bindings: Mapping[str, Interval]

    def lookup(self, name: str) -> Interval:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundRelation(name) from None


def env_from_problem(problem) -> AbstractEnv:
    """Seed an environment from a Problem's declarations: constants are
    exact, free relations get their declared ``[lower, upper]`` bounds."""
    return AbstractEnv(
        problem.universe_size,
        {
            name: Interval(decl.lower, decl.upper)
            for name, decl in problem.declarations.items()
        },
    )


# -- set-level transfer functions -------------------------------------------------


def _join(a: frozenset[Tup], b: frozenset[Tup]) -> frozenset[Tup]:
    return frozenset(
        s[:-1] + t[1:] for s in a for t in b if s[-1] == t[0]
    )


def _product(a: frozenset[Tup], b: frozenset[Tup]) -> frozenset[Tup]:
    return frozenset(s + t for s in a for t in b)


def _transpose(a: frozenset[Tup]) -> frozenset[Tup]:
    return frozenset(tuple(reversed(t)) for t in a)


def _closure(pairs: frozenset[Tup]) -> frozenset[Tup]:
    """Transitive closure of a binary relation (reachability per source)."""
    adjacency: dict[int, set[int]] = {}
    for a, b in pairs:
        adjacency.setdefault(a, set()).add(b)
    out: set[Tup] = set()
    for start, firsts in adjacency.items():
        stack = list(firsts)
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        out.update((start, node) for node in seen)
    return frozenset(out)


def _has_cycle(pairs: frozenset[Tup]) -> bool:
    return any(a == b for a, b in _closure(pairs))


def _iden(universe_size: int) -> frozenset[Tup]:
    return frozenset((a, a) for a in range(universe_size))


def _full(universe_size: int, arity: int) -> frozenset[Tup]:
    atoms = range(universe_size)
    if arity == 1:
        return frozenset((a,) for a in atoms)
    return frozenset((a, b) for a in atoms for b in atoms)


# -- expression evaluation --------------------------------------------------------


def eval_expr(expr: ast.Expr, env: AbstractEnv) -> Interval:
    """Interval of an expression under the environment's bounds.

    Sound for every operator; complete (``lower == upper``) whenever the
    operand intervals are exact.
    """
    if isinstance(expr, ast.Rel):
        return env.lookup(expr.name)
    if isinstance(expr, ast.Iden):
        return exact(_iden(env.universe_size))
    if isinstance(expr, ast.NoneExpr):
        return exact(())
    if isinstance(expr, ast.UnivExpr):
        return exact(_full(env.universe_size, expr.arity))
    if isinstance(expr, ast.Union):
        le, ri = eval_expr(expr.left, env), eval_expr(expr.right, env)
        return Interval(le.lower | ri.lower, le.upper | ri.upper)
    if isinstance(expr, ast.Inter):
        le, ri = eval_expr(expr.left, env), eval_expr(expr.right, env)
        return Interval(le.lower & ri.lower, le.upper & ri.upper)
    if isinstance(expr, ast.Diff):
        # the one antitone slot: subtract at most the certain tuples from
        # the upper bound and at least the possible ones from the lower
        le, ri = eval_expr(expr.left, env), eval_expr(expr.right, env)
        return Interval(le.lower - ri.upper, le.upper - ri.lower)
    if isinstance(expr, ast.Join):
        le, ri = eval_expr(expr.left, env), eval_expr(expr.right, env)
        return Interval(_join(le.lower, ri.lower), _join(le.upper, ri.upper))
    if isinstance(expr, ast.Product):
        le, ri = eval_expr(expr.left, env), eval_expr(expr.right, env)
        return Interval(
            _product(le.lower, ri.lower), _product(le.upper, ri.upper)
        )
    if isinstance(expr, ast.Transpose):
        inner = eval_expr(expr.inner, env)
        return Interval(_transpose(inner.lower), _transpose(inner.upper))
    if isinstance(expr, ast.Closure):
        inner = eval_expr(expr.inner, env)
        return Interval(_closure(inner.lower), _closure(inner.upper))
    if isinstance(expr, ast.RClosure):
        inner = eval_expr(expr.inner, env)
        iden = _iden(env.universe_size)
        return Interval(
            _closure(inner.lower) | iden, _closure(inner.upper) | iden
        )
    if isinstance(expr, ast.DomRestrict):
        se, rel = eval_expr(expr.set_expr, env), eval_expr(expr.rel, env)
        dom_lower = {t[0] for t in se.lower}
        dom_upper = {t[0] for t in se.upper}
        return Interval(
            frozenset(t for t in rel.lower if t[0] in dom_lower),
            frozenset(t for t in rel.upper if t[0] in dom_upper),
        )
    if isinstance(expr, ast.RanRestrict):
        rel, se = eval_expr(expr.rel, env), eval_expr(expr.set_expr, env)
        ran_lower = {t[0] for t in se.lower}
        ran_upper = {t[0] for t in se.upper}
        return Interval(
            frozenset(t for t in rel.lower if t[-1] in ran_lower),
            frozenset(t for t in rel.upper if t[-1] in ran_upper),
        )
    raise TypeError(f"cannot abstractly evaluate {type(expr).__name__}")


# -- formula evaluation -----------------------------------------------------------


def _subset(le: Interval, ri: Interval) -> Tri:
    return _tri(
        le.upper <= ri.lower,
        any(t not in ri.upper for t in le.lower),
    )


def eval_formula(formula: ast.Formula, env: AbstractEnv) -> Tri:
    """Three-valued verdict of a formula under the environment's bounds.

    A ``TRUE``/``FALSE`` result holds for every concretization; with an
    exact environment the result is never ``UNKNOWN``.
    """
    if isinstance(formula, ast.Subset):
        return _subset(
            eval_expr(formula.left, env), eval_expr(formula.right, env)
        )
    if isinstance(formula, ast.Eq):
        le = eval_expr(formula.left, env)
        ri = eval_expr(formula.right, env)
        return _subset(le, ri).and_(_subset(ri, le))
    if isinstance(formula, ast.Some):
        ex = eval_expr(formula.expr, env)
        return _tri(ex.definitely_nonempty, ex.definitely_empty)
    if isinstance(formula, ast.No):
        ex = eval_expr(formula.expr, env)
        return _tri(ex.definitely_empty, ex.definitely_nonempty)
    if isinstance(formula, ast.Lone):
        ex = eval_expr(formula.expr, env)
        return _tri(len(ex.upper) <= 1, len(ex.lower) >= 2)
    if isinstance(formula, ast.One):
        ex = eval_expr(formula.expr, env)
        return _tri(
            len(ex.upper) <= 1 and len(ex.lower) >= 1,
            not ex.upper or len(ex.lower) >= 2,
        )
    if isinstance(formula, ast.Not):
        return eval_formula(formula.inner, env).negate()
    if isinstance(formula, ast.And):
        return eval_formula(formula.left, env).and_(
            eval_formula(formula.right, env)
        )
    if isinstance(formula, ast.Or):
        return eval_formula(formula.left, env).or_(
            eval_formula(formula.right, env)
        )
    if isinstance(formula, ast.Implies):
        return eval_formula(formula.left, env).negate().or_(
            eval_formula(formula.right, env)
        )
    if isinstance(formula, ast.Acyclic):
        ex = eval_expr(formula.expr, env)
        return _tri(not _has_cycle(ex.upper), _has_cycle(ex.lower))
    if isinstance(formula, ast.Irreflexive):
        ex = eval_expr(formula.expr, env)
        return _tri(
            not any(a == b for a, b in ex.upper),
            any(a == b for a, b in ex.lower),
        )
    if formula == ast.TRUE_F:
        return Tri.TRUE
    raise TypeError(f"cannot abstractly evaluate {type(formula).__name__}")


# -- rendering (for diagnostics) --------------------------------------------------

_BINOPS: dict[type, str] = {
    ast.Union: "+",
    ast.Inter: "&",
    ast.Diff: "-",
    ast.Join: ".",
    ast.Product: "->",
}


def render_expr(expr: ast.Expr) -> str:
    """Alloy-flavoured one-line rendering of an expression."""
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


def render_formula(formula: ast.Formula) -> str:
    """Alloy-flavoured one-line rendering of a formula."""
    if isinstance(formula, ast.Subset):
        return f"{render_expr(formula.left)} in {render_expr(formula.right)}"
    if isinstance(formula, ast.Eq):
        return f"{render_expr(formula.left)} = {render_expr(formula.right)}"
    if isinstance(formula, (ast.Some, ast.No, ast.Lone, ast.One)):
        return f"{type(formula).__name__.lower()} {render_expr(formula.expr)}"
    if isinstance(formula, ast.Not):
        return f"!({render_formula(formula.inner)})"
    if isinstance(formula, ast.And):
        return f"({render_formula(formula.left)} && {render_formula(formula.right)})"
    if isinstance(formula, ast.Or):
        return f"({render_formula(formula.left)} || {render_formula(formula.right)})"
    if isinstance(formula, ast.Implies):
        return f"({render_formula(formula.left)} => {render_formula(formula.right)})"
    if isinstance(formula, (ast.Acyclic, ast.Irreflexive)):
        return f"{type(formula).__name__.lower()}({render_expr(formula.expr)})"
    if formula == ast.TRUE_F:
        return "true"
    return type(formula).__name__
