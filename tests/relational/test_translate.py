"""Relational engine tests: operators, formulas, model finding."""

import pytest

from repro.relational import ast
from repro.relational.circuit import FALSE, TRUE, Circuit
from repro.relational.problem import Problem
from repro.relational.solve import ModelFinder
from repro.relational.translate import Translator


def finder(n=3):
    return ModelFinder(Problem(n))


class TestConstantEvaluation:
    """Operators over constant relations: solved instances must match
    set-level semantics."""

    def setup_method(self):
        self.problem = Problem(4)
        self.problem.constant("a", {(0, 1), (1, 2)})
        self.problem.constant("b", {(1, 2), (2, 3)})
        self.problem.constant("s", {(0,), (1,)}, arity=1)

    def check(self, formula, expect_sat=True):
        mf = ModelFinder(self.problem)
        assert mf.check(formula) == expect_sat

    def test_union(self):
        self.problem.constant("u", {(0, 1), (1, 2), (2, 3)})
        a, b, u = ast.Rel("a"), ast.Rel("b"), ast.Rel("u")
        self.check(ast.Eq(a + b, u))

    def test_intersection(self):
        self.problem.constant("i", {(1, 2)})
        self.check(ast.Eq(ast.Rel("a") & ast.Rel("b"), ast.Rel("i")))

    def test_difference(self):
        self.problem.constant("d", {(0, 1)})
        self.check(ast.Eq(ast.Rel("a") - ast.Rel("b"), ast.Rel("d")))

    def test_join(self):
        self.problem.constant("j", {(0, 2), (1, 3)})
        self.check(
            ast.Eq(ast.Rel("a").join(ast.Rel("b")), ast.Rel("j"))
        )

    def test_transpose(self):
        self.problem.constant("t", {(1, 0), (2, 1)})
        self.check(ast.Eq(~ast.Rel("a"), ast.Rel("t")))

    def test_closure(self):
        self.problem.constant("c", {(0, 1), (1, 2), (0, 2)})
        self.check(ast.Eq(ast.Rel("a").closure(), ast.Rel("c")))

    def test_rclosure_includes_iden(self):
        self.check(ast.Subset(ast.Iden(), ast.Rel("a").rclosure()))

    def test_domain_restrict(self):
        self.problem.constant("dr", {(0, 1), (1, 2)})
        self.check(
            ast.Eq(
                ast.Rel("s", 1).domain_restrict(ast.Rel("a")),
                ast.Rel("dr"),
            )
        )

    def test_range_restrict(self):
        self.problem.constant("rr", {(0, 1)})
        self.check(
            ast.Eq(
                ast.Rel("a").range_restrict(ast.Rel("s", 1)),
                ast.Rel("rr"),
            )
        )

    def test_product(self):
        self.problem.constant("s2", {(2,), (3,)}, arity=1)
        self.problem.constant(
            "p", {(0, 2), (0, 3), (1, 2), (1, 3)}
        )
        self.check(
            ast.Eq(
                ast.Rel("s", 1).product(ast.Rel("s2", 1)),
                ast.Rel("p"),
            )
        )

    def test_acyclic_true(self):
        self.check(ast.Acyclic(ast.Rel("a")))

    def test_acyclic_false(self):
        self.problem.constant("cyc", {(0, 1), (1, 0)})
        self.check(ast.Acyclic(ast.Rel("cyc")), expect_sat=False)

    def test_irreflexive(self):
        self.problem.constant("refl", {(0, 0)})
        self.check(ast.Irreflexive(ast.Rel("a")))
        self.check(ast.Irreflexive(ast.Rel("refl")), expect_sat=False)

    def test_some_no(self):
        self.problem.constant("empty", set())
        self.check(ast.Some(ast.Rel("a")))
        self.check(ast.No(ast.Rel("empty")))
        self.check(ast.No(ast.Rel("a")), expect_sat=False)


class TestFreeRelations:
    def test_solve_finds_instance(self):
        problem = Problem(2)
        problem.declare("r")
        mf = ModelFinder(problem)
        instance = mf.solve(ast.Some(ast.Rel("r")))
        assert instance is not None
        assert instance["r"]

    def test_unsat_returns_none(self):
        problem = Problem(2)
        problem.declare("r")
        mf = ModelFinder(problem)
        assert mf.solve(
            ast.Some(ast.Rel("r")) & ast.No(ast.Rel("r"))
        ) is None

    def test_lower_bound_respected(self):
        problem = Problem(2)
        problem.declare("r", lower={(0, 1)}, upper={(0, 1), (1, 0)})
        mf = ModelFinder(problem)
        for instance in mf.instances(ast.TRUE_F):
            assert (0, 1) in instance["r"]

    def test_instance_count(self):
        problem = Problem(2)
        problem.declare("r", upper={(0, 1), (1, 0)})
        mf = ModelFinder(problem)
        instances = list(mf.instances(ast.TRUE_F))
        assert len(instances) == 4  # 2 free tuples

    def test_enumeration_distinct(self):
        problem = Problem(3)
        problem.declare("r", upper={(0, 1), (1, 2), (2, 0)})
        mf = ModelFinder(problem)
        instances = list(mf.instances(ast.Acyclic(ast.Rel("r"))))
        assert len(instances) == len(set(instances)) == 7  # all but full cycle

    def test_projection(self):
        problem = Problem(2)
        problem.declare("r", upper={(0, 1)})
        problem.declare("q", upper={(1, 0)})
        mf = ModelFinder(problem)
        instances = list(
            mf.instances(ast.TRUE_F, project=["r"])
        )
        assert len(instances) == 2

    def test_projected_instance_holds_only_projected_relations(self):
        problem = Problem(2)
        problem.declare("r", upper={(0, 1), (1, 0)}, lower={(1, 0)})
        problem.declare("q", upper={(1, 0)})
        problem.constant("k", {(0, 0)})
        mf = ModelFinder(problem)
        projected = list(mf.instances(ast.TRUE_F, project=["r"]))
        assert all(set(i.relations) == {"r"} for i in projected)
        assert sorted(sorted(i["r"]) for i in projected) == [
            [(0, 1), (1, 0)],
            [(1, 0)],
        ]
        full = list(mf.instances(ast.TRUE_F))
        assert len(full) == 4
        assert all(set(i.relations) == {"r", "q", "k"} for i in full)
        assert all(i["k"] == {(0, 0)} for i in full)

    def test_one_and_lone(self):
        problem = Problem(2)
        problem.declare("r", upper={(0, 1), (1, 0)})
        mf = ModelFinder(problem)
        instances = list(mf.instances(ast.One(ast.Rel("r"))))
        assert len(instances) == 2
        assert all(len(i["r"]) == 1 for i in instances)

    def test_total_order_count(self):
        # free relation forced to totally order 3 atoms -> 3! instances
        problem = Problem(3)
        problem.declare(
            "r",
            upper={(a, b) for a in range(3) for b in range(3) if a != b},
        )
        r = ast.Rel("r")
        formula = ast.Irreflexive(r) & ast.Subset(r.join(r), r)
        for a in range(3):
            for b in range(a + 1, 3):
                problem.constant(f"p{a}{b}", {(a, b)})
                problem.constant(f"p{b}{a}", {(b, a)})
                formula = formula & (
                    ast.Subset(ast.Rel(f"p{a}{b}"), r)
                    | ast.Subset(ast.Rel(f"p{b}{a}"), r)
                )
        mf = ModelFinder(problem)
        assert len(list(mf.instances(formula))) == 6


def folding_problem() -> Problem:
    """Constants plus free relations whose bounds alone decide some
    formulas and leave others to the solver."""
    problem = Problem(3)
    problem.constant("t", {(2, 0)})
    problem.declare("may", upper={(0, 1)})
    problem.declare("must", lower={(0, 1)}, upper={(0, 1), (1, 2)})
    problem.declare("two", lower={(0, 1), (1, 2)}, upper={(0, 1), (1, 2), (2, 0)})
    problem.declare("line", upper={(0, 1), (1, 2)})
    problem.declare("cyc", lower={(0, 1), (1, 0)}, upper={(0, 1), (1, 0), (1, 2)})
    return problem


may, must, two = ast.Rel("may"), ast.Rel("must"), ast.Rel("two")
UNDECIDED = None

FOLDING_CASES = {
    # expressions: (tuples with a TRUE entry, tuples with any entry)
    "join-through-empty-middle": (may.join(ast.Rel("t")), (set(), set())),
    "diff-marks-lower-minus-upper": (
        two - may,
        ({(1, 2)}, {(0, 1), (1, 2), (2, 0)}),
    ),
    # formulas: TRUE, FALSE, or left to the solver
    "some-none": (ast.Some(ast.NoneExpr()), FALSE),
    "no-none": (ast.No(ast.NoneExpr()), TRUE),
    "acyclic-upper-bound": (ast.Acyclic(ast.Rel("line")), TRUE),
    "acyclic-lower-bound-cycle": (ast.Acyclic(ast.Rel("cyc")), FALSE),
    "subset-upper-in-lower": (ast.Subset(may, must), TRUE),
    "subset-lower-outside-upper": (ast.Subset(must, ast.Rel("t")), FALSE),
    "subset-undecided": (ast.Subset(must, may), UNDECIDED),
    "lone-upper-singleton": (ast.Lone(may), TRUE),
    "lone-lower-pair": (ast.Lone(two), FALSE),
    "one-none": (ast.One(ast.NoneExpr()), FALSE),
    "one-undecided": (ast.One(may), UNDECIDED),
    "and-with-false": (ast.And(ast.Some(may), ast.Some(ast.NoneExpr())), FALSE),
    "implies-from-false": (ast.Implies(ast.Some(ast.NoneExpr()), ast.Some(may)), TRUE),
}


class TestConstantFolding:
    """What the bounds alone decide, with no solver query: the static
    lints (MDL010–012, ``fr_statically_empty``) read exactly this."""

    @pytest.mark.parametrize(
        "node, expected",
        list(FOLDING_CASES.values()),
        ids=list(FOLDING_CASES),
    )
    def test_folds(self, node, expected):
        translator = Translator(folding_problem(), Circuit())
        if isinstance(node, ast.Expr):
            entries = translator.expr(node).entries
            certain = {t for t, v in entries.items() if v == TRUE}
            assert (certain, set(entries)) == expected
        elif expected is UNDECIDED:
            assert translator.formula(node) not in (TRUE, FALSE)
        else:
            assert translator.formula(node) == expected


class TestErrors:
    def test_bad_bounds(self):
        problem = Problem(2)
        with pytest.raises(ValueError):
            problem.declare("r", lower={(0, 1)}, upper=set())

    def test_duplicate_declaration(self):
        problem = Problem(2)
        problem.declare("r")
        with pytest.raises(ValueError):
            problem.declare("r")

    def test_unknown_relation(self):
        mf = finder()
        with pytest.raises(KeyError):
            mf.solve(ast.Some(ast.Rel("nope")))

    def test_arity_mismatch(self):
        problem = Problem(2)
        problem.constant("r", {(0, 1)})
        problem.constant("s", {(0,)}, arity=1)
        mf = ModelFinder(problem)
        with pytest.raises(TypeError):
            mf.solve(ast.Some(ast.Rel("r") + ast.Rel("s", 1)))

    def test_bad_arity_tuple(self):
        problem = Problem(2)
        with pytest.raises(ValueError):
            problem.constant("r", {(0, 1, 2)})
