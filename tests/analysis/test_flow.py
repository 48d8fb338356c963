"""The static-analysis layer (:mod:`repro.analysis.flow`).

Two angles, mirroring the package's contract:

* the interval abstract domain's transfer rules and Kleene formula
  evaluation on hand-built ASTs (emptiness/acyclicity propagation);
* the MDL01x/LIT01x passes, the ``empty:fr`` campaign skip, and the
  diagnostic-id registry bookkeeping.
"""

import pytest

from repro.alloy.encoding import LitmusEncoding
from repro.alloy.models import ALLOY_MODELS
from repro.analysis.diagnostics import Severity, parse_suppression
from repro.analysis.flow import (
    AbstractEnv,
    Interval,
    Tri,
    UnboundRelation,
    dynamic_intervals,
    env_from_problem,
    eval_expr,
    eval_formula,
    exact,
    fr_statically_empty,
    render_expr,
    render_formula,
)
from repro.analysis.model_lint import alloy_context, lint_model_context
from repro.analysis.registry import LitmusLintContext, run_family
from repro.analysis.selfcheck import id_registry_problems
from repro.litmus.catalog import CATALOG
from repro.litmus.events import read, write
from repro.litmus.test import LitmusTest
from repro.models.registry import get_model
from repro.relational import ast

# -- the abstract domain ----------------------------------------------------------


def fs(*tuples):
    return frozenset(tuples)


def env(universe=3, **bindings):
    return AbstractEnv(universe, bindings)


class TestInterval:
    def test_invariant_lower_within_upper(self):
        with pytest.raises(ValueError, match="lower bound exceeds"):
            Interval(fs((0, 1)), frozenset())

    def test_exact_and_emptiness_predicates(self):
        iv = exact([(0, 1)])
        assert iv.is_exact and iv.definitely_nonempty
        assert Interval(frozenset(), frozenset()).definitely_empty
        straddle = Interval(frozenset(), fs((0, 1)))
        assert not straddle.is_exact
        assert not straddle.definitely_empty
        assert not straddle.definitely_nonempty


class TestTransferRules:
    """Each operator's interval rule on hand-built environments."""

    R = Interval(fs((0, 1), (1, 2)), fs((0, 1), (1, 2), (2, 0)))
    S = Interval(fs((1, 2)), fs((1, 2), (2, 0)))

    def test_union_and_inter_are_pointwise(self):
        e = env(r=self.R, s=self.S)
        u = eval_expr(ast.Union(ast.Rel("r"), ast.Rel("s")), e)
        assert u == Interval(self.R.lower | self.S.lower, self.R.upper | self.S.upper)
        i = eval_expr(ast.Inter(ast.Rel("r"), ast.Rel("s")), e)
        assert i == Interval(self.R.lower & self.S.lower, self.R.upper & self.S.upper)

    def test_diff_bounds_cross_over(self):
        # [l1 - u2, u1 - l2]: subtract at most the certain tuples from
        # the upper bound, at least the possible ones from the lower
        d = eval_expr(ast.Diff(ast.Rel("r"), ast.Rel("s")), env(r=self.R, s=self.S))
        assert d == Interval(fs((0, 1)), fs((0, 1), (2, 0)))

    def test_join_product_transpose(self):
        e = env(r=exact([(0, 1), (1, 2)]), t=exact([(2, 0)]))
        assert eval_expr(ast.Join(ast.Rel("r"), ast.Rel("t")), e) == exact([(1, 0)])
        assert eval_expr(
            ast.Product(ast.Rel("t"), ast.Rel("t")), e
        ) == exact([(2, 0, 2, 0)])
        assert eval_expr(ast.Transpose(ast.Rel("t")), e) == exact([(0, 2)])

    def test_closures(self):
        e = env(r=exact([(0, 1), (1, 2)]))
        assert eval_expr(ast.Closure(ast.Rel("r")), e) == exact(
            [(0, 1), (1, 2), (0, 2)]
        )
        reflexive = eval_expr(ast.RClosure(ast.Rel("r")), e)
        assert (0, 0) in reflexive.lower and (0, 2) in reflexive.lower

    def test_restrictions_filter_by_endpoint(self):
        e = env(r=self.R, dom=exact([(0,)]))
        restricted = eval_expr(
            ast.DomRestrict(ast.Rel("dom"), ast.Rel("r")), e
        )
        assert restricted == Interval(fs((0, 1)), fs((0, 1)))
        ranged = eval_expr(ast.RanRestrict(ast.Rel("r"), ast.Rel("dom")), e)
        assert ranged == Interval(frozenset(), fs((2, 0)))

    def test_constants_are_exact(self):
        e = env(universe=2)
        assert eval_expr(ast.Iden(), e) == exact([(0, 0), (1, 1)])
        assert eval_expr(ast.NoneExpr(), e) == exact([])
        assert eval_expr(ast.UnivExpr(), e) == exact(
            [(0, 0), (0, 1), (1, 0), (1, 1)]
        )

    def test_unbound_relation_and_foreign_nodes(self):
        with pytest.raises(UnboundRelation):
            eval_expr(ast.Rel("nope"), env())
        with pytest.raises(TypeError):
            eval_expr(ast.TRUE_F, env())  # a Formula is not an Expr
        with pytest.raises(TypeError):
            eval_formula(ast.Rel("r"), env(r=exact([])))


class TestKleeneFormulas:
    def test_emptiness_propagates_through_dead_join(self):
        # r.t has no matching middle column: No() is decided TRUE even
        # though both operands are nonempty
        e = env(r=exact([(0, 1)]), t=exact([(2, 0)]))
        dead = ast.Join(ast.Rel("r"), ast.Rel("t"))
        assert eval_formula(ast.No(dead), e) is Tri.TRUE
        assert eval_formula(ast.Some(dead), e) is Tri.FALSE

    def test_some_no_on_abstract_intervals(self):
        e = env(
            may=Interval(frozenset(), fs((0, 1))),
            must=Interval(fs((0, 1)), fs((0, 1), (1, 2))),
        )
        assert eval_formula(ast.Some(ast.Rel("may")), e) is Tri.UNKNOWN
        assert eval_formula(ast.Some(ast.Rel("must")), e) is Tri.TRUE
        assert eval_formula(ast.No(ast.NoneExpr()), e) is Tri.TRUE

    def test_subset_three_ways(self):
        e = env(
            small=exact([(0, 1)]),
            big=exact([(0, 1), (1, 2)]),
            may=Interval(frozenset(), fs((0, 1), (2, 2))),
        )
        assert eval_formula(ast.Subset(ast.Rel("small"), ast.Rel("big")), e) is Tri.TRUE
        assert eval_formula(ast.Subset(ast.Rel("big"), ast.Rel("small")), e) is Tri.FALSE
        assert (
            eval_formula(ast.Subset(ast.Rel("may"), ast.Rel("small")), e)
            is Tri.UNKNOWN
        )

    def test_acyclicity_propagation(self):
        cyclic = exact([(0, 1), (1, 0)])
        acyclic = exact([(0, 1), (1, 2)])
        straddle = Interval(frozenset(), fs((0, 1), (1, 0)))
        e = env(c=cyclic, a=acyclic, s=straddle)
        assert eval_formula(ast.Acyclic(ast.Rel("a")), e) is Tri.TRUE
        assert eval_formula(ast.Acyclic(ast.Rel("c")), e) is Tri.FALSE
        assert eval_formula(ast.Acyclic(ast.Rel("s")), e) is Tri.UNKNOWN
        # the cycle survives a union: lower bounds are monotone
        grown = ast.Acyclic(ast.Union(ast.Rel("c"), ast.Rel("s")))
        assert eval_formula(grown, e) is Tri.FALSE
        assert eval_formula(ast.Irreflexive(ast.Rel("a")), e) is Tri.TRUE

    def test_kleene_connectives(self):
        e = env(may=Interval(frozenset(), fs((0, 1))))
        unknown = ast.Some(ast.Rel("may"))
        false = ast.Some(ast.NoneExpr())
        assert eval_formula(ast.Not(unknown), e) is Tri.UNKNOWN
        assert eval_formula(ast.And(unknown, false), e) is Tri.FALSE
        assert eval_formula(ast.Or(unknown, ast.Not(false)), e) is Tri.TRUE
        assert eval_formula(ast.Implies(false, unknown), e) is Tri.TRUE
        assert eval_formula(ast.TRUE_F, e) is Tri.TRUE

    def test_cardinality_quantifiers(self):
        e = env(
            one=exact([(0, 1)]),
            two=exact([(0, 1), (1, 2)]),
            may=Interval(frozenset(), fs((0, 1))),
        )
        assert eval_formula(ast.Lone(ast.Rel("one")), e) is Tri.TRUE
        assert eval_formula(ast.Lone(ast.Rel("two")), e) is Tri.FALSE
        assert eval_formula(ast.One(ast.Rel("may")), e) is Tri.UNKNOWN
        assert eval_formula(ast.One(ast.NoneExpr()), e) is Tri.FALSE


class TestRendering:
    def test_expressions(self):
        expr = ast.Inter(ast.Rel("po"), ast.Transpose(ast.Rel("po")))
        assert render_expr(expr) == "(po & ~po)"
        assert render_expr(ast.RClosure(ast.NoneExpr())) == "*none"

    def test_formulas(self):
        f = ast.Implies(
            ast.Some(ast.Rel("rf")), ast.Acyclic(ast.Union(ast.Rel("rf"), ast.Rel("co")))
        )
        assert render_formula(f) == "(some rf => acyclic((rf + co)))"


# -- environments from encodings --------------------------------------------------


class TestEncodingEnvironments:
    def test_constants_exact_dynamic_abstract(self):
        problem = LitmusEncoding(CATALOG["MP"].test).problem
        environment = env_from_problem(problem)
        po = environment.lookup("po")
        assert po.is_exact and po.definitely_nonempty
        rf = environment.lookup("rf")
        assert not rf.lower and rf.upper  # genuinely abstract

    def test_dynamic_intervals_reads_only(self):
        reads_only = LitmusTest(((read(0), read(1)), (read(0),)))
        intervals = dynamic_intervals(reads_only)
        assert set(intervals) == {"rf", "co"}
        assert all(iv.definitely_empty for iv in intervals.values())

    def test_fr_statically_empty_is_exact(self):
        # disjoint addresses: no (read, write) same-address pair exists
        assert fr_statically_empty(LitmusTest(((write(0, 1), read(1)),)))
        assert not fr_statically_empty(CATALOG["MP"].test)


# -- the MDL01x passes ------------------------------------------------------------


def model_lint(formulas):
    # probe=False: only the static passes run — MDL01x must not need SAT
    ctx = alloy_context("seeded", formulas, False, False)
    return list(lint_model_context(ctx))


class TestModelFlowPasses:
    def test_statically_vacuous_axiom_mdl010(self):
        report = model_lint(
            {
                "triv": ast.Acyclic(ast.NoneExpr()),
                "uses": ast.Acyclic(ast.Union(ast.Rel("rf"), ast.Rel("co"))),
            }
        )
        hits = [d for d in report if d.id == "MDL010"]
        assert hits and all("triv" in d.subject for d in hits)

    def test_abstractly_false_axiom_mdl011(self):
        report = model_lint(
            {
                "bad": ast.Some(ast.NoneExpr()),
                "uses": ast.Acyclic(ast.Union(ast.Rel("rf"), ast.Rel("co"))),
            }
        )
        hits = [d for d in report if d.id == "MDL011"]
        assert hits and hits[0].severity is Severity.ERROR

    def test_dead_subexpression_mdl012(self):
        dead = ast.Inter(ast.Rel("po"), ast.Transpose(ast.Rel("po")))
        report = model_lint(
            {
                "weird": ast.Acyclic(
                    ast.Union(ast.Union(ast.Rel("rf"), ast.Rel("co")), dead)
                )
            }
        )
        hits = [d for d in report if d.id == "MDL012"]
        assert hits and "(po & ~po)" in hits[0].message

    def test_shipped_alloy_models_are_clean(self):
        for name, (factory, needs_sc) in sorted(ALLOY_MODELS.items()):
            ctx = alloy_context(f"{name}.alloy", factory(), needs_sc, False)
            flow_ids = {
                d.id
                for d in lint_model_context(ctx)
                if d.id in ("MDL010", "MDL011", "MDL012")
            }
            assert flow_ids == set(), name


# -- the LIT01x passes ------------------------------------------------------------


def litmus_lint(test, model=None):
    ctx = LitmusLintContext("seeded", test, model=model)
    return list(run_family("litmus", ctx))


class TestLitmusFlowPasses:
    def test_degenerate_candidate_lit010(self):
        lone_write = LitmusTest(((write(0, 1),),))
        report = litmus_lint(lone_write, model=get_model("sc"))
        hits = [d for d in report if d.id == "LIT010"]
        assert hits and hits[0].severity is Severity.WARNING

    def test_lit010_needs_a_model(self):
        lone_write = LitmusTest(((write(0, 1),),))
        assert not [d for d in litmus_lint(lone_write) if d.id == "LIT010"]

    def test_singleton_execution_lit011_is_informational(self):
        reads_only = LitmusTest(((read(0),), (read(1),)))
        hits = [d for d in litmus_lint(reads_only) if d.id == "LIT011"]
        assert hits and hits[0].severity is Severity.INFO

    def test_catalog_has_no_flow_findings(self):
        for entry in CATALOG.values():
            report = litmus_lint(entry.test, model=get_model(entry.model))
            assert not [d for d in report if d.id == "LIT010"], entry.name


# -- the empty:fr campaign skip ---------------------------------------------------


class TestEmptyFrSkip:
    def test_statically_vacuous_mutant_is_skipped(self):
        from repro.difftest.harness import DiffHarness

        harness = DiffHarness("tso", mutants=("empty:fr",))
        no_fr = LitmusTest(((write(0, 1),), (write(1, 1),)))
        assert fr_statically_empty(no_fr)
        assert harness._check_mutant(no_fr, "empty:fr", seed=0, index=0) == []
        assert harness.mutant_skips == 1

    def test_live_fr_is_still_checked(self):
        from repro.difftest.harness import DiffHarness

        harness = DiffHarness("tso", mutants=("empty:fr",))
        harness._check_mutant(CATALOG["MP"].test, "empty:fr", seed=0, index=0)
        assert harness.mutant_skips == 0

    def test_campaign_reports_skips_and_still_kills(self):
        from repro.difftest import CampaignOptions, run_campaign

        report = run_campaign(
            CampaignOptions(
                model="tso",
                seed=0,
                budget=30,
                mutants=("empty:fr",),
            )
        )
        assert report.mutant_skips > 0
        assert "empty:fr" in report.kills  # skips never mask real kills
        payload = report.to_json_dict()["payload"]
        assert payload["mutant_skips"] == report.mutant_skips
        assert f"SKIPPED  {report.mutant_skips}" in report.summary()


# -- diagnostic-id bookkeeping ----------------------------------------------------


class TestIdRegistry:
    def test_registry_is_consistent(self):
        assert id_registry_problems() == []

    def test_new_ids_are_suppressible(self):
        for diag_id in ("MDL010", "MDL011", "MDL012", "LIT010", "LIT011"):
            suppression = parse_suppression(f"{diag_id}:seeded*")
            assert suppression.id == diag_id

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic id"):
            parse_suppression("MDL999")
