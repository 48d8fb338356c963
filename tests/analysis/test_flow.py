"""The static semantic lints: MDL010–012, LIT010/011, ``fr`` emptiness.

MDL010–012, LIT011 and :func:`repro.analysis.fr_statically_empty` read
the relational translator's constant folding or the declared bounds; the
folding itself is pinned in ``tests/relational/test_translate.py``.
These tests cover the passes, the ``empty:fr`` campaign skip, and the
diagnostic-id registry bookkeeping.
"""

import pytest

from repro.alloy.models import ALLOY_MODELS
from repro.analysis import fr_statically_empty
from repro.analysis.diagnostics import Severity, parse_suppression
from repro.analysis.model_lint import (
    alloy_context,
    lint_model_context,
    render_expr,
)
from repro.analysis.registry import LitmusLintContext, run_family
from repro.analysis.selfcheck import id_registry_problems
from repro.litmus.catalog import CATALOG
from repro.litmus.events import read, write
from repro.litmus.test import LitmusTest
from repro.models.registry import get_model
from repro.relational import ast


class TestRendering:
    def test_expressions(self):
        expr = ast.Inter(ast.Rel("po"), ast.Transpose(ast.Rel("po")))
        assert render_expr(expr) == "(po & ~po)"
        assert render_expr(ast.RClosure(ast.NoneExpr())) == "*none"


class TestEncodingEnvironments:
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
