"""Failure injection: the pipeline must surface broken inputs loudly.

These tests deliberately feed wrong models, degenerate tests, and
inconsistent suites through the machinery and check it fails (or
degrades) the way a user needs it to."""

import pytest

from repro.core.compare import compare_suites
from repro.core.minimality import CriterionMode, MinimalityChecker
from repro.core.suite import TestSuite
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.litmus.catalog import CATALOG
from repro.litmus.events import read, write
from repro.litmus.test import LitmusTest
from repro.models.base import MemoryModel, Vocabulary
from repro.models.registry import get_model


class PermissiveModel(MemoryModel):
    """A model that allows everything (a maximally buggy spec)."""

    name = "permissive"
    full_name = "allows every execution"

    @property
    def vocabulary(self) -> Vocabulary:
        return Vocabulary(allows_rmw=True)

    def axioms(self):
        return {"anything_goes": lambda v: True}


class ContradictoryModel(MemoryModel):
    """A model that forbids everything (an unimplementable spec)."""

    name = "contradictory"
    full_name = "forbids every execution"

    @property
    def vocabulary(self) -> Vocabulary:
        return Vocabulary(allows_rmw=True)

    def axioms(self):
        return {"nothing_goes": lambda v: False}


class TestDegenerateModels:
    def test_permissive_model_has_no_minimal_tests(self):
        """No forbidden outcomes -> empty suites, not a crash."""
        checker = MinimalityChecker(PermissiveModel())
        for name in ("MP", "SB", "CoWW"):
            result = checker.check(CATALOG[name].test)
            assert not result.is_minimal
            assert result.forbidden_count == 0

    def test_contradictory_model_has_no_minimal_tests(self):
        """Everything forbidden means relaxing never makes an outcome
        observable -> also empty suites."""
        checker = MinimalityChecker(ContradictoryModel())
        for name in ("MP", "CoWW"):
            assert not checker.check(CATALOG[name].test).is_minimal

    def test_synthesis_with_degenerate_models(self):
        from repro.core.enumerator import EnumerationConfig

        config = EnumerationConfig(max_events=3, max_addresses=1)
        for model in (PermissiveModel(), ContradictoryModel()):
            result = synthesize(model, SynthesisOptions(bound=3, config=config))
            assert len(result.union) == 0
            # unregistered models reach child processes as objects, not
            # as registry names the children cannot resolve
            sharded = synthesize(
                model, SynthesisOptions(bound=3, config=config, jobs=2)
            )
            assert sharded.union.to_json() == result.union.to_json()
            for axiom, suite in result.per_axiom.items():
                assert sharded.per_axiom[axiom].to_json() == suite.to_json()


class TestDegenerateInputs:
    def test_unknown_axiom_name(self):
        checker = MinimalityChecker(get_model("tso"))
        with pytest.raises(KeyError):
            checker.check(CATALOG["MP"].test, "no_such_axiom")

    @pytest.mark.parametrize("mode", list(CriterionMode))
    def test_unknown_axiom_name_without_applications(self, mode):
        # a test no relaxation applies to still names its axioms
        checker = MinimalityChecker(get_model("tso"), mode)
        with pytest.raises(KeyError):
            checker.check(LitmusTest(((write(0, 1),),)), "no_such_axiom")

    def test_single_event_test(self):
        checker = MinimalityChecker(get_model("tso"))
        t = LitmusTest(((write(0, 1),),))
        result = checker.check(t)
        assert not result.is_minimal
        assert result.application_count == 0

    def test_read_only_test(self):
        """All-reads tests have one outcome (all zeros) and nothing
        forbidden."""
        checker = MinimalityChecker(get_model("tso"))
        t = LitmusTest(((read(0), read(0)), (read(0),)))
        result = checker.check(t)
        assert not result.is_minimal
        assert result.forbidden_count == 0

    def test_comparison_against_wrong_model_suite(self):
        """Comparing Power reference tests against a TSO-synthesized
        suite must report gaps rather than silently passing."""
        tso = get_model("tso")
        suite = TestSuite("tso")
        suite.add(
            CATALOG["MP"].test, CATALOG["MP"].forbidden, ["causality"]
        )
        reference = [CATALOG["MP+sync+addr"]]
        comparison = compare_suites(reference, suite, tso)
        assert not comparison.both
        # MP+sync+addr does contain MP (drop the fence and the dep)...
        # under TSO's vocabulary RD/DF don't exist, but RI still reaches
        # it; either way the report must mention the test
        assert "MP+sync+addr" in comparison.reference_only

    def test_suite_json_rejects_garbage(self):
        with pytest.raises(Exception):
            TestSuite.from_json("{not json")
        with pytest.raises(Exception):
            TestSuite.from_json('{"model": "tso", "tests": [{"bad": 1}]}')
