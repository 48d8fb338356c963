"""ExplicitOracle unit tests."""

import pytest

from repro.core.oracle import ExplicitOracle
from repro.litmus.catalog import CATALOG, outcome_from_values
from repro.litmus.execution import Outcome
from repro.models.registry import get_model


@pytest.fixture()
def oracle():
    return ExplicitOracle(get_model("tso"))


class TestAnalyze:
    def test_mp_landscape(self, oracle):
        analysis = oracle.analyze(CATALOG["MP"].test)
        assert len(analysis.all_outcomes) == 4
        assert len(analysis.model_valid) == 3
        assert len(analysis.forbidden()) == 1

    def test_forbidden_per_axiom(self, oracle):
        corr = CATALOG["CoRR"].test
        analysis = oracle.analyze(corr)
        assert analysis.forbidden("sc_per_loc")
        assert not analysis.forbidden("rmw_atomicity")

    def test_analysis_cached(self, oracle):
        test = CATALOG["MP"].test
        first = oracle.analyze(test)
        count = oracle.stats["analyses"]
        second = oracle.analyze(test)
        assert first is second
        assert oracle.stats["analyses"] == count

    def test_axiom_bits(self, oracle):
        from repro.semantics.enumerate import enumerate_executions

        test = CATALOG["MP"].test
        for ex in enumerate_executions(test):
            bits = oracle.axiom_bits(ex)
            assert set(bits) == {
                "sc_per_loc",
                "rmw_atomicity",
                "causality",
            }
            assert oracle.is_valid(ex) == all(bits.values())


class TestAdmits:
    def test_partial_constraint(self, oracle):
        test = CATALOG["MP"].test
        analysis = oracle.analyze(test)
        # r2=1 alone is admissible
        partial = outcome_from_values(test, reads={2: 1})
        assert analysis.admits(partial)
        # the full forbidden outcome is not
        assert not analysis.admits(CATALOG["MP"].forbidden)

    def test_empty_constraint_always_admitted(self, oracle):
        analysis = oracle.analyze(CATALOG["MP"].test)
        assert analysis.admits(Outcome((), ()))

    def test_untouched_address_initial(self, oracle):
        analysis = oracle.analyze(CATALOG["MP"].test)
        assert analysis.admits(Outcome((), ((42, None),)))
        assert not analysis.admits(Outcome((), ((42, 0),)))


class TestObservable:
    def test_observability_cached(self, oracle):
        entry = CATALOG["MP"]
        oracle.observable(entry.test, entry.forbidden)
        count = oracle.stats["observations"]
        oracle.observable(entry.test, entry.forbidden)
        assert oracle.stats["observations"] == count

    def test_workaround_flag_switches_axioms(self):
        scc = get_model("scc")
        plain = ExplicitOracle(scc)
        wa = ExplicitOracle(scc, workaround=True)
        assert (
            plain._axioms["causality"] is not wa._axioms["causality"]
        )

    def test_cache_eviction(self):
        oracle = ExplicitOracle(get_model("tso"), analysis_cache=2)
        for name in ("MP", "SB", "LB"):
            oracle.analyze(CATALOG[name].test)
        assert len(oracle._analysis) == 2

    def test_hit_just_before_an_eviction_survives_it(self):
        oracle = ExplicitOracle(get_model("tso"), analysis_cache=2)
        mp, sb, lb = (CATALOG[name].test for name in ("MP", "SB", "LB"))
        oracle.analyze(mp)
        oracle.analyze(sb)
        oracle.analyze(mp)  # a hit: MP is now the most recent
        oracle.analyze(lb)  # evicts the least recent, SB
        assert mp in oracle._analysis
        assert sb not in oracle._analysis
        analyses = oracle.stats["analyses"]
        oracle.analyze(mp)
        assert oracle.stats["analyses"] == analyses

    def test_observe_hit_just_before_an_eviction_survives_it(self):
        oracle = ExplicitOracle(get_model("tso"), observe_cache=2)
        mp, sb, lb = (CATALOG[name].test for name in ("MP", "SB", "LB"))
        anything = Outcome((), ())
        for test in (mp, sb, mp, lb):
            assert oracle.observable(test, anything)
        assert (mp, anything) in oracle._observe
        assert (sb, anything) not in oracle._observe
