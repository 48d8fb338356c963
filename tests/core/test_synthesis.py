"""End-to-end synthesis pipeline tests (paper §5, §6.1)."""

import pytest

from repro.core.canonical import canonical_form
from repro.core.enumerator import EnumerationConfig
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.litmus.catalog import CATALOG
from repro.models.registry import get_model


@pytest.fixture(scope="module")
def tso_bound4():
    return synthesize(
        get_model("tso"),
        SynthesisOptions(
            bound=4,
            config=EnumerationConfig(max_events=4, max_addresses=2),
        ),
    )


class TestTSOSynthesis:
    def test_classic_tests_emitted(self, tso_bound4):
        union_tests = {canonical_form(t) for t in tso_bound4.union.tests()}
        for name in ("MP", "LB", "S", "2+2W", "CoWW", "CoRR", "CoRW"):
            assert canonical_form(CATALOG[name].test) in union_tests, name

    def test_allowed_patterns_not_emitted(self, tso_bound4):
        union_tests = {canonical_form(t) for t in tso_bound4.union.tests()}
        for name in ("SB", "R", "n6"):
            assert canonical_form(CATALOG[name].test) not in union_tests

    def test_non_minimal_tests_not_emitted(self, tso_bound4):
        union_tests = {canonical_form(t) for t in tso_bound4.union.tests()}
        assert canonical_form(CATALOG["n5"].test) not in union_tests
        assert canonical_form(CATALOG["n4"].test) not in union_tests

    def test_per_axiom_suites_populated(self, tso_bound4):
        assert len(tso_bound4.per_axiom["sc_per_loc"]) == 10  # saturated
        assert len(tso_bound4.per_axiom["causality"]) > 0

    def test_union_at_most_sum(self, tso_bound4):
        total = sum(len(s) for s in tso_bound4.per_axiom.values())
        assert 0 < len(tso_bound4.union) <= total

    def test_union_members_minimal_for_some_axiom(self, tso_bound4):
        for entry in tso_bound4.union:
            assert entry.axioms

    def test_counters(self, tso_bound4):
        assert (
            tso_bound4.candidates
            >= tso_bound4.unique_candidates
            >= tso_bound4.minimal_tests
            == len(tso_bound4.union)
        )

    def test_counts_and_summary(self, tso_bound4):
        counts = tso_bound4.counts()
        assert counts["union"] == len(tso_bound4.union)
        text = tso_bound4.summary()
        assert "union" in text and "tso" in text


class TestSaturation:
    """Paper Fig. 13b: sc_per_loc and rmw_atomicity saturate."""

    def test_sc_per_loc_saturates_at_ten(self):
        counts = {}
        for bound in (4, 5):
            res = synthesize(
                get_model("tso"),
                SynthesisOptions(
                    bound=bound,
                    axioms=["sc_per_loc"],
                    config=EnumerationConfig(
                        max_events=bound, max_addresses=1, max_rmws=0
                    ),
                ),
            )
            counts[bound] = len(res.per_axiom["sc_per_loc"])
        assert counts[4] == counts[5] == 10

    def test_rmw_atomicity_grows_then_saturates(self):
        # bound 4 -> 1 test, bound 5 -> 3 tests; bound 6 stays at 3
        # (asserted in the benchmark harness, where the 34s run lives).
        counts = {}
        for bound in (4, 5):
            res = synthesize(
                get_model("tso"),
                SynthesisOptions(
                    bound=bound,
                    axioms=["rmw_atomicity"],
                    config=EnumerationConfig(
                        max_events=bound, max_addresses=1
                    ),
                ),
            )
            counts[bound] = len(res.per_axiom["rmw_atomicity"])
        assert counts[4] == 1
        assert counts[5] == 3


class TestSynthesisOptions:
    def test_explicit_candidate_stream(self):
        tests = [CATALOG["MP"].test, CATALOG["SB"].test]
        res = synthesize(
            get_model("tso"), SynthesisOptions(bound=4, candidates=tests)
        )
        assert res.candidates == 2
        assert len(res.union) == 1  # only MP is minimal

    def test_single_axiom(self):
        res = synthesize(
            get_model("tso"),
            SynthesisOptions(
                bound=3,
                axioms=["sc_per_loc"],
                config=EnumerationConfig(max_events=3, max_addresses=1),
            ),
        )
        assert list(res.per_axiom) == ["sc_per_loc"]

    def test_progress_callback(self):
        events = []
        result = synthesize(
            get_model("tso"),
            SynthesisOptions(
                bound=4,
                config=EnumerationConfig(max_events=4, max_addresses=2),
                progress_events=events.append,
            ),
        )
        # an unsharded run ticks every 1000 candidates, then finishes
        ticks = [e["candidates"] for e in events if e["phase"] == "enumerate"]
        assert ticks == list(range(1000, result.candidates + 1, 1000))
        assert events[-1] == {
            "phase": "finish",
            "candidates": result.candidates,
            "unique": result.unique_candidates,
            "minimal": result.minimal_tests,
        }

    def test_sc_model_synthesis(self):
        res = synthesize(
            get_model("sc"),
            SynthesisOptions(
                bound=3,
                config=EnumerationConfig(max_events=3, max_addresses=2),
            ),
        )
        union_tests = {canonical_form(t) for t in res.union.tests()}
        assert canonical_form(CATALOG["CoWW"].test) in union_tests
