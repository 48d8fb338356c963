"""Cross-model synthesis grid: explicit vs relational.

For the newly formalized models, both oracles must synthesize the
*same* suites — the relational formulas are twins of the executable
axioms.  The grid runs armv8/rvwmo at bounds 2-3 (with the
dep bound tightened to keep the candidate space test-sized) plus the
vmem variants at bound 2, and compares suite membership per axiom.
"""

import functools

import pytest

from repro.core.enumerator import EnumerationConfig
from repro.core.synthesis import OracleSpec, SynthesisOptions, synthesize
from repro.models.registry import get_model

GRID = [
    ("armv8", 2),
    ("armv8", 3),
    ("rvwmo", 2),
    ("rvwmo", 3),
    ("sc_vmem", 2),
    ("tso_vmem", 2),
]


def _suites(result):
    return {
        name: [t.name for t in suite.tests()]
        for name, suite in result.per_axiom.items()
    } | {"union": [t.name for t in result.union.tests()]}


@functools.lru_cache(maxsize=None)
def _grid_point(model_name, bound, oracle):
    model = get_model(model_name)
    config = EnumerationConfig(
        max_events=bound,
        max_deps=1,
        max_aliases=1 if model.vocabulary.has_vmem else 0,
    )
    result = synthesize(
        model,
        SynthesisOptions(
            bound=bound,
            config=config,
            oracle_spec=OracleSpec(oracle=oracle),
        ),
    )
    return result, _suites(result)


class TestOracleAgreement:
    @pytest.mark.parametrize("model_name,bound", GRID)
    def test_relational_matches_explicit(self, model_name, bound):
        _, explicit = _grid_point(model_name, bound, "explicit")
        _, relational = _grid_point(model_name, bound, "relational")
        assert relational == explicit

    @pytest.mark.parametrize(
        "model_name,bound", [("armv8", 3), ("rvwmo", 3)]
    )
    def test_bound3_suites_nonempty(self, model_name, bound):
        result, suites = _grid_point(model_name, bound, "explicit")
        assert suites["union"], "bound-3 union suite must be non-empty"
        assert result.candidates > 0


class TestVmemEnumeration:
    """The enhanced candidate stream must actually reach the oracles."""

    @pytest.mark.parametrize("model_name", ["sc_vmem", "tso_vmem"])
    def test_vmem_candidates_enumerated(self, model_name):
        from repro.core.enumerator import enumerate_tests

        model = get_model(model_name)
        config = EnumerationConfig(max_events=2, max_aliases=1)
        stream = list(enumerate_tests(model.vocabulary, config))
        assert any(
            any(i.is_vmem for i in t.instructions) for t in stream
        ), "vocabulary-declared vmem kinds must appear in candidates"
        assert any(t.addr_map is not None for t in stream), (
            "max_aliases=1 must produce aliased candidates"
        )

    def test_consistency_model_stream_unchanged(self):
        from repro.core.enumerator import enumerate_tests

        vocab = get_model("sc").vocabulary
        config = EnumerationConfig(max_events=2)
        stream = list(enumerate_tests(vocab, config))
        assert all(t.addr_map is None for t in stream)
        assert not any(
            any(i.is_vmem for i in t.instructions) for t in stream
        )
