"""Incremental oracle: agreement with the explicit oracle, CNF cache.

The relational oracle answers every query on one warm solver per test;
the explicit enumeration oracle is the independent reference it must
agree with — per-test outcome landscapes, concrete-execution verdicts,
and byte-identical synthesized suites.
"""

import pytest

from repro.alloy import AlloyOracle, CNFCache, LitmusEncoding
from repro.alloy.cache import cache_key, entry_from_dict, entry_to_dict
from repro.alloy.oracle import _execution_key
from repro.core.enumerator import EnumerationConfig, enumerate_tests
from repro.core.oracle import ExplicitOracle
from repro.core.synthesis import (
    OracleSpec,
    SynthesisOptions,
    build_checker,
    synthesize,
)
from repro.litmus.catalog import CATALOG
from repro.litmus.execution import Execution
from repro.models.registry import get_model
from repro.obs import derive_rates
from repro.relational.solve import ModelFinder, compile_snapshot

GRID = [
    ("sc", 3),
    ("tso", 3),
    ("tso", 4),
    ("scc", 3),
    ("armv8", 3),
    ("rvwmo", 3),
    ("sc_vmem", 2),
    ("tso_vmem", 2),
]


def sample_tests(model_name, bound, limit=25):
    """Every k-th candidate of the model's default stream at ``bound``
    (vmem models with their one-alias axis), at most ``limit`` of them:
    the sample spans the whole stream, so its largest tests are in."""
    model = get_model(model_name)
    config = SynthesisOptions(bound=bound).resolved_config(model)
    stream = list(enumerate_tests(model.vocabulary, config))
    step = -(-len(stream) // limit)
    return stream[::step]


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("model_name,bound", GRID)
    def test_analyze_grid_matches_explicit(self, model_name, bound):
        """Property grid: per-test outcome landscapes agree between the
        warm relational engine and explicit enumeration."""
        relational = AlloyOracle(model_name)
        explicit = ExplicitOracle(get_model(model_name))
        for test in sample_tests(model_name, bound):
            assert relational.analyze(test) == explicit.analyze(test), test

    @pytest.mark.parametrize("model_name,bound", GRID)
    def test_executions_sorted_by_canonical_key(self, model_name, bound):
        """Enumeration order is the canonical key's, whatever order the
        warm solver's state produces."""
        oracle = AlloyOracle(model_name)
        for test in sample_tests(model_name, bound, limit=10):
            for found in (
                list(oracle.executions(test)),
                list(oracle.valid_executions(test)),
            ):
                assert found == sorted(found, key=_execution_key)

    @pytest.mark.parametrize("model_name,bound", GRID)
    def test_execution_verdicts_match_explicit(self, model_name, bound):
        """Per execution: membership in each axiom's valid list equals
        the explicit oracle's axiom bits, and ``is_valid`` equals the
        explicit verdict."""
        relational = AlloyOracle(model_name)
        explicit = ExplicitOracle(get_model(model_name))
        for test in sample_tests(model_name, bound, limit=50):
            members = {
                axiom: set(relational.valid_executions(test, axiom))
                for axiom in relational.axiom_names()
            }
            executions = list(relational.executions(test))
            assert set(executions) == set(explicit.executions(test)), test
            for ex in executions:
                bits = explicit.axiom_bits(ex)
                assert {
                    axiom: ex in members[axiom] for axiom in members
                } == bits, (test, ex)
                assert relational.is_valid(ex) == explicit.is_valid(ex), (
                    test,
                    ex,
                )

    def test_read_from_another_address_is_invalid(self):
        """An execution outside the rf bounds (a read sourced by a write
        to another address) is no execution of the test."""
        test = CATALOG["MP"].test
        oracle = AlloyOracle("tso")
        valid = next(iter(oracle.valid_executions(test)))
        (read, _), *rest = valid.rf
        loc = test.location_of(test.instruction(read).address)
        foreign = next(
            w
            for other in test.locations
            if other != loc
            for w in test.writes_to(other)
        )
        bad = Execution(test, ((read, foreign), *rest), valid.co, valid.sc)
        assert oracle.is_valid(valid)
        assert not oracle.is_valid(bad)

    @pytest.mark.parametrize("model_name", ["tso", "sc", "scc"])
    @pytest.mark.parametrize("name", ["MP", "SB", "IRIW", "CoRW"])
    def test_analyze_is_one_enumeration(self, model_name, name):
        """``analyze`` costs one solver query per execution plus the
        final UNSAT one: every axiom's verdict comes off the enumerated
        models, with no per-execution query."""
        oracle = AlloyOracle(model_name)
        test = CATALOG[name].test
        oracle.analyze(test)
        executions = list(oracle.executions(test))
        assert oracle.as_metrics()["sat_queries"] == len(executions) + 1

    def test_executions_and_is_valid_match_explicit(self):
        relational = AlloyOracle("tso")
        explicit = ExplicitOracle(get_model("tso"))
        for name in ("MP", "SB", "LB", "CoRW"):
            test = CATALOG[name].test
            executions = list(relational.executions(test))
            assert set(executions) == set(explicit.executions(test)), name
            for ex in executions:
                assert relational.is_valid(ex) == explicit.is_valid(ex), (
                    name,
                    ex,
                )

    @pytest.mark.parametrize("model_name", ["sc", "tso"])
    def test_synthesized_suites_byte_identical(self, model_name):
        model = get_model(model_name)
        config = EnumerationConfig(
            max_events=3, max_addresses=2, max_deps=0, max_rmws=0
        )

        def run(oracle):
            return synthesize(
                model,
                SynthesisOptions(
                    bound=3,
                    config=config,
                    oracle_spec=OracleSpec(oracle=oracle),
                ),
            )

        relational = run("relational")
        explicit = run("explicit")
        assert relational.union.to_json() == explicit.union.to_json()
        for axiom in relational.per_axiom:
            assert (
                relational.per_axiom[axiom].to_json()
                == explicit.per_axiom[axiom].to_json()
            )

    def test_repeated_queries_do_not_pollute(self):
        """Enumerations on one warm session are independent queries."""
        oracle = AlloyOracle("tso")
        test = CATALOG["MP"].test
        first = list(oracle.executions(test))
        valid = list(oracle.valid_executions(test))
        again = list(oracle.executions(test))
        assert first == again
        assert set(valid) <= set(first)

    def test_analysis_hit_just_before_an_eviction_survives_it(self):
        oracle = AlloyOracle("tso", analysis_cache=2)
        mp, sb, lb = (CATALOG[name].test for name in ("MP", "SB", "LB"))
        oracle.analyze(mp)
        oracle.analyze(sb)
        oracle.analyze(mp)  # a hit: MP is now the most recent
        oracle.analyze(lb)  # evicts the least recent, SB
        assert mp in oracle._analysis
        assert sb not in oracle._analysis
        assert oracle.as_metrics()["analyses"] == 3


class TestModelFinderIncremental:
    def _finder(self, name="MP"):
        encoding = LitmusEncoding(CATALOG[name].test)
        return encoding, ModelFinder(encoding.problem)

    def test_selector_for_caches(self):
        from repro.alloy.models import tso_formulas

        encoding, finder = self._finder()
        finder.assert_formula(encoding.facts())
        formula = tso_formulas()["causality"]
        sel = finder.selector_for(formula)
        assert finder.selector_for(formula) == sel

    def test_root_literals_agree_with_pinned_queries(self):
        """A root literal's value in each enumerated model is what a
        query pinning that model's free tuples decides, constant
        formulas included."""
        from repro.alloy.models import tso_formulas
        from repro.relational import ast

        formulas = [*tso_formulas().values(), ast.TRUE_F, ~ast.TRUE_F]
        encoding, finder = self._finder("SB")
        finder.assert_formula(encoding.facts())
        roots = [finder.root_literal(f) for f in formulas]
        reference = ModelFinder(encoding.problem)
        reference.assert_formula(encoding.facts())
        selectors = [reference.selector_for(f) for f in formulas]
        found = list(finder.instances_reading(roots))
        assert found
        for instance, values in found:
            pins = [
                var if t in instance[name] else -var
                for (name, t), var in reference.tuple_vars.items()
            ]
            expected = tuple(
                reference.check_assuming(pins + ([] if sel is None else [sel]))
                for sel in selectors
            )
            assert values == expected, instance
            assert values[-2:] == (True, False)

    def test_instances_repeatable_and_independent(self):
        encoding, finder = self._finder()
        facts = encoding.facts()
        first = list(finder.instances(facts))
        second = list(finder.instances(facts))
        assert sorted(map(hash, first)) == sorted(map(hash, second))

    def test_check_assuming_matches_fresh_check(self):
        from repro.alloy.models import tso_formulas

        formulas = tso_formulas()
        encoding, finder = self._finder("SB")
        finder.assert_formula(encoding.facts())
        sels = [
            s
            for s in (finder.selector_for(f) for f in formulas.values())
            if s is not None
        ]
        warm_verdict = finder.check_assuming(sels)

        encoding2 = LitmusEncoding(CATALOG["SB"].test)
        fresh = ModelFinder(encoding2.problem)
        conj = encoding2.facts()
        for f in formulas.values():
            conj = conj & f
        assert warm_verdict == fresh.check(conj)

    def test_compiled_problem_roundtrip(self):
        from repro.alloy.models import tso_formulas

        encoding, finder = self._finder()
        finder.assert_formula(encoding.facts())
        roots = {
            name: finder.root_literal(f)
            for name, f in tso_formulas().items()
        }
        for name in encoding.problem.declarations:
            finder.translator.relation_matrix(name)
        snapshot = compile_snapshot(finder, roots)

        rebuilt = ModelFinder(encoding.problem, compiled=snapshot)
        sels = [sel for _, sel in snapshot.roots if sel]
        assert rebuilt.check_assuming(sels) == finder.check_assuming(
            [s for s in roots.values() if s is not None]
        )
        base = sorted(map(hash, finder.instances_assuming([])))
        again = sorted(map(hash, rebuilt.instances_assuming([])))
        assert base == again
        with pytest.raises(RuntimeError):
            rebuilt.assert_formula(encoding.facts())

    def test_snapshot_serializes(self):
        encoding, finder = self._finder()
        finder.assert_formula(encoding.facts())
        for name in encoding.problem.declarations:
            finder.translator.relation_matrix(name)
        snapshot = compile_snapshot(finder)
        assert entry_from_dict(entry_to_dict("fp", snapshot)) == snapshot


class TestCNFCache:
    def test_memory_hits(self, tmp_path):
        oracle = AlloyOracle("tso", session_cache=1)
        a, b = CATALOG["MP"].test, CATALOG["SB"].test
        oracle.analyze(a)
        oracle.analyze(b)  # evicts a's session (capacity 1)
        oracle._analysis.clear()  # force a fresh session for a
        oracle.analyze(a)
        stats = oracle.as_metrics()
        assert stats["compile_hits"] >= 1
        assert stats["sessions"] >= 3
        assert derive_rates(stats)["compile_hit_rate"] > 0

    def test_disk_layer_shared_across_oracles(self, tmp_path):
        cache_dir = str(tmp_path / "cnf")
        first = AlloyOracle("tso", cnf_cache_dir=cache_dir)
        first.analyze(CATALOG["MP"].test)
        assert first.as_metrics()["compile_stores"] >= 1

        second = AlloyOracle("tso", cnf_cache_dir=cache_dir)
        second.analyze(CATALOG["MP"].test)
        stats = second.as_metrics()
        assert stats["compile_disk_hits"] >= 1
        assert second.analyze(CATALOG["MP"].test) == first.analyze(
            CATALOG["MP"].test
        )

    def test_model_fingerprints_do_not_collide(self, tmp_path):
        cache_dir = str(tmp_path / "cnf")
        tso = AlloyOracle("tso", cnf_cache_dir=cache_dir)
        sc = AlloyOracle("sc", cnf_cache_dir=cache_dir)
        test = CATALOG["MP"].test
        tso.analyze(test)
        sc_analysis = sc.analyze(test)
        # sc must not have loaded tso's compiled axioms
        assert sc.as_metrics()["compile_disk_hits"] == 0
        assert sc_analysis == AlloyOracle("sc").analyze(test)

    def test_cache_key_distinguishes_structure(self):
        a = cache_key("fp", CATALOG["MP"].test, False)
        b = cache_key("fp", CATALOG["SB"].test, False)
        c = cache_key("other", CATALOG["MP"].test, False)
        d = cache_key("fp", CATALOG["MP"].test, True)
        assert len({a, b, c, d}) == 4

    def test_schema_2_entry_is_never_loaded(self, tmp_path, monkeypatch):
        """An entry written under the selector-literal schema (2) is a
        miss for schema 3, and the SAT008 lint names it as stale."""
        from repro.alloy import cache as cache_module
        from repro.analysis import lint_cnf_cache_dir

        cache_dir = tmp_path / "cnf"
        test = CATALOG["MP"].test
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_SCHEMA", 2)
            AlloyOracle("tso", cnf_cache_dir=str(cache_dir)).analyze(test)
        (stale,) = [entry.name for entry in cache_dir.iterdir()]

        warm = AlloyOracle("tso", cnf_cache_dir=str(cache_dir))
        assert warm.analyze(test) == AlloyOracle("tso").analyze(test)
        assert list(warm.valid_executions(test)) == list(
            AlloyOracle("tso").valid_executions(test)
        )
        assert warm.as_metrics()["compile_disk_hits"] == 0

        stale_findings = [
            f for f in lint_cnf_cache_dir(str(cache_dir)) if "stale" in f.message
        ]
        assert [(f.id, f.subject) for f in stale_findings] == [
            ("SAT008", f"{cache_dir}:{stale}")
        ]

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = CNFCache("fp", disk_dir=str(tmp_path))
        key = cache.key(CATALOG["MP"].test, False)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None
        assert cache.as_metrics()["compile_misses"] == 1


class TestStatsSurface:
    def test_oracle_stats_reach_result_json(self):
        model = get_model("tso")
        config = EnumerationConfig(
            max_events=3, max_addresses=2, max_deps=0, max_rmws=0
        )
        result = synthesize(
            model,
            SynthesisOptions(
                bound=3,
                config=config,
                oracle_spec=OracleSpec(oracle="relational"),
            ),
        )
        doc = result.to_json_dict()["payload"]["oracle"]
        for key in (
            "sat_conflicts",
            "sat_propagations",
            "sat_decisions",
            "sat_queries",
            "sat_reuse_hits",
            "sat_learned",
            "sat_restarts",
            "compile_hits",
            "compile_misses",
            "sessions",
            "analysis_hit_rate",
            "sat_reuse_rate",
        ):
            assert key in doc, key
        assert doc["sat_queries"] > 0
        assert doc["sat_reuse_rate"] > 0

    def test_build_checker_rejects_wa_with_relational(self):
        from repro.core.minimality import CriterionMode

        with pytest.raises(ValueError):
            build_checker(
                get_model("scc"),
                CriterionMode.EXECUTION_WA,
                OracleSpec(oracle="relational"),
            )

    def test_options_validation(self):
        with pytest.raises(ValueError):
            OracleSpec(oracle="quantum")
