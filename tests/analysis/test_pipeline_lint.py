"""Pipeline lint: degenerate CNF must be flagged, real encodings not."""

from repro.analysis.pipeline_lint import (
    context_from_dimacs,
    context_from_solver,
    lint_clause_context,
)
from repro.analysis.registry import ClauseLintContext
from repro.sat.dimacs import parse_dimacs
from repro.sat.solver import Solver


def lint(num_vars, clauses, referenced=()):
    ctx = ClauseLintContext(
        "seeded",
        num_vars=num_vars,
        clauses=clauses,
        referenced_vars=set(referenced),
    )
    return list(lint_clause_context(ctx))


def ids(diagnostics):
    return sorted(d.id for d in diagnostics)


class TestClauseShapes:
    def test_orphan_variable_sat001(self):
        # Variable 3 is allocated but no clause mentions it: the classic
        # orphan Tseitin variable.
        report = lint(3, [[1, -2], [2]])
        assert any(d.id == "SAT001" and ":v3" in d.subject for d in report)

    def test_orphan_suppressed_by_referenced_vars(self):
        report = lint(3, [[1, -2], [2]], referenced={3})
        assert not any(d.id == "SAT001" for d in report)

    def test_tautology_sat002(self):
        report = lint(2, [[1, -1, 2]])
        assert any(d.id == "SAT002" for d in report)

    def test_empty_clause_sat003(self):
        report = lint(1, [[1], []])
        assert any(d.id == "SAT003" for d in report)

    def test_duplicate_literal_sat004(self):
        report = lint(2, [[1, 1, 2]])
        assert any(d.id == "SAT004" for d in report)

    def test_out_of_range_literal_sat005(self):
        report = lint(2, [[1, -5], [2]])
        assert any(d.id == "SAT005" for d in report)

    def test_unit_clause_sat006_is_info(self):
        report = lint(2, [[1], [1, 2]])
        hits = [d for d in report if d.id == "SAT006"]
        assert hits and all(d.severity.label == "info" for d in hits)

    def test_clean_cnf(self):
        report = lint(3, [[1, -2], [2, 3], [-1, -3]])
        assert report == []


class TestContextBuilders:
    def test_from_solver_marks_trail_referenced(self):
        solver = Solver()
        for _ in range(3):
            solver.new_var()
        solver.add_clause([1])  # consumed at level 0: trail, not clauses
        solver.add_clause([2, 3])
        ctx = context_from_solver("s", solver)
        report = list(lint_clause_context(ctx))
        assert not any(d.id == "SAT001" for d in report)

    def test_from_dimacs(self):
        num_vars, clauses = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
        ctx = context_from_dimacs("d", num_vars, clauses)
        assert list(lint_clause_context(ctx)) == []


class TestOracleOptionsLint:
    def _opts(self, **kw):
        from repro.core.synthesis import OracleSpec, SynthesisOptions

        return SynthesisOptions(bound=3, oracle_spec=OracleSpec(**kw))

    def test_effective_configs_are_clean(self):
        from repro.analysis import lint_oracle_options

        assert lint_oracle_options(self._opts()) == []
        assert (
            lint_oracle_options(self._opts(oracle="relational")) == []
        )
        assert (
            lint_oracle_options(
                self._opts(oracle="relational", cnf_cache_dir="/tmp/c")
            )
            == []
        )

    def test_explicit_oracle_ignores_knobs_sat007(self):
        from repro.analysis import lint_oracle_options

        report = lint_oracle_options(self._opts(cnf_cache_dir="/tmp/c"))
        assert ids(report) == ["SAT007"]
        assert report[0].subject == "options:cnf_cache_dir"
        # a bare OracleSpec lints the same as the options carrying it
        spec = self._opts(cnf_cache_dir="/tmp/c").oracle_spec
        assert ids(lint_oracle_options(spec)) == ["SAT007"]


class TestCnfCacheDirLint:
    def _seed(self, tmp_path, model="tso"):
        from repro.alloy import AlloyOracle
        from repro.litmus.catalog import CATALOG

        oracle = AlloyOracle(model, cnf_cache_dir=str(tmp_path))
        oracle.analyze(CATALOG["MP"].test)

    def test_clean_directory(self, tmp_path):
        from repro.analysis import lint_cnf_cache_dir

        self._seed(tmp_path)
        assert lint_cnf_cache_dir(str(tmp_path)) == []
        assert lint_cnf_cache_dir(str(tmp_path / "missing")) == []

    def test_mixed_fingerprints_sat008(self, tmp_path):
        from repro.analysis import lint_cnf_cache_dir

        self._seed(tmp_path, "tso")
        self._seed(tmp_path, "sc")
        report = lint_cnf_cache_dir(str(tmp_path))
        assert any(
            d.id == "SAT008" and "fingerprint" in d.message
            for d in report
        )

    def test_stale_schema_sat008(self, tmp_path):
        import json

        from repro.analysis import lint_cnf_cache_dir

        (tmp_path / "old.json").write_text(
            json.dumps({"schema": 0, "model": "x"})
        )
        report = lint_cnf_cache_dir(str(tmp_path))
        assert any(
            d.id == "SAT008" and "stale" in d.message for d in report
        )

    def test_corrupt_entry_sat008(self, tmp_path):
        from repro.analysis import lint_cnf_cache_dir

        (tmp_path / "junk.json").write_text("{nope")
        report = lint_cnf_cache_dir(str(tmp_path))
        assert any(
            d.id == "SAT008" and "unreadable" in d.message
            for d in report
        )


class TestWarmCompileLint:
    def test_warm_run_with_zero_hits_sat009(self):
        from repro.analysis import lint_warm_compile

        report = lint_warm_compile(
            {
                "compile_warm_entries": 8,
                "compile_hits": 0,
                "compile_misses": 8,
            },
            subject="oracle",
        )
        assert [d.id for d in report] == ["SAT009"]
        assert "compile_hit_rate 0.0" in report[0].message

    def test_cold_run_is_clean(self):
        from repro.analysis import lint_warm_compile

        # No warm entries at start: a 0.0 hit rate is expected, not a
        # finding.
        assert (
            lint_warm_compile(
                {
                    "compile_warm_entries": 0,
                    "compile_hits": 0,
                    "compile_misses": 8,
                }
            )
            == []
        )

    def test_warm_run_with_hits_is_clean(self):
        from repro.analysis import lint_warm_compile

        assert (
            lint_warm_compile(
                {
                    "compile_warm_entries": 8,
                    "compile_hits": 8,
                    "compile_misses": 0,
                }
            )
            == []
        )

    def test_warm_idle_run_is_clean(self):
        from repro.analysis import lint_warm_compile

        # Warm cache but nothing compiled (analysis cache answered
        # everything): no lookups, so no silent misses to report.
        assert (
            lint_warm_compile(
                {
                    "compile_warm_entries": 8,
                    "compile_hits": 0,
                    "compile_misses": 0,
                }
            )
            == []
        )
