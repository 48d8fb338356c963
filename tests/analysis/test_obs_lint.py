"""OBS001/OBS002: unclosed spans and mixed-schema trace directories."""

import pytest

from repro.analysis import lint_trace_dir, lint_trace_events, lint_trace_file
from repro.analysis.selfcheck import lint_obs_smoke
from repro.obs import Tracer, format_event, header_event


def _healthy_trace(path):
    with Tracer(path) as tracer:
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.counters({"n": 1})


class TestUnclosedSpans:
    def test_healthy_file_is_clean(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        _healthy_trace(path)
        assert lint_trace_file(path) == []

    def test_begin_without_close_is_obs001(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            format_event(header_event())
            + format_event(
                {"ev": "begin", "id": 1, "name": "shard", "parent": None}
            )
        )
        diags = lint_trace_file(str(path))
        assert [d.id for d in diags] == ["OBS001"]
        assert "shard" in diags[0].message
        assert diags[0].severity.name == "WARNING"

    def test_events_level_api(self):
        events = [
            header_event(),
            {"ev": "begin", "id": 1, "name": "a", "parent": None},
            {"ev": "begin", "id": 2, "name": "b", "parent": 1},
            {"ev": "span", "id": 2, "name": "b", "parent": 1, "wall": 0.1},
        ]
        diags = lint_trace_events("stream", events)
        assert [d.id for d in diags] == ["OBS001"]
        assert "span#1" in diags[0].subject


class TestTraceDirSchemas:
    def test_healthy_dir_is_clean(self, tmp_path):
        _healthy_trace(str(tmp_path / "driver.jsonl"))
        _healthy_trace(str(tmp_path / "shard-0000.jsonl"))
        assert lint_trace_dir(str(tmp_path)) == []

    def test_missing_dir_is_obs002_error(self, tmp_path):
        diags = lint_trace_dir(str(tmp_path / "nope"))
        assert [d.id for d in diags] == ["OBS002"]
        assert diags[0].severity.name == "ERROR"

    def test_headerless_file_is_obs002(self, tmp_path):
        (tmp_path / "weird.jsonl").write_text(
            format_event({"ev": "span", "id": 1, "name": "x", "wall": 0.1})
        )
        diags = lint_trace_dir(str(tmp_path))
        assert [d.id for d in diags] == ["OBS002"]
        assert "no header" in diags[0].message

    def test_mixed_schemas_are_obs002(self, tmp_path):
        _healthy_trace(str(tmp_path / "driver.jsonl"))
        (tmp_path / "old.jsonl").write_text(
            format_event(
                {"ev": "header", "schema": {"name": "repro-trace", "version": 0}}
            )
        )
        diags = lint_trace_dir(str(tmp_path))
        assert any(
            d.id == "OBS002" and "mixes trace schemas" in d.message
            for d in diags
        )

    def test_foreign_schema_is_obs002(self, tmp_path):
        (tmp_path / "t.jsonl").write_text(
            format_event(
                {"ev": "header", "schema": {"name": "other-tool", "version": 9}}
            )
        )
        diags = lint_trace_dir(str(tmp_path))
        assert any(
            d.id == "OBS002" and "other-tool" in d.message for d in diags
        )

    def test_unclosed_spans_surface_through_dir_lint(self, tmp_path):
        (tmp_path / "shard-0000.jsonl").write_text(
            format_event(header_event())
            + format_event(
                {"ev": "begin", "id": 1, "name": "shard", "parent": None}
            )
        )
        diags = lint_trace_dir(str(tmp_path))
        assert [d.id for d in diags] == ["OBS001"]

    @pytest.mark.parametrize("oracle", ["explicit", "relational"])
    def test_real_synthesis_trace_is_clean(self, tmp_path, oracle):
        from repro.core.enumerator import EnumerationConfig
        from repro.core.synthesis import (
            OracleSpec,
            SynthesisOptions,
            synthesize,
        )
        from repro.models.registry import get_model
        from repro.obs import summarize_trace_dir

        trace_dir = str(tmp_path / "t")
        synthesize(
            get_model("sc"),
            SynthesisOptions(
                bound=3,
                config=EnumerationConfig(
                    max_events=3, max_addresses=1, max_deps=0, max_rmws=0
                ),
                oracle_spec=OracleSpec(oracle=oracle),
                trace_dir=trace_dir,
            ),
        )
        assert lint_trace_dir(trace_dir) == []
        report = summarize_trace_dir(trace_dir)
        assert report["phases"] and report["spans"]
        walls = [phase["wall"] for phase in report["phases"]]
        walls += [slot["wall"] for slot in report["spans"].values()]
        assert all(isinstance(wall, (int, float)) for wall in walls)


class TestRegistrySelfCheck:
    def test_obs_smoke_is_clean(self):
        report = lint_obs_smoke()
        assert report.diagnostics == []

    def test_obs_smoke_runs_in_lint_registry(self, monkeypatch):
        # lint_registry must invoke the obs tracer smoke; verify by
        # making it the only contributor of a sentinel diagnostic.
        from repro.analysis import selfcheck
        from repro.analysis.diagnostics import Diagnostic, Report, Severity

        sentinel = Report()
        sentinel.extend(
            [
                Diagnostic(
                    "OBS001",
                    Severity.WARNING,
                    "obs:sentinel",
                    "sentinel",
                )
            ]
        )
        monkeypatch.setattr(selfcheck, "lint_obs_smoke", lambda: sentinel)
        full = selfcheck.lint_registry(probe=False)
        assert any(d.subject == "obs:sentinel" for d in full.diagnostics)
