"""The Report envelope: round-trips and legacy-document rejection."""

import json
from pathlib import Path

import pytest

from repro.obs import Report, load_report


class TestRoundTrip:
    def test_envelope_shape(self):
        report = Report(
            schema_name="synthesis-result",
            schema_version=3,
            command="synthesize",
            payload={"model": "tso"},
        )
        doc = report.to_json_dict()
        assert doc == {
            "schema": {"name": "synthesis-result", "version": 3},
            "tool": "litmus-synth",
            "command": "synthesize",
            "payload": {"model": "tso"},
        }

    def test_load_report_round_trips(self):
        report = Report(
            schema_name="trace-report",
            schema_version=1,
            command="report",
            payload={"phases": []},
        )
        loaded = load_report(report.to_json_dict())
        assert loaded == report

    def test_load_report_accepts_json_strings(self):
        report = Report(
            schema_name="difftest-campaign",
            schema_version=2,
            command="difftest",
            payload={"clean": True},
        )
        loaded = load_report(report.to_json(indent=None))
        assert loaded.payload == {"clean": True}

    def test_is_envelope(self):
        assert Report.is_envelope(
            {"schema": {"name": "x", "version": 1}, "payload": {}}
        )
        assert not Report.is_envelope({"schema_version": 2, "model": "tso"})
        assert not Report.is_envelope({"schema": {"name": "x"}, "payload": {}})


class TestLegacyRejection:
    """The pre-envelope shapes' deprecation window has closed: every
    bare legacy document is now a plain :class:`ValueError`."""

    def test_legacy_synthesis_result_rejected(self):
        legacy = {
            "schema_version": 2,
            "model": "tso",
            "suite_counts": {"union": 5},
            "minimal_tests": 5,
        }
        with pytest.raises(ValueError, match="no longer accepted"):
            load_report(legacy)

    def test_legacy_campaign_rejected(self):
        legacy = {"schema_version": 1, "mutant_kills": {}, "clean": True}
        with pytest.raises(ValueError, match="no longer accepted"):
            load_report(legacy)

    def test_legacy_bench_oracle_rejected(self):
        legacy = {
            "schema_version": 1,
            "incremental": {},
            "cold": {},
            "speedup": 2.0,
        }
        with pytest.raises(ValueError, match="no longer accepted"):
            load_report(legacy)

    def test_legacy_comparison_rejected(self):
        legacy = {
            "schema_version": 1,
            "fully_subsumed": True,
            "reference_only": {},
        }
        with pytest.raises(ValueError, match="no longer accepted"):
            load_report(legacy)

    def test_legacy_rejection_does_not_warn(self, recwarn):
        with pytest.raises(ValueError):
            load_report({"campaigns": {}})
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_unrecognisable_document_raises(self):
        with pytest.raises(ValueError):
            load_report({"something": "else"})
        with pytest.raises(ValueError):
            load_report(json.dumps([1, 2, 3]))


class TestLiveSurfacesAreEnvelopes:
    def test_all_json_surfaces_load(self):
        """Every ``--json``/BENCH producer emits a loadable envelope."""
        from repro.core.compare import SuiteComparison
        from repro.models.registry import get_model
        from repro.core.enumerator import EnumerationConfig
        from repro.core.synthesis import SynthesisOptions, synthesize

        config = EnumerationConfig(
            max_events=3, max_addresses=1, max_deps=0, max_rmws=0
        )
        result = synthesize(
            get_model("sc"), SynthesisOptions(bound=3, config=config)
        )
        loaded = load_report(result.to_json_dict())
        assert loaded.schema_name == "synthesis-result"
        assert loaded.schema_version == 4

        comparison = SuiteComparison("sc")
        loaded = load_report(comparison.to_json_dict())
        assert loaded.schema_name == "suite-comparison"
        assert loaded.schema_version == 2


class TestCommittedArtifacts:
    def test_every_committed_bench_report_loads(self):
        # No artifact in the repository may be one the loader rejects.
        root = Path(__file__).resolve().parents[2]
        paths = sorted(root.glob("BENCH_*.json")) + sorted(
            (root / "benchmarks").glob("BENCH_*.json")
        )
        assert paths
        for path in paths:
            report = load_report(path.read_text(encoding="utf-8"))
            assert report.schema_name.startswith("bench"), path.name
