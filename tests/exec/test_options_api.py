"""The options-object API, the removed legacy shims, and the JSON schema."""

import json

import pytest

from repro import __all__ as public_names
from repro.core.enumerator import EnumerationConfig
from repro.core.synthesis import (
    RESULT_SCHEMA_VERSION,
    SynthesisOptions,
    synthesize,
)
from repro.models.registry import get_model


def _config(bound: int = 3) -> EnumerationConfig:
    return EnumerationConfig(max_events=bound, max_addresses=2)


class TestSynthesisOptions:
    def test_loose_kwargs_form_raises(self):
        # The pre-1.1 shim (synthesize(model, bound=3, ...)) finished its
        # deprecation window; since 1.2 only the options-object and
        # request forms exist.
        with pytest.raises(TypeError, match="bound"):
            synthesize(get_model("tso"), bound=3, config=_config())

    def test_options_plus_kwargs_is_an_error(self):
        with pytest.raises(TypeError, match="bound"):
            synthesize(
                get_model("tso"),
                SynthesisOptions(bound=3, config=_config()),
                bound=3,
            )

    def test_unknown_kwarg_is_an_error(self):
        with pytest.raises(TypeError, match="max_bound"):
            synthesize(get_model("tso"), max_bound=3)

    def test_missing_options_names_the_replacement(self):
        with pytest.raises(TypeError, match="removed in 1.2"):
            synthesize(get_model("tso"), None)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SynthesisOptions(bound=0)
        with pytest.raises(ValueError):
            SynthesisOptions(bound=3, jobs=0)
        with pytest.raises(ValueError):
            SynthesisOptions(bound=3, shards=0)

    def test_public_surface_exports(self):
        for name in (
            "synthesize",
            "SynthesisOptions",
            "SynthesisResult",
            "ExplicitOracle",
            "get_model",
            "parse_test",
            "format_test",
        ):
            assert name in public_names, name


class TestResultSchema:
    def test_json_dict_schema_v4_envelope(self):
        result = synthesize(
            get_model("tso"),
            SynthesisOptions(bound=3, config=_config(), shards=3),
        )
        envelope = result.to_json_dict()
        json.dumps(envelope)  # must be serializable as-is
        assert envelope["schema"] == {
            "name": "synthesis-result",
            "version": RESULT_SCHEMA_VERSION,
        }
        assert RESULT_SCHEMA_VERSION == 4
        assert envelope["tool"] == "litmus-synth"
        assert envelope["command"] == "synthesize"
        payload = envelope["payload"]
        # v4: no per-axiom seconds, since one pass checks every axiom
        assert set(payload) == {
            "model", "bound", "jobs", "shards", "candidates",
            "unique_candidates", "minimal_tests", "wall_seconds",
            "cpu_seconds", "suite_counts", "oracle",
        }
        assert payload["model"] == "tso"
        assert payload["bound"] == 3
        assert payload["jobs"] == 1
        assert payload["shards"] == 3
        # The v2 split: wall-clock vs summed worker CPU, both present.
        assert payload["wall_seconds"] >= 0
        assert payload["cpu_seconds"] >= 0
        assert set(payload["suite_counts"]) == set(result.per_axiom) | {
            "union"
        }
        counts = result.counts()
        assert counts["wall_seconds"] == payload["wall_seconds"]
        assert counts["cpu_seconds"] == payload["cpu_seconds"]

    def test_elapsed_seconds_alias_was_removed(self):
        # The deprecated alias finished its window in 1.3: read
        # wall_seconds (or cpu_seconds) instead.
        result = synthesize(
            get_model("tso"), SynthesisOptions(bound=3, config=_config())
        )
        with pytest.raises(AttributeError, match="elapsed_seconds"):
            result.elapsed_seconds
        assert result.wall_seconds > 0

    def test_summary_mentions_wall_and_cpu(self):
        result = synthesize(
            get_model("tso"), SynthesisOptions(bound=3, config=_config())
        )
        text = result.summary()
        assert "wall" in text and "cpu" in text
