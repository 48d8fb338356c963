"""Public API surface tests."""

import dataclasses
import importlib
import os
import re

import pytest

import repro
import repro.analysis
import repro.service.protocol


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_pyproject_takes_its_version_from_the_package(self):
        # a regex, not tomllib: Python 3.10 has no TOML parser
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            text = fh.read()
        project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S)
        assert project is not None
        static = re.search(r'^version\s*=\s*"([^"]*)"', project.group(1), re.M)
        if static is not None:
            assert static.group(1) == repro.__version__
        else:
            assert re.search(
                r'^dynamic\s*=\s*\[[^\]]*"version"', project.group(1), re.M
            )
            assert re.search(
                r'^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}',
                text,
                re.M,
            )

    def test_quickstart_flow(self):
        """The README quickstart must work verbatim."""
        result = repro.synthesize(
            repro.SynthesisRequest.build(
                "tso",
                bound=3,
                config=repro.EnumerationConfig(max_events=3, max_addresses=1),
            )
        )
        assert len(result.union) > 0
        for entry in result.union:
            assert entry.pretty()

    def test_loose_kwargs_form_was_removed(self):
        # The pre-1.1 loose-keyword shim is gone since 1.2: only the
        # options-object and SynthesisRequest forms are accepted.
        tso = repro.get_model("tso")
        with pytest.raises(TypeError):
            repro.synthesize(
                tso,
                bound=3,
                config=repro.EnumerationConfig(max_events=3, max_addresses=1),
            )

    def test_loose_oracle_fields_were_removed(self):
        # The loose oracle shims finished their window in 1.3: the
        # constructor keywords and the read aliases are both gone.  1.5
        # removed the cold-solver and prefilter knobs from OracleSpec,
        # SynthesisOptions.progress and CampaignOptions.oracle_spec; 1.6
        # removed the lint-based candidate filter with its public names;
        # 1.8 removed the interval abstract interpreter and the
        # repro.analysis.flow package (the lints read the translator);
        # 1.9 removed the daemon's per-client queue quota and, with it,
        # the wire error code ServiceError carried.
        synthesis = (repro.SynthesisOptions, {"bound": 3})
        spec = (repro.OracleSpec, {})
        campaign = (repro.CampaignOptions, {"model": "tso"})
        for (cls, base), name, value in (
            (synthesis, "oracle", "relational"),
            (synthesis, "incremental", False),
            (synthesis, "cnf_cache_dir", "cnf"),
            (synthesis, "prefilter", True),
            (synthesis, "progress", print),
            (synthesis, "reject", "early-reject"),
            (spec, "incremental", False),
            (spec, "prefilter", True),
            (campaign, "prefilter", True),
            (campaign, "oracle_spec", repro.OracleSpec()),
        ):
            with pytest.raises(TypeError, match=name):
                cls(**base, **{name: value})
            assert not hasattr(cls(**base), name)
        for module, name in (
            (repro, "EARLY_REJECT"),
            (repro.analysis, "early_reject"),
            (repro.analysis, "application_counts"),
            (repro.analysis, "flow"),
            (repro, "QuotaExceededError"),
            (repro.service, "QuotaExceededError"),
            (repro.service.protocol, "QuotaExceededError"),
            (repro.ServiceError("gone"), "code"),
        ):
            assert not hasattr(module, name), name
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.analysis.flow")
        fields = [f.name for f in dataclasses.fields(repro.OracleSpec)]
        assert fields == ["oracle", "cnf_cache_dir"]
        options = repro.SynthesisOptions(
            bound=3, oracle_spec=repro.OracleSpec(oracle="relational")
        )
        assert options.oracle_spec.oracle == "relational"

    def test_build_and_check_a_test(self):
        test = repro.LitmusTest(
            (
                (repro.write(0, 1), repro.write(1, 1)),
                (repro.read(1), repro.read(0)),
            )
        )
        checker = repro.MinimalityChecker(repro.get_model("tso"))
        assert checker.check(test).is_minimal

    def test_available_models(self):
        assert set(repro.available_models()) >= {
            "sc",
            "tso",
            "power",
            "armv7",
            "scc",
            "c11",
        }

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_relaxations_exported(self):
        # the paper's six plus the transistency pair (DV, UA)
        assert len(repro.ALL_RELAXATIONS) == 8
        table = repro.applicability_table()
        assert "tso" in table

    def test_registry_rejects_unknown(self):
        import pytest

        with pytest.raises(KeyError):
            repro.get_model("m88k")

    def test_register_custom_model(self):
        from repro.models import register_model
        from repro.models.registry import MODEL_CLASSES

        class Custom(repro.get_model("sc").__class__):
            name = "custom-sc"

        try:
            register_model(Custom)
            assert repro.get_model("custom-sc").name == "custom-sc"
        finally:
            MODEL_CLASSES.pop("custom-sc", None)
