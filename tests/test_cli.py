"""CLI smoke tests."""

import pytest

from repro.cli import main
from repro.litmus.catalog import CATALOG
from repro.litmus.format import format_test


class TestCLI:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "tso" in out and "scc" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "RI" in capsys.readouterr().out

    def test_show_all(self, capsys):
        assert main(["show"]) == 0
        assert "MP" in capsys.readouterr().out

    def test_show_one(self, capsys):
        assert main(["show", "--name", "IRIW"]) == 0
        assert "thread" in capsys.readouterr().out

    def test_show_unknown(self, capsys):
        assert main(["show", "--name", "nope"]) == 2
        assert "error: unknown test 'nope'" in capsys.readouterr().err

    def test_synthesize(self, capsys, tmp_path):
        out_path = tmp_path / "suite.json"
        code = main(
            [
                "synthesize",
                "--model",
                "tso",
                "--bound",
                "3",
                "--max-addresses",
                "1",
                "--out",
                str(out_path),
                "-v",
            ]
        )
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "union" in out and "Forbidden" in out

    def test_synthesize_single_axiom(self, capsys):
        code = main(
            [
                "synthesize",
                "--model",
                "sc",
                "--bound",
                "2",
                "--axiom",
                "sequential_consistency",
            ]
        )
        assert code == 0

    def test_check_minimal(self, capsys, tmp_path):
        path = tmp_path / "mp.litmus"
        entry = CATALOG["MP"]
        path.write_text(format_test(entry.test, entry.forbidden))
        assert main(["check", "--model", "tso", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FORBIDDEN" in out
        assert "MINIMAL" in out

    def test_check_not_minimal(self, capsys, tmp_path):
        path = tmp_path / "n5.litmus"
        entry = CATALOG["n5"]
        path.write_text(format_test(entry.test, entry.forbidden))
        assert main(["check", "--model", "tso", str(path)]) == 0
        assert "NOT MINIMAL" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(
            [
                "compare",
                "--model",
                "tso",
                "--bound",
                "3",
                "--max-addresses",
                "1",
            ]
        )
        assert code == 0
        assert "REF-ONLY" in capsys.readouterr().out

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["synthesize", "--model", "bogus"])


class TestCLIOracleCombinations:
    """A model/mode/oracle combination the relational oracle cannot serve
    is refused in the parent before any shard runs: one ``error:`` line,
    exit status 2, whatever ``--jobs`` says."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--model", "power"], "no Alloy encoding for 'power'"),
            (["--model", "tso", "--mode", "execution-wa"], "explicit oracle"),
        ],
        ids=["power", "execution-wa"],
    )
    def test_invalid_combination_exits_2(self, capsys, flags, reason, jobs):
        argv = ["synthesize", *flags, "--bound", "2", "--oracle", "relational"]
        code = main([*argv, "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        errors = [
            line
            for line in captured.err.splitlines()
            if line.startswith("error: ")
        ]
        assert len(errors) == 1 and reason in errors[0]
        assert "RemoteJobError" not in captured.out + captured.err


class TestCLIOptionErrors:
    """A bad option value or an unknown axiom name is refused before any
    work starts: one ``error:`` line, exit status 2, no traceback."""

    SERVE = "serve --socket /nonexistent/repro.sock --no-cnf-cache"

    @pytest.mark.parametrize(
        "argv, reason",
        [
            ("synthesize --model tso --bound 0", "bound"),
            ("synthesize --model tso --jobs 0", "jobs"),
            ("submit --model tso --bound 0 --server /nonexistent.sock", "bound"),
            ("compare --model tso --bound 0", "bound"),
            (f"{SERVE} --pool-workers 0", "workers"),
            (
                "synthesize --model tso --bound 2 --axiom nope --jobs 1",
                "unknown axiom 'nope'",
            ),
            (
                "synthesize --model tso --bound 2 --axiom nope --jobs 2",
                "unknown axiom 'nope'",
            ),
        ],
        ids=[
            "synthesize-bound",
            "synthesize-jobs",
            "submit-bound",
            "compare-bound",
            "serve-pool-workers",
            "axiom-jobs1",
            "axiom-jobs2",
        ],
    )
    def test_bad_value_exits_2(self, capsys, argv, reason):
        code = main(argv.split())
        captured = capsys.readouterr()
        output = captured.out + captured.err
        assert code == 2
        errors = [
            line
            for line in captured.err.splitlines()
            if line.startswith("error: ")
        ]
        assert len(errors) == 1 and reason in errors[0]
        assert "Traceback" not in output and "RemoteJobError" not in output


class TestCLIFileErrors:
    """check/show/compare fail cleanly and uniformly: one
    ``error: <path>: <reason>`` line on stderr, exit status 2."""

    def test_check_missing_file(self, capsys):
        assert main(["check", "--model", "tso", "/nonexistent.litmus"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cannot read" in err
        assert "error: /nonexistent.litmus: cannot read:" in err

    def test_check_unparsable_file(self, capsys, tmp_path):
        path = tmp_path / "bad.litmus"
        path.write_text("thread\nnot a real instruction\n")
        assert main(["check", "--model", "tso", str(path)]) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    def test_show_missing_file(self, capsys):
        assert main(["show", "--file", "/nonexistent.litmus"]) == 2
        err = capsys.readouterr().err
        assert "error: /nonexistent.litmus: cannot read:" in err

    def test_compare_missing_suite_shares_the_format(self, capsys):
        code = main(
            ["compare", "--model", "tso", "--suite", "/nonexistent.json"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: /nonexistent.json: cannot read:" in err

    def test_report_missing_dir_shares_the_format(self, capsys):
        assert main(["report", "/nonexistent-trace"]) == 2
        err = capsys.readouterr().err
        assert "error: /nonexistent-trace: cannot read trace dir" in err

    def test_show_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "mp.litmus"
        entry = CATALOG["MP"]
        path.write_text(format_test(entry.test, entry.forbidden))
        assert main(["show", "--file", str(path)]) == 0
        assert "thread" in capsys.readouterr().out


class TestCLILint:
    def test_registry_lint_clean_exit_0(self, capsys):
        assert main(["lint"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_json_schema_stable(self, capsys):
        import json

        from repro.analysis import JSON_SCHEMA_VERSION

        assert main(["lint", "--all-models", "--catalog", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert set(payload) == {
            "version",
            "exit_code",
            "summary",
            "diagnostics",
            "suppressed",
        }
        assert set(payload["summary"]) == {
            "errors",
            "warnings",
            "infos",
            "suppressed",
        }
        assert all(
            set(d) == {"id", "severity", "subject", "message", "hint"}
            for d in payload["suppressed"]
        )

    def test_lint_warning_exit_1(self, capsys, tmp_path):
        # A read from a never-written location is a warning finding.
        path = tmp_path / "warn.litmus"
        path.write_text("thread P0:\nW x 1\nR y\nthread P1:\nR x\n")
        assert main(["lint", str(path)]) == 1
        assert "LIT001" in capsys.readouterr().out

    def test_lint_error_exit_2(self, capsys):
        assert main(["lint", "/nonexistent.litmus"]) == 2
        assert "LIT006" in capsys.readouterr().out

    def test_lint_suppress_flag(self, capsys, tmp_path):
        path = tmp_path / "warn.litmus"
        path.write_text("thread P0:\nW x 1\nR y\nthread P1:\nR x\n")
        assert main(["lint", str(path), "--suppress", "LIT001"]) == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_lint_file_directive(self, capsys, tmp_path):
        path = tmp_path / "warn.litmus"
        path.write_text(
            "# lint: disable=LIT001\nthread P0:\nW x 1\nR y\nthread P1:\nR x\n"
        )
        assert main(["lint", str(path)]) == 0
        assert "suppressed" in capsys.readouterr().out

    def test_lint_dead_sync_against_model(self, capsys, tmp_path):
        path = tmp_path / "dead.litmus"
        path.write_text(
            "thread P0:\nW x 1\nF.sync\nW y 1\nthread P1:\nR y\nR x\n"
        )
        assert main(["lint", str(path), "--model", "tso"]) == 1
        assert "LIT003" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["synthesize", "submit"])
    def test_early_reject_flag_is_gone(self, capsys, command):
        # the lint-based candidate filter was removed in 1.6: argparse
        # refuses the flag, and --help no longer lists it
        argv = [command, "--model", "tso", "--server", "/nonexistent.sock"]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--early-reject"])
        assert info.value.code == 2
        assert "unrecognized arguments: --early-reject" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--early-reject" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", ["--workers", "--recycle-after", "--max-queued-per-client"]
    )
    def test_removed_serve_flags_are_gone(self, capsys, flag):
        # 1.9 removed worker recycling, per-client quotas and the
        # pre-1.2 spelling of --pool-workers
        argv = ["serve", "--socket", "/nonexistent/repro.sock", "--no-cnf-cache"]
        with pytest.raises(SystemExit) as info:
            main([*argv, flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert flag not in capsys.readouterr().out


class TestCLIDifftest:
    def test_clean_campaign_exit_0(self, capsys):
        code = main(
            [
                "difftest",
                "--model",
                "sc",
                "--seed",
                "17",
                "--budget",
                "25",
                "--mutants",
                "drop:sequential_consistency",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "KILLED" in out and "verdict: CLEAN" in out

    def test_json_report_deterministic_across_jobs(self, capsys):
        argv = [
            "difftest",
            "--model",
            "tso",
            "--seed",
            "8",
            "--budget",
            "25",
            "--mutants",
            "drop:sc_per_loc",
            "--json",
        ]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main([*argv, "--jobs", "4"]) == 0
        assert capsys.readouterr().out == sequential
        import json

        envelope = json.loads(sequential)
        assert envelope["schema"] == {"name": "difftest-campaign", "version": 2}
        doc = envelope["payload"]
        assert doc["clean"] is True
        assert doc["mutant_kills"]["drop:sc_per_loc"]["events"] <= (
            doc["mutant_kills"]["drop:sc_per_loc"]["original_events"]
        )

    def test_list_mutants(self, capsys):
        assert main(["difftest", "--model", "tso", "--list-mutants"]) == 0
        out = capsys.readouterr().out
        assert "drop:sc_per_loc" in out and "empty:fr" in out

    def test_unknown_mutant_exit_2(self, capsys):
        code = main(
            ["difftest", "--model", "tso", "--mutants", "bogus:tag"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "DIF002" in err and "bogus:tag" in err

    def test_surviving_mutant_exit_1(self, capsys):
        """With budget 0 no test can kill the mutant: verdict FAILED."""
        code = main(
            [
                "difftest",
                "--model",
                "sc",
                "--budget",
                "0",
                "--mutants",
                "drop:sequential_consistency",
            ]
        )
        assert code == 1
        assert "SURVIVED" in capsys.readouterr().out

    def test_corpus_roundtrip_and_lint(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        argv = [
            "difftest",
            "--model",
            "sc",
            "--seed",
            "17",
            "--budget",
            "25",
            "--mutants",
            "drop:sequential_consistency",
            "--corpus-dir",
            corpus_dir,
        ]
        assert main(argv) == 0
        assert "corpus" not in capsys.readouterr().err
        assert main(argv) == 0
        assert "replay: 1 confirmed, 0 stale" in capsys.readouterr().out
        assert main(["lint", "--corpus-dir", corpus_dir]) == 0


class TestCLIReport:
    def _trace(self, tmp_path, *extra):
        trace_dir = str(tmp_path / "trace")
        argv = [
            "synthesize",
            "--model",
            "tso",
            "--bound",
            "3",
            "--max-addresses",
            "2",
            "--trace-dir",
            trace_dir,
            *extra,
        ]
        assert main(argv) == 0
        return trace_dir

    def test_report_renders_phases_and_counters(self, capsys, tmp_path):
        trace_dir = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["report", trace_dir]) == 0
        out = capsys.readouterr().out
        for phase in ("plan", "shards", "merge"):
            assert phase in out
        assert "candidates" in out
        assert "merged:" in out

    def test_report_json_is_an_envelope(self, capsys, tmp_path):
        import json

        trace_dir = self._trace(tmp_path, "--jobs", "2")
        capsys.readouterr()
        assert main(["report", trace_dir, "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == {"name": "trace-report", "version": 1}
        assert envelope["tool"] == "litmus-synth"
        assert envelope["command"] == "report"
        payload = envelope["payload"]
        assert [p["name"] for p in payload["phases"]] == [
            "plan",
            "replay",
            "shards",
            "merge",
        ]
        assert payload["meta"]["model"] == "tso"
        assert len(payload["shards"]) >= 1

    def test_lint_trace_dir_clean_on_real_trace(self, capsys, tmp_path):
        trace_dir = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["lint", "--catalog", "--trace-dir", trace_dir]) == 0

    def test_lint_trace_dir_flags_unclosed_span(self, capsys, tmp_path):
        from repro.obs import format_event, header_event

        trace_dir = tmp_path / "trace"
        trace_dir.mkdir()
        (trace_dir / "shard-0000.jsonl").write_text(
            format_event(header_event())
            + format_event(
                {"ev": "begin", "id": 1, "name": "shard", "parent": None}
            )
        )
        assert main(["lint", "--catalog", "--trace-dir", str(trace_dir)]) == 1
        assert "OBS001" in capsys.readouterr().out

    def test_difftest_trace_dir(self, capsys, tmp_path):
        trace_dir = str(tmp_path / "dtrace")
        argv = [
            "difftest",
            "--model",
            "sc",
            "--seed",
            "3",
            "--budget",
            "20",
            "--trace-dir",
            trace_dir,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["report", trace_dir]) == 0
        out = capsys.readouterr().out
        assert "replay" in out and "fuzz" in out


class TestCLICompareExtended:
    def test_compare_json(self, capsys):
        import json

        code = main(
            [
                "compare",
                "--model",
                "tso",
                "--bound",
                "3",
                "--max-addresses",
                "1",
                "--json",
            ]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == {"name": "suite-comparison", "version": 2}
        assert envelope["tool"] == "litmus-synth"
        assert envelope["command"] == "compare"
        doc = envelope["payload"]
        assert doc["model"] == "tso"
        assert set(doc) == {
            "model",
            "both",
            "reference_only",
            "synthesized_only",
            "fully_subsumed",
        }

    def test_compare_saved_suite(self, capsys, tmp_path):
        suite_path = tmp_path / "suite.json"
        assert (
            main(
                [
                    "synthesize",
                    "--model",
                    "tso",
                    "--bound",
                    "3",
                    "--max-addresses",
                    "1",
                    "--out",
                    str(suite_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            ["compare", "--model", "tso", "--suite", str(suite_path)]
        )
        assert code == 0
        assert "REF-ONLY" in capsys.readouterr().out

    def test_compare_suite_as_reference(self, capsys, tmp_path):
        suite_path = tmp_path / "suite.json"
        main(
            [
                "synthesize",
                "--model",
                "tso",
                "--bound",
                "3",
                "--max-addresses",
                "1",
                "--out",
                str(suite_path),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "compare",
                "--model",
                "tso",
                "--suite",
                str(suite_path),
                "--reference",
                str(suite_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "REF-ONLY" not in out  # a suite always subsumes itself

    @pytest.mark.parametrize("model", ["sc_vmem", "tso_vmem"])
    def test_compare_vmem_model_subsumes_its_own_suite(
        self, capsys, tmp_path, model
    ):
        # compare must synthesize the alias axis synthesize enumerates
        import json

        suite_path = tmp_path / "suite.json"
        synth = ["synthesize", "--model", model, "--bound", "2"]
        assert main([*synth, "--out", str(suite_path)]) == 0
        capsys.readouterr()
        code = main(
            [
                "compare",
                "--model",
                model,
                "--bound",
                "2",
                "--reference",
                str(suite_path),
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)["payload"]
        assert doc["reference_only"] == {}
        assert doc["fully_subsumed"] is True

    def test_compare_missing_suite_file(self, capsys):
        code = main(
            ["compare", "--model", "tso", "--suite", "/nonexistent.json"]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_compare_bad_reference_file(self, capsys, tmp_path):
        path = tmp_path / "notasuite.json"
        path.write_text("{\"hello\": 1}")
        code = main(
            ["compare", "--model", "tso", "--reference", str(path)]
        )
        assert code == 2
        assert "not a suite JSON" in capsys.readouterr().err
