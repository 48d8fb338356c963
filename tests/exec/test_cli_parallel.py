"""CLI surface for the parallel runtime: --jobs, --checkpoint-dir, --json."""

import json

from repro.cli import main


def _run(capsys, *extra):
    args = [
        "synthesize",
        "--model",
        "tso",
        "--bound",
        "3",
        "--max-addresses",
        "2",
        *extra,
    ]
    code = main(args)
    return code, capsys.readouterr().out


class TestCliParallel:
    def test_jobs_2_matches_jobs_1_json(self, capsys):
        code, seq_out = _run(capsys, "--json")
        assert code == 0
        code, par_out = _run(capsys, "--jobs", "2", "--json")
        assert code == 0
        seq_env, par_env = json.loads(seq_out), json.loads(par_out)
        for env in (seq_env, par_env):
            assert env["schema"] == {"name": "synthesis-result", "version": 4}
            assert env["tool"] == "litmus-synth"
            assert env["command"] == "synthesize"
        seq, par = seq_env["payload"], par_env["payload"]
        assert seq["suite_counts"] == par["suite_counts"]
        assert seq["candidates"] == par["candidates"]
        assert seq["unique_candidates"] == par["unique_candidates"]
        assert par["jobs"] == 2
        # timing fields vary run to run; everything else must not
        for key in ("model", "bound", "minimal_tests"):
            assert seq[key] == par[key]

    def test_json_output_is_pure(self, capsys):
        code, out = _run(capsys, "--json", "-v")
        assert code == 0
        json.loads(out)  # no text summary mixed in, even with -v

    def test_checkpoint_dir_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ck")
        code, first = _run(capsys, "--checkpoint-dir", ckpt, "--json")
        assert code == 0
        code, second = _run(capsys, "--checkpoint-dir", ckpt, "--json")
        assert code == 0
        assert (
            json.loads(first)["payload"]["suite_counts"]
            == json.loads(second)["payload"]["suite_counts"]
        )

    def test_checkpoint_mismatch_is_cli_error(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ck")
        code, _ = _run(capsys, "--checkpoint-dir", ckpt)
        assert code == 0
        code = main(
            [
                "synthesize",
                "--model",
                "tso",
                "--bound",
                "4",
                "--max-addresses",
                "2",
                "--checkpoint-dir",
                ckpt,
            ]
        )
        assert code == 2
        err = capsys.readouterr()
        assert "checkpoint" in (err.out + err.err).lower()
