"""--trace-dir end-to-end: deterministic merged streams across --jobs,
and span wall times that account for the run's wall clock."""

import json
import os

import pytest

from repro.core.enumerator import EnumerationConfig
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.models.registry import get_model
from repro.obs import read_events, summarize_trace_dir


def _options(trace_dir, jobs):
    return SynthesisOptions(
        bound=3,
        config=EnumerationConfig(
            max_events=3, max_addresses=2, max_deps=0, max_rmws=0
        ),
        jobs=jobs,
        trace_dir=trace_dir,
    )


class TestMergedTraceDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_merged_stream_is_byte_identical_across_jobs(
        self, tmp_path, jobs
    ):
        model = get_model("tso")
        seq_dir = str(tmp_path / "seq")
        par_dir = str(tmp_path / f"par{jobs}")
        seq = synthesize(model, _options(seq_dir, jobs=1))
        par = synthesize(model, _options(par_dir, jobs=jobs))
        assert seq.union.to_json() == par.union.to_json()
        seq_bytes = open(os.path.join(seq_dir, "merged.jsonl"), "rb").read()
        par_bytes = open(os.path.join(par_dir, "merged.jsonl"), "rb").read()
        assert seq_bytes == par_bytes
        assert open(os.path.join(seq_dir, "meta.json"), "rb").read() == open(
            os.path.join(par_dir, "meta.json"), "rb"
        ).read()

    def test_jobs1_trace_is_one_in_process_shard(self, tmp_path):
        # Tracing never reroutes a run: jobs=1 stays a single unsharded
        # in-process shard, traced like any other shard.
        trace_dir = tmp_path / "t"
        result = synthesize(get_model("tso"), _options(str(trace_dir), jobs=1))
        assert result.shard_count == 0
        assert sorted(p.name for p in trace_dir.glob("shard-*.jsonl")) == [
            "shard-0000.jsonl"
        ]
        payload = summarize_trace_dir(str(trace_dir))
        phase_names = [p["name"] for p in payload["phases"]]
        assert phase_names == ["plan", "replay", "shards", "merge"]
        assert payload["counters"]["candidates"] == result.candidates

    def test_merged_stream_structure(self, tmp_path):
        trace_dir = str(tmp_path / "t")
        result = synthesize(get_model("tso"), _options(trace_dir, jobs=1))
        events = list(
            read_events(os.path.join(trace_dir, "merged.jsonl"))
        )
        assert events[0]["ev"] == "header"
        assert events[1]["ev"] == "meta"
        tests = [e for e in events if e["ev"] == "test"]
        assert len(tests) == len(result.union)
        # test events are sorted by their deterministic merge key
        keys = [(e["item"], e["pos"]) for e in tests]
        assert keys == sorted(keys)
        assert all(e["digest"] for e in tests)
        summary = events[-1]
        assert summary["ev"] == "summary"
        assert summary["minimal"] == len(tests)
        # nothing wall-clock or worker-count dependent in the stream
        assert all("wall" not in e and "jobs" not in e for e in events)


class TestTraceAccountsForWall:
    def test_phase_walls_cover_run_wall(self, tmp_path):
        trace_dir = str(tmp_path / "t")
        result = synthesize(get_model("tso"), _options(trace_dir, jobs=2))
        payload = summarize_trace_dir(trace_dir)
        phase_names = [p["name"] for p in payload["phases"]]
        assert phase_names == ["plan", "replay", "shards", "merge"]
        total = payload["total_wall"]
        # summed driver span wall tracks the result's wall clock
        assert abs(total - result.wall_seconds) <= max(
            0.1 * result.wall_seconds, 0.05
        )

    def test_shard_counters_reach_the_trace(self, tmp_path):
        trace_dir = str(tmp_path / "t")
        result = synthesize(get_model("tso"), _options(trace_dir, jobs=2))
        payload = summarize_trace_dir(trace_dir)
        counters = payload["counters"]
        assert counters["candidates"] == result.candidates
        assert counters["unique_candidates"] == result.unique_candidates
        assert counters["minimal_records"] == len(result.union)

    def test_meta_is_deterministic_description(self, tmp_path):
        trace_dir = str(tmp_path / "t")
        synthesize(get_model("tso"), _options(trace_dir, jobs=4))
        meta = json.load(open(os.path.join(trace_dir, "meta.json")))
        assert meta["command"] == "synthesize"
        assert meta["model"] == "tso"
        assert meta["bound"] == 3
        assert "jobs" not in meta
