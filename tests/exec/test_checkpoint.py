"""Checkpoint store: resume, mismatch detection, torn-write tolerance."""

import json
import os
import signal

import pytest

from repro.core.enumerator import EnumerationConfig
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.exec import CheckpointError, CheckpointStore
from repro.models.registry import get_model


def _options(checkpoint_dir=None, **overrides) -> SynthesisOptions:
    base = dict(
        bound=3,
        config=EnumerationConfig(max_events=3, max_addresses=2),
        shards=6,
        checkpoint_dir=checkpoint_dir,
    )
    base.update(overrides)
    return SynthesisOptions(**base)


def _shard_lines(directory):
    with open(os.path.join(directory, "shards.jsonl")) as fh:
        return fh.readlines()


class TestCheckpoint:
    def test_run_writes_one_line_per_shard(self, tmp_path):
        ckpt = str(tmp_path / "ck")
        synthesize(get_model("tso"), _options(checkpoint_dir=ckpt))
        assert os.path.exists(os.path.join(ckpt, "meta.json"))
        lines = _shard_lines(ckpt)
        assert len(lines) == 6
        assert sorted(json.loads(line)["shard"] for line in lines) == list(
            range(6)
        )

    def test_resume_after_partial_run_is_identical(self, tmp_path):
        tso = get_model("tso")
        baseline = synthesize(tso, _options())
        ckpt = str(tmp_path / "ck")
        synthesize(tso, _options(checkpoint_dir=ckpt))

        # Simulate a kill after two shards: drop the rest of the log.
        shards_path = os.path.join(ckpt, "shards.jsonl")
        lines = _shard_lines(ckpt)
        with open(shards_path, "w") as fh:
            fh.writelines(lines[:2])

        resumed = synthesize(tso, _options(checkpoint_dir=ckpt))
        assert resumed.union.to_json() == baseline.union.to_json()
        assert resumed.candidates == baseline.candidates
        assert resumed.unique_candidates == baseline.unique_candidates
        assert len(_shard_lines(ckpt)) == 6

    def test_torn_final_line_is_dropped_and_rerun(self, tmp_path):
        tso = get_model("tso")
        baseline = synthesize(tso, _options())
        ckpt = str(tmp_path / "ck")
        synthesize(tso, _options(checkpoint_dir=ckpt))

        shards_path = os.path.join(ckpt, "shards.jsonl")
        lines = _shard_lines(ckpt)
        with open(shards_path, "w") as fh:
            fh.writelines(lines[:3])
            fh.write(lines[4][: len(lines[4]) // 2])  # mid-write kill

        resumed = synthesize(tso, _options(checkpoint_dir=ckpt))
        assert resumed.union.to_json() == baseline.union.to_json()

    def test_option_mismatch_is_a_hard_error(self, tmp_path):
        tso = get_model("tso")
        ckpt = str(tmp_path / "ck")
        synthesize(tso, _options(checkpoint_dir=ckpt))
        with pytest.raises(CheckpointError, match="bound"):
            synthesize(
                tso,
                _options(
                    checkpoint_dir=ckpt,
                    bound=4,
                    config=EnumerationConfig(max_events=4, max_addresses=2),
                ),
            )

    def test_jobs_change_is_not_a_mismatch(self, tmp_path):
        # Resume may use a different worker count: jobs is scheduling,
        # not partitioning, so the fingerprint must not include it.
        tso = get_model("tso")
        ckpt = str(tmp_path / "ck")
        first = synthesize(tso, _options(checkpoint_dir=ckpt))
        second = synthesize(tso, _options(checkpoint_dir=ckpt, jobs=2))
        assert first.union.to_json() == second.union.to_json()

    def test_resume_with_default_shards_adopts_partition(self, tmp_path):
        # The CLI never pins shards, so the default count is derived
        # from jobs; a jobs=2 checkpoint resumed with jobs=1 must adopt
        # the stored partition instead of re-deriving (and mismatching).
        tso = get_model("tso")
        ckpt = str(tmp_path / "ck")
        first = synthesize(
            tso, _options(checkpoint_dir=ckpt, shards=None, jobs=2)
        )
        resumed = synthesize(
            tso, _options(checkpoint_dir=ckpt, shards=None, jobs=1)
        )
        assert resumed.shard_count == first.shard_count == 8
        assert first.union.to_json() == resumed.union.to_json()

    def test_killed_child_fails_fast_and_resume_skips_done_shards(
        self, tmp_path, monkeypatch
    ):
        import multiprocessing

        from repro.exec import WorkerDied, runtime

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("children must inherit the patched shard function")
        tso = get_model("tso")
        baseline = synthesize(tso, _options())
        ckpt = str(tmp_path / "ck")
        real_shard = runtime.synthesize_shard

        def dying_shard(model, opts, checker, shard, pools):
            if shard[0] == 5:  # dispatched once four shards have finished
                os.kill(os.getpid(), signal.SIGKILL)
            return real_shard(model, opts, checker, shard=shard, pools=pools)

        monkeypatch.setattr(runtime, "synthesize_shard", dying_shard)
        with pytest.raises(WorkerDied):
            synthesize(tso, _options(checkpoint_dir=ckpt, jobs=2))
        saved = {json.loads(line)["shard"] for line in _shard_lines(ckpt)}
        assert len(saved) >= 4 and 5 not in saved

        ran: list[int] = []

        def counting_shard(model, opts, checker, shard, pools):
            ran.append(shard[0])
            return real_shard(model, opts, checker, shard=shard, pools=pools)

        monkeypatch.setattr(runtime, "synthesize_shard", counting_shard)
        resumed = synthesize(tso, _options(checkpoint_dir=ckpt))
        assert sorted(ran) == sorted(set(range(6)) - saved)
        assert resumed.union.to_json() == baseline.union.to_json()
        assert resumed.candidates == baseline.candidates

    def test_meta_keeps_the_removed_filter_key(self, tmp_path):
        # Checkpoints written before 1.6 record the candidate filter as
        # "reject": null (resumable as-is) or "early-reject" (refused,
        # naming the field: the filter no longer exists).
        tso = get_model("tso")
        ckpt = str(tmp_path / "ck")
        synthesize(tso, _options(checkpoint_dir=ckpt))
        meta_path = os.path.join(ckpt, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        assert "reject" in meta and meta["reject"] is None
        meta["reject"] = "early-reject"
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(CheckpointError, match="mismatched: reject"):
            synthesize(tso, _options(checkpoint_dir=ckpt))

    def test_store_rejects_foreign_meta(self, tmp_path):
        directory = str(tmp_path / "ck")
        CheckpointStore(directory, {"meta_version": 1, "model": "tso"})
        with pytest.raises(CheckpointError):
            CheckpointStore(directory, {"meta_version": 1, "model": "sc"})
