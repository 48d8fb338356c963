"""Campaign driver: determinism, mutant kills, corpus replay."""

import json

import pytest

from repro.difftest.campaign import CampaignOptions, run_campaign
from repro.difftest.corpus import Corpus
from repro.difftest.discrepancy import Discrepancy
from repro.litmus.catalog import CATALOG


def _options(**overrides) -> CampaignOptions:
    base = dict(
        model="sc",
        seed=17,
        budget=40,
        mutants=("drop:sequential_consistency",),
    )
    base.update(overrides)
    return CampaignOptions(**base)


@pytest.fixture(scope="module")
def sc_report():
    return run_campaign(_options())


class TestFixedSeedCampaign:
    def test_stock_model_is_clean(self, sc_report):
        assert sc_report.stock == []
        assert sc_report.unshrunk == 0
        assert sc_report.tests_run == 40

    def test_mutant_killed_with_shrunken_reproducer(self, sc_report):
        assert sc_report.surviving == ()
        disc, original = sc_report.kills["drop:sequential_consistency"]
        assert disc.kind == "mutant"
        assert disc.test.num_events <= original
        assert sc_report.clean

    def test_report_json_schema(self, sc_report):
        envelope = json.loads(sc_report.to_json())
        assert envelope["schema"] == {"name": "difftest-campaign", "version": 2}
        assert envelope["tool"] == "litmus-synth"
        assert envelope["command"] == "difftest"
        doc = envelope["payload"]
        assert doc["model"] == "sc"
        assert doc["clean"] is True
        assert doc["surviving_mutants"] == []
        kill = doc["mutant_kills"]["drop:sequential_consistency"]
        assert kill["events"] <= kill["original_events"]
        # nothing wall-clock or worker-count derived in the report
        assert "jobs" not in doc and "wall_seconds" not in doc

    def test_summary_mentions_the_kill(self, sc_report):
        text = sc_report.summary()
        assert "KILLED" in text and "drop:sequential_consistency" in text
        assert text.endswith("verdict: CLEAN")


class TestDeterminism:
    def test_jobs_do_not_change_the_report(self, sc_report):
        parallel = run_campaign(_options(jobs=2))
        assert parallel.to_json() == sc_report.to_json()

    def test_shard_count_does_not_change_the_report(self, sc_report):
        pinned = run_campaign(_options(shards=3))
        assert pinned.to_json() == sc_report.to_json()

    def test_seed_changes_the_tests(self, sc_report):
        other = run_campaign(_options(seed=18))
        assert other.to_json() != sc_report.to_json()


class TestInjectedMutantCampaigns:
    """Fixed-seed campaigns with known-buggy mutants on three models."""

    @pytest.mark.parametrize(
        "model, mutants, skips",
        [
            ("tso", ("drop:sc_per_loc", "empty:fr"), 23),
            ("sc", ("drop:sequential_consistency",), 0),
            ("power", ("empty:fr",), 24),
        ],
    )
    def test_campaign_is_clean_and_deterministic(self, model, mutants, skips):
        def run(jobs: int):
            return run_campaign(
                CampaignOptions(
                    model=model, seed=2017, budget=100, mutants=mutants,
                    jobs=jobs,
                )
            )

        report = run(1)
        doc = report.to_json_dict()["payload"]
        # the stock oracles agree, and every injected mutant dies
        assert doc["discrepancies"] == [] and doc["unshrunk_discrepancies"] == 0
        assert doc["surviving_mutants"] == []
        assert sorted(doc["mutant_kills"]) == sorted(mutants)
        assert doc["clean"] is True
        # the static fr-emptiness check skips the vacuous empty:fr runs
        assert doc["mutant_skips"] == skips
        for kill in doc["mutant_kills"].values():
            assert kill["events"] <= kill["original_events"]
        assert run(2).to_json() == report.to_json()


class TestCorpusReplay:
    def test_kills_persist_and_replay_confirms(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        first = run_campaign(_options(corpus_dir=corpus_dir))
        assert first.corpus_added >= 1
        again = run_campaign(_options(corpus_dir=corpus_dir))
        assert again.replay_confirmed == first.corpus_added
        assert again.replay_stale == []
        assert again.corpus_added == 0  # dedup: nothing new to write

    def test_stale_entry_fails_the_campaign(self, tmp_path):
        """An entry that records a disagreement the oracles no longer
        have (here: a fabricated outcome-set discrepancy on a test the
        oracles agree on) must surface as stale and flip the verdict."""
        corpus_dir = str(tmp_path / "corpus")
        ghost = Discrepancy(
            "outcome-set", "sc", CATALOG["MP"].test, "fabricated"
        )
        Corpus(corpus_dir).append("sc", [ghost])
        report = run_campaign(_options(corpus_dir=corpus_dir, budget=0))
        assert report.replay_stale == [ghost]
        assert not report.clean
        assert "STALE" in report.summary()

    def test_unknown_mutant_entry_is_stale_not_fatal(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        ghost = Discrepancy(
            "mutant", "sc", CATALOG["MP"].test, "gone",
            mutant="drop:removed_axiom",
        )
        Corpus(corpus_dir).append("sc", [ghost])
        report = run_campaign(_options(corpus_dir=corpus_dir, budget=0))
        assert report.replay_stale == [ghost]


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignOptions(model="sc", budget=-1)
        with pytest.raises(ValueError):
            CampaignOptions(model="sc", jobs=0)

    def test_zero_budget_runs_nothing(self):
        report = run_campaign(_options(budget=0, mutants=()))
        assert report.tests_run == 0
        assert report.clean
