"""The sharded runtime must be invisible in the output.

``jobs=N`` (and any shard count) is purely a scheduling decision: the
resulting suites, counters, and JSON serializations must be *identical*
to the sequential run.  These tests pin that contract through real
child processes, not just the in-process shard loop.
"""

from types import SimpleNamespace

import pytest

from repro.core.canonical import canonical_form
from repro.core.enumerator import EnumerationConfig, enumerate_tests
from repro.core.synthesis import (
    SynthesisOptions,
    build_checker,
    fingerprint,
    run_sequential,
    synthesize_shard,
    synthesize,
)
from repro.exec import plan_shards
from repro.litmus.test import LitmusTest
from repro.litmus.events import read, write
from repro.models.registry import get_model


def _options(**overrides) -> SynthesisOptions:
    base = dict(
        bound=3,
        config=EnumerationConfig(max_events=3, max_addresses=2),
    )
    base.update(overrides)
    return SynthesisOptions(**base)


@pytest.fixture(scope="module")
def sequential():
    return synthesize(get_model("tso"), _options())


def assert_same_result(a, b):
    assert a.union.to_json() == b.union.to_json()
    assert set(a.per_axiom) == set(b.per_axiom)
    for axiom in a.per_axiom:
        assert a.per_axiom[axiom].to_json() == b.per_axiom[axiom].to_json()
    assert a.candidates == b.candidates
    assert a.unique_candidates == b.unique_candidates
    assert a.minimal_tests == b.minimal_tests


class TestShardedRuntime:
    def test_inprocess_sharding_matches_sequential(self, sequential):
        # jobs=1 + explicit shard count exercises the shard/merge path
        # without any subprocess in the way.
        result = synthesize(get_model("tso"), _options(shards=7))
        assert_same_result(sequential, result)

    def test_multiprocess_matches_sequential(self, sequential):
        result = synthesize(get_model("tso"), _options(jobs=2))
        assert_same_result(sequential, result)

    def test_unit_pools_are_built_once_per_run(self, monkeypatch, sequential):
        from repro.core import enumerator

        built: list[int] = []
        real = enumerator.thread_units

        def counting(size, vocab, config):
            built.append(size)
            return real(size, vocab, config)

        monkeypatch.setattr(enumerator, "thread_units", counting)
        for _ in range(2):  # a second run builds its own pools again
            built.clear()
            result = synthesize(get_model("tso"), _options(shards=4))
            assert_same_result(sequential, result)
            assert sorted(built) == [1, 2, 3]

    def test_shard_count_does_not_leak_into_output(self, sequential):
        for shards in (2, 5):
            result = synthesize(
                get_model("tso"), _options(jobs=2, shards=shards)
            )
            assert_same_result(sequential, result)

    def test_progress_reports_cumulative_candidates(self, sequential):
        events = []
        result = synthesize(
            get_model("tso"), _options(shards=4, progress_events=events.append)
        )
        assert [e["phase"] for e in events] == ["shard"] * 4
        seen = [e["total_candidates"] for e in events]
        assert seen == sorted(seen)
        assert seen[-1] == result.candidates == sequential.candidates

    def test_explicit_candidates_incompatible_with_jobs(self):
        tests = [entry.test for entry in synthesize(
            get_model("tso"), _options()
        ).union]
        with pytest.raises(ValueError, match="candidates"):
            synthesize(
                get_model("tso"), _options(jobs=2, candidates=tests)
            )

    def test_unknown_axiom_rejected_up_front(self):
        # refused in the parent, before any child starts: a ValueError
        # naming the axiom, not a RemoteJobError wrapping a KeyError
        options = SynthesisOptions(bound=2, axioms=["nope"], jobs=2)
        with pytest.raises(ValueError, match="unknown axiom 'nope'"):
            synthesize(get_model("tso"), options)

    def test_plan_shards_defaults(self):
        assert plan_shards(1) >= 1
        assert plan_shards(4) >= 4
        assert plan_shards(2, shards=9) == 9
        with pytest.raises(ValueError):
            plan_shards(2, shards=0)


class TestFingerprint:
    def test_alias_map_is_part_of_the_digest(self):
        threads = ((write(0, 1), read(1)), (write(1, 1), read(0)))
        plain = LitmusTest(threads)
        aliased = LitmusTest(threads, addr_map=((1, 0),))
        assert plain != aliased
        assert fingerprint(plain) != fingerprint(aliased)

    def test_vmem_digests_count_every_canonical_class(self):
        # sc_vmem at bound 4 over two 2-event threads: hundreds of canonical
        # classes differ only in their alias maps.  A stub checker keeps
        # the loop oracle-free; the digests alone set unique_candidates.
        model = get_model("sc_vmem")
        config = EnumerationConfig(
            max_events=4, max_threads=2, max_addresses=2,
            max_deps=0, max_rmws=0, max_aliases=1, max_thread_size=2,
        )
        classes = {
            canonical_form(test)
            for test in enumerate_tests(model.vocabulary, config)
        }
        never_minimal = SimpleNamespace(
            oracle=None,
            check_axioms=lambda test, axioms: {
                axiom: SimpleNamespace(is_minimal=False) for axiom in axioms
            },
        )
        shard = synthesize_shard(
            model, SynthesisOptions(bound=4, config=config), never_minimal
        )
        digests = shard["stats"]["digests"]
        assert shard["stats"]["unique"] == len(classes)
        assert len(set(digests)) == len(digests) == len(classes)


class TestResidentChecker:
    def test_run_sequential_reports_per_run_oracle_deltas(self, sequential):
        tso = get_model("tso")
        opts = _options()
        checker = build_checker(tso, opts.mode, opts.oracle_spec)
        first = run_sequential(tso, opts, checker=checker)
        second = run_sequential(tso, _options(), checker=checker)
        # a fresh checker's first run reports what a one-shot run does
        assert first.oracle_stats == sequential.oracle_stats
        assert second.union.to_json() == first.union.to_json()
        # the repeat answers from the warm analysis cache
        assert second.oracle_stats["analyses"] == 0
        cumulative = checker.oracle.as_metrics()
        for key, value in cumulative.items():
            assert first.oracle_stats[key] + second.oracle_stats[key] == value
