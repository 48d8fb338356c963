"""Sharded enumeration properties (the repro.exec contract).

For every ``(model, bound, n_shards)`` in the grid, the union of the
``n`` shard streams must be the same *multiset* of candidates as the
unsharded stream, and re-sorting shard outputs by their global
``(item, position)`` coordinates must reconstruct the exact sequential
order — both are what the parallel merge relies on.

The ``(item, test)`` stream itself is pinned by digest for every
registered model at bound 3: a checkpoint stores records by work-item
ordinal, so an enumerator change that reorders candidates or moves
ordinals must fail here, not in a resumed run.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.core.enumerator import (
    EnumerationConfig,
    enumerate_shard,
    enumerate_tests,
)
from repro.core.suite import test_to_dict as to_dict
from repro.core.synthesis import SynthesisOptions
from repro.models.registry import available_models, get_model

GRID = [
    ("sc", 3, 2),
    ("sc", 3, 5),
    ("tso", 3, 2),
    ("tso", 3, 3),
    ("tso", 4, 4),
    ("power", 3, 3),
    ("scc", 3, 2),  # scoped vocabulary: group assignments fan out per item
]


#: sha256 of the bound-3 ``enumerate_shard`` stream in each model's
#: default config, one ``json.dumps([item, test_to_dict(test)],
#: sort_keys=True)`` line per candidate (armv8 and rvwmo share a
#: vocabulary, and so a stream)
STREAM_DIGESTS = {
    "armv7": "c64c8c271a185f284099ca8cf0a13a194cde55da2f7e3f42128d344d1afff2b8",
    "armv8": "a5d48ce8e5a20b93ac5743aae3e3aaad646baf39aa2cb317e6ffc58124b05e5c",
    "c11": "57b17ce4f7c0eb993a5cf1dd26017d8d4e876841e62ffe3715ab48f2d46efe37",
    "opencl": "e79cdc773d91d823019eb490644ebff7cf945679fbf3259bc2c45ff3580a043c",
    "power": "e10cb92b43c9593487ecaa2df2b6f07faf39d88067462244d59f21995c2b57a4",
    "rvwmo": "a5d48ce8e5a20b93ac5743aae3e3aaad646baf39aa2cb317e6ffc58124b05e5c",
    "sc": "1eca692085b7563709e71f9334198fff4ee7f1b3f3e5ce8e810dee1c05e78ce1",
    "sc_vmem": "40550cebb731ad23dfe2bf5068c5cde5235e2699052fe347aec083600bef3350",
    "scc": "1ae600e69ed0bf6670b3e40a97f03f8c86b4420c6839ce56e23539e315fd51b9",
    "tso": "3835a7835d53ffa318c097a8a491999126858ed49657c79bb18ac4f4f539ec92",
    "tso_vmem": "9882f9fa8ea2bed58ae516d75b4ba4127c24c01f3a893d7d78781049fd0a1537",
}


def _config(bound: int) -> EnumerationConfig:
    return EnumerationConfig(max_events=bound, max_addresses=2)


def stream_digest(model_name: str, bound: int) -> str:
    model = get_model(model_name)
    config = SynthesisOptions(bound=bound).resolved_config(model)
    digest = hashlib.sha256()
    for item, test in enumerate_shard(model.vocabulary, config):
        line = json.dumps([item, to_dict(test)], sort_keys=True)
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


class TestShardPartition:
    @pytest.mark.parametrize("model_name,bound,n_shards", GRID)
    def test_shard_union_equals_unsharded(self, model_name, bound, n_shards):
        vocab = get_model(model_name).vocabulary
        config = _config(bound)
        base = Counter(enumerate_tests(vocab, config))
        sharded: Counter = Counter()
        for i in range(n_shards):
            sharded.update(enumerate_tests(vocab, config, shard=(i, n_shards)))
        assert sharded == base

    @pytest.mark.parametrize("model_name,bound,n_shards", GRID)
    def test_sort_key_reconstructs_sequential_order(
        self, model_name, bound, n_shards
    ):
        vocab = get_model(model_name).vocabulary
        config = _config(bound)
        base = list(enumerate_tests(vocab, config))
        keyed = []
        for i in range(n_shards):
            current_item, pos = -1, 0
            for item, test in enumerate_shard(
                vocab, config, shard=(i, n_shards)
            ):
                if item != current_item:
                    current_item, pos = item, 0
                else:
                    pos += 1
                keyed.append(((item, pos), test))
        keyed.sort(key=lambda pair: pair[0])
        assert [test for _, test in keyed] == base

    def test_single_shard_is_identity(self):
        vocab = get_model("tso").vocabulary
        config = _config(3)
        assert list(enumerate_tests(vocab, config, shard=(0, 1))) == list(
            enumerate_tests(vocab, config)
        )

    def test_shards_are_disjoint(self):
        vocab = get_model("tso").vocabulary
        config = _config(3)
        a = set(enumerate_tests(vocab, config, shard=(0, 2)))
        b = set(enumerate_tests(vocab, config, shard=(1, 2)))
        # Distinct shards may still contain symmetric twins, but never
        # the same concrete candidate.
        assert not (a & b)

    def test_invalid_shard_specs_rejected(self):
        vocab = get_model("tso").vocabulary
        config = _config(2)
        for bad in [(0, 0), (-1, 2), (2, 2), (5, 3)]:
            with pytest.raises(ValueError):
                next(iter(enumerate_tests(vocab, config, shard=bad)))

    def test_shared_pools_change_no_shard(self):
        # the mapping one worker child keeps across the shards it runs
        vocab = get_model("tso").vocabulary
        config = _config(4)
        pools: dict = {}
        for i in range(3):
            alone = list(enumerate_shard(vocab, config, shard=(i, 3)))
            shared = list(
                enumerate_shard(vocab, config, shard=(i, 3), pools=pools)
            )
            assert shared == alone
        assert sorted(pools) == [1, 2, 3, 4]


class TestStreamPin:
    def test_every_registered_model_is_pinned(self):
        assert set(STREAM_DIGESTS) == set(available_models())

    @pytest.mark.parametrize("model_name", sorted(STREAM_DIGESTS))
    def test_bound_3_stream_matches_its_digest(self, model_name):
        assert stream_digest(model_name, 3) == STREAM_DIGESTS[model_name]
