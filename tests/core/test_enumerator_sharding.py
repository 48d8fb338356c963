"""Sharded enumeration properties (the repro.exec contract).

For every ``(model, bound, n_shards)`` in the grid, the union of the
``n`` shard streams must be the same *multiset* of candidates as the
unsharded stream, and re-sorting shard outputs by their global
``(item, position)`` coordinates must reconstruct the exact sequential
order — both are what the parallel merge relies on.
"""

from collections import Counter

import pytest

from repro.core.enumerator import (
    EnumerationConfig,
    enumerate_shard,
    enumerate_tests,
)
from repro.models.registry import get_model

GRID = [
    ("sc", 3, 2),
    ("sc", 3, 5),
    ("tso", 3, 2),
    ("tso", 3, 3),
    ("tso", 4, 4),
    ("power", 3, 3),
    ("scc", 3, 2),  # scoped vocabulary: group assignments fan out per item
]


def _config(bound: int) -> EnumerationConfig:
    return EnumerationConfig(max_events=bound, max_addresses=2)


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
