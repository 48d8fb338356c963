"""Unit tests for the LitmusTest representation."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.litmus.events import DepKind, FenceKind, fence, read, write
from repro.litmus.test import Dep, LitmusTest


def mp():
    return LitmusTest(
        ((write(0, 1), write(1, 1)), (read(1), read(0))), name="MP"
    )


class TestGeometry:
    def test_num_events(self):
        assert mp().num_events == 4

    def test_eid(self):
        t = mp()
        assert t.eid(0, 0) == 0
        assert t.eid(0, 1) == 1
        assert t.eid(1, 0) == 2

    def test_tid_of(self):
        t = mp()
        assert [t.tid_of(e) for e in range(4)] == [0, 0, 1, 1]

    def test_index_of(self):
        t = mp()
        assert [t.index_of(e) for e in range(4)] == [0, 1, 0, 1]

    def test_tid_out_of_range(self):
        with pytest.raises(ValueError):
            mp().tid_of(10)

    def test_instructions_flat(self):
        t = mp()
        assert len(t.instructions) == 4
        assert t.instruction(2).is_read


class TestMasks:
    def test_reads_writes_masks(self):
        t = mp()
        assert t.reads_mask == 0b1100
        assert t.writes_mask == 0b0011
        assert t.fences_mask == 0

    def test_fence_mask(self):
        t = LitmusTest(((write(0, 1), fence(FenceKind.MFENCE), read(1)),))
        assert t.fences_mask == 0b010

    def test_read_write_eids(self):
        t = mp()
        assert t.read_eids == (2, 3)
        assert t.write_eids == (0, 1)


class TestAddressesAndValues:
    def test_addresses_first_use_order(self):
        t = LitmusTest(((read(5), write(2, 1)), (write(5, 1),)))
        assert t.addresses == (5, 2)

    def test_writes_to(self):
        t = mp()
        assert t.writes_to(0) == (0,)
        assert t.writes_to(1) == (1,)

    def test_accesses_to(self):
        t = mp()
        assert t.accesses_to(0) == (0, 3)

    def test_auto_values_distinct_per_address(self):
        t = LitmusTest(((write(0), write(0)), (write(0),)))
        assert sorted(t.write_values.values()) == [1, 2, 3]

    def test_explicit_values_kept(self):
        t = LitmusTest(((write(0, 7), write(0)),))
        assert t.write_values[0] == 7
        assert t.write_values[1] == 1

    def test_auto_values_skip_explicit(self):
        t = LitmusTest(((write(0, 1), write(0)),))
        assert t.write_values == {0: 1, 1: 2}


class TestValidation:
    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            LitmusTest(())
        with pytest.raises(ValueError):
            LitmusTest(((),))

    def test_rmw_must_be_adjacent(self):
        with pytest.raises(ValueError):
            LitmusTest(
                ((read(0), write(1, 1), write(0, 1)),),
                rmw=frozenset({(0, 2)}),
            )

    def test_rmw_must_share_address(self):
        with pytest.raises(ValueError):
            LitmusTest(
                ((read(0), write(1, 1)),), rmw=frozenset({(0, 1)})
            )

    def test_rmw_read_then_write(self):
        with pytest.raises(ValueError):
            LitmusTest(
                ((write(0, 1), read(0)),), rmw=frozenset({(0, 1)})
            )

    def test_valid_rmw(self):
        t = LitmusTest(((read(0), write(0)),), rmw=frozenset({(0, 1)}))
        assert t.rmw_reads == {0}
        assert t.rmw_writes == {1}

    def test_dep_from_read_only(self):
        with pytest.raises(ValueError):
            LitmusTest(
                ((write(0, 1), write(1, 1)),),
                deps=frozenset({Dep(0, 1, DepKind.ADDR)}),
            )

    def test_dep_targets_later_same_thread(self):
        with pytest.raises(ValueError):
            LitmusTest(
                ((read(0),), (write(1, 1),)),
                deps=frozenset({Dep(0, 1, DepKind.ADDR)}),
            )

    def test_data_dep_targets_write(self):
        with pytest.raises(ValueError):
            LitmusTest(
                ((read(0), read(1)),),
                deps=frozenset({Dep(0, 1, DepKind.DATA)}),
            )

    def test_addr_dep_not_to_fence(self):
        with pytest.raises(ValueError):
            LitmusTest(
                ((read(0), fence(FenceKind.SYNC)),),
                deps=frozenset({Dep(0, 1, DepKind.ADDR)}),
            )

    def test_scopes_length_checked(self):
        with pytest.raises(ValueError):
            LitmusTest(((read(0),), (write(0, 1),)), scopes=(0,))

    def test_deps_of_kind(self):
        t = LitmusTest(
            ((read(0), write(1, 1), read(2)),),
            deps=frozenset(
                {Dep(0, 1, DepKind.DATA), Dep(0, 2, DepKind.ADDR)}
            ),
        )
        assert len(t.deps_of_kind(DepKind.DATA)) == 1
        assert len(t.deps_of_kind(DepKind.DATA, DepKind.ADDR)) == 2


class TestHashing:
    def test_hash_ignores_the_name(self):
        assert hash(mp()) == hash(mp().with_name("other"))
        assert mp() == mp().with_name("other")

    def test_unpickled_test_carries_no_cached_hash(self):
        t = mp()
        h = hash(t)
        clone = pickle.loads(pickle.dumps(t))
        assert "_hash" not in clone.__dict__
        assert clone == t
        assert hash(clone) == h

    def test_memoized_values_keep_their_attribute_names(self):
        # the memo stores each derived value under the attribute's own
        # name, so the pickled state is the dataclass fields plus those
        t = mp()
        assert t.num_events == 4 and t.locations == (0, 1)
        assert {"num_events", "locations", "addresses"} <= set(t.__dict__)
        clone = pickle.loads(pickle.dumps(t))
        assert clone.__dict__["num_events"] == 4
        assert clone.__getstate__() == t.__getstate__()

    def test_pickled_test_hashes_like_a_fresh_one_in_another_interpreter(self):
        # Enum hashes are salted per interpreter: a hash cached here must
        # not travel with the test into a child with another salt
        t = mp()
        hash(t)
        code = (
            "import pickle, sys\n"
            "from repro.litmus.events import read, write\n"
            "from repro.litmus.test import LitmusTest\n"
            "clone = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = LitmusTest(((write(0, 1), write(1, 1)), (read(1), read(0))))\n"
            "print(hash(clone) == hash(fresh), clone in {fresh})\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "20170408"}
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps(t),
            capture_output=True,
            env=env,
            check=True,
            timeout=60,
        )
        assert out.stdout.decode().split() == ["True", "True"]


class TestRendering:
    def test_pretty_contains_threads(self):
        text = mp().pretty()
        assert "Thread 0" in text and "Thread 1" in text
        assert "MP" in text

    def test_pretty_marks_rmw_and_deps(self):
        t = LitmusTest(
            ((read(0), write(0)),),
            rmw=frozenset({(0, 1)}),
            deps=frozenset({Dep(0, 1, DepKind.DATA)}),
        )
        text = t.pretty()
        assert "rmw" in text
        assert "data" in text

    def test_with_name(self):
        assert mp().with_name("other").name == "other"

    def test_repr(self):
        assert "MP" in repr(mp())

    def test_equality_ignores_name(self):
        a = mp()
        b = mp().with_name("different")
        assert a == b
        assert hash(a) == hash(b)
