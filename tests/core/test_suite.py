"""TestSuite container tests."""

from repro.core.suite import TestSuite
from repro.litmus.catalog import CATALOG
from repro.litmus.events import Order, read, write
from repro.litmus.execution import remap_outcome
from repro.litmus.test import LitmusTest


def entry(name):
    e = CATALOG[name]
    return e.test, e.forbidden


class TestSuiteBasics:
    def test_add_and_len(self):
        suite = TestSuite("tso")
        test, witness = entry("MP")
        assert suite.add(test, witness, ["causality"])
        assert len(suite) == 1

    def test_symmetric_duplicates_merge(self):
        suite = TestSuite("tso")
        test, witness = entry("MP")
        permuted = LitmusTest(tuple(reversed(test.threads)))
        from repro.litmus.execution import Outcome

        suite.add(test, witness, ["causality"])
        # re-adding a symmetric variant merges axiom sets instead
        added = suite.add(
            permuted,
            Outcome(((0, 2), (1, 3)), ((0, 2), (1, 3))),
            ["sc_per_loc"],
        )
        assert not added
        assert len(suite) == 1
        only = next(iter(suite))
        assert only.axioms == {"causality", "sc_per_loc"}

    def test_contains(self):
        suite = TestSuite("tso")
        test, witness = entry("MP")
        suite.add(test, witness, ["causality"])
        assert test in suite
        assert LitmusTest(tuple(reversed(test.threads))) in suite
        assert entry("SB")[0] not in suite

    def test_count_by_size(self):
        suite = TestSuite("tso")
        for name in ("MP", "CoWW", "CoRR"):
            suite.add(*entry(name), ["a"])
        assert suite.count_by_size() == {2: 1, 3: 1, 4: 1}

    def test_for_axiom(self):
        suite = TestSuite("tso")
        suite.add(*entry("MP"), ["causality"])
        suite.add(*entry("CoWW"), ["sc_per_loc"])
        assert len(suite.for_axiom("causality")) == 1

    def test_merge(self):
        a = TestSuite("tso")
        b = TestSuite("tso")
        a.add(*entry("MP"), ["x"])
        b.add(*entry("SB"), ["y"])
        b.add(*entry("MP"), ["z"])
        a.merge(b)
        assert len(a) == 2

    def test_witness_remapped_to_canonical_ids(self):
        suite = TestSuite("scc")
        t = LitmusTest(
            (
                (read(1, Order.ACQ), read(0)),
                (write(0, 1), write(1, 1, Order.REL)),
            )
        )
        from repro.litmus.catalog import outcome_from_values

        witness = outcome_from_values(t, reads={0: 1, 1: 0})
        suite.add(t, witness, ["causality"])
        stored = next(iter(suite))
        # canonical form puts the writer thread first; the witness must
        # still name valid read events of the canonical test
        for eid, _ in stored.witness.rf_sources:
            assert stored.test.instruction(eid).is_read

    def test_pretty(self):
        suite = TestSuite("tso")
        suite.add(*entry("MP"), ["causality"])
        text = next(iter(suite)).pretty()
        assert "Forbidden" in text and "causality" in text


class TestSerialization:
    def roundtrip(self, suite):
        return TestSuite.from_json(suite.to_json())

    def test_roundtrip_preserves_tests(self):
        suite = TestSuite("tso", "causality")
        for name in ("MP", "LB", "CoRW"):
            suite.add(*entry(name), ["causality"])
        loaded = self.roundtrip(suite)
        assert len(loaded) == len(suite)
        assert {canonical(t) for t in loaded.tests()} == {
            canonical(t) for t in suite.tests()
        }

    def test_roundtrip_with_rmw_and_deps(self):
        suite = TestSuite("power")
        suite.add(*entry("LB+addrs"), ["no_thin_air"])
        suite.add(*entry("n3"), ["causality"])
        loaded = self.roundtrip(suite)
        assert len(loaded) == 2
        tests = loaded.tests()
        assert any(t.rmw for t in tests)
        assert any(t.deps for t in tests)

    def test_roundtrip_metadata(self):
        suite = TestSuite("tso", "union")
        suite.add(*entry("MP"), ["causality", "sc_per_loc"])
        loaded = self.roundtrip(suite)
        assert loaded.model_name == "tso"
        assert next(iter(loaded)).axioms == {"causality", "sc_per_loc"}

    def test_greedy_suite_round_trips_its_canonicalizer(self):
        # The greedy canonicalizer keeps WWC and its P1/P2-swapped twin
        # apart; a reload that fell back to the exact one merged them.
        test, witness = entry("WWC")
        p0, p1, p2 = test.threads
        twin = LitmusTest((p0, p2, p1))
        swap = {0: 0, 1: 3, 2: 4, 3: 1, 4: 2}
        suite = TestSuite("tso", exact_symmetry=False)
        suite.add(test, witness, ["causality"])
        suite.add(twin, remap_outcome(witness, swap, {0: 0, 1: 1}), ["causality"])
        assert len(suite) == 2
        loaded = self.roundtrip(suite)
        assert not loaded.exact_symmetry
        assert len(loaded) == 2
        assert loaded.to_json() == suite.to_json()

    def test_save_load(self, tmp_path):
        suite = TestSuite("tso")
        suite.add(*entry("MP"), ["causality"])
        path = tmp_path / "suite.json"
        suite.save(path)
        loaded = TestSuite.load(path)
        assert len(loaded) == 1

    def test_save_litmus_dir(self, tmp_path):
        from repro.litmus.format import parse_test

        suite = TestSuite("tso")
        suite.add(*entry("MP"), ["causality"])
        suite.add(*entry("CoWW"), ["sc_per_loc"])
        files = suite.save_litmus_dir(tmp_path / "suite")
        assert len(files) == 2
        for name in files:
            text = (tmp_path / "suite" / name).read_text()
            test, outcome = parse_test(text)
            assert outcome is not None

    def test_repr(self):
        suite = TestSuite("tso", "union")
        assert "tso" in repr(suite)


def canonical(test):
    from repro.core.canonical import canonical_form

    return canonical_form(test)
