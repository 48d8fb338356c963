"""Litmus lint: seeded defects must fire, catalog entries must not."""

from repro.analysis.litmus_lint import find_duplicate_tests
from repro.analysis.registry import LitmusLintContext, run_family
from repro.litmus.catalog import CATALOG
from repro.litmus.events import FenceKind, Order, fence, read, write
from repro.litmus.execution import Outcome
from repro.litmus.test import LitmusTest
from repro.models.registry import get_model


def lint(test, outcome=None, model=None, name="seeded"):
    ctx = LitmusLintContext(name, test, outcome=outcome, model=model)
    return list(run_family("litmus", ctx))


def ids(diagnostics):
    return sorted(d.id for d in diagnostics)


class TestUnwrittenRead:
    def test_lit001_fires(self):
        test = LitmusTest(((write(0, 1), read(1)), (read(0),)))
        report = lint(test)
        assert any(d.id == "LIT001" and ":e1" in d.subject for d in report)

    def test_written_locations_clean(self):
        assert lint(CATALOG["MP"].test) == []


class TestOutcomeEvents:
    def test_uninitialized_register_lit002(self):
        test = CATALOG["MP"].test
        # Constrain register r99: no such read exists in the test.
        bad = Outcome(rf_sources=((99, None),), finals=())
        report = lint(test, outcome=bad)
        assert any(d.id == "LIT002" for d in report)

    def test_rf_source_not_a_write_lit002(self):
        test = CATALOG["MP"].test  # e2 is a read, not a write
        bad = Outcome(rf_sources=((2, 3),), finals=())
        report = lint(test, outcome=bad)
        assert any(d.id == "LIT002" for d in report)

    def test_rf_address_mismatch_lit005(self):
        test = CATALOG["MP"].test  # e3 reads x; e1 writes y
        bad = Outcome(rf_sources=((3, 1),), finals=())
        report = lint(test, outcome=bad)
        assert any(d.id == "LIT005" for d in report)

    def test_final_value_unknown_address_lit002(self):
        test = CATALOG["MP"].test
        bad = Outcome(rf_sources=(), finals=((7, None),))
        report = lint(test, outcome=bad)
        assert any(d.id == "LIT002" for d in report)

    def test_recorded_catalog_outcomes_clean(self):
        for entry in CATALOG.values():
            assert not [
                d
                for d in lint(entry.test, outcome=entry.forbidden)
                if d.id in ("LIT002", "LIT005")
            ], entry.name


class TestDeadSync:
    def test_dead_fence_lit003(self):
        # An x86 MFENCE means nothing to Power: no Power relaxation can
        # weaken it, so it is dead synchronization there.
        test = LitmusTest(
            (
                (write(0, 1), fence(FenceKind.MFENCE), write(1, 1)),
                (read(1), read(0)),
            )
        )
        report = lint(test, model=get_model("power"))
        assert any(d.id == "LIT003" and ":e1" in d.subject for d in report)

    def test_dead_order_lit003(self):
        test = LitmusTest(((write(0, 1),), (read(0, Order.ACQ),)))
        report = lint(test, model=get_model("tso"))
        assert any(d.id == "LIT003" for d in report)

    def test_vocabulary_annotations_clean(self):
        test = LitmusTest(
            (
                (write(0, 1), fence(FenceKind.SYNC), write(1, 1)),
                (read(1), read(0)),
            )
        )
        assert lint(test, model=get_model("power")) == []

    def test_no_model_no_dead_sync_check(self):
        test = LitmusTest(((write(0, 1),), (read(0, Order.ACQ),)))
        assert lint(test) == []


class TestDuplicateTests:
    def test_lit004_on_thread_permutation(self):
        mp = CATALOG["MP"].test
        swapped = LitmusTest(tuple(reversed(mp.threads)))
        report = list(
            find_duplicate_tests([("MP", mp), ("MP-swapped", swapped)])
        )
        assert [d.id for d in report] == ["LIT004"]
        assert "MP-swapped" in report[0].subject

    def test_catalog_has_no_duplicates(self):
        report = list(
            find_duplicate_tests(
                (e.name, e.test) for e in CATALOG.values()
            )
        )
        assert report == []
