"""Candidate enumeration tests."""

import pytest

from repro.analysis import LitmusLintContext, Severity, run_family
from repro.core.enumerator import (
    EnumerationConfig,
    count_tests,
    enumerate_tests,
    thread_units,
)
from repro.core.canonical import canonical_form
from repro.core.synthesis import SynthesisOptions
from repro.litmus.catalog import CATALOG
from repro.models.registry import available_models, get_model

TSO = get_model("tso").vocabulary
SCC = get_model("scc").vocabulary
POWER = get_model("power").vocabulary


def cfg(**kw):
    kw.setdefault("max_events", 4)
    return EnumerationConfig(**kw)


class TestThreadUnits:
    def test_single_slot(self):
        units = thread_units(1, TSO, cfg(max_addresses=1))
        # R x, W x (no boundary fences allowed at size 1)
        assert len(units) == 2

    def test_boundary_fences_pruned(self):
        units = thread_units(2, TSO, cfg(max_addresses=1))
        assert all(
            not u.instructions[0].is_fence
            and not u.instructions[-1].is_fence
            for u in units
        )

    def test_boundary_fences_allowed_when_configured(self):
        units = thread_units(
            2, TSO, cfg(max_addresses=1, allow_boundary_fences=True)
        )
        assert any(u.instructions[0].is_fence for u in units)

    def test_rmw_overlays_generated(self):
        units = thread_units(2, TSO, cfg(max_addresses=1))
        assert any(u.rmw for u in units)

    def test_dep_overlays_generated(self):
        units = thread_units(2, POWER, cfg(max_addresses=1))
        assert any(u.deps for u in units)

    def test_no_dep_duplicating_rmw(self):
        from repro.litmus.events import DepKind

        units = thread_units(2, POWER, cfg(max_addresses=1))
        for u in units:
            for s, d, k in u.deps:
                if k is DepKind.DATA:
                    assert (s, d) not in set(u.rmw)

    def test_units_sorted(self):
        units = thread_units(2, TSO, cfg(max_addresses=2))
        keys = [u.sort_key() for u in units]
        assert keys == sorted(keys)


class TestEnumerateTests:
    def test_all_within_bounds(self):
        config = cfg(max_events=3, max_addresses=2)
        for t in enumerate_tests(TSO, config):
            assert 2 <= t.num_events <= 3
            assert len(t.addresses) <= 2

    def test_addresses_canonical_order(self):
        config = cfg(max_events=3, max_addresses=3)
        for t in enumerate_tests(TSO, config):
            # first-use order must be 0, 1, 2...
            assert list(t.addresses) == sorted(t.addresses)
            assert t.addresses == tuple(range(len(t.addresses)))

    def test_communication_prune(self):
        config = cfg(max_events=3, max_addresses=3)
        for t in enumerate_tests(TSO, config):
            for addr in t.addresses:
                assert len(t.accesses_to(addr)) >= 2
                assert len(t.writes_to(addr)) >= 1

    def test_communication_prune_disabled(self):
        config = cfg(
            max_events=2, max_addresses=2, require_communication=False
        )
        tests = list(enumerate_tests(TSO, config))
        assert any(
            len(t.writes_to(a)) == 0 for t in tests for a in t.addresses
        )

    def test_mp_shape_generated(self):
        config = cfg(max_events=4, max_addresses=2)
        mp_canon = canonical_form(CATALOG["MP"].test)
        assert any(
            canonical_form(t) == mp_canon
            for t in enumerate_tests(TSO, config)
        )

    def test_coww_generated(self):
        config = cfg(max_events=2, max_addresses=1)
        coww = canonical_form(CATALOG["CoWW"].test)
        assert any(
            canonical_form(t) == coww
            for t in enumerate_tests(TSO, config)
        )

    def test_rmw_counts_capped(self):
        config = cfg(max_events=4, max_rmws=1)
        for t in enumerate_tests(TSO, config):
            assert len(t.rmw) <= 1

    def test_dep_counts_capped(self):
        config = cfg(max_events=4, max_deps=1)
        for t in enumerate_tests(POWER, config):
            assert len(t.deps) <= 1

    def test_max_threads_respected(self):
        config = cfg(max_events=4, max_threads=2)
        for t in enumerate_tests(TSO, config):
            assert len(t.threads) <= 2

    def test_scc_orders_enumerated(self):
        from repro.litmus.events import Order

        config = cfg(max_events=2, max_addresses=1)
        orders = {
            inst.order
            for t in enumerate_tests(SCC, config)
            for inst in t.instructions
        }
        assert Order.ACQ in orders and Order.REL in orders

    def test_count_matches_stream(self):
        config = cfg(max_events=3, max_addresses=2)
        assert count_tests(TSO, config) == sum(
            1 for _ in enumerate_tests(TSO, config)
        )

    def test_growth_with_bound(self):
        c3 = count_tests(TSO, cfg(max_events=3))
        c4 = count_tests(TSO, cfg(max_events=4))
        assert c4 > c3 > 0


class TestStructuralPrunesSubsumeTheLint:
    """The enumerator's structural prunes are the only candidate filter:
    no candidate of the default stream carries a litmus-family finding
    at warning severity or above.  Vocabulary-only slots keep LIT003
    (dead synchronization) quiet, the communication prune gives every
    location a write (LIT001), and every candidate has at least two
    events, so RI applies (LIT010).  If the enumerator ever emits a
    candidate the lint would flag, this fails."""

    @pytest.mark.parametrize(
        "model_name, bound",
        [(name, 2) for name in available_models()]
        + [
            (name, 3)
            for name in (
                "sc", "tso", "power", "armv7", "scc", "sc_vmem", "tso_vmem"
            )
        ],
    )
    def test_default_stream_is_lint_clean(self, model_name, bound):
        model = get_model(model_name)
        config = SynthesisOptions(bound=bound).resolved_config(model)
        flagged = []
        for test in enumerate_tests(model.vocabulary, config):
            ctx = LitmusLintContext("candidate", test, model=model)
            flagged.extend(
                (diag.id, test.pretty())
                for diag in run_family("litmus", ctx)
                if diag.severity >= Severity.WARNING
            )
        assert flagged == []
