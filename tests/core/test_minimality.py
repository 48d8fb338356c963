"""Minimality criterion tests — the paper's §3 walk-throughs."""

import pytest

from repro.core.minimality import CriterionMode, MinimalityChecker
from repro.litmus.catalog import CATALOG
from repro.litmus.events import FenceKind, Order, fence, read, write
from repro.litmus.test import LitmusTest
from repro.models.registry import get_model


@pytest.fixture(scope="module")
def tso_checker():
    return MinimalityChecker(get_model("tso"))


@pytest.fixture(scope="module")
def scc_checker():
    return MinimalityChecker(get_model("scc"))


class TestPaperWalkthroughs:
    def test_mp_minimal_under_tso(self, tso_checker):
        """Paper Fig. 3: MP satisfies the criterion via RI."""
        result = tso_checker.check(CATALOG["MP"].test)
        assert result.is_minimal
        assert result.witness is not None
        # the witness is the classic (r=1, r2=0) outcome
        values = result.witness.pretty(CATALOG["MP"].test)
        assert "r2=1" in values and "r3=0" in values

    def test_mp_with_extra_synchronization_not_minimal(self, scc_checker):
        """Paper Fig. 2: two releases + two acquires is redundant."""
        over = LitmusTest(
            (
                (write(0, 1, Order.REL), write(1, 1, Order.REL)),
                (read(1, Order.ACQ), read(0, Order.ACQ)),
            )
        )
        minimal_mp = LitmusTest(
            (
                (write(0, 1), write(1, 1, Order.REL)),
                (read(1, Order.ACQ), read(0)),
            )
        )
        assert not scc_checker.check(over).is_minimal
        assert scc_checker.check(minimal_mp).is_minimal

    def test_corw_minimal(self, tso_checker):
        """Paper Fig. 7 / §4.3: CoRW survives RI on every instruction."""
        assert tso_checker.check(CATALOG["CoRW"].test).is_minimal

    def test_n5_not_minimal(self, tso_checker):
        """Paper Fig. 10: n5/coLB fails the criterion (contains CoRW)."""
        result = tso_checker.check(CATALOG["n5"].test)
        assert not result.is_minimal
        assert result.forbidden_count > 0  # forbidden, just not minimal

    def test_allowed_test_not_minimal(self, tso_checker):
        """SB has no forbidden outcome under TSO at all."""
        result = tso_checker.check(CATALOG["SB"].test)
        assert not result.is_minimal
        assert result.forbidden_count == 0

    def test_per_axiom_checks(self, tso_checker):
        corr = CATALOG["CoRR"].test
        assert tso_checker.check(corr, "sc_per_loc").is_minimal
        assert not tso_checker.check(corr, "rmw_atomicity").is_minimal

    def test_sb_mfences_minimal_for_causality(self, tso_checker):
        sb = CATALOG["SB+mfences"].test
        assert tso_checker.check(sb, "causality").is_minimal

    def test_result_bool(self, tso_checker):
        assert bool(tso_checker.check(CATALOG["MP"].test))
        assert not bool(tso_checker.check(CATALOG["SB"].test))


class TestApplications:
    def test_application_enumeration(self, tso_checker):
        apps = tso_checker.applications(CATALOG["SB+mfences"].test)
        names = [r.name for r, _ in apps]
        assert names.count("RI") == 6
        assert "DRMW" not in names  # no rmw in the test

    def test_power_applications_include_rd_df(self):
        checker = MinimalityChecker(get_model("power"))
        apps = checker.applications(CATALOG["MP+sync+addr"].test)
        names = {r.name for r, _ in apps}
        assert {"RI", "DF", "RD"} <= names


class TestPowerSection62:
    @pytest.fixture(scope="class")
    def power_checker(self):
        return MinimalityChecker(get_model("power"))

    def test_ppoaa_sync_not_minimal(self, power_checker):
        """§6.2: PPOAA as published (sync) is not minimal..."""
        assert not power_checker.check(CATALOG["PPOAA"].test).is_minimal

    def test_ppoaa_lwsync_minimal(self, power_checker):
        """...but its lwsync variant is."""
        assert power_checker.check(
            CATALOG["PPOAA+lwsync"].test
        ).is_minimal

    def test_mp_sync_addr_not_minimal_sync_too_strong(self, power_checker):
        """MP+sync+addr: lwsync suffices on the writer side."""
        assert not power_checker.check(
            CATALOG["MP+sync+addr"].test
        ).is_minimal

    def test_mp_lwsync_addr_minimal(self, power_checker):
        assert power_checker.check(
            CATALOG["MP+lwsync+addr"].test
        ).is_minimal

    def test_lb_addrs_minimal(self, power_checker):
        assert power_checker.check(CATALOG["LB+addrs"].test).is_minimal

    def test_sb_syncs_minimal(self, power_checker):
        assert power_checker.check(CATALOG["SB+syncs"].test).is_minimal


class TestEdgeCases:
    def test_single_instruction_never_minimal(self, tso_checker):
        t = LitmusTest(((write(0, 1),),))
        assert not tso_checker.check(t).is_minimal

    def test_fence_only_synchronization_counted(self, tso_checker):
        # R+mfence is minimal: removing the fence re-allows the outcome.
        assert tso_checker.check(CATALOG["R+mfence"].test).is_minimal

    def test_relaxed_tests_recorded_for_witness(self, tso_checker):
        result = tso_checker.check(CATALOG["MP"].test)
        assert len(result.relaxed_tests) == result.application_count


class TestLazyRelaxedTests:
    """A relaxed test is built only when the criterion's walk reaches
    its application, in every criterion mode."""

    @staticmethod
    def spied_checker(mode, monkeypatch):
        checker = MinimalityChecker(get_model("sc"), mode)
        built = []
        for relax in checker.relaxations:
            def apply(test, app, vocab, _apply=relax.apply):
                built.append(app)
                return _apply(test, app, vocab)

            monkeypatch.setattr(relax, "apply", apply)
        return checker, built

    @pytest.mark.parametrize(
        "mode", [CriterionMode.EXACT, CriterionMode.EXECUTION]
    )
    def test_blocked_by_the_first_application_builds_one(
        self, mode, monkeypatch
    ):
        checker, built = self.spied_checker(mode, monkeypatch)
        # SB with a leading fence: removing the fence keeps SB forbidden
        test = LitmusTest(
            (
                (fence(FenceKind.MFENCE), write(0, 1), read(1)),
                (write(1, 1), read(0)),
            )
        )
        result = checker.check(test)
        relax, app = checker.applications(test)[0]
        assert not result.is_minimal and result.forbidden_count > 0
        assert result.blocking == (relax.name, app.target, app.detail)
        assert result.application_count > 1
        assert built == [app]

    @pytest.mark.parametrize(
        "mode", [CriterionMode.EXACT, CriterionMode.EXECUTION]
    )
    def test_minimal_holds_every_relaxed_test(self, mode, monkeypatch):
        checker, built = self.spied_checker(mode, monkeypatch)
        test = CATALOG["MP"].test
        result = checker.check(test)
        assert result.is_minimal
        assert len(result.relaxed_tests) == result.application_count
        assert len(built) == result.application_count
        vocab = checker.model.vocabulary
        assert list(result.relaxed_tests) == [
            relax.apply(test, app, vocab).test
            for relax, app in checker.applications(test)
        ]
