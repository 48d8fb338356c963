"""The differential checks: two oracles, one criterion, injected bugs.

:class:`DiffHarness` owns every oracle a campaign needs for one model —
the explicit enumeration engine, the relational/SAT engine when the
model has an Alloy encoding, and one explicit oracle per injected mutant
— and runs each generated test through four comparisons:

1. **invariant** — the explicit analysis must be internally coherent
   (model-valid outcomes are a subset of all outcomes and of every
   per-axiom set).  Catches oracle bugs without needing a second oracle,
   so it also covers models with no relational encoding (Power).
2. **outcome-set** — the two oracles must compute identical outcome
   landscapes (all-outcomes, model-valid, shared per-axiom sets).
3. **minimality** — the minimality criterion must reach the same
   keep/drop verdict through either oracle.
4. **mutant** — each injected known-buggy model must be *distinguishable*
   from the stock semantics on some test; when this test distinguishes
   them, the mutant is killed.

Everything here is deterministic: detail strings order outcome sets by a
canonical key, never by set iteration order, so reports are byte-stable
across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from repro.alloy.models import ALLOY_MODELS
from repro.alloy.oracle import AlloyOracle
from repro.core.minimality import CriterionMode, MinimalityChecker
from repro.core.oracle import ExplicitOracle
from repro.difftest.discrepancy import Discrepancy
from repro.difftest.mutate import resolve_mutant
from repro.litmus.execution import Outcome
from repro.litmus.test import LitmusTest
from repro.models.registry import get_model

__all__ = ["DiffHarness"]


def _outcome_sort_key(outcome: Outcome):
    return (
        tuple((r, -1 if s is None else s) for r, s in outcome.rf_sources),
        tuple((a, -1 if w is None else w) for a, w in outcome.finals),
    )


def _describe(test: LitmusTest, outcomes: frozenset[Outcome]) -> str:
    """Canonical rendering of an outcome set (sorted, brace-wrapped)."""
    rendered = [
        o.pretty(test) for o in sorted(outcomes, key=_outcome_sort_key)
    ]
    return "{" + "; ".join(rendered) + "}"


class DiffHarness:
    """Runs the differential checks for one model + injected mutants."""

    def __init__(
        self,
        model_name: str,
        mutants: tuple[str, ...] = (),
        minimality: bool = True,
    ):
        self.model_name = model_name
        self.model = get_model(model_name)
        self.explicit = ExplicitOracle(self.model)
        self.relational = (
            AlloyOracle(model_name) if model_name in ALLOY_MODELS else None
        )
        #: ``empty:fr`` checks skipped because the static emptiness
        #: analysis proved the test has no fr edge to forget — the mutant
        #: is indistinguishable from stock on such tests by construction.
        self.mutant_skips = 0
        self.minimality = minimality and self.relational is not None
        self.mutants = tuple(mutants)
        self._mutant_oracles = {
            tag: ExplicitOracle(resolve_mutant(self.model, tag))
            for tag in self.mutants
        }
        self._checker_explicit = MinimalityChecker(
            self.model, CriterionMode.EXACT, oracle=self.explicit
        )
        self._checker_relational = (
            MinimalityChecker(
                self.model, CriterionMode.EXACT, oracle=self.relational
            )
            if self.minimality
            else None
        )

    # -- the campaign entry point -------------------------------------------

    def check(self, test: LitmusTest, seed: int = 0, index: int = 0) -> list[Discrepancy]:
        """Every discrepancy this test exposes, in a deterministic order."""
        found: list[Discrepancy] = []
        found.extend(self._check_invariants(test, seed, index))
        found.extend(self._check_outcome_sets(test, seed, index))
        found.extend(self._check_minimality(test, seed, index))
        for tag in self.mutants:
            found.extend(self._check_mutant(test, tag, seed, index))
        return found

    def findings_like(
        self, disc: Discrepancy, test: LitmusTest | None = None
    ) -> list[Discrepancy]:
        """Re-run only ``disc``'s check kind against ``test`` (default:
        the recorded test).  The shrinker and the corpus replay both
        gate on this."""
        test = disc.test if test is None else test
        if disc.kind == "invariant":
            return self._check_invariants(test, disc.seed, disc.index)
        if disc.kind == "outcome-set":
            return self._check_outcome_sets(test, disc.seed, disc.index)
        if disc.kind == "minimality":
            return self._check_minimality(test, disc.seed, disc.index)
        assert disc.mutant is not None
        if disc.mutant not in self._mutant_oracles:
            self._mutant_oracles[disc.mutant] = ExplicitOracle(
                resolve_mutant(self.model, disc.mutant)
            )
        return self._check_mutant(test, disc.mutant, disc.seed, disc.index)

    def reproduces(self, disc: Discrepancy, test: LitmusTest | None = None) -> bool:
        """Does ``test`` still exhibit the recorded disagreement kind?"""
        return bool(self.findings_like(disc, test))

    # -- individual checks ---------------------------------------------------

    def _check_invariants(
        self, test: LitmusTest, seed: int, index: int
    ) -> list[Discrepancy]:
        analysis = self.explicit.analyze(test)
        problems: list[str] = []
        if not analysis.model_valid <= analysis.all_outcomes:
            problems.append("model-valid outcomes missing from all-outcomes")
        for name in sorted(analysis.axiom_valid):
            per_axiom = analysis.axiom_valid[name]
            if not per_axiom <= analysis.all_outcomes:
                problems.append(
                    f"axiom {name}: valid outcomes missing from all-outcomes"
                )
            if not analysis.model_valid <= per_axiom:
                problems.append(
                    f"axiom {name}: model-valid outcome fails the axiom"
                )
        return [
            Discrepancy(
                "invariant", self.model_name, test, p, seed=seed, index=index
            )
            for p in problems
        ]

    def _check_outcome_sets(
        self, test: LitmusTest, seed: int, index: int
    ) -> list[Discrepancy]:
        if self.relational is None:
            return []
        ex = self.explicit.analyze(test)
        rel = self.relational.analyze(test)
        problems: list[str] = []
        if ex.all_outcomes != rel.all_outcomes:
            problems.append(
                "all-outcomes differ: explicit="
                f"{_describe(test, ex.all_outcomes)} relational="
                f"{_describe(test, rel.all_outcomes)}"
            )
        if ex.model_valid != rel.model_valid:
            problems.append(
                "model-valid outcomes differ: explicit="
                f"{_describe(test, ex.model_valid)} relational="
                f"{_describe(test, rel.model_valid)}"
            )
        shared = sorted(set(ex.axiom_valid) & set(rel.axiom_valid))
        for name in shared:
            if ex.axiom_valid[name] != rel.axiom_valid[name]:
                problems.append(
                    f"axiom {name}: valid outcomes differ: explicit="
                    f"{_describe(test, ex.axiom_valid[name])} relational="
                    f"{_describe(test, rel.axiom_valid[name])}"
                )
        return [
            Discrepancy(
                "outcome-set", self.model_name, test, p, seed=seed, index=index
            )
            for p in problems
        ]

    def _check_minimality(
        self, test: LitmusTest, seed: int, index: int
    ) -> list[Discrepancy]:
        if self._checker_relational is None:
            return []
        verdict_ex = self._checker_explicit.check(test)
        verdict_rel = self._checker_relational.check(test)
        if verdict_ex.is_minimal == verdict_rel.is_minimal:
            return []
        detail = (
            "minimality keep/drop verdicts differ: explicit="
            f"{'keep' if verdict_ex.is_minimal else 'drop'} relational="
            f"{'keep' if verdict_rel.is_minimal else 'drop'}"
        )
        return [
            Discrepancy(
                "minimality", self.model_name, test, detail,
                seed=seed, index=index,
            )
        ]

    def _check_mutant(
        self, test: LitmusTest, tag: str, seed: int, index: int
    ) -> list[Discrepancy]:
        if tag == "empty:fr":
            from repro.analysis import fr_statically_empty

            if fr_statically_empty(test):
                # No same-address (read, write) pair exists, so the
                # empty-fr view *is* the stock view: analyzing both
                # oracles would compare a set with itself.
                self.mutant_skips += 1
                return []
        stock = self.explicit.analyze(test).model_valid
        mutated = self._mutant_oracles[tag].analyze(test).model_valid
        if stock == mutated:
            return []
        detail = (
            f"mutant admits different outcomes: stock="
            f"{_describe(test, stock)} mutant={_describe(test, mutated)}"
        )
        return [
            Discrepancy(
                "mutant", self.model_name, test, detail,
                mutant=tag, seed=seed, index=index,
            )
        ]
