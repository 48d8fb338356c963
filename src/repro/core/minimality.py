"""The litmus test minimality criterion (paper Definition 1, §4.2).

    A litmus test satisfies the minimality criterion with respect to a
    particular memory model if and only if that test has at least one
    forbidden outcome that becomes observable under every instruction
    relaxation that can be applied to the test.

Three evaluation modes are provided, mirroring the paper's Fig. 5:

* :attr:`CriterionMode.EXACT` — the sound exists-forall statement of
  Fig. 5b.  An outcome is *forbidden* iff **no** execution producing it
  satisfies the axiom (quantifying over all auxiliary relations, ``co``
  interior and ``sc`` included), and each relaxed test is re-searched for
  **some** valid execution producing the projected outcome.  Alloy cannot
  express this first-order; our explicit oracle can.
* :attr:`CriterionMode.EXECUTION` — the Fig. 5c approximation the paper
  actually runs: outcomes are equated with whole executions, auxiliary
  relations are fixed before relaxations apply, and relaxed validity is
  evaluated on *derived perturbed relations* of the same execution
  (Fig. 6).  This admits the false negatives (Fig. 18) and the mild false
  positives (§4.3) the paper describes.
* :attr:`CriterionMode.EXECUTION_WA` — Fig. 5c plus the Fig. 19 ``sc``
  reversal workaround (models opt in via ``MemoryModel.wa_axioms``).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.litmus.execution import (
    Execution,
    Outcome,
    project_outcome,
    prune_outcome,
)
from repro.litmus.test import LitmusTest
from repro.models.base import MemoryModel
from repro.core.oracle import ExplicitOracle
from repro.relax.base import Application, RelaxedTest, Relaxation
from repro.relax.instruction import relaxations_for

__all__ = [
    "CriterionMode",
    "MinimalityResult",
    "MinimalityChecker",
    "perturb_execution",
]


class CriterionMode(enum.Enum):
    EXACT = "exact"              # paper Fig. 5b (sound)
    EXECUTION = "execution"      # paper Fig. 5c (approximate)
    EXECUTION_WA = "execution-wa"  # Fig. 5c + Fig. 19 workaround


@dataclass(frozen=True)
class MinimalityResult:
    """Outcome of checking one test against the criterion."""

    test: LitmusTest
    axiom: str | None
    is_minimal: bool
    #: a forbidden outcome observable under every relaxation (if minimal)
    witness: Outcome | None = None
    #: the relaxation application that defeated the last candidate
    #: outcome (if not minimal and some forbidden outcome existed)
    blocking: tuple[str, int, str] | None = None
    #: number of forbidden outcomes considered
    forbidden_count: int = 0
    #: number of relaxation applications quantified over
    application_count: int = 0
    #: per-application relaxed tests for the witness (diagnostics)
    relaxed_tests: tuple[LitmusTest, ...] = field(default=(), compare=False)

    def __bool__(self) -> bool:
        return self.is_minimal


def perturb_execution(execution: Execution, relaxed: RelaxedTest) -> Execution:
    """Re-interpret an execution on a relaxed test (Fig. 6's ``_p``).

    Events removed by the relaxation disappear from every relation; a
    read whose source was removed becomes an initial-state read (the
    paper's "leave the return value unconstrained" treatment); per-address
    coherence orders stay in relative order, which is exactly the Fig. 8
    transitive-closure repair.
    """
    emap = relaxed.event_map
    target = relaxed.test
    rf = []
    for read, src in execution.rf:
        new_read = emap[read]
        if new_read is None:
            continue
        new_src = None if src is None else emap[src]
        if new_src is not None and not _same_location(
            target, new_read, new_src
        ):
            # A relaxation that rewrites the address map can leave the
            # source writing a different location than its read; the read
            # falls back to the initial state (unconstrained treatment).
            new_src = None
        rf.append((new_read, new_src))
    rf.sort()
    co = []
    for addr in target.locations:
        order = []
        for orig in execution.co:
            for x in orig:
                w = emap[x]
                if w is None:
                    continue
                waddr = target.instruction(w).address
                if waddr is not None and target.location_of(waddr) == addr:
                    order.append(w)
        co.append(tuple(order))
    sc = tuple(emap[f] for f in execution.sc if emap[f] is not None)
    return Execution(target, tuple(rf), tuple(co), sc)


def _same_location(test: LitmusTest, a: int, b: int) -> bool:
    addr_a = test.instruction(a).address
    addr_b = test.instruction(b).address
    return (
        addr_a is not None
        and addr_b is not None
        and test.location_of(addr_a) == test.location_of(addr_b)
    )


class MinimalityChecker:
    """Checks tests against the minimality criterion for one model."""

    def __init__(
        self,
        model: MemoryModel,
        mode: CriterionMode = CriterionMode.EXACT,
        relaxations: tuple[Relaxation, ...] | None = None,
        oracle=None,
    ):
        """``oracle`` defaults to the explicit-enumeration oracle; pass a
        :class:`repro.alloy.AlloyOracle` to run the criterion through the
        paper's SAT pipeline instead (same ``analyze``/``observable``/
        ``executions`` surface)."""
        self.model = model
        self.mode = mode
        self.relaxations = (
            relaxations
            if relaxations is not None
            else relaxations_for(model.vocabulary)
        )
        workaround = mode is CriterionMode.EXECUTION_WA
        self.oracle = (
            oracle
            if oracle is not None
            else ExplicitOracle(model, workaround=workaround)
        )

    # -- public API ------------------------------------------------------------

    def applications(
        self, test: LitmusTest
    ) -> list[tuple[Relaxation, Application]]:
        """Every relaxation application the criterion quantifies over."""
        vocab = self.model.vocabulary
        return [
            (relax, app)
            for relax in self.relaxations
            for app in relax.applications(test, vocab)
        ]

    def check(
        self, test: LitmusTest, axiom: str | None = None
    ) -> MinimalityResult:
        """Check the criterion w.r.t. one axiom (or the whole model)."""
        return self.check_axioms(test, (axiom,))[axiom]

    def check_axioms(
        self, test: LitmusTest, axioms: Sequence[str | None]
    ) -> dict[str | None, MinimalityResult]:
        """Check the criterion w.r.t. each of ``axioms`` (``None`` is the
        whole model) in one pass over the test.

        Only the forbidden set depends on the axiom: the relaxation
        applications, the relaxed tests and whether a relaxed outcome is
        observable do not, so each is computed once for all axioms.
        """
        if self.mode is CriterionMode.EXACT:
            return self._check_exact(test, axioms)
        return self._check_execution(test, axioms)

    # -- Fig. 5b: sound, outcome-quantified ----------------------------------------

    def _check_exact(
        self, test: LitmusTest, axioms: Sequence[str | None]
    ) -> dict[str | None, MinimalityResult]:
        """Fig. 5b for every axiom in one filter walk over the
        applications.  Each relaxed test is built when the walk reaches
        its application, so a candidate blocked early builds only the
        relaxed tests up to its blocking application."""
        analysis = self.oracle.analyze(test)
        forbidden = {axiom: analysis.forbidden(axiom) for axiom in axioms}
        counts = {axiom: len(outcomes) for axiom, outcomes in forbidden.items()}
        apps = self.applications(test)
        candidates = set().union(*forbidden.values())
        if not candidates or not apps:
            return _results(test, counts, len(apps), {}, {}, [])
        vocab = self.model.vocabulary
        # Filter the forbidden outcomes application by application: an
        # outcome survives only if every relaxation renders it observable.
        # Iterating applications outermost fails fast — one unhelpful
        # relaxation usually kills every candidate outcome at once.
        # Survival does not depend on the axiom, so every axiom's outcomes
        # are filtered together, and an axiom is blocked by the first
        # application that leaves none of its own.
        surviving = sorted(candidates, key=_outcome_key)
        pending = [axiom for axiom in forbidden if forbidden[axiom]]
        blocking: dict[str | None, tuple[str, int, str]] = {}
        relaxed_tests: list[RelaxedTest] = []
        for relax, app in apps:
            relaxed = relax.apply(test, app, vocab)
            relaxed_tests.append(relaxed)
            surviving = [
                outcome
                for outcome in surviving
                if self.oracle.observable(
                    relaxed.test,
                    prune_outcome(
                        relaxed.test,
                        project_outcome(outcome, relaxed.event_map),
                    ),
                )
            ]
            for axiom in pending:
                if forbidden[axiom].isdisjoint(surviving):
                    blocking[axiom] = (relax.name, app.target, app.detail)
            pending = [axiom for axiom in pending if axiom not in blocking]
            if not pending:
                break
        witnesses = {
            axiom: next(o for o in surviving if o in forbidden[axiom])
            for axiom in pending
        }
        return _results(
            test, counts, len(apps), witnesses, blocking, relaxed_tests
        )

    # -- Fig. 5c: approximate, execution-quantified -----------------------------------

    def _check_execution(
        self, test: LitmusTest, axioms: Sequence[str | None]
    ) -> dict[str | None, MinimalityResult]:
        axiom_fns = dict(
            self.model.wa_axioms()
            if self.mode is CriterionMode.EXECUTION_WA
            else self.model.axioms()
        )
        every = tuple(axiom_fns.values())

        def whole_model(view) -> bool:
            return all(fn(view) for fn in every)

        holds = {
            axiom: whole_model if axiom is None else axiom_fns[axiom]
            for axiom in axioms
        }
        forbidden_seen = dict.fromkeys(axioms, 0)
        apps = self.applications(test)
        if not apps:
            return _results(test, forbidden_seen, 0, {}, {}, [])
        vocab = self.model.vocabulary
        # built the first time a walk reaches their application
        relaxed_tests: list[RelaxedTest] = []
        witnesses: dict[str | None, Outcome] = {}
        blocking: dict[str | None, tuple[str, int, str]] = {}
        pending = list(forbidden_seen)
        for execution in self.oracle.executions(test):
            view = self.model.view(execution)
            violated = [axiom for axiom in pending if not holds[axiom](view)]
            if not violated:
                continue
            # The perturbation walk does not depend on the axiom: one walk
            # answers every axiom this execution violates.
            block = None
            for index, (relax, app) in enumerate(apps):
                if index == len(relaxed_tests):
                    relaxed_tests.append(relax.apply(test, app, vocab))
                relaxed = relaxed_tests[index]
                pview = self.model.view(perturb_execution(execution, relaxed))
                if not whole_model(pview):
                    block = (relax.name, app.target, app.detail)
                    break
            for axiom in violated:
                forbidden_seen[axiom] += 1
                if block is None:
                    witnesses[axiom] = execution.outcome
                    blocking.pop(axiom, None)
                else:
                    blocking[axiom] = block
            if block is None:
                pending = [axiom for axiom in pending if axiom not in witnesses]
                if not pending:
                    break
        return _results(
            test, forbidden_seen, len(apps), witnesses, blocking, relaxed_tests
        )


def _results(
    test: LitmusTest,
    forbidden_counts: dict[str | None, int],
    application_count: int,
    witnesses: dict[str | None, Outcome],
    blocking: dict[str | None, tuple[str, int, str]],
    relaxed_tests: list[RelaxedTest],
) -> dict[str | None, MinimalityResult]:
    """One :class:`MinimalityResult` per axiom of a single pass.

    ``relaxed_tests`` holds the relaxed tests the pass built, a prefix
    of the applications.  A minimal axiom's walk was never blocked, so
    it reached every application and the prefix is complete.
    """
    relaxed = tuple(r.test for r in relaxed_tests)
    return {
        axiom: MinimalityResult(
            test,
            axiom,
            axiom in witnesses,
            witness=witnesses.get(axiom),
            blocking=blocking.get(axiom),
            forbidden_count=count,
            application_count=application_count,
            relaxed_tests=relaxed if axiom in witnesses else (),
        )
        for axiom, count in forbidden_counts.items()
    }


def _outcome_key(outcome: Outcome):
    # None sorts below any event id so outcomes order deterministically.
    return (
        tuple((r, -1 if s is None else s) for r, s in outcome.rf_sources),
        tuple((a, -1 if w is None else w) for a, w in outcome.finals),
    )
