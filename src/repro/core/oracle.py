"""Consistency oracle: per-test execution analysis with memoization.

The minimality criterion asks the same two questions over and over:

* which outcomes of a test are forbidden (w.r.t. one axiom)?
* is a (partial) outcome observable in some valid execution of a test?

The :class:`ExplicitOracle` answers both by exhaustive execution
enumeration, memoizing per-test analyses.  During synthesis the same
relaxed tests recur constantly (RI applied to structurally similar
candidates produces identical tests), so the observability cache hits
hard.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.litmus.execution import Execution, Outcome
from repro.litmus.test import LitmusTest
from repro.models.base import MemoryModel
from repro.semantics.enumerate import enumerate_executions

__all__ = ["TestAnalysis", "ExplicitOracle", "LRU"]


@dataclass(frozen=True)
class TestAnalysis:
    """One test's outcome landscape under a model.

    ``axiom_valid[name]`` is the set of outcomes produced by at least one
    execution satisfying that single axiom; ``model_valid`` is the set of
    outcomes produced by at least one execution satisfying *all* axioms.
    ``all_outcomes`` is every outcome any well-formed execution produces.
    """

    __test__ = False  # not a pytest test class despite the name

    all_outcomes: frozenset[Outcome]
    model_valid: frozenset[Outcome]
    axiom_valid: dict[str, frozenset[Outcome]]

    def forbidden(self, axiom: str | None = None) -> frozenset[Outcome]:
        """Outcomes forbidden w.r.t. one axiom (or the whole model)."""
        allowed = self.model_valid if axiom is None else self.axiom_valid[axiom]
        return self.all_outcomes - allowed

    def admits(self, constraint: Outcome) -> bool:
        """Does some model-valid outcome extend the (partial) constraint?"""
        want_rf = dict(constraint.rf_sources)
        want_finals = dict(constraint.finals)
        for outcome in self.model_valid:
            rf = dict(outcome.rf_sources)
            if any(rf.get(r, _MISSING) != s for r, s in want_rf.items()):
                continue
            # An address absent from the outcome is untouched by the test
            # and keeps its initial value — it satisfies a None (initial)
            # constraint, which arises when a relaxation removes every
            # access to an address.
            finals = dict(outcome.finals)
            if any(finals.get(a) != w for a, w in want_finals.items()):
                continue
            return True
        return False


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


class LRU(OrderedDict):
    """A minimal LRU mapping used for the oracles' caches: a hit read
    through :meth:`recall` and every :meth:`remember` make the key the
    most recent, and the least recent key is evicted past ``maxsize``."""

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize

    def recall(self, key):
        """The value stored under ``key``, refreshed, or None."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def remember(self, key, value):
        self[key] = value
        self.move_to_end(key)
        if len(self) > self.maxsize:
            self.popitem(last=False)
        return value


class ExplicitOracle:
    """Exhaustive-enumeration consistency oracle for one memory model."""

    def __init__(
        self,
        model: MemoryModel,
        analysis_cache: int = 4096,
        observe_cache: int = 65536,
        workaround: bool = False,
    ):
        self.model = model
        self.workaround = workaround
        self._axioms = dict(
            model.wa_axioms() if workaround else model.axioms()
        )
        self._analysis: LRU = LRU(analysis_cache)
        self._observe: LRU = LRU(observe_cache)
        self.stats = {
            "analyses": 0,
            "analysis_hits": 0,
            "observations": 0,
            "observe_hits": 0,
            "executions": 0,
        }

    def as_metrics(self) -> dict[str, int | float]:
        """The :class:`repro.obs.Stats` protocol: raw summable counters
        only — derived ratios come from :func:`repro.obs.derive_rates`."""
        return dict(self.stats)

    # -- execution-level helpers -----------------------------------------------

    def executions(self, test: LitmusTest):
        """All well-formed executions (including ``sc`` enumeration when
        the model requires it)."""
        return enumerate_executions(test, with_sc=self.model.uses_sc_order)

    def axiom_bits(self, execution: Execution) -> dict[str, bool]:
        """Which axioms the execution satisfies."""
        view = self.model.view(execution)
        return {name: fn(view) for name, fn in self._axioms.items()}

    def is_valid(self, execution: Execution) -> bool:
        view = self.model.view(execution)
        return all(fn(view) for fn in self._axioms.values())

    # -- outcome-level analysis ---------------------------------------------------

    def analyze(self, test: LitmusTest) -> TestAnalysis:
        """Compute (or recall) the outcome landscape of a test."""
        cached = self._analysis.recall(test)
        if cached is not None:
            self.stats["analysis_hits"] += 1
            return cached
        self.stats["analyses"] += 1
        all_outcomes: set[Outcome] = set()
        model_valid: set[Outcome] = set()
        axiom_valid: dict[str, set[Outcome]] = {
            name: set() for name in self._axioms
        }
        for execution in self.executions(test):
            self.stats["executions"] += 1
            outcome = execution.outcome
            all_outcomes.add(outcome)
            bits = self.axiom_bits(execution)
            for name, ok in bits.items():
                if ok:
                    axiom_valid[name].add(outcome)
            if all(bits.values()):
                model_valid.add(outcome)
        analysis = TestAnalysis(
            frozenset(all_outcomes),
            frozenset(model_valid),
            {k: frozenset(v) for k, v in axiom_valid.items()},
        )
        return self._analysis.remember(test, analysis)

    def observable(self, test: LitmusTest, constraint: Outcome) -> bool:
        """Is the (possibly partial) outcome produced by some execution
        valid under the full model?

        Answered from the cached per-test analysis: the analysis's
        model-valid outcome set is usually tiny and is shared across all
        constraints ever asked about this test (and RI-relaxed tests
        recur constantly during synthesis).
        """
        key = (test, constraint)
        cached = self._observe.recall(key)
        if cached is not None:
            self.stats["observe_hits"] += 1
            return cached
        self.stats["observations"] += 1
        return self._observe.remember(key, self.analyze(test).admits(constraint))
