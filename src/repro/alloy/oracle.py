"""SAT-backed execution oracle — the paper's actual pipeline.

:class:`AlloyOracle` answers the same questions as
:class:`repro.core.oracle.ExplicitOracle` but by model finding instead of
explicit enumeration: well-formedness facts plus model formulas are
compiled to CNF and instances are enumerated through the CDCL solver.
It is the faithful reproduction of the Alloy/Kodkod/MiniSAT stack, and
the two oracles are cross-validated against each other in the test
suite.

The oracle amortizes its SAT work the way Kodkod does:

* **Sessions** — each litmus test gets one long-lived
  :class:`~repro.relational.solve.ModelFinder`; the well-formedness
  facts are asserted once, every model axiom compiles once behind a
  selector literal, and all queries for the test (full enumeration,
  per-axiom enumeration, concrete-execution validity) are assumption
  sets against that single warm solver.
* **Compilation cache** — compiled CNF snapshots are shared across
  structurally-equal tests through :class:`repro.alloy.cache.CNFCache`
  (in-memory LRU, optional on-disk layer), so re-visited forms skip the
  translator entirely.
* **Determinism** — enumerated executions are sorted by a canonical key
  before use, so results do not depend on the enumeration order the
  warm solver's state happens to produce.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

from collections import OrderedDict

from repro.alloy.cache import CNFCache
from repro.alloy.encoding import CO, RF, SC_REL, LitmusEncoding
from repro.alloy.models import ALLOY_MODELS
from repro.core.oracle import LRU, TestAnalysis
from repro.litmus.execution import Execution, Outcome
from repro.litmus.test import LitmusTest
from repro.relational.solve import ModelFinder, compile_snapshot
from repro.sat.solver import SolverStats

__all__ = ["AlloyOracle"]

#: sentinel axiom label meaning "conjunction of all model axioms"
_FULL_MODEL = "*"


def _execution_key(ex: Execution):
    """Canonical sort key making enumeration order solver-independent."""
    return (
        tuple((r, -1 if src is None else src) for r, src in ex.rf),
        ex.co,
        ex.sc,
    )


class _Session:
    """One test's long-lived incremental finder plus its query cache."""

    def __init__(self, oracle: "AlloyOracle", test: LitmusTest):
        self.oracle = oracle
        self.encoding = LitmusEncoding(test, with_sc=oracle.with_sc)
        self.dyn_names = [RF, CO] + ([SC_REL] if oracle.with_sc else [])
        cache = oracle._cnf_cache
        key = cache.key(test, oracle.with_sc) if cache is not None else None
        compiled = cache.get(key) if cache is not None else None
        if compiled is not None:
            self.finder = ModelFinder(self.encoding.problem, compiled=compiled)
            self.selectors: dict[str, int | None] = {
                label: (sel or None) for label, sel in compiled.selectors
            }
        else:
            facts = self.encoding.facts()
            self.finder = ModelFinder(self.encoding.problem)
            self.finder.assert_formula(facts)
            self.selectors = {
                name: self.finder.selector_for(formula)
                for name, formula in oracle._formulas.items()
            }
            # Allocate every relation's variables before snapshotting so
            # the compiled form can answer pinned-execution queries too.
            for name in self.encoding.problem.declarations:
                self.finder.translator.relation_matrix(name)
            if cache is not None:
                cache.put(key, compile_snapshot(self.finder, self.selectors))
        self._enumerated: dict[str | None, tuple[Execution, ...]] = {}
        self._pins: dict[Execution, list[int]] = {}

    def _assumptions(self, axiom: str) -> list[int]:
        if axiom == _FULL_MODEL:
            return [s for s in self.selectors.values() if s is not None]
        sel = self.selectors[axiom]
        return [sel] if sel is not None else []

    def executions_for(self, axiom: str | None) -> tuple[Execution, ...]:
        """Executions under the facts plus one axiom selection, sorted.

        ``axiom`` is None (facts only), an axiom name, or ``"*"`` for the
        whole model.  Each selection computes at most once per session.

        The execution space enumerates exactly once (the facts-only
        query); every axiom selection then *filters* that list with
        pinned-assumption queries — each is a single unit propagation
        against the warm solver, no model search, no blocking clauses.
        """
        cached = self._enumerated.get(axiom)
        if cached is not None:
            return cached
        if axiom is None:
            decode = self.encoding.decode
            found = [
                decode(inst)
                for inst in self.finder.instances_assuming([], project=self.dyn_names)
            ]
            found.sort(key=_execution_key)
            cached = tuple(found)
        else:
            cached = self._intersect_cached() if axiom == _FULL_MODEL else None
            if cached is None:
                cached = tuple(
                    ex
                    for ex in self.executions_for(None)
                    if self._selection_holds(ex, axiom)
                )
        self._enumerated[axiom] = cached
        return cached

    def _intersect_cached(self) -> tuple[Execution, ...] | None:
        """Full-model executions as the intersection of the per-axiom
        lists, when all of them are already filtered (the ``analyze``
        path guarantees that): set algebra instead of solver queries.
        Returns None when some axiom list is missing — then the direct
        pinned filter is cheaper than materializing every axiom."""
        lists = [self._enumerated.get(name) for name in self.oracle._formulas]
        if not lists or any(entry is None for entry in lists):
            return None
        member = set(lists[0])
        for entry in lists[1:]:
            member &= set(entry)
        return tuple(ex for ex in self.executions_for(None) if ex in member)

    def _selection_holds(self, execution: Execution, axiom: str) -> bool:
        """Does one execution satisfy one axiom selection (or ``"*"``)?

        One pinned query: all free rf/co/sc variables assumed to the
        execution's values, plus the selection's axiom selectors."""
        pins = self._pins.get(execution)
        if pins is None:
            pinned = self._pinned_tuples(execution)
            pins = []
            for name in self.dyn_names:
                decl = self.encoding.problem.declarations[name]
                tuples = pinned[name]
                for t in sorted(decl.free):
                    var = self.finder.tuple_vars[(name, t)]
                    pins.append(var if t in tuples else -var)
            self._pins[execution] = pins
        return self.finder.check_assuming(self._assumptions(axiom) + pins)

    def check_execution(self, execution: Execution) -> bool:
        """Model-validity of one concrete execution, by pinning every
        free rf/co/sc variable through assumptions (no new constants, no
        new clauses)."""
        pinned = self._pinned_tuples(execution)
        for name in self.dyn_names:
            decl = self.encoding.problem.declarations[name]
            if not pinned[name] <= decl.upper or not decl.lower <= pinned[name]:
                return False
        return self._selection_holds(execution, _FULL_MODEL)

    def _pinned_tuples(self, execution: Execution) -> dict[str, set]:
        pinned: dict[str, set] = {
            RF: {(src, r) for r, src in execution.rf if src is not None}
        }
        co_tuples: set = set()
        for order in execution.co:
            for i, w1 in enumerate(order):
                for w2 in order[i + 1 :]:
                    co_tuples.add((w1, w2))
        pinned[CO] = co_tuples
        if self.oracle.with_sc:
            sc_tuples: set = set()
            seq = execution.sc
            for i, a in enumerate(seq):
                for b in seq[i + 1 :]:
                    sc_tuples.add((a, b))
            pinned[SC_REL] = sc_tuples
        return pinned

    @property
    def solver_stats(self) -> SolverStats:
        return self.finder.circuit.solver.stats


class AlloyOracle:
    """Execution-level queries answered via the relational model finder.

    Exposes the same ``analyze``/``observable`` surface as
    :class:`repro.core.oracle.ExplicitOracle`, so it can be plugged into
    :class:`repro.core.minimality.MinimalityChecker` — running the
    paper's criterion end-to-end through the SAT stack.

    Args:
        model_name: one of :data:`repro.alloy.models.ALLOY_MODELS`.
        analysis_cache: LRU capacity of the per-test analysis cache.
        session_cache: LRU capacity of live incremental sessions (each
            holds a solver with its learnt-clause database).
        compile_cache: in-memory capacity of the CNF compilation cache;
            0 disables it (the analysis lints flag that configuration).
        cnf_cache_dir: optional directory for the on-disk compilation
            cache layer, shared across processes and runs.
    """

    def __init__(
        self,
        model_name: str,
        analysis_cache: int = 1024,
        session_cache: int = 64,
        compile_cache: int = 256,
        cnf_cache_dir: str | None = None,
    ):
        if model_name not in ALLOY_MODELS:
            known = ", ".join(sorted(ALLOY_MODELS))
            raise KeyError(
                f"no Alloy encoding for {model_name!r}; available: {known} "
                "(Power's recursive ppo needs the explicit engine)"
            )
        self.model_name = model_name
        factory, with_sc = ALLOY_MODELS[model_name]
        self._formulas = factory()
        self.with_sc = with_sc
        self._analysis: LRU = LRU(analysis_cache)
        self._analyses = 0
        self._analysis_hits = 0
        self._sessions: OrderedDict[LitmusTest, _Session] = OrderedDict()
        self._session_cache = max(1, session_cache)
        self._session_count = 0
        self._session_hits = 0
        self._sat_totals = SolverStats()
        self._cnf_cache: CNFCache | None = None
        if compile_cache > 0 or cnf_cache_dir is not None:
            self._cnf_cache = CNFCache(
                self.model_fingerprint(),
                capacity=compile_cache,
                disk_dir=cnf_cache_dir,
            )

    def model_fingerprint(self) -> str:
        """Content digest of the model's formulas — the cache-key
        component that keeps snapshots from one model out of another's."""
        payload = repr(
            (
                self.model_name,
                self.with_sc,
                sorted(self._formulas.items()),
            )
        )
        return hashlib.blake2b(payload.encode(), digest_size=12).hexdigest()

    # -- sessions -------------------------------------------------------------------

    def _session(self, test: LitmusTest) -> _Session:
        """The live session for a test, built on first use."""
        session = self._sessions.get(test)
        if session is not None:
            self._sessions.move_to_end(test)
            self._session_hits += 1
            return session
        session = _Session(self, test)
        self._sessions[test] = session
        self._session_count += 1
        while len(self._sessions) > self._session_cache:
            _, evicted = self._sessions.popitem(last=False)
            self._sat_totals.add(evicted.solver_stats)
        return session

    # -- queries -------------------------------------------------------------------

    def axiom_names(self) -> tuple[str, ...]:
        return tuple(self._formulas)

    def executions(self, test: LitmusTest) -> Iterator[Execution]:
        """All well-formed executions (the facts alone)."""
        yield from self._session(test).executions_for(None)

    def valid_executions(
        self, test: LitmusTest, axiom: str | None = None
    ) -> Iterator[Execution]:
        """Executions satisfying one axiom (or the whole model)."""
        label = _FULL_MODEL if axiom is None else axiom
        yield from self._session(test).executions_for(label)

    def valid_outcomes(self, test: LitmusTest) -> frozenset[Outcome]:
        return frozenset(
            ex.outcome for ex in self.valid_executions(test)
        )

    def analyze(self, test: LitmusTest) -> TestAnalysis:
        """Outcome landscape via model finding (one enumeration for the
        execution space, one per axiom) — all against one warm solver."""
        cached = self._analysis.recall(test)
        if cached is not None:
            self._analysis_hits += 1
            return cached
        self._analyses += 1  # like ExplicitOracle: misses, not calls
        all_outcomes = frozenset(
            ex.outcome for ex in self.executions(test)
        )
        axiom_valid = {
            name: frozenset(
                ex.outcome for ex in self.valid_executions(test, name)
            )
            for name in self._formulas
        }
        model_valid = self.valid_outcomes(test)
        return self._analysis.remember(
            test, TestAnalysis(all_outcomes, model_valid, axiom_valid)
        )

    def observable(self, test: LitmusTest, constraint: Outcome) -> bool:
        """Does some model-valid execution produce the (partial) outcome?"""
        return self.analyze(test).admits(constraint)

    def is_valid(self, execution: Execution) -> bool:
        """Check one concrete execution by pinning rf/co/sc exactly."""
        return self._session(execution.test).check_execution(execution)

    # -- telemetry -----------------------------------------------------------------

    def solver_stats(self) -> SolverStats:
        """Aggregate CDCL counters across every solver this oracle ran
        (evicted sessions included)."""
        total = SolverStats()
        total.add(self._sat_totals)
        for session in self._sessions.values():
            total.add(session.solver_stats)
        return total

    def as_metrics(self) -> dict[str, int | float]:
        """The :class:`repro.obs.Stats` protocol: raw summable counters
        (analysis/session caches, CNF compilation, ``sat_``-prefixed
        CDCL totals) with no derived ratios."""
        sat = self.solver_stats()
        stats: dict[str, int | float] = {
            "analyses": self._analyses,
            "analysis_hits": self._analysis_hits,
            "sessions": self._session_count,
            "session_hits": self._session_hits,
        }
        if self._cnf_cache is not None:
            stats.update(self._cnf_cache.as_metrics())
        for name, value in sat.as_metrics().items():
            stats[f"sat_{name}"] = value
        return stats
