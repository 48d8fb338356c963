"""SAT-backed execution oracle — the paper's actual pipeline.

:class:`AlloyOracle` answers the same questions as
:class:`repro.core.oracle.ExplicitOracle` but by model finding instead of
explicit enumeration: well-formedness facts plus model formulas are
compiled to CNF and instances are enumerated through the CDCL solver.
It is the faithful reproduction of the Alloy/Kodkod/MiniSAT stack, and
the two oracles are cross-validated against each other in the test
suite.

The oracle amortizes its SAT work the way Kodkod does:

* **Sessions** — each litmus test is enumerated once: one
  :class:`~repro.relational.solve.ModelFinder` asserts the
  well-formedness facts, compiles every model axiom to an unguarded
  root literal, and enumerates the facts' instances projected on
  ``rf``/``co``/``sc``.  Each axiom's value in each enumerated model is
  its verdict on that execution, so the one pass yields the execution
  space, every per-axiom valid list and the full model's; concrete
  execution validity is membership in the last.  The session keeps
  these lists, not the solver.
* **Compilation cache** — compiled CNF snapshots are shared across
  structurally-equal tests through :class:`repro.alloy.cache.CNFCache`
  (in-memory LRU, optional on-disk layer), so re-visited forms skip the
  translator entirely.
* **Determinism** — enumerated executions are sorted by a canonical key
  before use, so results do not depend on the order the solver's
  search happens to produce them in.
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
    """One test's executions and every axiom's valid list among them,
    all from one projected enumeration of the well-formedness facts."""

    def __init__(self, oracle: "AlloyOracle", test: LitmusTest):
        encoding = LitmusEncoding(test, with_sc=oracle.with_sc)
        dyn_names = [RF, CO] + ([SC_REL] if oracle.with_sc else [])
        # A root's value is its axiom's truth only if the projection
        # fixes every free tuple; the static relations are constants.
        unprojected = [
            name
            for name, decl in encoding.problem.declarations.items()
            if decl.free and name not in dyn_names
        ]
        assert not unprojected, f"free tuples outside rf/co/sc: {unprojected}"
        cache = oracle._cnf_cache
        key = cache.key(test, oracle.with_sc) if cache is not None else None
        compiled = cache.get(key) if cache is not None else None
        if compiled is not None:
            finder = ModelFinder(encoding.problem, compiled=compiled)
            roots = dict(compiled.roots)
        else:
            finder = ModelFinder(encoding.problem)
            finder.assert_formula(encoding.facts())
            roots = {
                name: finder.root_literal(formula)
                for name, formula in oracle._formulas.items()
            }
            # Allocate the projected relations' variables before
            # snapshotting, so a rebuilt finder enumerates over them all.
            for name in dyn_names:
                finder.translator.relation_matrix(name)
            if cache is not None:
                cache.put(key, compile_snapshot(finder, roots))
        labels = list(oracle._formulas)
        found = sorted(
            (
                (encoding.decode(instance), values)
                for instance, values in finder.instances_reading(
                    [roots[name] for name in labels], project=dyn_names
                )
            ),
            key=lambda pair: _execution_key(pair[0]),
        )
        oracle._sat_totals.add(finder.circuit.solver.stats)
        self.lists: dict[str | None, tuple[Execution, ...]] = {
            None: tuple(ex for ex, _ in found),
            _FULL_MODEL: tuple(ex for ex, values in found if all(values)),
        }
        for i, name in enumerate(labels):
            self.lists[name] = tuple(ex for ex, values in found if values[i])


class AlloyOracle:
    """Execution-level queries answered via the relational model finder.

    Exposes the same ``analyze``/``observable`` surface as
    :class:`repro.core.oracle.ExplicitOracle`, so it can be plugged into
    :class:`repro.core.minimality.MinimalityChecker` — running the
    paper's criterion end-to-end through the SAT stack.

    Args:
        model_name: one of :data:`repro.alloy.models.ALLOY_MODELS`.
        analysis_cache: LRU capacity of the per-test analysis cache.
        session_cache: LRU capacity of enumerated tests (each holds
            the test's executions and its per-axiom valid lists).
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
            self._sessions.popitem(last=False)
        return session

    # -- queries -------------------------------------------------------------------

    def axiom_names(self) -> tuple[str, ...]:
        return tuple(self._formulas)

    def executions(self, test: LitmusTest) -> Iterator[Execution]:
        """All well-formed executions (the facts alone)."""
        yield from self._session(test).lists[None]

    def valid_executions(
        self, test: LitmusTest, axiom: str | None = None
    ) -> Iterator[Execution]:
        """Executions satisfying one axiom (or the whole model)."""
        label = _FULL_MODEL if axiom is None else axiom
        yield from self._session(test).lists[label]

    def valid_outcomes(self, test: LitmusTest) -> frozenset[Outcome]:
        return frozenset(
            ex.outcome for ex in self.valid_executions(test)
        )

    def analyze(self, test: LitmusTest) -> TestAnalysis:
        """Outcome landscape via model finding: one enumeration of the
        test's executions, each carrying every axiom's verdict."""
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
        """Is the execution among its test's model-valid executions?  One
        outside the test's bounds is among none of them."""
        return execution in self._session(execution.test).lists[_FULL_MODEL]

    # -- telemetry -----------------------------------------------------------------

    def solver_stats(self) -> SolverStats:
        """Aggregate CDCL counters across every solver this oracle ran."""
        total = SolverStats()
        total.add(self._sat_totals)
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
