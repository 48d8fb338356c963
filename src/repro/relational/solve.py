"""The relational model finder: formula + bounds -> instances.

This plays Kodkod's role in the paper's stack: it compiles a relational
formula over a bounded problem to CNF, hands it to the CDCL solver, and
decodes satisfying assignments back into relation instances.  Instance
enumeration (for "all executions of this test" queries) uses the SAT
solver's projected model enumeration.

The finder is *incremental*: one long-lived solver answers every query
over one bounded problem.  Formulas compile once — permanently via
:meth:`ModelFinder.assert_formula`, behind a selector literal via
:meth:`ModelFinder.selector_for`, or to an unguarded root literal via
:meth:`ModelFinder.root_literal` — and each subsequent query is a
handful of assumption literals against the shared clause database, so
learnt clauses, variable activities, and saved phases amortize across
queries.  A root literal is never assumed: its value in each enumerated
model (:meth:`ModelFinder.instances_reading`) is the formula's truth on
that instance.  A finder's compiled CNF can be snapshotted
(:func:`compile_snapshot`) and rebuilt without re-running the translator
(:class:`CompiledProblem`), which is what the structural-hash
compilation cache in :mod:`repro.alloy.cache` stores.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.obs import current_registry
from repro.relational import ast
from repro.relational.circuit import FALSE, TRUE, Circuit
from repro.relational.problem import Problem
from repro.relational.translate import Translator

__all__ = ["Instance", "ModelFinder", "CompiledProblem", "compile_snapshot"]


class Instance:
    """One satisfying assignment, decoded per relation."""

    def __init__(self, relations: dict[str, frozenset[tuple[int, ...]]]):
        self.relations = relations

    def __getitem__(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instance) and self.relations == other.relations

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.relations.items())))

    def __repr__(self) -> str:
        parts = [
            f"{name}={sorted(tuples)}"
            for name, tuples in sorted(self.relations.items())
            if tuples
        ]
        return "Instance(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class CompiledProblem:
    """A finder's CNF, detached from the translator that produced it.

    Everything needed to rebuild an equivalent solver without re-running
    the (expensive) relational-to-circuit translation: the variable
    count, the level-0 unit literals, the stored clauses, the free-tuple
    variable map, and the root literal per labelled formula.  The
    payload is plain ints/strings/tuples, so it serializes to JSON for
    the on-disk cache layer.
    """

    num_vars: int
    units: tuple[int, ...]
    clauses: tuple[tuple[int, ...], ...]
    #: ``(relation name, tuple, SAT var)`` per free tuple
    tuple_vars: tuple[tuple[str, tuple[int, ...], int], ...]
    #: ``(label, literal)`` per formula compiled by
    #: :meth:`ModelFinder.root_literal`
    roots: tuple[tuple[str, int], ...] = ()
    unsat: bool = False


def compile_snapshot(
    finder: "ModelFinder", roots: dict[str, int] | None = None
) -> CompiledProblem:
    """Snapshot a finder's compiled CNF for later reconstruction.

    Take it right after the base formulas and root literals are compiled,
    before any enumeration: learnt clauses are search artifacts and are
    deliberately not part of the snapshot.
    """
    from repro.sat.types import index_lit

    solver = finder.circuit.solver
    return CompiledProblem(
        num_vars=solver.num_vars,
        units=tuple(index_lit(i) for i in solver.trail),
        clauses=tuple(
            tuple(index_lit(i) for i in c.lits)
            for c in solver.clauses
            if not c.learnt
        ),
        tuple_vars=tuple(
            (name, t, var) for (name, t), var in sorted(finder.tuple_vars.items())
        ),
        roots=tuple((roots or {}).items()),
        unsat=not solver._ok,
    )


class ModelFinder:
    """Solves relational formulas over one bounded problem.

    Two construction modes:

    * ``ModelFinder(problem)`` — fresh: a translator compiles formulas on
      demand.
    * ``ModelFinder(problem, compiled=...)`` — rebuilt from a
      :class:`CompiledProblem`: the solver is loaded directly from the
      cached CNF and no translator exists (assumption-based queries over
      the already-compiled formulas only).
    """

    def __init__(self, problem: Problem, compiled: CompiledProblem | None = None):
        self.problem = problem
        self.circuit = Circuit()
        #: selector per guarded formula (None = tautology, no assumption)
        self._selectors: dict[ast.Formula, int | None] = {}
        if compiled is None:
            self.translator: Translator | None = Translator(problem, self.circuit)
            #: SAT variable per free tuple (live alias of the translator's)
            self.tuple_vars = self.translator.tuple_vars
        else:
            self.translator = None
            solver = self.circuit.solver
            while solver.num_vars < compiled.num_vars:
                solver.new_var()
            ok = not compiled.unsat
            for lit in compiled.units:
                ok = solver.add_clause([lit]) and ok
            for lits in compiled.clauses:
                ok = solver.add_clause(lits) and ok
            if not ok:
                solver._ok = False
            self.tuple_vars = {
                (name, tuple(t)): var for name, t, var in compiled.tuple_vars
            }

    # -- incremental query compilation ----------------------------------------

    def assert_formula(self, formula: ast.Formula) -> bool:
        """Permanently conjoin a formula (level-0 assertion).

        Returns False when the conjunction became trivially unsatisfiable.
        """
        root = self._compile(formula)
        return self.circuit.assert_true(root)

    def selector_for(self, formula: ast.Formula) -> int | None:
        """Compile a formula once, guarded behind a selector literal.

        Returns the selector to pass among ``assumptions`` when the
        formula should constrain a query, or None when the formula is a
        tautology over the bounds (no assumption needed).  Repeated calls
        with an equal formula reuse the compiled guard — this is the
        push/pop-free API that turns a per-query formula toggle into one
        assumption literal.
        """
        if formula in self._selectors:
            return self._selectors[formula]
        root = self._compile(formula)
        sel: int | None
        if root == TRUE:
            sel = None
        else:
            sel = self.circuit.solver.new_selector()
            self.circuit.assert_guarded(sel, root)
        self._selectors[formula] = sel
        return sel

    def root_literal(self, formula: ast.Formula) -> int:
        """Compile a formula to a literal, unguarded, that holds in
        exactly the models where the formula does.

        Every Tseitin gate is emitted in both directions, so in a
        complete model the literal's value is the formula's truth on
        that model's free tuples; :meth:`instances_reading` hands it
        back per instance.  A formula that folds to a constant gets a
        fresh variable fixed at level 0.
        """
        root = self._compile(formula)
        if root != TRUE and root != FALSE:
            return self.circuit.literal(root)
        var = self.circuit.solver.new_var()
        self.circuit.solver.add_clause([var if root == TRUE else -var])
        return var

    def _compile(self, formula: ast.Formula):
        """Translate one formula to a circuit root, publishing the
        compile count and wall time into the process-local metrics
        registry (``relational_compiles`` / ``relational_compile_seconds``)."""
        start = time.perf_counter()
        root = self._translator().formula(formula)
        elapsed = time.perf_counter() - start
        registry = current_registry()
        registry.count("relational_compiles")
        registry.count("relational_compile_seconds", elapsed)
        return root

    def _translator(self) -> Translator:
        if self.translator is None:
            raise RuntimeError(
                "this finder was rebuilt from a compiled CNF snapshot; "
                "only assumption-based queries over the already-compiled "
                "formulas are available"
            )
        return self.translator

    # -- decoding ---------------------------------------------------------------

    def _ensure_allocated(self, names: Iterable[str]) -> None:
        if self.translator is not None:
            for name in names:
                self.translator.relation_matrix(name)

    def _decode(self, model: dict[int, bool]) -> Instance:
        relations: dict[str, frozenset[tuple[int, ...]]] = {}
        self._ensure_allocated(self.problem.declarations)
        for name, decl in self.problem.declarations.items():
            tuples = set(decl.lower)
            for t in decl.free:
                var = self.tuple_vars.get((name, t))
                if var is not None and model.get(var, False):
                    tuples.add(t)
            relations[name] = frozenset(tuples)
        return Instance(relations)

    # -- queries ----------------------------------------------------------------

    def solve(self, formula: ast.Formula) -> Instance | None:
        """First instance satisfying the formula, or None."""
        for instance in self.instances(formula, limit=1):
            return instance
        return None

    def check(self, formula: ast.Formula) -> bool:
        """Is the formula satisfiable over the bounds?"""
        return self.solve(formula) is not None

    def check_assuming(self, assumptions: Iterable[int]) -> bool:
        """SAT/UNSAT of the compiled base under assumption literals.

        Assumptions are selector literals from :meth:`selector_for`,
        literals from :meth:`root_literal`, and/or signed free-tuple
        variables (pinning tuples in or out).
        """
        return bool(self.circuit.solver.solve(list(assumptions)))

    def instances(
        self,
        formula: ast.Formula,
        project: list[str] | None = None,
        limit: int | None = None,
    ) -> Iterator[Instance]:
        """Enumerate instances satisfying one formula.

        The formula is compiled behind a selector (cached across calls),
        so repeated enumerations on one finder are independent queries —
        earlier calls no longer permanently constrain later ones.
        """
        sel = self.selector_for(formula)
        yield from self.instances_assuming(
            [sel] if sel is not None else [], project=project, limit=limit
        )

    def instances_assuming(
        self,
        assumptions: Iterable[int],
        project: list[str] | None = None,
        limit: int | None = None,
    ) -> Iterator[Instance]:
        """Enumerate instances of the compiled base under assumptions.

        ``project`` names the relations over which instances must differ
        (default: all declared relations' free tuples).  Blocking clauses
        are selector-guarded inside the solver and released when the
        enumeration ends, so the clause database stays clean for the next
        query on this finder.
        """
        for instance, _ in self.instances_reading(
            (), assumptions, project=project, limit=limit
        ):
            yield instance

    def instances_reading(
        self,
        literals: Sequence[int],
        assumptions: Iterable[int] = (),
        project: list[str] | None = None,
        limit: int | None = None,
    ) -> Iterator[tuple[Instance, tuple[bool, ...]]]:
        """:meth:`instances_assuming`, also handing back the value of
        each of ``literals`` in the model of every instance."""
        names = (
            project if project is not None else list(self.problem.declarations)
        )
        self._ensure_allocated(names)
        names_set = set(names)
        proj_vars = [
            var
            for (name, _), var in sorted(self.tuple_vars.items())
            if name in names_set
        ]
        solver = self.circuit.solver
        assume = list(assumptions)

        def current() -> tuple[Instance, tuple[bool, ...]]:
            # the projected assignment drives enumeration; decoding and
            # the literal values use the full model, live at yield time
            values = tuple(
                solver.model_value(abs(lit)) == (lit > 0) for lit in literals
            )
            return self._decode(solver.model()), values

        if not proj_vars:
            # no free variables: at most one instance
            if solver.solve(assume):
                yield current()
            return
        for _ in solver.models(
            project=proj_vars, assumptions=assume, limit=limit
        ):
            yield current()
