"""Hash-consed boolean circuits with Tseitin CNF compilation.

The relational translator builds boolean matrices whose entries are
nodes of this circuit; the root formula node is then compiled to CNF for
the CDCL solver.  Hash-consing keeps shared subterms shared, which
matters because relational operators (joins, closures) reuse entries
heavily.
"""

from __future__ import annotations

from repro.sat.solver import Solver

__all__ = ["Circuit", "TRUE", "FALSE"]

# Node encoding: ("var", v) | ("and", ids) | ("or", ids) | ("not", id)
# plus the two constants.
TRUE = 0
FALSE = 1


class Circuit:
    """An and/or/not DAG over SAT variables, with constant folding."""

    def __init__(self, solver: Solver | None = None):
        self.solver = solver if solver is not None else Solver()
        self._nodes: list[tuple] = [("true",), ("false",)]
        self._intern: dict[tuple, int] = {("true",): TRUE, ("false",): FALSE}
        self._tseitin: dict[int, int] = {}

    # -- construction ---------------------------------------------------------

    def _mk(self, key: tuple) -> int:
        node = self._intern.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._intern[key] = node
        return node

    def var(self, sat_var: int | None = None) -> int:
        """A fresh (or existing) SAT-variable leaf."""
        if sat_var is None:
            sat_var = self.solver.new_var()
        return self._mk(("var", sat_var))

    def not_(self, a: int) -> int:
        if a == TRUE:
            return FALSE
        if a == FALSE:
            return TRUE
        key = self._nodes[a]
        if key[0] == "not":
            return key[1]
        return self._mk(("not", a))

    def and_(self, *args: int) -> int:
        flat: list[int] = []
        for a in args:
            if a == FALSE:
                return FALSE
            if a == TRUE:
                continue
            if self._nodes[a][0] == "and":
                flat.extend(self._nodes[a][1])
            else:
                flat.append(a)
        unique = sorted(set(flat))
        for a in unique:
            if self.not_(a) in unique:
                return FALSE
        if not unique:
            return TRUE
        if len(unique) == 1:
            return unique[0]
        return self._mk(("and", tuple(unique)))

    def or_(self, *args: int) -> int:
        return self.not_(self.and_(*(self.not_(a) for a in args)))

    def implies(self, a: int, b: int) -> int:
        return self.or_(self.not_(a), b)

    def iff(self, a: int, b: int) -> int:
        return self.and_(self.implies(a, b), self.implies(b, a))

    def ite(self, c: int, t: int, e: int) -> int:
        return self.or_(self.and_(c, t), self.and_(self.not_(c), e))

    # -- CNF compilation ----------------------------------------------------------

    def _literal(self, node: int) -> int:
        """Tseitin literal (DIMACS) for a node."""
        if node == TRUE or node == FALSE:
            raise ValueError("constants have no literal; assert instead")
        key = self._nodes[node]
        if key[0] == "var":
            return key[1]
        if key[0] == "not":
            return -self._literal(key[1])
        cached = self._tseitin.get(node)
        if cached is not None:
            return cached
        assert key[0] == "and"
        out = self.solver.new_var()
        self._tseitin[node] = out
        lits = [self._literal(child) for child in key[1]]
        for lit in lits:
            self.solver.add_clause([-out, lit])
        self.solver.add_clause([out] + [-lit for lit in lits])
        return out

    def literal(self, node: int) -> int:
        """Public Tseitin literal for a non-constant node.

        Compiling through this (instead of :meth:`assert_true`) lets the
        caller guard the node behind a solver selector so the same CNF
        serves many assumption-based queries, or read the node's value
        off each model (every gate is defined in both directions).
        """
        return self._literal(node)

    def assert_true(self, node: int) -> bool:
        """Assert the node at the solver's top level.  Returns False when
        the formula became trivially unsatisfiable."""
        if node == TRUE:
            return True
        if node == FALSE:
            return self.solver.add_clause([])
        return self.solver.add_clause([self._literal(node)])

    def assert_guarded(self, sel: int, node: int) -> bool:
        """Assert ``sel -> node``: the node holds in every query assuming
        the selector literal, and is inert otherwise.  Returns False when
        the solver is already unsatisfiable (or the guard can never be
        activated)."""
        if node == TRUE:
            return True
        if node == FALSE:
            return self.solver.add_clause([-sel])
        return self.solver.add_removable_clause(sel, [self._literal(node)])

    def evaluate(self, node: int, model: dict[int, bool]) -> bool:
        """Evaluate a node under a SAT model (for testing/decoding)."""
        key = self._nodes[node]
        tag = key[0]
        if tag == "true":
            return True
        if tag == "false":
            return False
        if tag == "var":
            return model.get(key[1], False)
        if tag == "not":
            return not self.evaluate(key[1], model)
        return all(self.evaluate(c, model) for c in key[1])
