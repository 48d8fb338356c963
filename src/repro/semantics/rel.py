"""Bit-packed binary relations over small event universes.

Every litmus test the synthesis engine touches has at most a handful of
events (the paper never scales past 8 instructions), so a binary relation
over event ids ``0..n-1`` fits in one ``n*n``-bit integer: bit ``i*n + j``
is set iff the pair ``(i, j)`` is in the relation, so row ``i`` is the
``n``-bit slice starting at bit ``i*n``.  Union, intersection and
difference are then one integer operation each, and composition and
transitive closure are ``n`` carry-free multiplications of a column by a
row (the partial products land in disjoint ``n``-bit rows), which keeps
the synthesis inner loop fast in pure Python.

The operator spelling deliberately mirrors the Alloy syntax key from the
paper (Table 3): ``+`` union, ``&`` intersection, ``-`` difference, ``~r``
transpose, ``r ^ None`` is not used — instead :meth:`Rel.plus` is ``^r``
(transitive closure) and :meth:`Rel.star` is ``*r`` (reflexive transitive
closure).  Composition (relational join ``.``) is :meth:`Rel.join` or the
``@`` operator.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = ["Rel"]


class _Geometry(dict):
    """``n -> (col0, row, diag)``: the bit masks of column 0 (bit ``i*n``
    for every ``i``), of row 0 (the low ``n`` bits) and of the diagonal,
    computed once per universe size."""

    def __missing__(self, n: int) -> tuple[int, int, int]:
        col0 = sum(1 << (i * n) for i in range(n))
        diag = sum(1 << (i * (n + 1)) for i in range(n))
        geometry = self[n] = (col0, (1 << n) - 1, diag)
        return geometry


_GEOMETRY = _Geometry()


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spread(mask: int, n: int) -> int:
    """Column 0 restricted to ``mask``: bit ``i*n`` for each ``i`` in it."""
    out = 0
    for i in _iter_bits(mask & ((1 << n) - 1)):
        out |= 1 << (i * n)
    return out


class Rel:
    """An immutable binary relation over the universe ``{0, .., n-1}``.

    Internally one integer ``bits``; bit ``i*n + j`` is set iff the pair
    ``(i, j)`` is in the relation.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if not 0 <= bits < 1 << (n * n):
            raise ValueError(f"bits {bits:#x} outside a universe of size {n}")
        self.n = n
        self.bits = bits

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> Rel:
        """The empty relation over a universe of size ``n``."""
        return cls(n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> Rel:
        """Build a relation from an iterable of ``(src, dst)`` pairs."""
        bits = 0
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) outside universe of size {n}")
            bits |= 1 << (i * n + j)
        return cls(n, bits)

    @classmethod
    def identity(cls, n: int) -> Rel:
        """The identity relation ``iden``."""
        return cls(n, _GEOMETRY[n][2])

    @classmethod
    def full(cls, n: int) -> Rel:
        """The complete relation ``univ -> univ``."""
        return cls(n, (1 << (n * n)) - 1)

    @classmethod
    def product(cls, n: int, src: int, dst: int) -> Rel:
        """Cross product of two sets given as bitmasks (``src -> dst``)."""
        return cls(n, _spread(src, n) * (dst & ((1 << n) - 1)))

    @classmethod
    def total_order(cls, n: int, order: Iterable[int]) -> Rel:
        """The strict total order relating each element of ``order`` to
        every later element."""
        bits = 0
        later = 0
        for i in reversed(list(order)):
            bits |= later << (i * n)
            later |= 1 << i
        return cls(n, bits)

    # -- set algebra -----------------------------------------------------

    def __or__(self, other: Rel) -> Rel:
        return Rel(self.n, self.bits | other.bits)

    __add__ = __or__  # Alloy spells union "+"

    def __and__(self, other: Rel) -> Rel:
        return Rel(self.n, self.bits & other.bits)

    def __sub__(self, other: Rel) -> Rel:
        return Rel(self.n, self.bits & ~other.bits)

    def __invert__(self) -> Rel:
        """Transpose (Alloy ``~r``)."""
        n = self.n
        out = 0
        for p in _iter_bits(self.bits):
            i, j = divmod(p, n)
            out |= 1 << (j * n + i)
        return Rel(n, out)

    transpose = __invert__

    # -- composition and closures ----------------------------------------

    def join(self, other: Rel) -> Rel:
        """Relational composition ``self ; other`` (Alloy ``.``).

        For each middle element ``k``, column ``k`` of ``self`` times row
        ``k`` of ``other`` is the set of pairs composed through ``k``.
        """
        n = self.n
        col0, row, _ = _GEOMETRY[n]
        a = self.bits
        b = other.bits
        out = 0
        k = 0
        while b:
            rk = b & row
            if rk:
                out |= ((a >> k) & col0) * rk
            b >>= n
            k += 1
        return Rel(n, out)

    __matmul__ = join

    def plus(self) -> Rel:
        """Transitive closure (Alloy ``^r``), by Warshall's algorithm."""
        n = self.n
        col0, row, _ = _GEOMETRY[n]
        r = self.bits
        for k in range(n):
            rk = (r >> (k * n)) & row
            if rk:
                r |= ((r >> k) & col0) * rk
        return Rel(n, r)

    def star(self) -> Rel:
        """Reflexive transitive closure (Alloy ``*r``)."""
        return Rel(self.n, self.plus().bits | _GEOMETRY[self.n][2])

    def opt(self) -> Rel:
        """Reflexive closure ``r?`` = ``iden + r``."""
        return Rel(self.n, self.bits | _GEOMETRY[self.n][2])

    # -- restrictions ------------------------------------------------------

    def restrict_domain(self, mask: int) -> Rel:
        """Alloy ``set <: rel``: keep pairs whose source is in ``mask``."""
        n = self.n
        return Rel(n, self.bits & (_spread(mask, n) * ((1 << n) - 1)))

    def restrict_range(self, mask: int) -> Rel:
        """Alloy ``rel :> set``: keep pairs whose target is in ``mask``."""
        col0, row, _ = _GEOMETRY[self.n]
        return Rel(self.n, self.bits & (col0 * (mask & row)))

    # -- predicates --------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.bits

    def is_irreflexive(self) -> bool:
        return not self.bits & _GEOMETRY[self.n][2]

    def is_acyclic(self) -> bool:
        """True iff the relation, viewed as a digraph, has no cycle.

        Warshall's closure, stopping at the first diagonal bit (a
        self-loop ``(k, k)`` shows at step ``k``)."""
        n = self.n
        col0, row, diag = _GEOMETRY[n]
        r = self.bits
        for k in range(n):
            rk = (r >> (k * n)) & row
            if rk:
                r |= ((r >> k) & col0) * rk
                if r & diag:
                    return False
        return True

    def is_transitive(self) -> bool:
        return self.join(self).__sub__(self).is_empty()

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        n = self.n
        return 0 <= i < n and 0 <= j < n and bool((self.bits >> (i * n + j)) & 1)

    def __bool__(self) -> bool:
        return bool(self.bits)

    # -- introspection -------------------------------------------------------

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate the pairs in the relation in row-major order."""
        n = self.n
        for p in _iter_bits(self.bits):
            yield divmod(p, n)

    def domain(self) -> int:
        """Bitmask of sources."""
        n = self.n
        row = (1 << n) - 1
        bits = self.bits
        mask = 0
        i = 0
        while bits:
            if bits & row:
                mask |= 1 << i
            bits >>= n
            i += 1
        return mask

    def range(self) -> int:
        """Bitmask of targets."""
        n = self.n
        row = (1 << n) - 1
        bits = self.bits
        mask = 0
        while bits:
            mask |= bits & row
            bits >>= n
        return mask

    def image(self, src_mask: int) -> int:
        """Bitmask of elements reachable in one step from ``src_mask``."""
        return self.restrict_domain(src_mask).range()

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rel) and self.bits == other.bits and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Rel({self.n}, {{{', '.join(f'{i}->{j}' for i, j in self.pairs())}}})"
