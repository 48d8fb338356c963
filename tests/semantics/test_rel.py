"""Unit tests for the bitmask relation algebra."""

import pytest

from repro.semantics.rel import Rel


class TestConstruction:
    def test_empty(self):
        r = Rel.empty(4)
        assert len(r) == 0
        assert r.is_empty()
        assert not r

    def test_from_pairs(self):
        r = Rel.from_pairs(3, [(0, 1), (1, 2)])
        assert (0, 1) in r
        assert (1, 2) in r
        assert (0, 2) not in r
        assert len(r) == 2

    def test_from_pairs_out_of_range(self):
        with pytest.raises(ValueError):
            Rel.from_pairs(2, [(0, 2)])
        with pytest.raises(ValueError):
            Rel.from_pairs(2, [(-1, 0)])

    def test_identity(self):
        r = Rel.identity(3)
        assert list(r.pairs()) == [(0, 0), (1, 1), (2, 2)]

    def test_full(self):
        r = Rel.full(2)
        assert len(r) == 4

    def test_product(self):
        r = Rel.product(4, 0b0011, 0b1100)
        assert set(r.pairs()) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_total_order(self):
        r = Rel.total_order(4, [2, 0, 3])
        assert set(r.pairs()) == {(2, 0), (2, 3), (0, 3)}

    def test_total_order_empty(self):
        assert Rel.total_order(3, []).is_empty()

    def test_bits_outside_universe(self):
        with pytest.raises(ValueError):
            Rel(2, 1 << 4)
        with pytest.raises(ValueError):
            Rel(2, -1)
        assert Rel(2, 0b1001) == Rel.identity(2)

    def test_pair_bit_layout(self):
        # bit i*n + j is the pair (i, j)
        assert Rel.from_pairs(3, [(1, 2)]).bits == 1 << 5
        assert Rel.from_pairs(3, [(2, 0)]).bits == 1 << 6


class TestSetAlgebra:
    def test_union(self):
        a = Rel.from_pairs(3, [(0, 1)])
        b = Rel.from_pairs(3, [(1, 2)])
        assert set((a | b).pairs()) == {(0, 1), (1, 2)}
        assert (a + b) == (a | b)

    def test_intersection(self):
        a = Rel.from_pairs(3, [(0, 1), (1, 2)])
        b = Rel.from_pairs(3, [(1, 2), (2, 0)])
        assert set((a & b).pairs()) == {(1, 2)}

    def test_difference(self):
        a = Rel.from_pairs(3, [(0, 1), (1, 2)])
        b = Rel.from_pairs(3, [(1, 2)])
        assert set((a - b).pairs()) == {(0, 1)}

    def test_transpose(self):
        a = Rel.from_pairs(3, [(0, 1), (1, 2)])
        assert set((~a).pairs()) == {(1, 0), (2, 1)}
        assert ~~a == a


class TestComposition:
    def test_join(self):
        a = Rel.from_pairs(3, [(0, 1)])
        b = Rel.from_pairs(3, [(1, 2)])
        assert set(a.join(b).pairs()) == {(0, 2)}
        assert set((a @ b).pairs()) == {(0, 2)}

    def test_join_identity(self):
        a = Rel.from_pairs(3, [(0, 1), (1, 2)])
        assert a.join(Rel.identity(3)) == a
        assert Rel.identity(3).join(a) == a

    def test_plus_chain(self):
        a = Rel.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        closed = a.plus()
        assert (0, 3) in closed
        assert (0, 2) in closed
        assert (3, 0) not in closed

    def test_plus_cycle(self):
        a = Rel.from_pairs(2, [(0, 1), (1, 0)])
        closed = a.plus()
        assert (0, 0) in closed
        assert (1, 1) in closed

    def test_star_includes_identity(self):
        a = Rel.from_pairs(3, [(0, 1)])
        s = a.star()
        assert (2, 2) in s
        assert (0, 1) in s

    def test_opt(self):
        a = Rel.from_pairs(2, [(0, 1)])
        assert a.opt() == a | Rel.identity(2)


class TestRestrictions:
    def test_domain_restriction(self):
        a = Rel.from_pairs(3, [(0, 1), (1, 2)])
        assert set(a.restrict_domain(0b001).pairs()) == {(0, 1)}

    def test_range_restriction(self):
        a = Rel.from_pairs(3, [(0, 1), (1, 2)])
        assert set(a.restrict_range(0b100).pairs()) == {(1, 2)}


class TestPredicates:
    def test_acyclic(self):
        assert Rel.from_pairs(3, [(0, 1), (1, 2)]).is_acyclic()
        assert not Rel.from_pairs(3, [(0, 1), (1, 0)]).is_acyclic()
        assert not Rel.from_pairs(1, [(0, 0)]).is_acyclic()

    def test_irreflexive(self):
        assert Rel.from_pairs(2, [(0, 1)]).is_irreflexive()
        assert not Rel.from_pairs(2, [(0, 0)]).is_irreflexive()

    def test_transitive(self):
        assert Rel.from_pairs(3, [(0, 1), (1, 2), (0, 2)]).is_transitive()
        assert not Rel.from_pairs(3, [(0, 1), (1, 2)]).is_transitive()


class TestIntrospection:
    def test_domain_range(self):
        a = Rel.from_pairs(3, [(0, 1), (1, 2)])
        assert a.domain() == 0b011
        assert a.range() == 0b110

    def test_image(self):
        a = Rel.from_pairs(3, [(0, 1), (1, 2)])
        assert a.image(0b001) == 0b010
        assert a.image(0b011) == 0b110

    def test_eq_hash(self):
        a = Rel.from_pairs(3, [(0, 1)])
        b = Rel.from_pairs(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Rel.from_pairs(3, [(1, 0)])
        assert a != "not a rel"

    def test_repr(self):
        assert "0->1" in repr(Rel.from_pairs(2, [(0, 1)]))
