"""Property-based tests for the relation algebra (hypothesis).

A relation packs its pairs into one ``n*n``-bit integer, so the bit
geometry changes with the universe size: every property draws ``n`` from
1..9 and checks the packed operators against a plain pair-set reference.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.semantics.rel import Rel

MAX_N = 9


def pair_sets(n):
    return st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=n * n,
    )


@st.composite
def rels(draw, count=1):
    """``count`` relations over one universe of a drawn size."""
    n = draw(st.integers(1, MAX_N))
    return tuple(Rel.from_pairs(n, draw(pair_sets(n))) for _ in range(count))


def masks(n):
    """Event-set bitmasks; bits at ``n`` and above lie outside the
    universe and every operator ignores them."""
    return st.integers(0, (1 << (n + 2)) - 1)


@st.composite
def rel_and_mask(draw):
    (a,) = draw(rels())
    return a, draw(masks(a.n))


@st.composite
def orders(draw):
    n = draw(st.integers(1, MAX_N))
    return n, draw(st.lists(st.integers(0, n - 1), unique=True))


# -- the pair-set reference ----------------------------------------------------


def ref(a):
    return set(a.pairs())


def ref_bits(mask, n):
    return {i for i in range(n) if (mask >> i) & 1}


def ref_mask(elements):
    return sum(1 << i for i in elements)


def ref_join(p, q):
    return {(i, k) for i, j in p for j2, k in q if j == j2}


def ref_closure(p):
    closed = set(p)
    while True:
        step = closed | ref_join(closed, closed)
        if step == closed:
            return closed
        closed = step


def ref_identity(n):
    return {(i, i) for i in range(n)}


# -- algebraic laws ------------------------------------------------------------


@given(rels(2))
def test_union_commutative(ab):
    a, b = ab
    assert a | b == b | a


@given(rels(3))
def test_union_associative(abc):
    a, b, c = abc
    assert (a | b) | c == a | (b | c)


@given(rels(2))
def test_intersection_subset_of_union(ab):
    a, b = ab
    assert ((a & b) - (a | b)).is_empty()


@given(rels())
def test_difference_self_empty(a):
    (a,) = a
    assert (a - a).is_empty()


@given(rels())
def test_double_transpose_identity(a):
    (a,) = a
    assert ~~a == a


@given(rels(2))
def test_transpose_antidistributes_over_join(ab):
    a, b = ab
    assert ~(a.join(b)) == (~b).join(~a)


@given(rels())
def test_closure_contains_relation(a):
    (a,) = a
    assert (a - a.plus()).is_empty()


@given(rels())
def test_closure_transitive(a):
    (a,) = a
    assert a.plus().is_transitive()


@given(rels())
def test_closure_idempotent(a):
    (a,) = a
    assert a.plus().plus() == a.plus()


@given(rels())
def test_star_is_plus_plus_identity(a):
    (a,) = a
    assert a.star() == a.plus() | Rel.identity(a.n)


@given(rels())
def test_join_identity_neutral(a):
    (a,) = a
    iden = Rel.identity(a.n)
    assert a.join(iden) == a
    assert iden.join(a) == a


@given(rels())
def test_acyclic_iff_no_diagonal_in_closure(a):
    (a,) = a
    assert a.is_acyclic() == a.plus().is_irreflexive()


# -- every operator against the pair-set reference --------------------------------


@given(rels(2))
def test_set_algebra_via_reference_semantics(ab):
    a, b = ab
    assert ref(a | b) == ref(a) | ref(b)
    assert ref(a + b) == ref(a) | ref(b)
    assert ref(a & b) == ref(a) & ref(b)
    assert ref(a - b) == ref(a) - ref(b)


@given(rels(2))
def test_join_via_reference_semantics(ab):
    a, b = ab
    assert ref(a.join(b)) == ref_join(ref(a), ref(b))
    assert a @ b == a.join(b)


@given(rels())
def test_closure_matches_pair_reachability(a):
    (a,) = a
    assert ref(a.plus()) == ref_closure(ref(a))


@given(rels())
def test_star_and_opt_via_reference_semantics(a):
    (a,) = a
    iden = ref_identity(a.n)
    assert ref(a.star()) == ref_closure(ref(a)) | iden
    assert ref(a.opt()) == ref(a) | iden


@given(rels())
def test_transpose_via_reference_semantics(a):
    (a,) = a
    assert ref(~a) == {(j, i) for i, j in ref(a)}
    assert a.transpose() == ~a


@given(rel_and_mask())
def test_restrictions_shrink(am):
    a, mask = am
    assert len(a.restrict_domain(mask)) <= len(a)
    assert len(a.restrict_range(mask)) <= len(a)
    assert set(a.restrict_domain(mask).pairs()) == {
        (i, j) for i, j in a.pairs() if (mask >> i) & 1
    }
    assert set(a.restrict_range(mask).pairs()) == {
        (i, j) for i, j in a.pairs() if (mask >> j) & 1
    }


@given(rel_and_mask())
def test_image_via_reference_semantics(am):
    a, mask = am
    sources = ref_bits(mask, a.n)
    assert a.image(mask) == ref_mask({j for i, j in ref(a) if i in sources})


@given(rels())
def test_domain_range_via_pairs(a):
    (a,) = a
    pairs = list(a.pairs())
    assert a.domain() == sum(
        1 << i for i in {i for i, _ in pairs}
    )
    assert a.range() == sum(1 << j for j in {j for _, j in pairs})


@given(rels())
def test_predicates_via_reference_semantics(a):
    (a,) = a
    pairs = ref(a)
    assert a.is_irreflexive() == all(i != j for i, j in pairs)
    assert a.is_acyclic() == all(i != j for i, j in ref_closure(pairs))
    assert a.is_empty() == (not pairs) == (not a)
    assert len(a) == len(pairs)
    assert list(a.pairs()) == sorted(pairs)
    for i in range(-1, a.n + 1):
        for j in range(-1, a.n + 1):
            assert ((i, j) in a) == ((i, j) in pairs)


@given(rels(2))
def test_equality_and_hash_follow_the_pair_set(ab):
    a, b = ab
    copy = Rel.from_pairs(a.n, ref(a))
    assert copy == a
    assert hash(copy) == hash(a)
    assert (a == b) == (ref(a) == ref(b))
    assert a != Rel.from_pairs(a.n + 1, ref(a))
    assert a != ref(a)


@given(st.integers(1, MAX_N), st.data())
def test_constructors_via_reference_semantics(n, data):
    src = data.draw(masks(n))
    dst = data.draw(masks(n))
    assert ref(Rel.product(n, src, dst)) == {
        (i, j) for i in ref_bits(src, n) for j in ref_bits(dst, n)
    }
    assert ref(Rel.identity(n)) == ref_identity(n)
    assert ref(Rel.full(n)) == {(i, j) for i in range(n) for j in range(n)}
    assert ref(Rel.empty(n)) == set()


@given(orders())
def test_total_order_via_reference_semantics(n_order):
    n, order = n_order
    r = Rel.total_order(n, order)
    assert ref(r) == {
        (order[a], order[b])
        for a in range(len(order))
        for b in range(a + 1, len(order))
    }


@given(orders())
def test_total_order_properties(n_order):
    n, order = n_order
    r = Rel.total_order(n, order)
    assert r.is_acyclic()
    assert r.is_transitive()
    assert len(r) == len(order) * (len(order) - 1) // 2
