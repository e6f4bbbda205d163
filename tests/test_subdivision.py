import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from farey_brocot.core import InvalidInputError, Triangle, det3
from farey_brocot.subdivision import child_vectors_a, child_vectors_b, extend_code_a, initial_vectors
from farey_brocot.tiling import brocot_level, iter_triangles

from oracles import code_a_from_chain


def _points(basis):
    return [(Fraction(a1, q), Fraction(a2, q)) for q, a1, a2 in basis]


def _area(basis):
    return Triangle(tuple(basis)).area()


def test_initial_a_projections():
    e1, e2 = initial_vectors("a")
    assert _points(e1) == [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    assert _points(e2) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    ]
    assert abs(det3(*e1)) == 1 and abs(det3(*e2)) == 1


def test_initial_b_order():
    e1, e2 = initial_vectors("b")
    assert e1 == ((1, 0, 0), (1, 1, 0), (1, 0, 1))
    assert e2 == ((1, 1, 1), (1, 0, 1), (1, 1, 0))


def test_subdivide_a_first_child():
    e1, _ = initial_vectors("a")
    children = child_vectors_a(*e1)
    assert children[0] == ((1, 0, 0), (2, 1, 0), (2, 0, 1))
    assert all(abs(det3(*c)) == 1 for c in children)


def test_subdivide_a_child_areas():
    e1, _ = initial_vectors("a")
    areas = sorted(_area(c) for c in child_vectors_a(*e1))
    assert areas == [Fraction(1, 24)] * 3 + [Fraction(1, 8)] * 3
    assert sum(areas) == Fraction(1, 2)


def test_subdivide_a_order_independent():
    # rule a ignores vertex order: every permutation of the parent gives
    # the same six children as vertex sets
    e1, _ = initial_vectors("a")
    base = {frozenset(c) for c in child_vectors_a(*e1)}
    for perm in itertools.permutations(e1):
        assert {frozenset(c) for c in child_vectors_a(*perm)} == base


def test_subdivide_b_examples():
    e1, _ = initial_vectors("b")
    c1, c0 = child_vectors_b(*e1)
    # operation "1": (b (+) c, a, b); operation "0": (b (+) c, a, c)
    assert _points(c1) == [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
    ]
    assert _points(c0) == [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    assert _area(c1) + _area(c0) == Fraction(1, 2)
    assert _area(c1) == Fraction(1, 4)


def test_subdivide_b_depends_on_order():
    # rule b reads vertex order: swapping the last two vertices swaps
    # which child operation "1" produces
    e1, _ = initial_vectors("b")
    g1, g2, g3 = e1
    c1, c0 = child_vectors_b(g1, g2, g3)
    s1, s0 = child_vectors_b(g1, g3, g2)
    assert s1 == c0 and s0 == c1
    assert s1 != c1


def test_step_1d_examples():
    # each classical step inserts the mediant between neighbours
    assert brocot_level(0) == [Fraction(0), Fraction(1)]
    assert brocot_level(1) == [Fraction(0), Fraction(1, 2), Fraction(1)]
    assert brocot_level(2) == [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


@pytest.mark.parametrize("n", range(0, 11))
def test_brocot_level_size(n):
    assert len(brocot_level(n)) == 2**n + 1


def _tri(basis, depth=0):
    return Triangle(tuple(basis), depth, "a")


def _chain_by_rules(rules):
    basis, _ = initial_vectors("a")
    chain = [_tri(basis)]
    for depth, r in enumerate(rules, 1):
        basis = child_vectors_a(*basis)[r]
        chain.append(_tri(basis, depth))
    return chain


def test_code_examples():
    assert code_a_from_chain(_chain_by_rules([])) == ()
    # rule 1 keeps a vertex, rule 4 keeps none
    assert code_a_from_chain(_chain_by_rules([0, 3])) == (1, 1)
    for k in (1, 2, 3, 5):
        assert code_a_from_chain(_chain_by_rules([1] + [0] * (k - 1))) == (k,)


def test_code_broken_chain():
    e1, e2 = initial_vectors("a")
    with pytest.raises(InvalidInputError):
        code_a_from_chain([_tri(e1), _tri(e2)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=0, max_size=7))
def test_code_incremental_matches_chain(rules):
    chain = _chain_by_rules(rules)
    code, lc = (), False
    for r in rules:
        code, lc = extend_code_a(code, r, lc)
    assert code_a_from_chain(chain) == code
    assert sum(code) == len(rules)


def test_iter_triangles_codes_consistent():
    for tri in iter_triangles("a", 4):
        assert sum(tri.code) == 4
    for tri in iter_triangles("b", 5):
        assert len(tri.code) == 5
        assert set(tri.code) <= {0, 1}
