from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from farey_brocot.core import (
    InvalidInputError,
    Triangle,
    coordinates,
    det3,
    diameter_sq,
    point_vector,
    vec_add,
)

from farey_brocot.verify import disjoint_interiors

from oracles import clip_disjoint, clip_inside, convex_clip, point_in_triangle, shoelace_area


def _mediant(u, v):
    # the mediant of two points is the projection of their vectors' sum
    q, a1, a2 = vec_add(u, v)
    return (Fraction(a1, q), Fraction(a2, q)), q


def test_mediant_examples():
    p00, p10, p01, half = (1, 0, 0), (1, 1, 0), (1, 0, 1), (2, 1, 1)
    assert _mediant(p00, p10) == ((Fraction(1, 2), Fraction(0)), 2)
    assert _mediant(p10, p01) == ((Fraction(1, 2), Fraction(1, 2)), 2)
    assert _mediant(half, p10) == ((Fraction(2, 3), Fraction(1, 3)), 3)


@given(
    st.tuples(st.integers(1, 50), st.integers(0, 50), st.integers(0, 50)),
    st.tuples(st.integers(1, 50), st.integers(0, 50), st.integers(0, 50)),
)
def test_mediant_commutes(u, v):
    assert vec_add(u, v) == vec_add(v, u)


def test_det_examples():
    assert det3((1, 0, 0), (1, 1, 0), (1, 0, 1)) == 1
    assert det3((1, 0, 0), (2, 1, 0), (2, 0, 1)) == 1
    assert det3((1, 0, 0), (1, 1, 0), (2, 1, 0)) == 0


def _tri(*vecs, depth=0, algo="a"):
    return Triangle(tuple(vecs), depth, algo)


def test_area_examples():
    assert _tri((1, 0, 0), (1, 1, 0), (1, 0, 1)).area() == Fraction(1, 2)
    assert _tri((1, 0, 0), (2, 1, 0), (2, 0, 1)).area() == Fraction(1, 8)
    assert _tri((2, 1, 0), (2, 0, 1), (3, 1, 1)).area() == Fraction(1, 24)


def test_area_matches_shoelace():
    t = _tri((1, 0, 0), (2, 1, 0), (2, 0, 1))
    assert t.area() == shoelace_area(t.points())


def test_diameter_examples():
    t = _tri((1, 0, 0), (1, 1, 0), (1, 0, 1))
    assert diameter_sq(t) == 2
    t = _tri((1, 0, 0), (2, 1, 0), (2, 0, 1))
    assert diameter_sq(t) == Fraction(1, 2)


def test_diameter_rejects_duplicates():
    t = _tri((1, 0, 0), (1, 0, 0), (1, 0, 1))
    with pytest.raises(InvalidInputError):
        diameter_sq(t)


def test_point_in_triangle_boundary():
    tri = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    edge_mid = (Fraction(1, 2), Fraction(1, 2))
    assert point_in_triangle(edge_mid, tri, closed=True)
    assert not point_in_triangle(edge_mid, tri, closed=False)
    assert point_in_triangle((Fraction(1, 4), Fraction(1, 4)), tri, closed=False)
    assert not point_in_triangle((Fraction(1), Fraction(1)), tri)


def test_convex_clip_self_and_disjoint():
    tri = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    self_clip = convex_clip(tri, tri)
    assert shoelace_area(self_clip) == Fraction(1, 2)
    far = [(Fraction(2), Fraction(2)), (Fraction(3), Fraction(2)), (Fraction(2), Fraction(3))]
    inter = convex_clip(tri, far)
    assert not inter or shoelace_area(inter) == 0


def test_convex_clip_shared_edge_has_zero_area():
    left = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    right = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
    inter = convex_clip(left, right)
    assert not inter or shoelace_area(inter) == 0


def test_point_vector_examples():
    assert point_vector((Fraction(1, 2), Fraction(1, 3))) == (6, 3, 2)
    assert point_vector((Fraction(0), Fraction(1))) == (1, 0, 1)
    assert point_vector((Fraction(-1, 4), Fraction(1, 2))) == (4, -1, 2)


def test_coordinates_rebuild_the_target():
    basis = ((2, 1, 0), (2, 0, 1), (3, 1, 1))
    target = point_vector((Fraction(2, 5), Fraction(1, 5)))
    c = coordinates(basis, target)
    assert tuple(sum(ci * g[k] for ci, g in zip(c, basis)) for k in range(3)) == target


def _contains(basis, point):
    # the containment rule of ``locate`` and ``verify``
    return min(coordinates(basis, point_vector(point))) >= 0


def test_contains_boundary():
    basis = ((1, 0, 0), (1, 1, 0), (1, 0, 1))
    assert _contains(basis, (Fraction(1, 2), Fraction(1, 2)))
    assert _contains(basis, (Fraction(0), Fraction(0)))
    assert _contains(basis, (Fraction(1, 4), Fraction(1, 4)))
    assert not _contains(basis, (Fraction(1), Fraction(1)))
    assert not _contains(basis, (Fraction(-1, 9), Fraction(1, 2)))


# Small lattice triangles: vertices (x, y1, y2) with 1 <= x <= 4, points
# in the unit square; not necessarily primitive or unimodular, so the
# predicates are exercised on their sign semantics as well.
lattice_vectors = st.integers(1, 4).flatmap(
    lambda x: st.tuples(st.just(x), st.integers(0, x), st.integers(0, x))
)
lattice_triangles = st.tuples(lattice_vectors, lattice_vectors, lattice_vectors).filter(
    lambda b: det3(*b) != 0
)
rational_points = st.integers(1, 12).flatmap(
    lambda q: st.tuples(st.integers(-2, q + 2), st.integers(-2, q + 2)).map(
        lambda ab: (Fraction(ab[0], q), Fraction(ab[1], q))
    )
)


@settings(max_examples=300, deadline=None)
@given(lattice_triangles, rational_points)
def test_contains_matches_point_in_triangle(basis, point):
    assert _contains(basis, point) == point_in_triangle(point, _tri(*basis).points())


@settings(max_examples=300, deadline=None)
@given(lattice_triangles, lattice_triangles)
def test_inside_matches_clip_oracle(inner, outer):
    # the child-in-parent test of regular-partition: every vertex of
    # `inner` has nonnegative coordinates in the basis `outer`
    inside = all(min(coordinates(outer, v)) >= 0 for v in inner)
    assert inside == clip_inside(inner, outer)


@settings(max_examples=400, deadline=None)
@given(lattice_triangles, lattice_triangles)
def test_disjoint_interiors_matches_clip_oracle(s, t):
    assert disjoint_interiors(s, t) == disjoint_interiors(t, s) == clip_disjoint(s, t)
