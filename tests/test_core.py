import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from farey_brocot.core import (
    InvalidInputError,
    LatticeVector,
    Triangle,
    convex_clip,
    det3,
    diameter,
    point_in_triangle,
    shoelace_area,
    triangle_area,
    vec_add,
)


def _mediant(u, v):
    # the mediant of two points is the projection of their vectors' sum
    m = LatticeVector(*vec_add(u, v))
    return m.point(), m.x


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
    return Triangle(tuple(LatticeVector(*v) for v in vecs), depth, algo)


def test_area_examples():
    assert triangle_area(_tri((1, 0, 0), (1, 1, 0), (1, 0, 1))) == Fraction(1, 2)
    assert triangle_area(_tri((1, 0, 0), (2, 1, 0), (2, 0, 1))) == Fraction(1, 8)
    assert triangle_area(_tri((2, 1, 0), (2, 0, 1), (3, 1, 1))) == Fraction(1, 24)


def test_area_matches_shoelace():
    t = _tri((1, 0, 0), (2, 1, 0), (2, 0, 1))
    assert t.area() == t.shoelace_area()


def test_diameter_examples():
    t = _tri((1, 0, 0), (1, 1, 0), (1, 0, 1))
    assert t.diameter() == pytest.approx(math.sqrt(2))
    t = _tri((1, 0, 0), (2, 1, 0), (2, 0, 1))
    assert t.diameter() == pytest.approx(math.sqrt(2) / 2)


def test_diameter_rejects_duplicates():
    t = _tri((1, 0, 0), (1, 0, 0), (1, 0, 1))
    with pytest.raises(InvalidInputError):
        diameter(t)


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
