"""Exact integer and rational primitives for Farey-Brocot partitions.

Everything here is exact: lattice vectors are primitive integer triples
(x, y1, y2) with arbitrary-precision components, projected points are
pairs of ``fractions.Fraction``, and all geometric predicates are
sign-of-determinant tests on rationals.  Floating point enters only in
``diameter`` (a final square root) and is never used for decisions.

The engines step raw integer triples; the one object type for a cell is
``Triangle``, a unimodular basis of three ``LatticeVector`` values with
the depth, rule and code it was reached by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple


class InvalidInputError(ValueError):
    """A caller-supplied value violates an operation's precondition."""


class DomainError(ValueError):
    """A numeric parameter is outside the mathematical domain."""


class CapacityError(RuntimeError):
    """The request exceeds the configured enumeration capacity."""


class InvariantViolationError(ValueError):
    """An internal invariant (e.g. unimodularity) failed to hold."""


class LatticeVector(NamedTuple):
    """Primitive integer vector (x, y1, y2), x >= 1, gcd of components 1."""

    x: int
    y1: int
    y2: int

    def point(self) -> Tuple[Fraction, Fraction]:
        return Fraction(self.y1, self.x), Fraction(self.y2, self.x)


Vec = Tuple[int, int, int]
Point = Tuple[Fraction, Fraction]


def vec_add(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def det3(g1: Vec, g2: Vec, g3: Vec) -> int:
    """Exact 3x3 integer determinant of the rows (g1; g2; g3)."""
    a, b, c = g1
    d, e, f = g2
    g, h, i = g3
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass(frozen=True)
class Triangle:
    """A lattice basis (three vectors, determinant +-1) and its projection
    to the unit square, with depth and code.

    Vertex order is significant for algorithm B triangles and
    incidental for algorithm A.
    """

    vertices: Tuple[LatticeVector, LatticeVector, LatticeVector]
    depth: int = 0
    algo: str = "a"
    code: Tuple = ()

    def points(self) -> Tuple[Point, Point, Point]:
        return tuple(v.point() for v in self.vertices)

    def denominators(self) -> Tuple[int, int, int]:
        return tuple(v[0] for v in self.vertices)

    def area(self) -> Fraction:
        return triangle_area(self)

    def shoelace_area(self) -> Fraction:
        return shoelace_area(self.points())

    def diameter(self) -> float:
        return diameter(self)

    def contains(self, point: Point, closed: bool = True) -> bool:
        return point_in_triangle(point, self.points(), closed=closed)


def triangle_area(t: Triangle) -> Fraction:
    """Area 1/(2 q(a) q(b) q(c)) of a triangle cut out by a lattice basis.

    Valid only for triangles arising from unimodular bases; for those it
    agrees exactly with the shoelace value (checked in the verify suite).
    """
    qa, qb, qc = t.denominators()
    return Fraction(1, 2 * qa * qb * qc)


def shoelace_area(points: Sequence[Point]) -> Fraction:
    """Exact area of a simple polygon given by rational vertices."""
    n = len(points)
    acc = Fraction(0)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2


def distance_sq(p: Point, q: Point) -> Fraction:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def diameter_sq(t: Triangle) -> Fraction:
    """Largest pairwise squared distance among the vertices, exact."""
    a, b, c = t.points()
    if a == b or a == c or b == c:
        raise InvalidInputError("degenerate triangle: duplicate vertices")
    return max(distance_sq(a, b), distance_sq(a, c), distance_sq(b, c))


def diameter(t: Triangle) -> float:
    """Diameter of the triangle; the only rounding is the final sqrt."""
    return math.sqrt(diameter_sq(t))


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q-p) x (r-p): +1, -1, or 0.  Exact."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def point_in_triangle(point: Point, tri: Sequence[Point], closed: bool = True) -> bool:
    """Exact containment test; `closed` includes the boundary."""
    o1 = orientation(tri[0], tri[1], point)
    o2 = orientation(tri[1], tri[2], point)
    o3 = orientation(tri[2], tri[0], point)
    if closed:
        return (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0)
    return (o1 > 0 and o2 > 0 and o3 > 0) or (o1 < 0 and o2 < 0 and o3 < 0)


def convex_clip(subject: Sequence[Point], clip: Sequence[Point]) -> list:
    """Intersection polygon of two convex polygons (Sutherland-Hodgman).

    All arithmetic on Fractions, so boundary-touching cases are exact.
    Returns a possibly empty vertex list.
    """
    if orientation(*clip[:3]) < 0:
        clip = list(reversed(clip))
    output = list(subject)
    n = len(clip)
    for i in range(n):
        a, b = clip[i], clip[(i + 1) % n]
        if not output:
            return []
        inp, output = output, []
        prev = inp[-1]
        prev_side = orientation(a, b, prev)
        for cur in inp:
            side = orientation(a, b, cur)
            if side >= 0:
                if prev_side < 0:
                    output.append(_line_intersection(a, b, prev, cur))
                output.append(cur)
            elif prev_side > 0:
                output.append(_line_intersection(a, b, prev, cur))
            prev, prev_side = cur, side
    return output


def _line_intersection(a: Point, b: Point, p: Point, q: Point) -> Point:
    # Intersection of line (a,b) with segment (p,q); caller guarantees crossing.
    d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    d2 = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
    t = Fraction(d1, d1 - d2)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
