"""Exact integer and rational primitives for Farey-Brocot partitions.

Everything here is exact: a vertex is a primitive integer vector, the
plain tuple (q, a1, a2) with q >= 1, standing for the point (a1/q, a2/q),
and projected points are pairs of ``fractions.Fraction``.  Geometric
decisions are signs of integer determinants of lattice vectors: a point
lies in a cell exactly when its vector has nonnegative integer
coordinates in the cell's basis (``coordinates``).

The engines step those tuples, and every public result hands them out
as they are; the one object type for a cell is ``Triangle``, a
unimodular basis of three such vectors with the depth, rule and code it
was reached by.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Tuple


class InvalidInputError(ValueError):
    """A caller-supplied value violates an operation's precondition."""


class DomainError(ValueError):
    """A numeric parameter is outside the mathematical domain."""


class CapacityError(RuntimeError):
    """The request exceeds the configured enumeration capacity."""


class InvariantViolationError(ValueError):
    """An internal invariant (e.g. unimodularity) failed to hold."""


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


def point_vector(point: Point) -> Vec:
    """The vector (q, a1, a2) of the rational point (a1/q, a2/q), with q
    the least common denominator."""
    t1, t2 = Fraction(point[0]), Fraction(point[1])
    q = math.lcm(t1.denominator, t2.denominator)
    return q, int(t1 * q), int(t2 * q)


def coordinates(basis: Tuple[Vec, Vec, Vec], target: Vec) -> Tuple[int, int, int]:
    """Integer coordinates of `target` in a basis of determinant +-1.

    This is the containment rule: the point of `target` lies in the
    closed triangle of the basis exactly when all three are >= 0, since
    its barycentric weights are the coordinates times positive
    denominator ratios.  For any nonsingular basis the signs are still
    those of the coordinates.
    """
    g1, g2, g3 = basis
    d = det3(g1, g2, g3)
    return det3(target, g2, g3) * d, det3(g1, target, g3) * d, det3(g1, g2, target) * d


class Triangle(NamedTuple):
    """A lattice basis (three vectors, determinant +-1) and its projection
    to the unit square, with depth and code.

    Vertex order is significant for algorithm B triangles and
    incidental for algorithm A.
    """

    vertices: Tuple[Vec, Vec, Vec]
    depth: int = 0
    algo: str = "a"
    code: Tuple = ()

    def points(self) -> Tuple[Point, Point, Point]:
        return tuple((Fraction(a1, q), Fraction(a2, q)) for q, a1, a2 in self.vertices)

    def denominators(self) -> Tuple[int, int, int]:
        return tuple(v[0] for v in self.vertices)

    def area(self) -> Fraction:
        """1/(2 q(a) q(b) q(c)), equal to the shoelace area for a
        unimodular basis (checked by the verify suite)."""
        return Fraction(1, 2 * math.prod(self.denominators()))


def diameter_sq(t: Triangle) -> Fraction:
    """Largest pairwise squared distance among the vertices, exact.

    The points x/q and u/r are ((x r - u q)^2 + (y r - v q)^2) / (q r)^2
    apart, squared; pairs are compared by cross-multiplying those
    integer ratios, and one Fraction is built for the largest."""
    a, b, c = t.vertices
    best_num, best_den = 0, 1
    for (q, x, y), (r, u, v) in ((a, b), (a, c), (b, c)):
        num = (x * r - u * q) ** 2 + (y * r - v * q) ** 2
        if num == 0:
            raise InvalidInputError("degenerate triangle: duplicate vertices")
        den = (q * r) ** 2
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)
