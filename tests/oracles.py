"""Slow, independent definitions that the tests hold the package against.

* Rational plane geometry (``orientation``, ``point_in_triangle``,
  ``convex_clip``, ``shoelace_area``, ``diameter_sq_of_points``): the
  oracle for the integer determinant predicates ``core.coordinates`` and
  ``verify.disjoint_interiors``, for the integer area identity of
  ``verify.scaled_shoelace_area``, and for the integer diameters of
  ``core.diameter_sq``.
* ``code_a_from_chain``: the run-length code read off a whole chain of
  nested triangles, the oracle for the incremental ``extend_code_a``.
* ``graph_degrees`` and ``stable_degrees``: degrees measured on the
  whole graph of ``census.graph_at``, the oracle for the subtree
  reduction ``census.degrees_at`` and for the creation-type grading of
  ``stable_degree_table``.
* ``nodes_by_descent``: the depth-n nodes filtered from a pre-order
  walk, the oracle for ``tiling.leaves`` and the walkers that read it.
* ``child_intervals`` and ``intervals_by_descent``: the classical rule
  on one interval, and the depth-n intervals from a pre-order walk of
  it, the oracle for ``tiling.classical_rows`` and every reader of it
  (``iter_intervals``, ``brocot_level``, exact classical moments and
  their size bound).
* ``classical_terms_by_descent`` and ``classical_moment_sweep_by_descent``:
  the classical float terms of a pre-order walk of the intervals, and
  their ``fsum`` per depth, the oracle for the half-row sums of
  ``analysis.classical_moment_sweep``.
* ``moment_sweeps_by_dicts`` and ``exact_moment_by_dicts``: 2-d moments
  summed over the dict levels of ``tiling.level_q_counts``, the oracle
  for the rule-b column engine ``tiling.level_columns_b``, its block
  walks ``level_blocks_b`` and ``child_blocks_b``, and the moments that
  read them.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import fsum
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from farey_brocot.analysis import exact_sum
from farey_brocot.census import graph_at, split_degrees
from farey_brocot.core import InvalidInputError, Point, Triangle, Vec
from farey_brocot.subdivision import ALGO_A, ALGO_B, child_vectors_a
from farey_brocot.tiling import LevelCounts, descend, level_q_counts, split_q_states


# --- rational geometry -----------------------------------------------------


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


def shoelace_area(points: Sequence[Point]) -> Fraction:
    """Exact area of a simple polygon given by rational vertices."""
    n = len(points)
    acc = Fraction(0)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2


def diameter_sq_of_points(points: Sequence[Point]) -> Fraction:
    """Largest pairwise squared distance among rational points, in
    Fraction arithmetic."""
    return max(
        (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
        for i, p in enumerate(points)
        for q in points[i + 1 :]
    )


def _points(vectors: Sequence[Vec]) -> List[Point]:
    return [(Fraction(a1, q), Fraction(a2, q)) for q, a1, a2 in vectors]


def clip_inside(inner: Sequence[Vec], outer: Sequence[Vec]) -> bool:
    """Whether triangle `inner` lies in triangle `outer` (vertex vectors):
    clipping it to `outer` keeps its whole area."""
    clipped = convex_clip(_points(inner), _points(outer))
    return bool(clipped) and shoelace_area(clipped) == shoelace_area(_points(inner))


def clip_disjoint(s: Sequence[Vec], t: Sequence[Vec]) -> bool:
    """Whether two triangles (vertex vectors) have disjoint interiors:
    their intersection has no area."""
    clipped = convex_clip(_points(s), _points(t))
    return not clipped or shoelace_area(clipped) == 0


# --- run-length codes -------------------------------------------------------


def code_a_from_chain(chain: Sequence[Triangle]) -> Tuple[int, ...]:
    """Run-length code of a nested chain of algorithm-A triangles.

    The chain must run from a depth-0 triangle down to the triangle of
    interest, each element a child of the previous one.
    """
    _validate_chain_a(chain)
    code: List[int] = []
    i = len(chain) - 1
    while i > 0:
        t = _streak_length(chain, i)
        code.append(t)
        i -= t
    code.reverse()
    return tuple(code)


def _streak_length(chain: Sequence[Triangle], idx: int) -> int:
    common = set(chain[idx].vertices) & set(chain[idx - 1].vertices)
    if not common:
        return 1
    t = 1
    while idx - t - 1 >= 0:
        nxt = common & set(chain[idx - t - 1].vertices)
        if not nxt:
            break
        common = nxt
        t += 1
    return t


def _validate_chain_a(chain: Sequence[Triangle]) -> None:
    if not chain:
        raise InvalidInputError("empty chain")
    for parent, child in zip(chain, chain[1:]):
        wanted = frozenset(child.vertices)
        options = child_vectors_a(*parent.vertices)
        if not any(frozenset(ch) == wanted for ch in options):
            raise InvalidInputError(
                f"broken chain: {child.vertices} is not a child of {parent.vertices}"
            )


# --- measured degrees -------------------------------------------------------


def graph_degrees(algo: str, n: int) -> Dict[Vec, int]:
    """Degrees of the depth-n graph built in one piece by ``graph_at``,
    counted per edge endpoint."""
    _, edges = graph_at(algo, n)
    return dict(Counter(chain.from_iterable(edges)))


def stable_degrees(algo: str, n: int) -> Dict[Vec, int]:
    """Degrees that already equal their value in the infinite graph."""
    if n < 1:
        raise InvalidInputError("stable degrees need depth >= 1")
    older = graph_degrees(algo, n - 1) if algo == ALGO_B else {}
    return split_degrees(algo, graph_degrees(algo, n), older)[0]


# --- the pre-order walk -----------------------------------------------------


def nodes_by_descent(roots: Sequence, kids: Callable, n: int) -> Iterator:
    """The depth-n nodes of a pre-order walk to depth n, filtered from
    every node the walk meets; the oracle for ``tiling.leaves``."""
    for node, d in descend(roots, lambda node, d: kids(*node) if d < n else ()):
        if d == n:
            yield node


# --- the classical partition ------------------------------------------------


def _pair_add(u: Tuple[int, int], v: Tuple[int, int]) -> Tuple[int, int]:
    return u[0] + v[0], u[1] + v[1]


def child_intervals(u, v, add: Callable = _pair_add) -> Tuple[Tuple, Tuple]:
    """Classical rule: the interval [u, v] splits at the mediant u (+) v
    into (left, right).  Endpoints are (numerator, denominator) pairs by
    default."""
    m = add(u, v)
    return (u, m), (m, v)


def intervals_by_descent(n: int) -> Iterator[Tuple[Fraction, Fraction]]:
    """The depth-n intervals, left to right, from a lazy pre-order walk."""
    walk = descend((((0, 1), (1, 1)),), lambda iv, d: child_intervals(*iv) if d < n else ())
    for (u, v), d in walk:
        if d == n:
            yield Fraction(*u), Fraction(*v)


def classical_terms_by_descent(n: int, beta) -> List[List[float]]:
    """The float terms of the classical moments for depths 0..n, one list
    per depth, from a pre-order walk of the intervals: each interval of
    measure 1/x contributes x^-beta."""
    bf = float(Fraction(beta))
    terms: List[List[float]] = [[] for _ in range(n + 1)]
    walk = descend(((1, 1),), lambda iv, d: child_intervals(*iv, operator.add) if d < n else ())
    for (q, r), d in walk:
        x = q * r
        terms[d].append(float(x) ** -bf if bf != 2.0 else 1.0 / float(x * x))
    return terms


def classical_moment_sweep_by_descent(n: int, beta) -> List[float]:
    """Floating classical moments for depths 0..n: the ``fsum`` of each
    depth's terms from ``classical_terms_by_descent``."""
    return list(map(fsum, classical_terms_by_descent(n, beta)))


# --- 2-d moments over the dict levels ----------------------------------------


def _level_sums(level: LevelCounts, orders: Sequence[float]) -> List[float]:
    sums = []
    for b in orders:
        if b == 2.0:
            terms = [c / float((2 * p * q * r) ** 2) for (p, q, r), c in level.items()]
        elif b == 1.0:
            terms = [c / float(2 * p * q * r) for (p, q, r), c in level.items()]
        else:
            terms = [c * float(2 * p * q * r) ** -b for (p, q, r), c in level.items()]
        sums.append(fsum(terms))
    return sums


def moment_sweeps_by_dicts(algo: str, n: int, betas: Sequence) -> List[List[float]]:
    """Floating moments for depths 0..n at each order in `betas`, from one
    pass of the dict engine: whole levels above the split depth (3 for
    rule a, 6 for rule b), then one task per split-depth triple, and each
    depth's task sums added by ``fsum``."""
    orders = [float(Fraction(b)) for b in betas]
    split = min(n, 3 if algo == ALGO_A else 6)
    rows = [_level_sums(level, orders) for level in level_q_counts(algo, split)][:split]
    tasks = [
        [_level_sums(level, orders) for level in level_q_counts(algo, n - split, start={t: c})]
        for t, c in split_q_states(algo, split)
    ]
    for d in range(n - split + 1):
        rows.append([fsum(task[d][i] for task in tasks) for i in range(len(orders))])
    return [[row[i] for row in rows] for i in range(len(orders))]


def exact_moment_by_dicts(algo: str, n: int, e: int) -> Fraction:
    """The exact depth-n moment of integer order e over the dict level."""
    for level in level_q_counts(algo, n):
        pass
    return exact_sum((c, (2 * p * q * r) ** e) for (p, q, r), c in level.items())
