"""One harness running every testable lemma and formula check.

The registry ``CHECKS`` holds one ``Check`` per lemma or formula: its
name, a plain-language statement of the claim it tests, the rules the
claim is stated for, and why it does not apply to any other rule, so a
report doubles as a traceability matrix.

A check body knows only what it tests.  It clamps the requested depth
to its own capacity, walks enumerations in canonical order, and returns
``(params, checked, witness)``: the parameters it ran with, how many
cases it checked, and the first counterexample found, or None.

``Check`` turns that into a ``CheckReport``: ``skipped`` with the
reason for a rule outside the claim (or when the body raises
``Skipped``), otherwise ``pass`` without a witness and ``fail`` with
one.  Reports are a pure function of (algo, depth_limit, selection).
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import pairwise
from math import gcd
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    InvalidInputError,
    Vec,
    coordinates,
    det3,
    diameter_sq,
    vec_add,
)
from .subdivision import ALGO_A, ALGO_B, ALGO_CLASSICAL, child_rule, child_vectors_a, child_vectors_b
from .census import (
    DEGREE_SET,
    Census,
    degrees_at,
    expected_counts,
    expected_degree_histogram_a,
    split_degrees,
    stable_degree_table,
)
from .analysis import cumulative_moment_check, exact_sum, exact_unit_sum, extreme_areas
from .tiling import (
    iter_bases,
    level_q_counts,
    level_q_counts_coded_a,
    locate,
    vertices_up_to,
)
from ._jobs import run_tasks

PASS, FAIL, SKIP = "pass", "fail", "skipped"

# (params, cases checked, first counterexample or None)
Found = Tuple[Dict, int, Optional[Dict]]


class CheckReport(NamedTuple):
    name: str
    claim: str
    algo: str
    params: Dict
    status: str
    checked: int = 0
    witness: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return self._asdict()


class Skipped(Exception):
    """Raised by a check body when the depth limit leaves nothing to check."""


class Check(NamedTuple):
    name: str
    claim: str
    body: Callable[[str, int], Found]
    rules: Tuple[str, ...]
    reason: str = ""  # why the claim does not apply to any other rule

    def __call__(self, algo: str, limit: int) -> CheckReport:
        try:
            if algo not in self.rules:
                raise Skipped(self.reason)
            params, checked, witness = self.body(algo, limit)
        except Skipped as skip:
            return CheckReport(self.name, self.claim, algo, {"reason": str(skip)}, SKIP)
        status = PASS if witness is None else FAIL
        return CheckReport(self.name, self.claim, algo, params, status, checked, witness)


# --- check bodies -----------------------------------------------------------


def _unimodularity(algo: str, limit: int) -> Found:
    params = {"depth": min(limit, 6 if algo == ALGO_A else 16)}
    checked = 0
    for basis, d in iter_bases(algo, params["depth"]):
        checked += 1
        if abs(det3(*basis)) != 1:
            return params, checked, {"depth": d, "basis": [list(v) for v in basis]}
    return params, checked, None


def _regular_partition(algo: str, limit: int) -> Found:
    kids = child_rule(algo)
    checked = 0
    # exact area bookkeeping at every enumerated depth, on distinct triples:
    # the children's areas over the parent's, pqr / (c1 c2 c3), sum to 1
    sum_depth = min(limit, 8 if algo == ALGO_A else 16)
    geometry_depth = min(limit, 4)
    params = {"area_sum_depth": sum_depth, "geometry_depth": geometry_depth}
    for d, level in enumerate(level_q_counts(algo, sum_depth)):
        if d == sum_depth:
            break
        for (p, q, r), mult in level.items():
            checked += mult
            pqr = p * q * r
            if exact_sum((pqr, cp * cq * cr) for cp, cq, cr in kids(p, q, r, operator.add)) != 1:
                return params, checked, {"depth": d, "triple": [p, q, r]}
    # exact lattice geometry on every parent of a cell at depth <= geometry_depth
    parents = iter_bases(algo, geometry_depth - 1) if geometry_depth else ()
    for basis, d in parents:
        checked += 1
        children = kids(*basis)
        for ch in children:
            if any(min(coordinates(basis, v)) < 0 for v in ch):
                return params, checked, {"depth": d, "problem": "child escapes parent",
                                         "basis": [list(v) for v in basis]}
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                if not disjoint_interiors(children[i], children[j]):
                    return params, checked, {"depth": d, "problem": "overlapping interiors",
                                             "children": [i, j],
                                             "basis": [list(v) for v in basis]}
    return params, checked, None


def disjoint_interiors(s: Sequence[Vec], t: Sequence[Vec]) -> bool:
    """Whether two triangles, given by vertex vectors with positive first
    components, have disjoint interiors.

    Separating axes: two triangles have disjoint interiors exactly when
    one of their six edge lines (u, v) has the third vertex w strictly on
    one side and the whole other triangle on the closed opposite side.
    det3(u, v, x) is the signed area of the projected points times
    positive denominators, so every sign is exact.  A degenerate
    triangle (side 0) has no interior and passes at once.
    """
    for own, other in ((s, t), (t, s)):
        for u, v, w in ((own[0], own[1], own[2]), (own[1], own[2], own[0]), (own[2], own[0], own[1])):
            side = det3(u, v, w)
            if all(det3(u, v, x) * side <= 0 for x in other):
                return True
    return False


def scaled_shoelace_area(basis: Sequence[Vec]) -> int:
    """2 q(a) q(b) q(c) times the shoelace area of the projected triangle:
    each edge (u, v) of the shoelace sum, multiplied through, adds the
    integer q(w) (u1 v2 - v1 u2), w being the third vertex."""
    (qa, a1, a2), (qb, b1, b2), (qc, c1, c2) = basis
    return abs(qc * (a1 * b2 - b1 * a2) + qa * (b1 * c2 - c1 * b2) + qb * (c1 * a2 - a1 * c2))


def _area_formula(algo: str, limit: int) -> Found:
    params = {"depth": min(limit, 6)}
    checked = 0
    for basis, d in iter_bases(algo, params["depth"]):
        checked += 1
        if scaled_shoelace_area(basis) != 1:
            return params, checked, {"depth": d, "basis": [list(v) for v in basis]}
    return params, checked, None


_SIGMA1_CAP = {ALGO_A: 7, ALGO_B: 20, ALGO_CLASSICAL: 20}


def _sigma1(algo: str, limit: int) -> Found:
    depth = min(limit, _SIGMA1_CAP[algo])
    params = {"depth": depth}
    for n in range(depth + 1):
        total = exact_unit_sum(algo, n)
        if total != 1:
            return params, n + 1, {"depth": n, "sum": str(total)}
    return params, depth + 1, None


def _lemma4(algo: str, limit: int) -> Found:
    depth = min(limit, 8)
    params = {"depth": depth}
    checked = 0
    # rule i keeps parent vertex i for i < 3 and none otherwise; a dropped
    # vertex constrains the child by the min of the other two parent q's
    for d, level in enumerate(level_q_counts(algo, depth)):
        if d == depth:
            break
        for t, mult in level.items():
            checked += mult
            children = child_vectors_a(*t, operator.add)
            for rule, child in enumerate(children):
                low = min(child)
                for dropped in range(3):
                    if rule == dropped:
                        continue
                    others = [t[k] for k in range(3) if k != dropped]
                    if low < min(others):
                        return params, checked, {"depth": d, "parent": list(t), "rule": rule + 1,
                                                 "dropped_q": t[dropped]}
    return params, checked, None


def _lemma7(algo: str, limit: int) -> Found:
    depth = min(limit, 8)
    params = {"depth": depth}
    checked = 0
    for level in level_q_counts_coded_a(depth):
        for (p, q, r, rlen, _lc), mult in level.items():
            checked += mult
            if min(p, q, r) < 2 ** (rlen // 2):
                return params, checked, {"triple": [p, q, r], "code_length": rlen}
    return params, checked, None


def _lemma8(algo: str, limit: int) -> Found:
    depth = min(limit, 8 if algo == ALGO_A else 16)
    params = {"depth": depth}
    checked = 0
    for d, level in enumerate(level_q_counts(algo, depth)):
        for t, mult in level.items():
            checked += mult
            if max(t) > (d + 1) * min(t):
                return params, checked, {"depth": d, "triple": list(t)}
    return params, checked, None


def _lemma13(algo: str, limit: int) -> Found:
    depth = min(limit, 16)
    kmax = 12
    parents_depth = min(limit, 4)
    params = {"depth": depth, "zero_run_parents_depth": parents_depth, "kmax": kmax}
    checked = 0
    for d, level in enumerate(level_q_counts(ALGO_B, depth)):
        for (qa, qb, qc), mult in level.items():
            checked += mult
            if not (qb + qc >= qa >= qb >= qc):
                return params, checked, {"part": "i", "depth": d, "triple": [qa, qb, qc]}
            # operation "1" child (qb+qc, qa, qb): area ratio qc/(qb+qc) <= 1/2
            (q1a, q1b, q1c), _ = child_vectors_b(qa, qb, qc, operator.add)
            if q1a * q1b * q1c < 2 * qa * qb * qc:
                return params, checked, {"part": "ii", "depth": d, "triple": [qa, qb, qc]}
    # part iii: explicit zero-runs from whole bases
    for basis, d in iter_bases(ALGO_B, parents_depth):
        a, b, c = basis
        start = [list(v) for v in basis]
        cur = basis
        for k in range(1, kmax + 1):
            cur = child_vectors_b(*cur)[1]
            half = k // 2
            if k % 2 == 0:
                want = (_shift(a, c, half), _shift(b, c, half), c)
            else:
                want = (_shift(b, c, half + 1), _shift(a, c, half), c)
            checked += 1
            if cur != want:
                return params, checked, {"part": "iii", "depth": d, "k": k, "start": start}
            if 2 * cur[0][0] < (k + 1) * c[0] or 2 * cur[1][0] < (k + 1) * c[0]:
                return params, checked, {"part": "iii-bound", "depth": d, "k": k, "start": start}
    return params, checked, None


def _shift(u, v, times):
    return (u[0] + times * v[0], u[1] + times * v[1], u[2] + times * v[2])


def _lemma16(algo: str, limit: int) -> Found:
    params = {"parent_depth": min(limit, 4)}
    checked = 0
    for basis, d in iter_bases(ALGO_B, params["parent_depth"]):
        a, b, c = basis
        expected = vec_add(b, c)
        for d0 in (0, 1):
            first = child_vectors_b(*basis)[1 - d0]
            for d1 in (0, 1):
                cur = first
                for op in (d1, 1, 0):
                    cur = child_vectors_b(*cur)[1 - op]
                checked += 1
                third = cur[2]
                if third != expected or third in basis or third not in first:
                    return params, checked, {"depth": d, "ops": [d0, d1, 1, 0],
                                             "start": [list(v) for v in basis]}
    return params, checked, None


# The sample the theorem1-contraction report echoes in its params.
_CONTRACTION_CHAINS = 200
_CONTRACTION_MAX_DENOMINATOR = 100


def sample_contraction(chains: int = _CONTRACTION_CHAINS, depth: int = 12) -> Tuple[int, Optional[Dict]]:
    """Exact contraction audit over seeded random rational points.

    Compares squared diameters as rationals: position k (1-based, depth
    k-1) must satisfy diam^2 <= ((k-1)/k)^2 x parent diam^2.  Returns
    (steps checked, first witness or None).
    """
    rng = random.Random(20260809)
    checked = 0
    for _ in range(chains):
        q1 = rng.randint(1, _CONTRACTION_MAX_DENOMINATOR)
        q2 = rng.randint(1, _CONTRACTION_MAX_DENOMINATOR)
        theta = (Fraction(rng.randint(0, q1), q1), Fraction(rng.randint(0, q2), q2))
        chain = locate(ALGO_A, theta, depth)
        tris = chain.triangles()
        prev = diameter_sq(tris[0])
        for pos in range(2, len(tris) + 1):
            cur = diameter_sq(tris[pos - 1])
            checked += 1
            if cur * pos**2 > prev * (pos - 1) ** 2:
                return checked, {
                    "theta": [str(theta[0]), str(theta[1])],
                    "position": pos,
                    "diam_sq": str(cur),
                    "parent_diam_sq": str(prev),
                }
            prev = cur
    return checked, None


def _contraction(algo: str, limit: int) -> Found:
    depth = min(limit, 12)
    params = {"depth": depth, "chains": _CONTRACTION_CHAINS, "max_denominator": _CONTRACTION_MAX_DENOMINATOR}
    return (params, *sample_contraction(depth=depth))


_COMPLETENESS_QMAX = 15


def _completeness(algo: str, limit: int) -> Found:
    qmax = _COMPLETENESS_QMAX
    params = {"qmax": qmax}
    found = vertices_up_to(algo, qmax)
    checked = 0
    for q in range(1, qmax + 1):
        for a1 in range(q + 1):
            for a2 in range(q + 1):
                if gcd(gcd(q, a1), a2) != 1:
                    continue
                checked += 1
                depth = found.get((q, a1, a2))
                if depth is None:
                    return params, checked, {"missing": [q, a1, a2]}
                if algo == ALGO_A and depth > q:
                    return params, checked, {"vector": [q, a1, a2], "first_depth": depth}
    return params, checked, None


_CENSUS_CHECK_CAP = {ALGO_A: 6, ALGO_B: 16}


def _census_formulas(algo: str, limit: int) -> Found:
    depth = min(limit, _CENSUS_CHECK_CAP[algo])
    params = {"depth": depth}
    checked = 0
    for n in range(depth + 1):
        deg = degrees_at(algo, n)
        c = Census.of_degrees(algo, n, deg)
        checked += 1
        expected = expected_counts(algo, n)
        if (c.faces, c.edges, c.vertices) != expected:
            return params, checked, {"depth": n, "got": [c.faces, c.edges, c.vertices],
                                     "expected": list(expected)}
        if algo == ALGO_A and c.degree_histogram != expected_degree_histogram_a(n):
            return params, checked, {"depth": n, "histogram": c.degree_histogram}
        # sum(deg) = 2r = 3f + boundary edges (each on one face) = 3f + boundary vertices (one cycle)
        boundary = sum(a1 in (0, q) or a2 in (0, q) for q, a1, a2 in deg)
        if sum(deg.values()) != 3 * c.faces + boundary:
            return params, checked, {"depth": n, "problem": "handshake"}
        if c.euler() != 1:
            return params, checked, {"depth": n, "problem": "euler", "value": c.euler()}
    return params, checked, None


def _degree_set(algo: str, limit: int) -> Found:
    depth = min(limit, _CENSUS_CHECK_CAP[algo])
    params = {"depth": depth, "table_qmax": 60}
    checked = 0
    maps = (degrees_at(algo, n) for n in range(depth + 1))
    splits = [split_degrees(algo, deg, older) for older, deg in pairwise(maps)]
    # Grades are fixed at creation, so a table cut at the largest stable
    # denominator grades the compared vectors as the qmax-60 table does.
    largest = max((v[0] for stable, _ in splits for v in stable), default=0)
    table = stable_degree_table(algo, min(60, largest)) if largest else {}
    for n, (stable, frontier) in enumerate(splits, 1):
        for v, d in stable.items():
            checked += 1
            if d not in DEGREE_SET[algo]:
                return params, checked, {"depth": n, "vertex": list(v), "degree": d}
            if v[0] <= 60 and table[v] != d:
                return params, checked, {"depth": n, "vertex": list(v), "degree": d,
                                         "graded": table[v]}
        if algo == ALGO_B:
            for v, d in frontier.items():
                checked += 1
                if d not in {2, 3, 4}:
                    return params, checked, {"depth": n, "frontier_vertex": list(v), "degree": d}
    return params, checked, None


def _degree_stability(algo: str, limit: int) -> Found:
    base_max = min(limit, _CENSUS_CHECK_CAP[algo] - 3)
    params = {"base_depths": base_max, "lookahead": 3}
    if base_max < 1:
        raise Skipped("depth limit leaves no room for lookahead")
    checked = 0
    # degree maps of depths n-1 .. n+2 at the top of each pass
    maps = [degrees_at(algo, d) for d in range(4)]
    for n in range(1, base_max + 1):
        stable, _ = split_degrees(algo, maps[1], maps[0])
        del maps[0]
        maps.append(degrees_at(algo, n + 3))
        for k in range(1, 4):
            later = maps[k]
            for v, d in stable.items():
                checked += 1
                if later[v] != d:
                    return params, checked, {"vertex": list(v), "depth": n, "later_depth": n + k,
                                             "degree": d, "later_degree": later[v]}
    return params, checked, None


def _max_area(algo: str, limit: int) -> Found:
    depth = min(limit, 7)
    params = {"depth": depth}
    for n in range(1, depth + 1):
        _, biggest = extreme_areas(ALGO_A, n)
        if biggest != Fraction(1, 2 * (n + 1) ** 2):
            return params, n, {"depth": n, "max_area": str(biggest)}
    return params, depth, None


_MOMENT_BOUND_CAP = {ALGO_A: 9, ALGO_B: 20}


def _moment_bound(algo: str, limit: int) -> Found:
    depth = min(limit, _MOMENT_BOUND_CAP[algo])
    params = {"depth": depth, "beta": 2}
    partial, bound = cumulative_moment_check(algo, 2, depth)
    if partial > bound:
        return params, depth + 1, {"partial_sum": partial, "bound": bound}
    return dict(params, partial_sum=partial, bound=bound), depth + 1, None


# --- registry ---------------------------------------------------------------

_ALL = (ALGO_A, ALGO_B, ALGO_CLASSICAL)
_2D = (ALGO_A, ALGO_B)

CHECKS: Dict[str, Callable[[str, int], CheckReport]] = {c.name: c for c in (
    Check("unimodularity",
          "every basis produced by the subdivision rules has determinant +-1",
          _unimodularity, _2D, "no lattice bases in the 1-d rule"),
    Check("regular-partition",
          "children tile their parent: areas sum exactly, each child lies inside "
          "the parent, and child interiors are pairwise disjoint",
          _regular_partition, _2D, "intervals partition trivially"),
    Check("area-lemma2",
          "1/(2 q(a) q(b) q(c)) equals the shoelace area of every triangle",
          _area_formula, _2D, "interval lengths need no area formula"),
    Check("sigma1",
          "the cell measures of every tiling sum to exactly 1",
          _sigma1, _ALL),
    Check("lemma4",
          "for a child triangle missing parent vertex a, every child vertex "
          "denominator is at least min(q(b), q(c)) over the kept parent vertices",
          _lemma4, (ALGO_A,), "six-way rule only"),
    Check("lemma7",
          "a triangle whose code has r entries has all denominators >= 2^(r//2)",
          _lemma7, (ALGO_A,), "run-length codes belong to the six-way rule"),
    Check("lemma8",
          "max vertex denominator <= (depth + 1) x min vertex denominator",
          _lemma8, _2D, "stated for the 2-d rules"),
    Check("lemma13",
          "ordered triangles satisfy q(b)+q(c) >= q(a) >= q(b) >= q(c); an "
          'operation-"1" child halves the area or better; k operations "0" '
          "follow the stated mediant formulas with q(a'), q(b') >= (k+1)/2 q(c)",
          _lemma13, (ALGO_B,), "ordered-rule statement"),
    Check("lemma16",
          'after operations (d0, d1, "1", "0") the final third vertex equals the '
          "mediant of the starting triangle's last two vertices, is not a vertex "
          "of the starting triangle, and is a vertex of the first child",
          _lemma16, (ALGO_B,), "ordered-rule statement"),
    Check("theorem1-contraction",
          "along every located chain the k-th triangle's diameter is at most "
          "(1 - 1/k) times its parent's, for chain positions k >= 2",
          _contraction, (ALGO_A,), "contraction factor stated for the six-way rule"),
    Check("completeness",
          "every primitive vector with denominator <= qmax occurs as a basis "
          "vector; for the six-way rule no later than depth q",
          _completeness, _2D, "classical completeness is the 1-d mediant fact"),
    Check("census-formulas",
          "face, edge, vertex counts match their closed forms; degree histograms "
          "satisfy the handshake identity and v - r + f = 1",
          _census_formulas, _2D, "graph census is 2-d only"),
    Check("degree-set",
          "stable degrees take only the allowed values ({2,3,5,8} six-way, "
          "{3,5,8} ordered rule), transient values {2,4} appear only on the "
          "frontier, and the creation-type grading reproduces measured degrees",
          _degree_set, _2D, "graph degrees are 2-d only"),
    Check("degree-stability",
          "a vertex's degree never changes after it stabilizes: from first "
          "appearance (six-way rule) or one step later (ordered rule)",
          _degree_stability, _2D, "graph degrees are 2-d only"),
    Check("max-area",
          "the largest cell of the depth-n six-way tiling is exactly 1/(2(n+1)^2)",
          _max_area, (ALGO_A,), "corner-cell law of the six-way rule"),
    Check("lemma9-bound",
          "partial sums of order-2 moments stay under (16/3) zeta(4)^2",
          _moment_bound, (ALGO_A,), "constant stated for the six-way rule"),
    Check("lemma14-bound",
          "partial sums of order-2 moments stay under (32/3) 2^2 zeta(4)^2",
          _moment_bound, (ALGO_B,), "constant stated for the ordered rule"),
)}


def run_checks(
    algo: str,
    depth_limit: int,
    selection: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> List[CheckReport]:
    """Run the selected checks (all by default) at depths <= depth_limit.

    The report list is ordered by the registry and is a pure function of
    (algo, depth_limit, selection); checks are independent, so they may
    run in worker processes without changing the report.
    """
    if algo not in (ALGO_A, ALGO_B, ALGO_CLASSICAL):
        raise InvalidInputError(f"unknown algorithm {algo!r}")
    if depth_limit < 0:
        raise InvalidInputError("depth limit must be nonnegative")
    if selection is None:
        selected = list(CHECKS)
    else:
        selected = list(selection)
        unknown = [s for s in selected if s not in CHECKS]
        if unknown:
            raise InvalidInputError(f"unknown checks: {', '.join(sorted(unknown))}")
        if not selected:
            raise InvalidInputError("the check selection names no check")

    def _check_task(name: str) -> CheckReport:
        return CHECKS[name](algo, depth_limit)

    return run_tasks(_check_task, [nm for nm in CHECKS if nm in selected], jobs)
