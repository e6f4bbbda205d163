"""One harness running every testable lemma and formula check.

Each check is registered with a plain-language statement of the claim
it tests, so a report doubles as a traceability matrix.  Reports are a
pure function of (algo, depth_limit, selection): checks clamp the
requested depth to their own capacity, walk enumerations in canonical
order, and report the first counterexample found as a witness.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import (
    InvalidInputError,
    LatticeVector,
    Vec,
    coordinates,
    det3,
    diameter_sq,
    shoelace_area,
    vec_add,
)
from .subdivision import ALGO_A, ALGO_B, ALGO_CLASSICAL, child_rule, child_vectors_a, child_vectors_b
from .census import (
    DEGREE_SET,
    census,
    degrees_at,
    expected_counts,
    expected_degree_histogram_a,
    split_degrees,
    stable_degree_table,
)
from .analysis import cumulative_moment_check, exact_unit_sum, extreme_areas
from .tiling import (
    iter_bases,
    level_q_counts,
    level_q_counts_coded_a,
    locate,
    vertices_up_to,
)
from ._jobs import run_tasks

PASS, FAIL, SKIP = "pass", "fail", "skipped"


@dataclass
class CheckReport:
    name: str
    claim: str
    algo: str
    params: Dict
    status: str
    checked: int = 0
    witness: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "algo": self.algo,
            "params": self.params,
            "status": self.status,
            "checked": self.checked,
            "witness": self.witness,
        }


def _pass(name, claim, algo, params, checked):
    return CheckReport(name, claim, algo, params, PASS, checked)


def _fail(name, claim, algo, params, checked, witness):
    return CheckReport(name, claim, algo, params, FAIL, checked, witness)


def _skip(name, claim, algo, reason):
    return CheckReport(name, claim, algo, {"reason": reason}, SKIP)


# --- individual checks ------------------------------------------------------


_CLAIM_UNIMODULAR = "every basis produced by the subdivision rules has determinant +-1"


def _check_unimodularity(algo: str, limit: int) -> CheckReport:
    name = "unimodularity"
    if algo == ALGO_CLASSICAL:
        return _skip(name, _CLAIM_UNIMODULAR, algo, "no lattice bases in the 1-d rule")
    depth = min(limit, 6 if algo == ALGO_A else 16)
    params = {"depth": depth}
    checked = 0
    for basis, d in iter_bases(algo, depth):
        checked += 1
        if abs(det3(*basis)) != 1:
            return _fail(name, _CLAIM_UNIMODULAR, algo, params, checked,
                         {"depth": d, "basis": [list(v) for v in basis]})
    return _pass(name, _CLAIM_UNIMODULAR, algo, params, checked)


_CLAIM_REGULAR = (
    "children tile their parent: areas sum exactly, each child lies inside "
    "the parent, and child interiors are pairwise disjoint"
)


def _check_regular_partition(algo: str, limit: int) -> CheckReport:
    name = "regular-partition"
    if algo == ALGO_CLASSICAL:
        return _skip(name, _CLAIM_REGULAR, algo, "intervals partition trivially")
    kids = child_rule(algo)
    checked = 0
    # exact area bookkeeping at every enumerated depth, on distinct triples
    sum_depth = min(limit, 8 if algo == ALGO_A else 16)
    geometry_depth = min(limit, 4)
    params = {"area_sum_depth": sum_depth, "geometry_depth": geometry_depth}
    for d, level in enumerate(level_q_counts(algo, sum_depth)):
        if d == sum_depth:
            break
        for (p, q, r), mult in level.items():
            checked += mult
            parent_area = Fraction(1, 2 * p * q * r)
            child_area = Fraction(0)
            for cp, cq, cr in kids(p, q, r, operator.add):
                child_area += Fraction(1, 2 * cp * cq * cr)
            if child_area != parent_area:
                return _fail(name, _CLAIM_REGULAR, algo, params, checked,
                             {"depth": d, "triple": [p, q, r]})
    # exact lattice geometry on every parent of a cell at depth <= geometry_depth
    parents = iter_bases(algo, geometry_depth - 1) if geometry_depth else ()
    for basis, d in parents:
        checked += 1
        children = kids(*basis)
        for ch in children:
            if any(min(coordinates(basis, v)) < 0 for v in ch):
                return _fail(name, _CLAIM_REGULAR, algo, params, checked,
                             {"depth": d, "problem": "child escapes parent",
                              "basis": [list(v) for v in basis]})
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                if not disjoint_interiors(children[i], children[j]):
                    return _fail(name, _CLAIM_REGULAR, algo, params, checked,
                                 {"depth": d, "problem": "overlapping interiors",
                                  "children": [i, j],
                                  "basis": [list(v) for v in basis]})
    return _pass(name, _CLAIM_REGULAR, algo, params, checked)


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


def _pt(v):
    return (Fraction(v[1], v[0]), Fraction(v[2], v[0]))


_CLAIM_AREA = "1/(2 q(a) q(b) q(c)) equals the shoelace area of every triangle"


def _check_area_formula(algo: str, limit: int) -> CheckReport:
    name = "area-lemma2"
    if algo == ALGO_CLASSICAL:
        return _skip(name, _CLAIM_AREA, algo, "interval lengths need no area formula")
    depth = min(limit, 6)
    params = {"depth": depth}
    checked = 0
    for basis, d in iter_bases(algo, depth):
        checked += 1
        qa, qb, qc = basis[0][0], basis[1][0], basis[2][0]
        if Fraction(1, 2 * qa * qb * qc) != shoelace_area([_pt(v) for v in basis]):
            return _fail(name, _CLAIM_AREA, algo, params, checked,
                         {"depth": d, "basis": [list(v) for v in basis]})
    return _pass(name, _CLAIM_AREA, algo, params, checked)


_CLAIM_SIGMA1 = "the cell measures of every tiling sum to exactly 1"

_SIGMA1_CAP = {ALGO_A: 7, ALGO_B: 20, ALGO_CLASSICAL: 20}


def _check_sigma1(algo: str, limit: int) -> CheckReport:
    name = "sigma1"
    depth = min(limit, _SIGMA1_CAP[algo])
    params = {"depth": depth}
    for n in range(depth + 1):
        total = exact_unit_sum(algo, n)
        if total != 1:
            return _fail(name, _CLAIM_SIGMA1, algo, params, n + 1,
                         {"depth": n, "sum": str(total)})
    return _pass(name, _CLAIM_SIGMA1, algo, params, depth + 1)


_CLAIM_L4 = (
    "for a child triangle missing parent vertex a, every child vertex "
    "denominator is at least min(q(b), q(c)) over the kept parent vertices"
)


def _check_lemma4(algo: str, limit: int) -> CheckReport:
    name = "lemma4"
    if algo != ALGO_A:
        return _skip(name, _CLAIM_L4, algo, "six-way rule only")
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
                        return _fail(name, _CLAIM_L4, algo, params, checked,
                                     {"depth": d, "parent": list(t), "rule": rule + 1,
                                      "dropped_q": t[dropped]})
    return _pass(name, _CLAIM_L4, algo, params, checked)


_CLAIM_L7 = "a triangle whose code has r entries has all denominators >= 2^(r//2)"


def _check_lemma7(algo: str, limit: int) -> CheckReport:
    name = "lemma7"
    if algo != ALGO_A:
        return _skip(name, _CLAIM_L7, algo, "run-length codes belong to the six-way rule")
    depth = min(limit, 8)
    params = {"depth": depth}
    checked = 0
    for level in level_q_counts_coded_a(depth):
        for (p, q, r, rlen, _lc), mult in level.items():
            checked += mult
            if min(p, q, r) < 2 ** (rlen // 2):
                return _fail(name, _CLAIM_L7, algo, params, checked,
                             {"triple": [p, q, r], "code_length": rlen})
    return _pass(name, _CLAIM_L7, algo, params, checked)


_CLAIM_L8 = "max vertex denominator <= (depth + 1) x min vertex denominator"


def _check_lemma8(algo: str, limit: int) -> CheckReport:
    name = "lemma8"
    if algo == ALGO_CLASSICAL:
        return _skip(name, _CLAIM_L8, algo, "stated for the 2-d rules")
    depth = min(limit, 8 if algo == ALGO_A else 16)
    params = {"depth": depth}
    checked = 0
    for d, level in enumerate(level_q_counts(algo, depth)):
        for t, mult in level.items():
            checked += mult
            if max(t) > (d + 1) * min(t):
                return _fail(name, _CLAIM_L8, algo, params, checked,
                             {"depth": d, "triple": list(t)})
    return _pass(name, _CLAIM_L8, algo, params, checked)


_CLAIM_L13 = (
    "ordered triangles satisfy q(b)+q(c) >= q(a) >= q(b) >= q(c); an "
    'operation-"1" child halves the area or better; k operations "0" '
    "follow the stated mediant formulas with q(a'), q(b') >= (k+1)/2 q(c)"
)


def _check_lemma13(algo: str, limit: int) -> CheckReport:
    name = "lemma13"
    if algo != ALGO_B:
        return _skip(name, _CLAIM_L13, algo, "ordered-rule statement")
    depth = min(limit, 16)
    kmax = 12
    parents_depth = min(limit, 4)
    params = {"depth": depth, "zero_run_parents_depth": parents_depth, "kmax": kmax}
    checked = 0
    for d, level in enumerate(level_q_counts(ALGO_B, depth)):
        for (qa, qb, qc), mult in level.items():
            checked += mult
            if not (qb + qc >= qa >= qb >= qc):
                return _fail(name, _CLAIM_L13, algo, params, checked,
                             {"part": "i", "depth": d, "triple": [qa, qb, qc]})
            # operation "1" child (qb+qc, qa, qb): area ratio qc/(qb+qc) <= 1/2
            (q1a, q1b, q1c), _ = child_vectors_b(qa, qb, qc, operator.add)
            if Fraction(1, 2 * q1a * q1b * q1c) > Fraction(1, 2 * qa * qb * qc) / 2:
                return _fail(name, _CLAIM_L13, algo, params, checked,
                             {"part": "ii", "depth": d, "triple": [qa, qb, qc]})
    # part iii: explicit zero-runs from whole bases
    for basis, d in iter_bases(ALGO_B, parents_depth):
        a, b, c = basis
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
                return _fail(name, _CLAIM_L13, algo, params, checked,
                             {"part": "iii", "depth": d, "k": k,
                              "start": [list(v) for v in basis]})
            if 2 * cur[0][0] < (k + 1) * c[0] or 2 * cur[1][0] < (k + 1) * c[0]:
                return _fail(name, _CLAIM_L13, algo, params, checked,
                             {"part": "iii-bound", "depth": d, "k": k,
                              "start": [list(v) for v in basis]})
    return _pass(name, _CLAIM_L13, algo, params, checked)


def _shift(u, v, times):
    return (u[0] + times * v[0], u[1] + times * v[1], u[2] + times * v[2])


_CLAIM_L16 = (
    'after operations (d0, d1, "1", "0") the final third vertex equals the '
    "mediant of the starting triangle's last two vertices, is not a vertex "
    "of the starting triangle, and is a vertex of the first child"
)


def _check_lemma16(algo: str, limit: int) -> CheckReport:
    name = "lemma16"
    if algo != ALGO_B:
        return _skip(name, _CLAIM_L16, algo, "ordered-rule statement")
    depth = min(limit, 4)
    params = {"parent_depth": depth}
    checked = 0
    for basis, d in iter_bases(ALGO_B, depth):
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
                    return _fail(name, _CLAIM_L16, algo, params, checked,
                                 {"depth": d, "ops": [d0, d1, 1, 0],
                                  "start": [list(v) for v in basis]})
    return _pass(name, _CLAIM_L16, algo, params, checked)


_CLAIM_T1 = (
    "along every located chain the k-th triangle's diameter is at most "
    "(1 - 1/k) times its parent's, for chain positions k >= 2"
)


def sample_contraction(
    chains: int = 200,
    depth: int = 12,
    max_denominator: int = 100,
    seed: int = 20260809,
) -> Tuple[int, Optional[Dict]]:
    """Exact contraction audit over seeded random rational points.

    Compares squared diameters as rationals: position k (1-based, depth
    k-1) must satisfy diam^2 <= ((k-1)/k)^2 x parent diam^2.  Returns
    (steps checked, first witness or None).
    """
    rng = random.Random(seed)
    checked = 0
    for _ in range(chains):
        q1 = rng.randint(1, max_denominator)
        q2 = rng.randint(1, max_denominator)
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


def _check_contraction(algo: str, limit: int) -> CheckReport:
    name = "theorem1-contraction"
    if algo != ALGO_A:
        return _skip(name, _CLAIM_T1, algo, "contraction factor stated for the six-way rule")
    depth = min(limit, 12)
    params = {"depth": depth, "chains": 200, "max_denominator": 100}
    checked, witness = sample_contraction(chains=200, depth=depth)
    if witness:
        return _fail(name, _CLAIM_T1, algo, params, checked, witness)
    return _pass(name, _CLAIM_T1, algo, params, checked)


_CLAIM_COMPLETE = (
    "every primitive vector with denominator <= qmax occurs as a basis "
    "vector; for the six-way rule no later than depth q"
)


def _check_completeness(algo: str, limit: int, qmax: int = 15) -> CheckReport:
    name = "completeness"
    if algo == ALGO_CLASSICAL:
        return _skip(name, _CLAIM_COMPLETE, algo, "classical completeness is the 1-d mediant fact")
    params = {"qmax": qmax}
    found = vertices_up_to(algo, qmax)
    checked = 0
    for q in range(1, qmax + 1):
        for a1 in range(q + 1):
            for a2 in range(q + 1):
                if gcd(gcd(q, a1), a2) != 1:
                    continue
                checked += 1
                v = LatticeVector(q, a1, a2)
                depth = found.get(v)
                if depth is None:
                    return _fail(name, _CLAIM_COMPLETE, algo, params, checked,
                                 {"missing": [q, a1, a2]})
                if algo == ALGO_A and depth > q:
                    return _fail(name, _CLAIM_COMPLETE, algo, params, checked,
                                 {"vector": [q, a1, a2], "first_depth": depth})
    return _pass(name, _CLAIM_COMPLETE, algo, params, checked)


_CLAIM_CENSUS = (
    "face, edge, vertex counts match their closed forms; degree histograms "
    "satisfy the handshake identity and v - r + f = 1"
)

_CENSUS_CHECK_CAP = {ALGO_A: 6, ALGO_B: 16}


def _check_census_formulas(algo: str, limit: int) -> CheckReport:
    name = "census-formulas"
    if algo == ALGO_CLASSICAL:
        return _skip(name, _CLAIM_CENSUS, algo, "graph census is 2-d only")
    depth = min(limit, _CENSUS_CHECK_CAP[algo])
    params = {"depth": depth}
    checked = 0
    for n in range(depth + 1):
        c = census(algo, n)
        checked += 1
        expected = expected_counts(algo, n)
        if (c.faces, c.edges, c.vertices) != expected:
            return _fail(name, _CLAIM_CENSUS, algo, params, checked,
                         {"depth": n, "got": [c.faces, c.edges, c.vertices],
                          "expected": list(expected)})
        if algo == ALGO_A and c.degree_histogram != expected_degree_histogram_a(n):
            return _fail(name, _CLAIM_CENSUS, algo, params, checked,
                         {"depth": n, "histogram": c.degree_histogram})
        if sum(d * k for d, k in c.degree_histogram.items()) != 2 * c.edges:
            return _fail(name, _CLAIM_CENSUS, algo, params, checked,
                         {"depth": n, "problem": "handshake"})
        if c.euler() != 1:
            return _fail(name, _CLAIM_CENSUS, algo, params, checked,
                         {"depth": n, "problem": "euler", "value": c.euler()})
    return _pass(name, _CLAIM_CENSUS, algo, params, checked)


_CLAIM_DEGSET = (
    "stable degrees take only the allowed values ({2,3,5,8} six-way, "
    "{3,5,8} ordered rule), transient values {2,4} appear only on the "
    "frontier, and the creation-type grading reproduces measured degrees"
)


def _check_degree_set(algo: str, limit: int) -> CheckReport:
    name = "degree-set"
    if algo == ALGO_CLASSICAL:
        return _skip(name, _CLAIM_DEGSET, algo, "graph degrees are 2-d only")
    depth = min(limit, _CENSUS_CHECK_CAP[algo])
    params = {"depth": depth, "table_qmax": 60}
    checked = 0
    maps = (degrees_at(algo, n) for n in range(depth + 1))
    splits = [split_degrees(algo, deg, older) for older, deg in pairwise(maps)]
    # Grades are fixed at creation, so a table cut at the largest stable
    # denominator grades the compared vectors as the qmax-60 table does.
    largest = max((v.x for stable, _ in splits for v in stable), default=0)
    table = stable_degree_table(algo, min(60, largest)) if largest else {}
    for n, (stable, frontier) in enumerate(splits, 1):
        for v, d in stable.items():
            checked += 1
            if d not in DEGREE_SET[algo]:
                return _fail(name, _CLAIM_DEGSET, algo, params, checked,
                             {"depth": n, "vertex": list(v), "degree": d})
            if v.x <= 60 and table[v] != d:
                return _fail(name, _CLAIM_DEGSET, algo, params, checked,
                             {"depth": n, "vertex": list(v), "degree": d,
                              "graded": table[v]})
        if algo == ALGO_B:
            for v, d in frontier.items():
                checked += 1
                if d not in {2, 3, 4}:
                    return _fail(name, _CLAIM_DEGSET, algo, params, checked,
                                 {"depth": n, "frontier_vertex": list(v), "degree": d})
    return _pass(name, _CLAIM_DEGSET, algo, params, checked)


_CLAIM_DEGSTAB = (
    "a vertex's degree never changes after it stabilizes: from first "
    "appearance (six-way rule) or one step later (ordered rule)"
)


def _check_degree_stability(algo: str, limit: int) -> CheckReport:
    name = "degree-stability"
    if algo == ALGO_CLASSICAL:
        return _skip(name, _CLAIM_DEGSTAB, algo, "graph degrees are 2-d only")
    cap = _CENSUS_CHECK_CAP[algo]
    base_max = min(limit, cap - 3)
    params = {"base_depths": base_max, "lookahead": 3}
    if base_max < 1:
        return _skip(name, _CLAIM_DEGSTAB, algo, "depth limit leaves no room for lookahead")
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
                if later[tuple(v)] != d:
                    return _fail(name, _CLAIM_DEGSTAB, algo, params, checked,
                                 {"vertex": list(v), "depth": n, "later_depth": n + k,
                                  "degree": d, "later_degree": later[tuple(v)]})
    return _pass(name, _CLAIM_DEGSTAB, algo, params, checked)


_CLAIM_MAXAREA = "the largest cell of the depth-n six-way tiling is exactly 1/(2(n+1)^2)"


def _check_max_area(algo: str, limit: int) -> CheckReport:
    name = "max-area"
    if algo != ALGO_A:
        return _skip(name, _CLAIM_MAXAREA, algo, "corner-cell law of the six-way rule")
    depth = min(limit, 7)
    params = {"depth": depth}
    checked = 0
    for n in range(1, depth + 1):
        _, biggest = extreme_areas(ALGO_A, n)
        checked += 1
        if biggest != Fraction(1, 2 * (n + 1) ** 2):
            return _fail(name, _CLAIM_MAXAREA, algo, params, checked,
                         {"depth": n, "max_area": str(biggest)})
    return _pass(name, _CLAIM_MAXAREA, algo, params, checked)


_CLAIM_L9 = "partial sums of order-2 moments stay under (16/3) zeta(4)^2"
_CLAIM_L14 = "partial sums of order-2 moments stay under (32/3) 2^2 zeta(4)^2"


def _check_lemma9(algo: str, limit: int) -> CheckReport:
    name = "lemma9-bound"
    if algo != ALGO_A:
        return _skip(name, _CLAIM_L9, algo, "constant stated for the six-way rule")
    depth = min(limit, 9)
    params = {"depth": depth, "beta": 2}
    partial, bound = cumulative_moment_check(ALGO_A, 2, depth)
    if partial > bound:
        return _fail(name, _CLAIM_L9, algo, params, depth + 1,
                     {"partial_sum": partial, "bound": bound})
    return _pass(name, _CLAIM_L9, algo, dict(params, partial_sum=partial, bound=bound), depth + 1)


def _check_lemma14(algo: str, limit: int) -> CheckReport:
    name = "lemma14-bound"
    if algo != ALGO_B:
        return _skip(name, _CLAIM_L14, algo, "constant stated for the ordered rule")
    depth = min(limit, 20)
    params = {"depth": depth, "beta": 2}
    partial, bound = cumulative_moment_check(ALGO_B, 2, depth)
    if partial > bound:
        return _fail(name, _CLAIM_L14, algo, params, depth + 1,
                     {"partial_sum": partial, "bound": bound})
    return _pass(name, _CLAIM_L14, algo, dict(params, partial_sum=partial, bound=bound), depth + 1)


# --- registry ---------------------------------------------------------------

CHECKS: Dict[str, Callable[[str, int], CheckReport]] = {
    "unimodularity": _check_unimodularity,
    "regular-partition": _check_regular_partition,
    "area-lemma2": _check_area_formula,
    "sigma1": _check_sigma1,
    "lemma4": _check_lemma4,
    "lemma7": _check_lemma7,
    "lemma8": _check_lemma8,
    "lemma13": _check_lemma13,
    "lemma16": _check_lemma16,
    "theorem1-contraction": _check_contraction,
    "completeness": _check_completeness,
    "census-formulas": _check_census_formulas,
    "degree-set": _check_degree_set,
    "degree-stability": _check_degree_stability,
    "max-area": _check_max_area,
    "lemma9-bound": _check_lemma9,
    "lemma14-bound": _check_lemma14,
}


def _check_task(args: Tuple[str, int, str]) -> CheckReport:
    algo, limit, name = args
    return CHECKS[name](algo, limit)


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
    tasks = [(algo, depth_limit, nm) for nm in CHECKS if nm in selected]
    return run_tasks(_check_task, tasks, jobs)
