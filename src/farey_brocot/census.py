"""Triangulation graph censuses and stable vertex degrees.

The graph of a depth-n tiling has the step-n basis vectors as vertices
and an edge wherever two vectors share a step-n basis.  Counts are
measured from the actual graph, never from the closed forms; the closed
forms live in ``expected_counts`` so the two can be compared.

Degrees stabilize once a vertex exists (algorithm A) or one step after
it appears (algorithm B), and the stable degree is fixed by how the
vertex was created: triangle centers get 3, mediants of boundary edges
5, mediants of interior edges 8, with the four unit-square corners as
special cases.  ``stable_degree_table`` exploits that to grade vertices
far beyond the depths any explicit graph fits in memory; the
classification is cross-checked against measured graphs in the tests
and the verify suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Set, Tuple

from .core import CapacityError, InvalidInputError, LatticeVector, Vec
from .subdivision import ALGO_A, ALGO_B, child_rule, initial_vectors, min_new_denominator
from .tiling import RawBasis, descend, face_count, iter_bases_at
from ._jobs import run_tasks

CENSUS_DEPTH_CAP = {ALGO_A: 8, ALGO_B: 20}

DEGREE_SET = {ALGO_A: frozenset({2, 3, 5, 8}), ALGO_B: frozenset({3, 5, 8})}


@dataclass(frozen=True)
class Census:
    algo: str
    depth: int
    faces: int
    edges: int
    vertices: int
    degree_histogram: Dict[int, int]

    def euler(self) -> int:
        """v - r + f; equals 1 for a triangulated square."""
        return self.vertices - self.edges + self.faces


def _check_capacity(algo: str, n: int) -> None:
    cap = CENSUS_DEPTH_CAP.get(algo)
    if cap is None:
        raise InvalidInputError(f"no graph census for algorithm {algo!r}")
    if n < 0:
        raise InvalidInputError("depth must be nonnegative")
    if n > cap:
        raise CapacityError(f"census depth {n} exceeds capacity {cap} for algorithm {algo!r}")


def _graph_task(args: Tuple[str, RawBasis, int]) -> Tuple[Set[Vec], Set[Tuple[Vec, Vec]]]:
    algo, root, levels = args
    verts: Set[Vec] = set()
    edges: Set[Tuple[Vec, Vec]] = set()
    kids = child_rule(algo)
    for basis, d in descend((root,), lambda b, d: kids(*b) if d < levels else ()):
        if d == levels:
            g1, g2, g3 = basis
            verts.add(g1)
            verts.add(g2)
            verts.add(g3)
            edges.add((g1, g2) if g1 < g2 else (g2, g1))
            edges.add((g1, g3) if g1 < g3 else (g3, g1))
            edges.add((g2, g3) if g2 < g3 else (g3, g2))
    return verts, edges


def graph_at(algo: str, n: int, jobs: int = 1) -> Tuple[Set[Vec], Set[Tuple[Vec, Vec]]]:
    """Vertex and edge sets of the depth-n triangulation graph."""
    _check_capacity(algo, n)
    split = min(n, 2 if algo == ALGO_A else 4)
    tasks = [(algo, root, n - split) for root in iter_bases_at(algo, split)]
    verts: Set[Vec] = set()
    edges: Set[Tuple[Vec, Vec]] = set()
    for tverts, tedges in run_tasks(_graph_task, tasks, jobs):
        verts |= tverts
        edges |= tedges
    return verts, edges


def _degree_counts(edges: Set[Tuple[Vec, Vec]]) -> Dict[Vec, int]:
    deg: Counter = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return dict(deg)


def degrees_at(algo: str, n: int, jobs: int = 1) -> Dict[Vec, int]:
    """Vertex degree map of the depth-n graph.  Every vertex lies on an
    edge, so the keys are exactly the graph's vertices."""
    _, edges = graph_at(algo, n, jobs=jobs)
    return _degree_counts(edges)


def census(algo: str, n: int, jobs: int = 1) -> Census:
    """Measured face, edge, and vertex counts plus the degree histogram."""
    verts, edges = graph_at(algo, n, jobs=jobs)
    hist = Counter(_degree_counts(edges).values())
    return Census(algo, n, face_count(algo, n), len(edges), len(verts), dict(sorted(hist.items())))


def expected_counts(algo: str, n: int) -> Tuple[int, int, int]:
    """Closed-form (faces, edges, vertices) for the depth-n graph."""
    if algo == ALGO_A:
        return 2 * 6**n, 2**n * (3 ** (n + 1) + 2), 6**n + 2 ** (n + 1) + 1
    if algo == ALGO_B:
        k, odd = divmod(n, 2)
        f = 2 ** (n + 1)
        if odd:
            return f, 6 * 4**k + 2 ** (k + 1), (2**k + 1) ** 2 + 4**k
        return f, 3 * 4**k + 2 ** (k + 1), (2**k + 1) ** 2
    raise InvalidInputError(f"no closed-form census for algorithm {algo!r}")


def expected_degree_histogram_a(n: int) -> Dict[int, int]:
    """Closed-form degree histogram for algorithm A at depth n."""
    hist = {
        2: 2,
        3: (2 * 6**n + 8) // 5,
        5: 2 ** (n + 2) - 4,
        8: (6 ** (n + 1) + 14) // 10 - 2 ** (n + 1),
    }
    return {d: c for d, c in hist.items() if c}


def split_degrees(
    algo: str, deg: Dict[Vec, int], older: Dict[Vec, int]
) -> Tuple[Dict[LatticeVector, int], Dict[LatticeVector, int]]:
    """(stable, frontier) degrees at depth n from the degree maps at
    depths n and n-1 (empty below depth 0).

    The frontier is the vertices new at depth n.  For algorithm A every
    vertex is stable; for algorithm B the frontier is excluded because
    its degrees are still transient.
    """
    stable: Dict[LatticeVector, int] = {}
    frontier: Dict[LatticeVector, int] = {}
    for v, d in sorted(deg.items()):
        if v not in older:
            frontier[LatticeVector(*v)] = d
        if algo == ALGO_A or v in older:
            stable[LatticeVector(*v)] = d
    return stable, frontier


def stable_degrees(algo: str, n: int, jobs: int = 1) -> Dict[LatticeVector, int]:
    """Degrees that already equal their value in the infinite graph."""
    if n < 1:
        raise InvalidInputError("stable degrees need depth >= 1")
    older = degrees_at(algo, n - 1, jobs=jobs) if algo == ALGO_B else {}
    return split_degrees(algo, degrees_at(algo, n, jobs=jobs), older)[0]


def frontier_degrees(algo: str, n: int, jobs: int = 1) -> Dict[LatticeVector, int]:
    """Degrees of the vertices that first appear at depth n."""
    older = degrees_at(algo, n - 1, jobs=jobs) if n >= 1 else {}
    return split_degrees(algo, degrees_at(algo, n, jobs=jobs), older)[1]


# --- creation-type degree grading ------------------------------------------


def _on_same_side(u: Vec, v: Vec) -> bool:
    # The segment [u, v] lies on the unit-square boundary iff both points
    # share a coordinate equal to 0 or 1.
    return (
        (u[1] == 0 and v[1] == 0)
        or (u[1] == u[0] and v[1] == v[0])
        or (u[2] == 0 and v[2] == 0)
        or (u[2] == u[0] and v[2] == v[0])
    )


_INITIAL_DEGREES = {
    ALGO_A: {(1, 0, 0): 2, (1, 1, 0): 3, (1, 0, 1): 3, (1, 1, 1): 2},
    ALGO_B: {(1, 0, 0): 3, (1, 1, 0): 3, (1, 0, 1): 3, (1, 1, 1): 3},
}


def stable_degree_table(algo: str, qmax: int) -> Dict[LatticeVector, int]:
    """Stable degree of every primitive vector with denominator <= qmax.

    Runs the same pruned descent as ``vertices_up_to`` and grades each
    vector at its creation site: 3 for centers, 5 for boundary-edge
    mediants, 8 for interior-edge mediants.  Regularity of the
    partitions makes the creation site, and hence the grade, unique.
    """
    if qmax < 1:
        raise InvalidInputError("qmax must be >= 1")
    deg: Dict[Vec, int] = dict(_INITIAL_DEGREES[algo])
    kids = child_rule(algo)

    def expand(basis: RawBasis, _depth: int):
        children = kids(*basis)
        g1, g2, g3 = basis
        if algo == ALGO_A:
            (_, m12, m13), (_, _, m23), _, (_, _, ctr) = children[:4]
            if ctr[0] <= qmax and ctr not in deg:
                deg[ctr] = 3
            mediants = ((m12, g1, g2), (m13, g1, g3), (m23, g2, g3))
        else:
            mediants = ((children[0][0], g2, g3),)
        for m, u, v in mediants:
            if m[0] <= qmax and m not in deg:
                deg[m] = 5 if _on_same_side(u, v) else 8
        # a child below the cutoff creates nothing, so it is not walked
        return [ch for ch in children if min_new_denominator(algo, ch) <= qmax]

    roots = [r for r in initial_vectors(algo) if min_new_denominator(algo, r) <= qmax]
    for _ in descend(roots, expand):
        pass
    return {LatticeVector(*v): d for v, d in sorted(deg.items()) if v[0] <= qmax}
