"""Triangulation graph censuses and stable vertex degrees.

The graph of a depth-n tiling has the step-n basis vectors as vertices
and an edge wherever two vectors share a step-n basis.  ``census`` takes
each number from one source: the vertex and edge counts from the whole
graph, built by ``graph_at``; the degree histogram from the degree map
of ``degrees_at``; the face count from the closed form ``face_count``.
The map must have one key per graph vertex and twice as many edge ends
as the graph has edges, so every census checks two independent
reductions against each other.  ``expected_counts`` gives closed forms
for all three counts so the measured ones can be compared.

The graph is built in subtrees, one task per triangle at a fixed split
depth.  ``graph_at`` unions their edge sets, in one process; ``census``
builds the graph only to count it, since the benchmark's tracer reads
the graph size there.  ``degrees_at`` has each task reduce its own
edges: an edge two of its leaves own is counted at both ends there, and
the rest, the rim, the sole edges two tasks can share, is returned as a
set.  It runs one task per orbit of the square's symmetries that keep
the roots (the point reflection, the transpose and their product), 20
of 72 for algorithm A and 8 of 32 for algorithm B, and maps that task's
summary onto the rest of its orbit.  ``Census.of_degrees`` counts a
degree map.

Degrees stabilize once a vertex exists (algorithm A) or one step after
it appears (algorithm B), and the stable degree is fixed by how the
vertex was created: triangle centers get 3, mediants of boundary edges
5, mediants of interior edges 8, with the four unit-square corners as
special cases.  ``stable_degree_table`` grades every vector that way,
far beyond the depths any explicit graph fits in memory; it is the
oracle that the tests and the ``degree-set`` verify check compare
against.  ``degree_counts`` gives the same grading counted per
denominator, from totients and a descent over denominator triples,
without listing the vectors; the Dirichlet series reads it.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from .core import CapacityError, InvalidInputError, InvariantViolationError, Vec
from .subdivision import ALGO_A, ALGO_B, child_rule, child_vectors_a, initial_vectors, min_new_denominator
from .tiling import RawBasis, _dict_blocks, _step, descend, face_count, iter_bases_at, leaves

# Medians of nine CLI runs each at --jobs 1 and 2 (2 CPUs, CPython 3.11):
# a/6 takes 0.28-0.30 s and 35 MiB, b/17 0.84-0.85 s and 78 MiB.  The peak
# is the graph's, counted and freed before the degree map is built, so
# a/7 (2.0-2.9 s and 148 MiB) and b/18 (2.5-3.2 s and 149 MiB), measured
# while the histogram still came from the graph, stay refused, within
# 10 % of the ~165 MiB the other caps keep.  ``degrees_at`` shares the cap;
# running one task per symmetry orbit, it takes 0.07-0.11 s and 22.5 MiB
# at a/6 and 0.26-0.34 s and 31.3 MiB at b/17.
CENSUS_DEPTH_CAP = {ALGO_A: 6, ALGO_B: 17}

DEGREE_SET = {ALGO_A: frozenset({2, 3, 5, 8}), ALGO_B: frozenset({3, 5, 8})}


class Census(NamedTuple):
    algo: str
    depth: int
    faces: int
    edges: int
    vertices: int
    degree_histogram: Dict[int, int]

    @classmethod
    def of_degrees(cls, algo: str, depth: int, deg: Dict[Vec, int]) -> "Census":
        """The census read off a degree map: each vertex once, each edge
        at both ends, with the closed-form face count."""
        hist = Counter(deg.values())
        return cls(algo, depth, face_count(algo, depth), sum(deg.values()) // 2, len(deg),
                   dict(sorted(hist.items())))

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


Edge = Tuple[Vec, Vec]
# A subtree's graph reduced by ``_graph_task``: the degree counts of its
# internal edges, and its rim edges.
Summary = Tuple[Dict[Vec, int], Set[Edge]]


def _tasks(algo: str, n: int) -> List[Tuple[str, RawBasis, int]]:
    # One task per root triangle at a fixed split depth.
    _check_capacity(algo, n)
    split = min(n, 2 if algo == ALGO_A else 4)
    return [(algo, root, n - split) for root in iter_bases_at(algo, split)]


def _leaf_edges(args: Tuple[str, RawBasis, int]) -> Iterator[Edge]:
    # The three edges of every leaf `levels` steps below `root`, each as
    # a sorted pair.
    algo, root, levels = args
    for g1, g2, g3 in leaves((root,), child_rule(algo), levels):
        yield (g1, g2) if g1 < g2 else (g2, g1)
        yield (g1, g3) if g1 < g3 else (g3, g1)
        yield (g2, g3) if g2 < g3 else (g3, g2)


def graph_at(algo: str, n: int) -> Tuple[Set[Vec], Set[Edge]]:
    """Vertex and edge sets of the depth-n triangulation graph.

    Builds the whole graph in this process, one subtree at a time: the
    caller must hold all of it, so a worker would only ship its edges
    back.  ``degrees_at`` reduces each subtree instead, and the tests
    compare it against this.  Every vertex lies on an edge.
    """
    verts: Set[Vec] = set()
    edges: Set[Edge] = set()
    for tedges in map(set, map(_leaf_edges, _tasks(algo, n))):
        verts.update(chain.from_iterable(tedges))
        edges |= tedges
    return verts, edges


def _graph_task(args: Tuple[str, RawBasis, int]) -> Summary:
    """One subtree's graph reduced to ({vertex: internal edges at it},
    rim edges).

    The leaves tile the root with disjoint interiors, so an edge belongs
    to one leaf or two.  One owned by two is internal: no other task has
    it, and it is counted at both ends here.  One owned by one leaf is
    the rim, returned as is: an edge two tasks share lies on both roots'
    sides, so it is rim in each.
    """
    owners = Counter(_leaf_edges(args))
    deg = Counter(chain.from_iterable(e for e, k in owners.items() if k == 2))
    return deg, {e for e, k in owners.items() if k == 1}


# The unit square's symmetries that keep both rules' roots: the point
# reflection phi (x, y) -> (1-x, 1-y), the transpose tau (x, y) -> (y, x)
# and sigma = phi tau.  Each is unimodular and linear on (q, a1, a2), so
# it commutes with every mediant: the image of a subtree is the subtree
# of the image root.
Symmetry = Callable[[int, int, int], Vec]
_SYMMETRIES: Tuple[Symmetry, ...] = (
    lambda q, a1, a2: (q, q - a1, q - a2),
    lambda q, a1, a2: (q, a2, a1),
    lambda q, a1, a2: (q, q - a2, q - a1),
)


def _orbit_plan(algo: str, tasks: List[Tuple[str, RawBasis, int]]) -> List[Tuple[int, Optional[Symmetry]]]:
    """For each task, (index of the task to run, symmetry taking that
    task's summary onto this one's, or None for the task itself).

    The first task of each symmetry orbit is run.  Rule b steps ordered
    bases, so its orbit key is the basis as it stands; rule a ignores
    vertex order, so its key is the sorted basis.  Only a task already
    run is ever a source, so a basis that a symmetry fixes (a rule-a
    triangle on the diagonal) is never mapped onto itself.
    """
    key = tuple if algo == ALGO_B else sorted
    source: Dict[Tuple[Vec, ...], Tuple[int, Symmetry]] = {}
    plan: List[Tuple[int, Optional[Symmetry]]] = []
    for i, (_, basis, _) in enumerate(tasks):
        mapped = source.get(tuple(key(basis)))
        if mapped:
            plan.append(mapped)
            continue
        plan.append((i, None))
        for g in _SYMMETRIES:
            source.setdefault(tuple(key([g(*v) for v in basis])), (i, g))
    return plan


def _image(summary: Summary, g: Symmetry) -> Summary:
    deg, rim = summary
    return (
        {g(*v): d for v, d in deg.items()},
        {(a, b) if a < b else (b, a) for a, b in ((g(*u), g(*v)) for u, v in rim)},
    )


def degrees_at(algo: str, n: int) -> Dict[Vec, int]:
    """Vertex degree map of the depth-n graph.  Every vertex lies on an
    edge, so the keys are exactly the graph's vertices.

    Equal to counting the edges of ``graph_at(algo, n)`` per endpoint,
    but each subtree task keeps only its rim edges and the degree counts
    of the rest, and only the first task of each symmetry orbit runs:
    every other task's summary is that task's, mapped by the symmetry
    between them.  The degree counts add up in task order, and both
    ends of each distinct rim edge are counted.  Everything runs in this
    process: ``verify --jobs`` already runs the degree checks in its
    workers, one check to a worker at a time.
    """
    tasks = _tasks(algo, n)
    plan = _orbit_plan(algo, tasks)
    runs = [i for i, (_, g) in enumerate(plan) if g is None]
    summaries = {i: _graph_task(tasks[i]) for i in runs}
    deg: Counter = Counter()
    rim: Set[Edge] = set()
    for i, g in plan:
        tdeg, trim = summaries[i] if g is None else _image(summaries[i], g)
        deg.update(tdeg)
        rim |= trim
    deg.update(chain.from_iterable(rim))
    return deg


def census(algo: str, n: int) -> Census:
    """Measured edge and vertex counts and degree histogram, with the
    closed-form face count."""
    # The counts come from the whole graph, the histogram from the orbit-
    # reduced degree map, and each is checked against the other.  The graph
    # stays only because the benchmark's tracer (perfbench/tracer.py) reads
    # the graph size off graph_at; it is counted and freed before the map
    # is built, so the peak is the graph's alone.
    v, r = map(len, graph_at(algo, n))
    deg = degrees_at(algo, n)
    if len(deg) != v or sum(deg.values()) != 2 * r:
        raise InvariantViolationError(
            f"degree map of {algo}/{n} has {len(deg)} vertices and {sum(deg.values())} edge ends; "
            f"the graph has {v} vertices and {r} edges"
        )
    return Census.of_degrees(algo, n, deg)


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
) -> Tuple[Dict[Vec, int], Dict[Vec, int]]:
    """(stable, frontier) degrees at depth n, each in sorted vector
    order, from the degree maps at depths n and n-1 (empty below depth 0).

    The frontier is the vertices new at depth n.  For algorithm A every
    vertex is stable; for algorithm B the frontier is excluded because
    its degrees are still transient.
    """
    stable: Dict[Vec, int] = {}
    frontier: Dict[Vec, int] = {}
    for v, d in sorted(deg.items()):
        if v not in older:
            frontier[v] = d
        if algo == ALGO_A or v in older:
            stable[v] = d
    return stable, frontier


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


def stable_degree_table(algo: str, qmax: int) -> Dict[Vec, int]:
    """Stable degree of every primitive vector with denominator <= qmax.

    Runs the same pruned descent as ``vertices_up_to`` and grades each
    vector at its creation site: 3 for centers, 5 for boundary-edge
    mediants, 8 for interior-edge mediants.  Regularity of the
    partitions makes the creation site, and hence the grade, unique.
    """
    kids = child_rule(algo)
    if qmax < 1:
        raise InvalidInputError("qmax must be >= 1")
    deg: Dict[Vec, int] = dict(_INITIAL_DEGREES[algo])

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
    return {v: d for v, d in sorted(deg.items()) if v[0] <= qmax}


# --- degree counts per denominator ------------------------------------------

# Rule a's center descent visits about qmax^3 / 360 triple states; its
# blocks merge duplicates only within a block, which adds 1-4 %.
# Measured in process (2 CPUs, CPython 3.11): 48,334 states in 0.07 s at
# qmax 256, 383,932 in 0.65 s at 512, 3,059,653 in 6.1 s at 1024, where
# the Dirichlet head takes 4.8-6.6 s and 27 MiB peak end to end.
CENTER_STATE_CAP = 3_000_000
# Rule b needs only the totient sieve, linear in qmax: counts for qmax
# 65536 take 0.17 s and 45 MiB.
SIEVE_QMAX_CAP = 65536


def totients(n: int) -> Tuple[List[int], List[int]]:
    """(phi, J2) over 0..n from one sieve: Euler's totient and the Jordan
    totient J_2(q) = q^2 prod_{p | q} (1 - p^-2)."""
    phi = list(range(n + 1))
    j2 = [k * k for k in range(n + 1)]
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
                j2[k] -= j2[k] // (p * p)
    return phi, j2


def check_sieve(qmax: int) -> None:
    """Raise unless ``totients(qmax)`` fits its budget."""
    if qmax > SIEVE_QMAX_CAP:
        raise CapacityError(f"qmax {qmax} exceeds the totient sieve's capacity {SIEVE_QMAX_CAP}")


def check_degree_counts(algo: str, qmax: int) -> None:
    """Raise unless ``degree_counts(algo, qmax)`` fits its budget."""
    if algo not in _INITIAL_DEGREES:
        raise InvalidInputError(f"no degree grading for algorithm {algo!r}")
    if qmax < 1:
        raise InvalidInputError("qmax must be >= 1")
    check_sieve(qmax)
    states = qmax**3 // 360
    if algo == ALGO_A and states > CENTER_STATE_CAP:
        raise CapacityError(
            f"degree counts for algorithm {algo!r} at qmax {qmax} need about {states} "
            f"triple states; capacity {CENTER_STATE_CAP}"
        )


def _center_counts(qmax: int) -> List[int]:
    # N_c(q): rule-a triangles of every depth, with multiplicity, whose
    # denominators sum to q.  A child's sum exceeds its parent's, so a
    # triple past qmax and everything below it can be dropped.
    # The triples are walked depth first, in blocks: a block's children
    # merge within the block, so the walk holds a few blocks per depth,
    # not a whole level.
    counts = [0] * (qmax + 1)

    def expand(p: int, q: int, r: int) -> List[Tuple[int, int, int]]:
        return [t for t in child_vectors_a(p, q, r, operator.add) if t[0] + t[1] + t[2] <= qmax]

    def expand_block(block: Dict[Tuple[int, int, int], int], _depth: int) -> List[Dict]:
        for (p, q, r), c in block.items():
            counts[p + q + r] += c
        return _dict_blocks(_step(block, expand))

    for _ in descend(_dict_blocks({(1, 1, 1): 2} if qmax >= 3 else {}), expand_block):
        pass
    return counts


def degree_counts(algo: str, qmax: int) -> List[Dict[int, int]]:
    """n_d(q): how many primitive vectors with denominator q have stable
    degree d, as ``{d: n_d(q)}`` for q = 0..qmax (zero counts omitted).

    Equal to counting ``stable_degree_table(algo, qmax)`` by
    (denominator, degree), without listing the vectors.  For q >= 2 the
    square's boundary holds 4 phi(q) of them, all mediants of boundary
    edges (degree 5), and its interior J_2(q) - 2 phi(q).  An interior
    vector is a rule-a center (degree 3) or else an interior-edge
    mediant (degree 8); a center's denominator is the sum of its
    triangle's three, so counting centers is counting triangles by
    denominator sum.
    """
    check_degree_counts(algo, qmax)
    phi, j2 = totients(qmax)
    centers = _center_counts(qmax) if algo == ALGO_A else [0] * (qmax + 1)
    counts = [{}, dict(Counter(_INITIAL_DEGREES[algo].values()))]
    for q in range(2, qmax + 1):
        row = {3: centers[q], 5: 4 * phi[q], 8: j2[q] - 2 * phi[q] - centers[q]}
        counts.append({d: n for d, n in row.items() if n})
    return counts
