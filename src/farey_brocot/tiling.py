"""Streaming enumeration of tilings, point location, vertex harvesting.

Two complementary engines live here.  The geometric engine walks actual
lattice bases depth-first through ``descend`` and is used wherever
vertices matter (graph censuses, containment, rendering, the verify
checks).  It streams raw integer triples; ``iter_triangles`` and
``locate`` wrap them as ``Triangle`` values.  ``leaves`` walks the
nodes at one depth below given roots, which is what ``iter_bases_at``,
``iter_triangles`` and the graph tasks read.  The multiplicity engine
evolves counts of denominator triples level by level; triples collapse
heavily (millions of triangles share a few hundred thousand triples),
which is what makes desk-scale moment sweeps affordable in exact
arithmetic.  ``level_q_counts`` keeps a level as a dict, since rule a
merges the children of different parents.  Rule b never does: its
triples stay ordered (Lemma 13), and an ordered triple has one ordered
parent, so ``level_columns_b`` steps whole rule-b levels as parallel
lists, with no dict, for the moments, and ``level_blocks_b`` and
``child_blocks_b`` walk one deep level as blocks of those lists, depth
first.  The dict engine stays the
independent one that the verify checks read.  The classical partition
has one walk, ``classical_rows``, which yields one depth as rows of
endpoints, left to right, and which every classical enumeration reads.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial
from itertools import chain, compress, pairwise
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

from .core import (
    CapacityError,
    InvalidInputError,
    InvariantViolationError,
    Point,
    Triangle,
    Vec,
    coordinates,
    point_vector,
)
from .subdivision import (
    ALGO_A,
    ALGO_CLASSICAL,
    child_rule,
    child_vectors_a,
    child_vectors_b,
    extend_code_a,
    initial_vectors,
    min_new_denominator,
    refine_row,
    streak_step_a,
)

RawBasis = Tuple[Vec, Vec, Vec]
Node = TypeVar("Node")


def descend(roots: Sequence[Node], expand: Callable[[Node, int], Sequence[Node]]) -> Iterator[Tuple[Node, int]]:
    """Depth-first pre-order walk yielding (node, depth), children left
    to right.

    ``expand(node, depth)`` is called once per node, after the node is
    yielded, and returns the children to walk or an empty tuple to stop.
    Every 2-d enumeration whose order can show in a result goes through
    here, so this one routine fixes the canonical order that SVG bytes
    and parallel task lists depend on.
    """
    stack = [(iter(roots), 0)]
    while stack:
        it, d = stack[-1]
        for node in it:
            yield node, d
            kids = expand(node, d)
            if kids:
                stack.append((iter(kids), d + 1))
                break
        else:
            stack.pop()


def face_count(algo: str, n: int) -> int:
    """Number of cells in the depth-n tiling: triangles, or the intervals
    of the classical partition."""
    return 2**n if algo == ALGO_CLASSICAL else 2 * (6 if algo == ALGO_A else 2) ** n


def iter_bases(algo: str, n: int) -> Iterator[Tuple[RawBasis, int]]:
    """Depth-first pre-order stream of (raw basis, depth) for every
    depth 0..n."""
    if n < 0:
        raise InvalidInputError("depth must be nonnegative")
    kids = child_rule(algo)
    return descend(initial_vectors(algo), lambda b, d: kids(*b) if d < n else ())


def leaves(roots: Sequence[Node], kids: Callable[..., Sequence[Node]], k: int) -> Iterator[Node]:
    """The nodes exactly k levels below ``roots``, in pre-order.

    ``kids(*node)`` gives a node's children.  The walk stops one level
    short and expands each node of that level inline, which spares a
    descent step per leaf; the order is the one of filtering a depth-k
    ``descend`` to depth k.
    """
    if k == 0:
        return iter(roots)
    last = k - 1
    parents = descend(roots, lambda node, d: kids(*node) if d < last else ())
    return chain.from_iterable(kids(*node) for node, d in parents if d == last)


def iter_bases_at(algo: str, n: int) -> Iterator[RawBasis]:
    """Depth-first stream of the raw bases at exactly depth n."""
    if n < 0:
        raise InvalidInputError("depth must be nonnegative")
    yield from leaves(initial_vectors(algo), child_rule(algo), n)


def _extend_code_b(code: Tuple[int, ...], rule: int, _last_corner: bool) -> Tuple[Tuple[int, ...], bool]:
    # child index 0 is operation "1", index 1 is operation "0"
    return code + (1 - rule,), False


def iter_triangles(algo: str, n: int) -> Iterator[Triangle]:
    """Depth-first stream of the depth-n tiling as Triangle values.

    Algorithm A triangles carry their run-length code, algorithm B
    triangles their operation bit string.
    """
    if n < 0:
        raise InvalidInputError("depth must be nonnegative")
    kids = child_rule(algo)
    extend = extend_code_a if algo == ALGO_A else _extend_code_b

    # nodes: (basis, code, last_corner flag)
    def coded_kids(basis, code, lc):
        return [(ch, *extend(code, rule, lc)) for rule, ch in enumerate(kids(*basis))]

    for basis, code, _ in leaves([(r, (), False) for r in initial_vectors(algo)], coded_kids, n):
        yield Triangle(basis, n, algo, code)


# No row of the classical walk holds more than 2^ROW_SPLIT + 1 endpoints.
ROW_SPLIT = 12


def classical_rows(n: int, rows: Tuple[List[int], ...]) -> Iterator[Tuple[List[int], ...]]:
    """The depth-n classical partition as rows of endpoint coordinates.

    ``rows`` holds one depth-0 row per coordinate, such as numerators
    ``[0, 1]`` and denominators ``[1, 1]``.  Yields depth n alone, as
    blocks of neighbouring intervals, left to right, and each block's
    last endpoint starts the next.  Blocks are aligned from the bottom:
    the walk to depth n - ROW_SPLIT runs first, and each of its
    intervals is refined on its own through the last ROW_SPLIT levels.
    So no row is longer than 2^ROW_SPLIT + 1, and the walk streams at
    any depth.
    """
    top = max(0, n - ROW_SPLIT)
    for block in classical_rows(top, rows) if top else [rows]:
        for i in range(len(block[0]) - 1):
            sub = tuple(row[i : i + 2] for row in block)
            for _ in range(top, n):
                sub = tuple(map(refine_row, sub))
            yield sub


def iter_intervals(n: int) -> Iterator[Tuple[Fraction, Fraction]]:
    """The 2**n intervals of the classical depth-n partition, left to
    right, as (endpoint, endpoint) pairs."""
    if n < 0:
        raise InvalidInputError("depth must be nonnegative")
    for nums, dens in classical_rows(n, ([0, 1], [1, 1])):
        yield from pairwise(map(Fraction, nums, dens))


def brocot_level(n: int) -> List[Fraction]:
    """The n-th classical level F_n, of length 2**n + 1."""
    return [Fraction(0)] + [right for _, right in iter_intervals(n)]


# --- point location --------------------------------------------------------

# A step costs about 2 KiB and 40 us through the CLI (chain plus JSON):
# `locate` to depth 65536 measured 2.6-3.1 s and 146-156 MiB peak for
# the points 3/7,2/9 and 13/31,5/37 under both rules (2 CPUs, CPython
# 3.11), within the ~7 s and 165 MiB of the Dirichlet heads' caps.
LOCATE_DEPTH_CAP = 65536


class DescentStep(NamedTuple):
    triangle: Triangle
    child_index: int
    coefficients: Tuple[Fraction, Fraction, Fraction]


class DescentChain(NamedTuple):
    """Nested triangles of one continued-fraction descent toward theta."""

    algo: str
    theta: Point
    steps: Tuple[DescentStep, ...]

    def triangles(self) -> List[Triangle]:
        return [s.triangle for s in self.steps]

    def vertex_depth(self) -> Optional[int]:
        """First depth at which theta itself is a vertex, if any.

        Vertices and theta's vector are primitive, so equal points are
        equal vectors.
        """
        target = point_vector(self.theta)
        for s in self.steps:
            if target in s.triangle.vertices:
                return s.triangle.depth
        return None


def locate(algo: str, theta: Point, n: int) -> DescentChain:
    """Descend n steps through the nested triangles containing theta.

    Containment is the exact nonnegative-coefficients test; on shared
    boundaries the lowest-index child wins, so chains are deterministic.
    Depths beyond ``LOCATE_DEPTH_CAP`` raise ``CapacityError``.
    """
    if n < 0:
        raise InvalidInputError("depth must be nonnegative")
    if n > LOCATE_DEPTH_CAP:
        raise CapacityError(f"locate depth {n} exceeds capacity {LOCATE_DEPTH_CAP}")
    t1, t2 = Fraction(theta[0]), Fraction(theta[1])
    if not (0 <= t1 <= 1 and 0 <= t2 <= 1):
        raise InvalidInputError(f"point ({t1}, {t2}) outside the unit square")
    target = point_vector((t1, t2))
    den = target[0]

    kids = child_rule(algo)
    steps: List[DescentStep] = []
    candidates = initial_vectors(algo)
    for depth in range(n + 1):
        for idx, basis in enumerate(candidates):
            coeffs = coordinates(basis, target)
            if min(coeffs) >= 0:
                tri = Triangle(basis, depth, algo)
                steps.append(DescentStep(tri, idx, tuple(Fraction(c, den) for c in coeffs)))
                candidates = kids(*basis)
                break
        else:  # regular partitions always cover theta
            raise InvariantViolationError(f"no triangle at depth {depth} contains ({t1}, {t2})")
    return DescentChain(algo, (t1, t2), tuple(steps))


# --- vertex harvesting -----------------------------------------------------


def vertices_up_to(algo: str, qmax: int) -> Dict[Vec, int]:
    """Every primitive vector with denominator <= qmax, mapped to the
    smallest depth at which it occurs as a basis vector.

    A subtree is abandoned once ``min_new_denominator`` exceeds qmax.
    """
    if qmax < 1:
        raise InvalidInputError("qmax must be >= 1")
    kids = child_rule(algo)
    first: Dict[Vec, int] = {}

    def expand(basis, _d):
        return kids(*basis) if min_new_denominator(algo, basis) <= qmax else ()

    for basis, d in descend(initial_vectors(algo), expand):
        for v in basis:
            if v[0] <= qmax:
                known = first.get(v)
                if known is None or d < known:
                    first[v] = d
    return dict(sorted(first.items()))


# --- multiplicity engine over denominator triples --------------------------

QTriple = Tuple[int, int, int]
LevelCounts = Dict[QTriple, int]


def _step(level: Dict, expand: Callable[..., Iterable]) -> Dict:
    # Every state's count moves onto each state expand(*state) returns.
    nxt: Dict = {}
    get = nxt.get
    for state, c in level.items():
        for key in expand(*state):
            nxt[key] = get(key, 0) + c
    return nxt


def level_q_counts(algo: str, n: int, start: Optional[LevelCounts] = None) -> Iterator[LevelCounts]:
    """Yield, for depth 0..n, the multiset of denominator triples.

    Algorithm A triples are kept sorted ascending (the rule ignores
    vertex order); algorithm B triples keep their positional order.
    """
    # The rules on denominators alone.  For p <= q <= r every six-way
    # child triple is again sorted ascending, so sortedness holds by
    # induction from the root (1, 1, 1).
    expand = partial(child_rule(algo), add=operator.add)
    level: LevelCounts = {(1, 1, 1): 2} if start is None else dict(start)
    yield level
    for _ in range(n):
        level = _step(level, expand)
        yield level


# A rule-b level as four parallel lists: the denominator triples' first,
# second and third entries, and their counts.
Columns = Tuple[List[int], List[int], List[int], List[int]]


def _add_columns(x: List[int], y: List[int]) -> List[int]:
    return list(map(operator.add, x, y))


def _interleave(first: List, second: List) -> List:
    out = [0] * (2 * len(first))
    out[::2] = first
    out[1::2] = second
    return out


def _children_b(P: List[int], Q: List[int], R: List[int], C: List[int]) -> Tuple[Columns, Columns, Optional[List]]:
    # (first children, second children, keep): every parent's two
    # children as columns, parent by parent.  They differ only in their
    # last entry, q against r, so a parent's twins (q == r) merge into its
    # first child, with the count doubled; keep marks the second children
    # that are not a twin's, and is None when all are.
    first, second = child_vectors_b(P, Q, R, add=_add_columns)
    twins = list(map(operator.eq, Q, R))
    if not any(twins):
        return (*first, C), (*second, C), None
    doubled = list(map(operator.lshift, C, twins))
    return (*first, doubled), (*second, C), list(map(operator.not_, twins))


def _step_columns_b(P: List[int], Q: List[int], R: List[int], C: List[int]) -> Columns:
    first, second, keep = _children_b(P, Q, R, C)
    if keep is None:
        return tuple(_interleave(x, y) for x, y in zip(first, second))
    keep = _interleave([True] * len(C), keep)
    return tuple(list(compress(_interleave(x, y), keep)) for x, y in zip(first, second))


def level_columns_b(n: int, start: Optional[LevelCounts] = None) -> Iterator[Columns]:
    """Rule-b levels for depth 0..n as columns (P, Q, R, C), item for
    item and in order the ``level_q_counts("b", n, start)`` levels.

    The rule keeps every triple ordered, p >= q >= r and q + r >= p
    (Lemma 13), and two ordered parents never share a child: a triple
    (x, y, z) is the first child of (y, z, x - z) or the second child
    of (y, x - z, z), and both parents are ordered only when they are
    one triple, with x - z == z.  So the one merge is a parent's own two
    children when q == r, and a level needs no dict: each step maps the
    rule over whole columns and interleaves the two children parent by
    parent.  Children are ordered when their parent is, so only the
    start triples are checked, before any work.
    """
    level = {(1, 1, 1): 2} if start is None else start
    for p, q, r in level:
        if not (p >= q >= r and q + r >= p):
            raise InvariantViolationError(f"rule-b triple {(p, q, r)} is not ordered")
    cols = (*map(list, zip(*level)), list(level.values()))
    yield cols
    for _ in range(n):
        cols = _step_columns_b(*cols)
        yield cols


def child_columns_b(P: List[int], Q: List[int], R: List[int], C: List[int]) -> Tuple[Columns, ...]:
    """The children of a block of rule-b states as blocks of columns:
    the first children, then the second children of the parents whose
    two children are not twins (a twin's first child carries count 2c).

    Together they hold the states of ``_step_columns_b`` on the block,
    counts included, without its interleave; no block is longer than
    its parent block, and an empty one is left out.
    """
    first, second, keep = _children_b(P, Q, R, C)
    if keep is None:
        return first, second
    second = tuple(list(compress(col, keep)) for col in second)
    return (first, second) if second[0] else (first,)


# The block walks start below the first level larger than this many
# states, in blocks of this many states.
_BLOCK = 1024


def _blocks(cols: Columns) -> List[Columns]:
    # cols cut into blocks of _BLOCK states, in order
    return [tuple(col[i : i + _BLOCK] for col in cols) for i in range(0, len(cols[3]), _BLOCK)]


def _walk_b(n: int, start: Optional[LevelCounts], kids: Callable[..., Sequence]) -> Iterator[Columns]:
    # Whole levels are stepped until one holds more than _BLOCK states;
    # that level is cut into blocks, and each block is walked depth first
    # through kids, which never gives a block of more than _BLOCK states.
    # The walk holds two blocks per level below the cut, so its memory
    # grows with depth, not with the level.
    for d, cols in enumerate(level_columns_b(n, start)):
        if d == n or len(cols[3]) > _BLOCK:
            break
    return leaves(_blocks(cols), kids, n - d)


def level_blocks_b(n: int, start: Optional[LevelCounts] = None) -> Iterator[Columns]:
    """The last ``level_columns_b(n, start)`` level, item for item and in
    order, as blocks of at most ``_BLOCK`` states, in bounded memory.

    Each block is stepped by the level step and cut again, so each
    subtree's states stay together: the order in which a pairwise exact
    sum merges the cells that share factors first.
    """
    return _walk_b(n, start, lambda *block: _blocks(_step_columns_b(*block)))


def child_blocks_b(n: int, start: Optional[LevelCounts] = None) -> Iterator[Columns]:
    """The states and counts of ``level_blocks_b(n, start)`` in another
    order, for sums that do not depend on it: each block's children are
    the blocks of ``child_columns_b``, with no interleave."""
    return _walk_b(n, start, child_columns_b)


CodedState = Tuple[int, int, int, int, bool]


def _coded_children_a(p: int, q: int, r: int, rlen: int, lc: bool) -> Iterator[CodedState]:
    for rule, child in enumerate(child_vectors_a(p, q, r, operator.add)):
        extends, corner = streak_step_a(rule, lc)
        yield child + (rlen if extends else rlen + 1, corner)


def level_q_counts_coded_a(n: int) -> Iterator[Dict[CodedState, int]]:
    """Algorithm A triples extended with (code length, streak-open flag).

    The triple keeps rule order (kept vertex first), which is what the
    code transition needs; sorting would lose it.
    """
    level: Dict[CodedState, int] = {(1, 1, 1, 0, False): 2}
    yield level
    for _ in range(n):
        level = _step(level, _coded_children_a)
        yield level


def split_q_states(algo: str, split_depth: int) -> List[Tuple[QTriple, int]]:
    """Canonical (triple, multiplicity) task list at a fixed split depth.

    The decomposition depends only on (algo, split_depth), never on the
    worker count, so parallel reductions merge bit-identically.
    """
    level: LevelCounts = {}
    for level in level_q_counts(algo, split_depth):
        pass
    return sorted(level.items())
