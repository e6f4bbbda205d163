"""The three subdivision rules and their code bookkeeping.

Algorithm "a" splits a triangle into six children through the mediants
of its edges and its center; the rule does not depend on vertex order.
Algorithm "b" splits an ordered triangle in two through the mediant of
its second and third vertices; vertex order is significant.  The
classical rule inserts mediants between neighbouring fractions of the
unit interval.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

from .core import (
    Basis,
    InvalidInputError,
    InvariantViolationError,
    LatticeVector,
    Triangle,
    Vec,
    basis_of,
    vec_add,
)

ALGO_A = "a"
ALGO_B = "b"
ALGO_CLASSICAL = "classical"

INITIAL_VECTORS_A: Tuple[Tuple[Vec, Vec, Vec], ...] = (
    ((1, 0, 0), (1, 1, 0), (1, 0, 1)),
    ((1, 1, 0), (1, 0, 1), (1, 1, 1)),
)
INITIAL_VECTORS_B: Tuple[Tuple[Vec, Vec, Vec], ...] = (
    ((1, 0, 0), (1, 1, 0), (1, 0, 1)),
    ((1, 1, 1), (1, 0, 1), (1, 1, 0)),
)


def initial_vectors(algo: str) -> Tuple[Tuple[Vec, Vec, Vec], ...]:
    """The two raw depth-0 bases covering the unit square."""
    if algo == ALGO_A:
        return INITIAL_VECTORS_A
    if algo == ALGO_B:
        return INITIAL_VECTORS_B
    raise InvalidInputError(f"unknown 2-d algorithm {algo!r}")


def initial_bases(algo: str) -> Tuple[Basis, Basis]:
    """The two depth-0 bases covering the unit square."""
    return tuple(basis_of(vs, depth=0, algo=algo) for vs in initial_vectors(algo))


def initial_a() -> Tuple[Basis, Basis]:
    return initial_bases(ALGO_A)


def initial_b() -> Tuple[Basis, Basis]:
    return initial_bases(ALGO_B)


# --- the rules ---------------------------------------------------------------
#
# Each rule is stated once, below.  All three are linear in the parent's
# vertices, so the same function steps lattice vectors (the default
# `add`), bare denominators (``operator.add``) or any other additive
# reading of a vertex.


def child_vectors_a(g1, g2, g3, add: Callable = vec_add) -> Tuple[Tuple, ...]:
    """Six-way rule; no validation.  Rules 1-3 keep one parent vertex
    (placed first), rules 4-6 keep none and share the center."""
    m12 = add(g1, g2)
    m13 = add(g1, g3)
    m23 = add(g2, g3)
    ctr = add(m12, g3)
    return (
        (g1, m12, m13),
        (g2, m12, m23),
        (g3, m13, m23),
        (m12, m13, ctr),
        (m12, m23, ctr),
        (m13, m23, ctr),
    )


def child_vectors_b(g1, g2, g3, add: Callable = vec_add) -> Tuple[Tuple, Tuple]:
    """Two-way rule: (operation "1" child, operation "0" child)."""
    m = add(g2, g3)
    return (m, g1, g2), (m, g1, g3)


def _pair_add(u: Tuple[int, int], v: Tuple[int, int]) -> Tuple[int, int]:
    return u[0] + v[0], u[1] + v[1]


def child_intervals(u, v, add: Callable = _pair_add) -> Tuple[Tuple, Tuple]:
    """Classical rule: the interval [u, v] splits at the mediant u (+) v
    into (left, right).  Endpoints are (numerator, denominator) pairs by
    default."""
    m = add(u, v)
    return (u, m), (m, v)


def child_rule(algo: str) -> Callable:
    """The child function of a 2-d rule."""
    if algo == ALGO_A:
        return child_vectors_a
    if algo == ALGO_B:
        return child_vectors_b
    raise InvalidInputError(f"unknown 2-d algorithm {algo!r}")


def min_new_denominator(algo: str, basis: Tuple[Vec, Vec, Vec]) -> int:
    """Smallest denominator any descendant of `basis` can add: the sum of
    the two smallest current denominators for algorithm A, q(g2) + q(g3)
    for algorithm B.  It never decreases down the tree, so a descent
    pruned on it still reaches every vector below the cutoff."""
    (qa, _, _), (qb, _, _), (qc, _, _) = basis
    if algo == ALGO_A:
        return qa + qb + qc - max(qa, qb, qc)
    return qb + qc


def _subdivide(parent: Basis, algo: str) -> Tuple[Basis, ...]:
    if not parent.is_unimodular():
        raise InvariantViolationError(f"parent basis has det {parent.det()}, not +-1")
    d = parent.depth + 1
    return tuple(
        Basis(tuple(LatticeVector(*v) for v in ch), d, algo)
        for ch in child_rule(algo)(*parent.vectors)
    )


def subdivide_a(parent: Basis) -> Tuple[Basis, ...]:
    """Six unimodular children whose triangles tile the parent triangle."""
    return _subdivide(parent, ALGO_A)


def subdivide_b(parent: Basis) -> Tuple[Basis, Basis]:
    """Ordered pair (child of operation "1", child of operation "0")."""
    return _subdivide(parent, ALGO_B)


def step_1d(level: Sequence[Fraction]) -> List[Fraction]:
    """One classical refinement: insert the mediant between each pair of
    neighbours.  Input must be sorted ascending from 0 to 1."""
    fracs = [Fraction(x) for x in level]
    if len(fracs) < 2 or fracs[0] != 0 or fracs[-1] != 1:
        raise InvalidInputError("level must run from 0/1 to 1/1")
    if any(a >= b for a, b in zip(fracs, fracs[1:])):
        raise InvalidInputError("level must be strictly ascending")
    out = [fracs[0]]
    for a, b in zip(fracs, fracs[1:]):
        (_, m), _ = child_intervals((a.numerator, a.denominator), (b.numerator, b.denominator))
        out.append(Fraction(*m))
        out.append(b)
    return out


def brocot_level(n: int) -> List[Fraction]:
    """The n-th classical level F_n, of length 2**n + 1."""
    if n < 0:
        raise InvalidInputError("depth must be nonnegative")
    level = [Fraction(0), Fraction(1)]
    for _ in range(n):
        level = step_1d(level)
    return level


# --- code bookkeeping ------------------------------------------------------
#
# Algorithm A attaches to each triangle the run-length sequence
# [t_1, ..., t_r] of consecutive-step streaks at a common vertex, summing
# to the depth.  During descent this is tracked in O(1) per step; the
# chain-based computation below is the independent definition used to
# cross-check the incremental one.

EMPTY_CODE: Tuple[int, ...] = ()


def streak_step_a(rule: int, last_corner: bool) -> Tuple[bool, bool]:
    """(whether the step extends the open streak, whether the child keeps
    a parent vertex) for one subdivision step by `rule`.

    `rule` indexes the six children (0-based).  Rule 0 keeps the vertex
    kept by the previous step, so it extends the current streak when one
    is open; rules 1-2 start a streak at a different vertex; rules 3-5
    keep no vertex at all.
    """
    return rule == 0 and last_corner, rule <= 2


def extend_code_a(code: Tuple[int, ...], rule: int, last_corner: bool) -> Tuple[Tuple[int, ...], bool]:
    """Advance a run-length code by one subdivision step."""
    extends, corner = streak_step_a(rule, last_corner)
    if extends:
        return code[:-1] + (code[-1] + 1,), corner
    return code + (1,), corner


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
        if not any(frozenset(LatticeVector(*v) for v in ch) == wanted for ch in options):
            raise InvalidInputError(
                f"broken chain: {child.vertices} is not a child of {parent.vertices}"
            )

