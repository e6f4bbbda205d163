"""The three subdivision rules and their code bookkeeping.

Algorithm "a" splits a triangle into six children through the mediants
of its edges and its center; the rule does not depend on vertex order.
Algorithm "b" splits an ordered triangle in two through the mediant of
its second and third vertices; vertex order is significant.  The
classical rule inserts mediants between neighbouring fractions of the
unit interval.
"""

from __future__ import annotations

import operator
from typing import Callable, List, Tuple

from .core import InvalidInputError, Vec, vec_add

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


# --- the rules ---------------------------------------------------------------
#
# Each rule is stated once, below.  All three are linear in the parent's
# vertices: the same 2-d function steps lattice vectors (the default
# `add`) or bare denominators (``operator.add``), and ``refine_row``
# steps a row of any one endpoint coordinate.


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


def refine_row(row: List[int]) -> List[int]:
    """Classical rule on one row of endpoint coordinates, left to right:
    keep every endpoint, and between each neighbouring pair u, v insert
    the mediant's u + v.  The mediant is componentwise, so numerators
    and denominators both refine by it."""
    nxt = [0] * (2 * len(row) - 1)
    nxt[::2] = row
    nxt[1::2] = map(operator.add, row, row[1:])
    return nxt


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


# --- code bookkeeping ------------------------------------------------------
#
# Algorithm A attaches to each triangle the run-length sequence
# [t_1, ..., t_r] of consecutive-step streaks at a common vertex, summing
# to the depth.  During descent this is tracked in O(1) per step.

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
