"""Zeta values, tiling moments, Dirichlet series, asymptotic diagnostics.

Moments are exact rationals whenever the order is a positive integer
and the computation fits the exact-mode budget: a cell count, larger at
order 1, and above order 1 a bound on the size of the result.  Exact
sums are merged pairwise, as a balanced tree.
Float sums are ``math.fsum`` over a level's terms, whose result is
correctly rounded and so independent of the order of the terms, merged
over a fixed task decomposition, so results are independent of worker
count and bit-identical across runs.  A 2-d float moment is therefore
correctly rounded only up to the task split depth (3 for rule a, 6 for
rule b); past it, it is the ``fsum`` of per-task ``fsum``s, rounded
twice, and can sit one ulp from the correctly rounded sum.  The
classical moment is one ``fsum`` per depth, correctly rounded at every
depth.  A float moment at one depth, or from one depth on, sums only
the depths it returns: the shallower levels are stepped, since the
deeper ones grow from them, but not reduced.  Each depth's sum reads no other depth's, so it has the bits
of the same depth in the full sweep.  2-d moments read each level's
cell measures and counts: rule a's from the dicts of
``tiling.level_q_counts``, which must merge the children of different
parents, and rule b's from column lists, which need no dict because no
two rule-b parents share a child.  A rule-b level is read off the
children of the level above (``tiling.child_columns_b``), and a level
summed alone comes as blocks of a depth-first walk, so its memory grows
with depth, not with the level: ``tiling.child_blocks_b`` for float
sums, and ``tiling.level_blocks_b``, in the level's own order, for
exact ones.  ``classical_moment`` and ``classical_moment_sweep`` are
``moment`` and ``moment_sweep`` at ``algo="classical"``, which read the
row walk ``tiling.classical_rows`` one depth at a time.  The depth-n
row is a palindrome, so both sums read the left half's intervals alone,
each counted twice: a doubled float term is exact, so the ``fsum`` is
the correctly rounded sum of the whole row's terms.  Dirichlet heads
read the per-denominator degree counts of ``census.degree_counts``.

Every truncated series comes back as a SeriesValue carrying a rigorous
tail bound: the true value lies in [value, value + tail_bound].
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import chain, islice, repeat
from math import fsum
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .core import CapacityError, DomainError, InvalidInputError
from .census import check_degree_counts, check_sieve, degree_counts, totients
from .subdivision import ALGO_A, ALGO_B, ALGO_CLASSICAL
from .tiling import (
    Columns,
    LevelCounts,
    QTriple,
    child_blocks_b,
    child_columns_b,
    classical_rows,
    face_count,
    level_blocks_b,
    level_columns_b,
    level_q_counts,
    split_q_states,
)
from ._jobs import run_tasks

Beta = Union[int, float, Fraction]

EXACT_FACE_CAP = 100_000
# Exact order-1 moments, in cells.  The 2-d rules merge the last level's
# distinct triples.  End to end, a/8 takes 0.4-0.6 s in 59 MiB; in
# process, a/9 takes 2.5 s and 298 MiB, beyond the ~165 MiB budget.  Rule
# b walks its last levels in blocks, in 16-17 MiB at any depth: b/22
# takes 0.5-0.6 s, and b/23, b/24 and b/25 would take 1.0, 1.9 and 4.2 s,
# but the cap is kept, so that no request refused so far is admitted.
# Classical moments merge the left half's intervals:
# 0.4-0.6 s at depth 20 end to end, in 18 MiB, doubling per level
# (2 CPUs, CPython 3.11).
EXACT_UNIT_CAP = {ALGO_A: 2**23, ALGO_B: 2**23, ALGO_CLASSICAL: 2**20}
# Float moments, end to end (3-6 runs, 2 CPUs, CPython 3.11): a/10 at
# order 2 takes 7.4-8.9 s in 82 MiB.  A moment sums its own depth alone:
# b/26 takes 2.8-3.4 s in 17 MiB, walking its last levels in blocks, and
# asym's sweep from depth 2 to 26, which holds each task's levels to
# depth 25 whole, 5.5-6.9 s in 78 MiB, within the Dirichlet heads' ~7 s
# and 165 MiB budget.  A classical moment sums the 2^(n-1) intervals of
# its row's left half, each counted twice, 0.5-0.8 s at depth 22 in
# 17 MiB; asym's sweep from depth 2 walks each depth's half row anew,
# about doubling per level, 1.1-1.8 s at depth 22.  Depth 23 would fit
# too, but raising a cap would admit requests that have been refused so
# far.
MOMENT_DEPTH_CAP = {ALGO_A: 10, ALGO_B: 26, ALGO_CLASSICAL: 22}
# An exact moment of order e >= 2 has a denominator dividing L^e, where L
# is the lcm of the depth-n cells' measure denominators (2pqr, or qr for
# an interval), and a numerator below it, so both have fewer than
# e * bits(L) bits.  CPython converts ints of at most 4,300 digits (about
# 14,284 bits) to text.  Within the cell cap bits(L) is at most 418 (a/6),
# 169 (b/15) and 2,902 (classical/16), so the cap admits orders up to 33,
# 82 and 4 there, which take 0.15, 0.20 and 0.31 s; classical/16 at order
# 20 (17,470 digits) would take 2.1 s (2 CPUs, CPython 3.11).
EXACT_BITS_CAP = 14_000

MAX_DEGREE = 8
# Primitive points with a fixed denominator q number at most (4/3) q^2.
PRIMITIVE_DENSITY = Fraction(4, 3)


class SeriesValue(NamedTuple):
    """A truncated series value with a rigorous truncation bracket."""

    value: float
    tail_bound: float
    terms_used: int

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound


class MomentValue(NamedTuple):
    """Moment of a tiling: sum of cell measures raised to `order`."""

    algo: str
    depth: int
    order: Fraction
    value: Union[Fraction, float]
    exact: bool


def _as_beta(beta: Beta) -> Fraction:
    try:
        b = Fraction(beta)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an infinity
        raise InvalidInputError(f"bad order {beta!r}") from exc
    return b


def _float_order(b: Fraction, what: str) -> float:
    # Refused before any message prints the order: past the float range
    # it can have more digits than int-to-str conversion allows.
    try:
        return float(b)
    except OverflowError:
        raise DomainError(f"{what} order is beyond the float range") from None


# --- Riemann zeta -----------------------------------------------------------

ZETA_TERM_CAP = 50_000_000


def zeta(s: float, tol: float = 1e-12) -> SeriesValue:
    """Partial sum of the zeta series with an integral tail bracket.

    Truncates at K terms where the bracket width
    (K^(1-s) - (K+1)^(1-s)) / (s-1) <= K^(-s) is below `tol`; the true
    value lies in [value, value + tail_bound].  K grows like
    tol^(-1/s), so near s = 1 a loose tolerance must be supplied.
    """
    s = float(s)
    if not s > 1:  # also rejects NaN
        raise DomainError(f"zeta series diverges for s = {s}")
    if not tol > 0:  # also rejects NaN
        raise InvalidInputError(f"tolerance must be positive, got {tol}")
    terms = max(2, math.ceil(tol ** (-1.0 / s)))
    while True:
        if terms > ZETA_TERM_CAP:
            raise CapacityError(
                f"zeta({s}) to tolerance {tol} needs ~{terms} terms; loosen the tolerance"
            )
        lo_tail = (terms + 1) ** (1.0 - s) / (s - 1.0)
        hi_tail = terms ** (1.0 - s) / (s - 1.0)
        if hi_tail - lo_tail <= tol:
            break
        terms *= 2
    partial = fsum(k ** -s for k in range(1, terms + 1))
    return SeriesValue(partial + lo_tail, hi_tail - lo_tail, terms)


# --- tiling moments ---------------------------------------------------------


def _merge(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
    # n1/d1 + n2/d2 for positive denominators, added as Fraction adds
    # (Knuth, TAOCP 4.5.1): dividing gcd(d1, d2) out first keeps the
    # denominator at the lcm.  Lowest terms when both inputs are.
    (n1, d1), (n2, d2) = x, y
    g = math.gcd(d1, d2)
    if g == 1:
        return n1 * d2 + n2 * d1, d1 * d2
    s = d1 // g
    num = n1 * (d2 // g) + n2 * s
    g2 = math.gcd(num, g)
    return num // g2, s * (d2 // g2)


def exact_sum(terms: Iterable[Tuple[int, int]]) -> Fraction:
    """Exact sum of (numerator, denominator) pairs, merged as a balanced
    binary tree in stream order, so that most operands stay small."""
    stack: List[Tuple[int, int]] = []  # partial sums over 2^k terms, k falling
    for i, term in enumerate(terms, 1):
        while not i & 1:  # the counter's carries: merge equal-sized sums
            term = _merge(stack.pop(), term)
            i >>= 1
        stack.append(term)
    return Fraction(*reduce(_merge, reversed(stack), (0, 1)))


Part = Tuple[Iterable[int], Iterable[int]]


def _cells_b(cols: Columns) -> Part:
    P, Q, R, C = cols
    return map(operator.mul, map(operator.mul, map(operator.mul, P, Q), R), repeat(2)), C


def _levels(algo: str, first: int, n: int, start: Optional[LevelCounts] = None) -> Iterator[Iterable[Part]]:
    # Each level first..n as parts (cell measure denominators 2pqr,
    # counts), which together hold the level's cells and counts; the
    # levels below first are stepped, not yielded.  Rule a's one part
    # is its dict level, whose children of different parents merge, and
    # a list of its measures is faster to sum than a generator.  Rule b
    # never merges two parents' children, so its last level is read
    # straight off the children of level n-1 (``child_columns_b``), with
    # no interleave, and a level summed alone comes as the blocks of
    # ``child_blocks_b``, in memory bounded by depth: at order 2, b/26
    # sums in 2.8-3.4 s and 17 MiB end to end, where stepping it whole
    # took 3.7-5.1 s and 143 MiB.  A sweep holds its levels down to n-1
    # whole.
    if algo != ALGO_B:
        for level in islice(level_q_counts(algo, n, start), first, None):
            yield [([2 * p * q * r for p, q, r in level], level.values())]
    elif first == n:
        yield map(_cells_b, child_blocks_b(n, start))
    else:
        for d, cols in enumerate(level_columns_b(n - 1, start)):
            if d >= first:
                yield [_cells_b(cols)]
        yield map(_cells_b, child_columns_b(*cols))


def _level_at(algo: str, n: int) -> Iterable[Part]:
    # Level n alone, in the level's own order, in which the pairwise exact
    # sum merges the cells of each subtree first: in process, exact b/22
    # at order 1 took 0.9 s in the order of child_blocks_b, and 0.5 s in
    # this one.  A classical cell is an interval of measure 1/(qr),
    # between neighbouring endpoint denominators q and r.
    if algo == ALGO_B:
        return map(_cells_b, level_blocks_b(n))
    if algo == ALGO_CLASSICAL:
        weight, rows = _classical_rows_at(n)
        return ((map(operator.mul, row, row[1:]), repeat(weight)) for row in rows)
    (parts,) = _levels(algo, n, n)
    return parts


def _terms(measures: Iterable[int], counts: Iterable[int], beta: float) -> Iterator[float]:
    if beta == 2.0:
        return map(operator.truediv, counts, map(float, map(pow, measures, repeat(2))))
    if beta == 1.0:
        return map(operator.truediv, counts, map(float, measures))
    return map(operator.mul, counts, map(pow, map(float, measures), repeat(-beta)))


def _level_moment_float(parts: Iterable[Part], beta: float) -> float:
    return fsum(chain.from_iterable(_terms(m, c, beta) for m, c in parts))


def _split_depth(algo: str, n: int) -> int:
    return min(n, 3 if algo == ALGO_A else 6)


def _moments_from(algo: str, lo: int, n: int, beta: Beta, jobs: int = 1) -> List[float]:
    # moment_sweep(algo, n, beta, jobs)[lo:], for 0 <= lo <= n: the levels
    # shallower than lo are stepped but never summed.
    _check_moment_args(algo, n, beta)
    bf = float(_as_beta(beta))
    if algo == ALGO_CLASSICAL:
        return [_level_moment_float(_level_at(algo, d), bf) for d in range(lo, n + 1)]
    split = _split_depth(algo, n)
    prefix = []
    if lo < split:
        prefix = [_level_moment_float(parts, bf) for parts in _levels(algo, lo, split - 1)]
    first = max(lo - split, 0)

    def _moment_task(task: Tuple[QTriple, int]) -> List[float]:
        triple, count = task
        return [_level_moment_float(parts, bf) for parts in _levels(algo, first, n - split, {triple: count})]

    return prefix + list(map(fsum, zip(*run_tasks(_moment_task, split_q_states(algo, split), jobs))))


def moment_sweep(algo: str, n: int, beta: Beta, jobs: int = 1) -> List[float]:
    """Floating moments for every depth 0..n in one pass.

    The work is split over a canonical task list at a fixed depth, so
    per-depth sums are byte-identical regardless of `jobs`.  A depth's
    value is the ``fsum``, over the tasks in order, of each task's
    ``fsum`` of that depth's terms, and reads no other depth's sum; so
    ``moment``, and ``asymptotic_sweep`` from its lowest depth, sum only
    the depths they return and get the same bits as this sweep.  The
    classical sweep runs on one worker.
    """
    return _moments_from(algo, 0, n, beta, jobs)


def moment(algo: str, n: int, beta: Beta, exact: Optional[bool] = None, jobs: int = 1) -> MomentValue:
    """Moment of order beta over the depth-n tiling.

    Exact-rational mode runs when beta is a positive integer and the
    tiling fits the exact budget for its order (see ``exact_mode``).
    Otherwise the value is the ``fsum`` of the depth's float terms,
    correctly rounded at every classical depth and, for rules a and b,
    up to the task split depth (3 and 6); past it, it is the ``fsum`` of
    per-task ``fsum``s, which can sit one ulp from the correctly rounded
    sum.  Either way only depth n is summed; the float value is
    ``moment_sweep(algo, n, beta)[n]`` to the bit, since no depth's sum
    in the sweep reads another's.
    """
    use_exact = exact_mode(algo, n, beta, exact)
    b = _as_beta(beta)
    if use_exact:
        e = int(b)
        value = exact_sum(chain.from_iterable(zip(c, map(pow, m, repeat(e))) for m, c in _level_at(algo, n)))
        return MomentValue(algo, n, b, value, True)
    value = _moments_from(algo, n, n, b, jobs)[0]
    return MomentValue(algo, n, b, value, False)


def _check_moment_args(algo: str, n: int, beta: Beta) -> None:
    cap = MOMENT_DEPTH_CAP.get(algo)
    if cap is None:
        raise InvalidInputError(f"unknown algorithm {algo!r}")
    if n < 0:
        raise InvalidInputError("depth must be nonnegative")
    if n > cap:
        raise CapacityError(f"moment depth {n} exceeds capacity {cap} for {algo!r}")
    b = _as_beta(beta)
    if b < 1:
        raise DomainError("moment order must be >= 1")
    _float_order(b, "moment")


def _lcm_bits(algo: str, n: int) -> int:
    """Bit length of the lcm of the depth-n cells' measure denominators."""
    if algo == ALGO_CLASSICAL:
        # Neighbouring endpoint denominators are coprime, so the lcm of
        # the products qr is the lcm of the endpoints.
        _, rows = _classical_rows_at(n)
        return math.lcm(*{q for row in rows for q in row}).bit_length()
    return math.lcm(*set(chain.from_iterable(m for m, _ in _level_at(algo, n)))).bit_length()


def exact_mode(algo: str, n: int, beta: Beta, exact: Optional[bool] = None) -> bool:
    """Whether ``moment(algo, n, beta, exact)`` runs in exact rational
    arithmetic; raises what the moment itself would for a bad request."""
    _check_moment_args(algo, n, beta)
    b = _as_beta(beta)
    if exact is False:
        return False
    if b.denominator != 1:
        if exact:
            raise DomainError("exact mode needs an integer order")
        return False
    faces = face_count(algo, n)
    cap = EXACT_UNIT_CAP[algo] if b == 1 else EXACT_FACE_CAP
    if faces > cap:
        refusal = f"exact mode for order {b} is capped at {cap} cells; depth {n} has {faces}"
    else:
        bits = int(b) * _lcm_bits(algo, n) if b > 1 else 0
        if bits <= EXACT_BITS_CAP:
            return True
        refusal = (
            f"an exact moment of order {b} at depth {n} may need {bits} bits; "
            f"the cap is {EXACT_BITS_CAP}"
        )
    if exact:
        raise CapacityError(refusal)
    return False


# --- classical (1-d) moments ------------------------------------------------


def classical_moment_sweep(n: int, beta: Beta) -> List[float]:
    """``moment_sweep`` of the classical interval partition."""
    return moment_sweep(ALGO_CLASSICAL, n, beta)


def classical_moment(n: int, beta: Beta, exact: Optional[bool] = None) -> MomentValue:
    """``moment`` of the classical interval partition."""
    return moment(ALGO_CLASSICAL, n, beta, exact)


def _classical_rows_at(n: int) -> Tuple[int, Iterator[List[int]]]:
    # (weight, rows): the depth-n endpoint denominators as blocks of
    # neighbouring endpoints, left to right.  x -> 1 - x keeps every
    # denominator, so the row is a palindrome, and for n >= 1 its left
    # half, the refinement of [0, 1/2], is walked alone and counts twice.
    if n == 0:
        return 1, iter([[1, 1]])
    return 2, (row for (row,) in classical_rows(n - 1, ([1, 2],)))


def exact_unit_sum(algo: str, n: int) -> Fraction:
    """Exact rational sum of all cell measures at depth n (should be 1)."""
    return moment(algo, n, 1, exact=True).value


def extreme_areas(algo: str, n: int) -> Tuple[Fraction, Fraction]:
    """(smallest, largest) cell area of the depth-n tiling."""
    _check_moment_args(algo, n, 1)
    for level in level_q_counts(algo, n):
        pass
    prods = [p * q * r for (p, q, r) in level]
    return Fraction(1, 2 * max(prods)), Fraction(1, 2 * min(prods))


# --- Dirichlet series -------------------------------------------------------


# The exact integer-order head sums qmax fractions whose common
# denominator has about 1.44 * beta * qmax bits.  The head alone, two runs
# (2 CPUs, CPython 3.11): beta * qmax = 49,152 takes 0.11-0.17 s (beta 6,
# qmax 8192), 98,304 takes 0.32-0.51 s (beta 6, qmax 16384), 1,024,000
# takes 26-28 s (beta 1000, qmax 1024).
EXACT_HEAD_CAP = 65536


def _check_dirichlet(algo: str, b: Fraction, qmax: int) -> None:
    # Everything dirichlet_L(algo, b, qmax) would raise, before it allocates.
    if b <= 3:
        raise DomainError("the 2-d Dirichlet series needs beta > 3")
    _float_order(b, "Dirichlet")
    check_degree_counts(algo, qmax)
    if b.denominator == 1 and b * qmax > EXACT_HEAD_CAP:
        raise CapacityError(
            f"the exact head for order {b} up to qmax {qmax} exceeds capacity "
            f"order * qmax <= {EXACT_HEAD_CAP}"
        )


def _dirichlet_tail(b: Fraction, qmax: int) -> float:
    return float(MAX_DEGREE * PRIMITIVE_DENSITY) * qmax ** (3.0 - float(b)) / (float(b) - 3.0)


def dirichlet_L(algo: str, beta: Beta, qmax: int) -> SeriesValue:
    """Head of the degree-weighted Dirichlet series up to denominator qmax.

    The head sum over vectors v of deg(v) q(v)^-beta is read from the
    per-denominator degree counts n_d(q).  For integer beta it is exact,
    sum_q (sum_d d n_d(q)) / q^beta, converted once; otherwise it is the
    exact sum of n_d(q) times each float-rounded d * q^-beta, converted once.
    The tail over q > qmax is bounded by (degree cap) x (primitive point
    density) x the integral of x^(2-beta), which needs beta > 3.
    """
    b = _as_beta(beta)
    _check_dirichlet(algo, b, qmax)
    rows = list(enumerate(degree_counts(algo, qmax)))[1:]
    if b.denominator == 1:
        e = int(b)
        pairs = ((sum(d * n for d, n in row.items()), q**e) for q, row in rows)
    else:
        bf = float(b)
        ratios = ((n, (d * float(q) ** -bf).as_integer_ratio()) for q, row in rows for d, n in row.items())
        pairs = ((n * num, den) for n, (num, den) in ratios)
    head = float(exact_sum(pairs))
    terms = sum(n for _, row in rows for n in row.values())
    return SeriesValue(head, _dirichlet_tail(b, qmax), terms)


# dirichlet_L_auto's stopping share of the head, and its largest qmax.
AUTO_REL_TAIL = 0.01
AUTO_QMAX_CAP = 4096


def dirichlet_L_auto(algo: str, beta: Beta) -> Tuple[SeriesValue, int]:
    """Grow qmax over powers of two from 8 until the tail bound drops
    below ``AUTO_REL_TAIL`` of the head.

    No head exceeds the lowest upper bracket end seen so far, so a qmax
    whose tail bound is not below that share of that end cannot stop
    the growth, and the next head is the first qmax that could.  The
    request fails as soon as that qmax lies beyond ``AUTO_QMAX_CAP`` or
    beyond the capacity of ``dirichlet_L``, before its head is computed.
    """
    b = _as_beta(beta)
    qmax = 8
    upper = math.inf
    while True:
        sv = dirichlet_L(algo, b, qmax)
        if sv.tail_bound < AUTO_REL_TAIL * sv.value:
            return sv, qmax
        upper = min(upper, sv.upper)
        need = 2 * qmax
        while need < AUTO_QMAX_CAP and not _dirichlet_tail(b, need) < AUTO_REL_TAIL * upper:
            need *= 2
        if qmax >= AUTO_QMAX_CAP or not _dirichlet_tail(b, need) < AUTO_REL_TAIL * upper:
            raise CapacityError(
                f"tail below {AUTO_REL_TAIL} of the head needs qmax beyond {AUTO_QMAX_CAP}"
            )
        _check_dirichlet(algo, b, need)
        qmax = need


def classical_L(beta: Beta, tol: float = 1e-12) -> SeriesValue:
    """Closed form 2 zeta(beta-1) / zeta(beta) of the classical series."""
    bf = _float_order(_as_beta(beta), "Dirichlet")
    if bf <= 2:
        raise DomainError("the classical Dirichlet series needs beta > 2")
    num = zeta(bf - 1.0, tol)
    den = zeta(bf, tol)
    lo = 2.0 * num.value / den.upper
    hi = 2.0 * num.upper / den.value
    return SeriesValue(lo, hi - lo, num.terms_used + den.terms_used)


def classical_L_direct(beta: Beta, qmax: int) -> SeriesValue:
    """Totient-sum head 2 sum phi(q)/q^beta; the independent oracle for
    the closed form."""
    bf = _float_order(_as_beta(beta), "Dirichlet")
    if bf <= 2:
        raise DomainError("the classical Dirichlet series needs beta > 2")
    if qmax < 1:
        raise InvalidInputError("qmax must be >= 1")
    check_sieve(qmax)
    phi, _ = totients(qmax)
    head = 2.0 * fsum(phi[q] * float(q) ** -bf for q in range(1, qmax + 1))
    tail = 2.0 * qmax ** (2.0 - bf) / (bf - 2.0)
    return SeriesValue(head, tail, qmax)


# --- asymptotic diagnostics -------------------------------------------------


class AsymptoticRow(NamedTuple):
    algo: str
    n: int
    beta: float
    sigma: float
    main_term: float
    ratio: float
    L_value: float
    L_tail_bound: float


def main_term(algo: str, n: int, beta: Beta, series_value: float) -> float:
    """Predicted moment: the series coefficient over the depth power."""
    b = _as_beta(beta)
    bf = _float_order(b, "main term")
    try:
        if algo == ALGO_A:
            return series_value / float(2 * n * n) ** bf
        if algo == ALGO_B:
            return 2.0**bf * series_value / float(n) ** (2.0 * bf)
        if algo == ALGO_CLASSICAL:
            return series_value / float(n) ** bf
    except OverflowError:
        raise DomainError(f"the main term at n = {n} for order {b} is beyond the float range") from None
    raise InvalidInputError(f"unknown algorithm {algo!r}")


def asymptotic_sweep(algo: str, beta: Beta, n_lo: int, n_hi: int, jobs: int = 1) -> List[AsymptoticRow]:
    """AsymptoticRow for every n in [n_lo, n_hi]; one moment sweep, which
    sums the depths from n_lo on, and one series evaluation."""
    b = _as_beta(beta)
    if b <= 1:
        raise DomainError("asymptotic diagnostics need beta > 1")
    if n_lo < 2 or n_hi < n_lo:
        raise InvalidInputError("need 2 <= n_lo <= n_hi")
    _check_moment_args(algo, n_hi, b)
    main_term(algo, n_hi, b, 1.0)  # the depth power grows with n, so n_hi's is the largest
    if algo == ALGO_CLASSICAL:
        series = classical_L(2 * b)
    else:
        series, _ = dirichlet_L_auto(algo, 3 * b)
    sigmas = _moments_from(algo, n_lo, n_hi, b, jobs)
    rows = []
    for n, sigma in enumerate(sigmas, n_lo):
        mt = main_term(algo, n, b, series.value)
        rows.append(
            AsymptoticRow(algo, n, float(b), sigma, mt, sigma / mt, series.value, series.tail_bound)
        )
    return rows


def summability_bound(algo: str, beta: Beta) -> float:
    """Upper bound for the sum of all moments of order beta > 1."""
    b = _as_beta(beta)
    bf = _float_order(b, "summability")
    if bf <= 1:
        raise DomainError("summability bounds need beta > 1")
    za = zeta(2.0 * bf)
    zb = zeta(3.0 * bf - 2.0)
    if algo == ALGO_A:
        return (16.0 / 3.0) * za.value * zb.value
    if algo == ALGO_B:
        try:
            return (32.0 / 3.0) * 2.0**bf * za.value * zb.value
        except OverflowError:
            raise DomainError(f"the summability bound for order {b} is beyond the float range") from None
    raise InvalidInputError(f"no summability bound for algorithm {algo!r}")


def cumulative_moment_check(algo: str, beta: Beta, n_max: int) -> Tuple[float, float]:
    """(partial sum of moments for n <= n_max, bound it must stay under)."""
    bound = summability_bound(algo, beta)
    return fsum(moment_sweep(algo, n_max, beta)), bound
