import functools
import math
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import chain

import mpmath
import pytest
from hypothesis import given, strategies as st

import farey_brocot.analysis as analysis
import farey_brocot.tiling as tiling
from oracles import (
    classical_moment_sweep_by_descent,
    classical_terms_by_descent,
    exact_moment_by_dicts,
    intervals_by_descent,
    moment_sweeps_by_dicts,
)
from farey_brocot.core import CapacityError, DomainError, InvalidInputError, InvariantViolationError
from farey_brocot.census import degree_counts, stable_degree_table
from farey_brocot.tiling import (
    LOCATE_DEPTH_CAP,
    ROW_SPLIT,
    child_blocks_b,
    iter_triangles,
    level_columns_b,
    level_q_counts,
    locate,
)
from farey_brocot.analysis import (
    AUTO_QMAX_CAP,
    AUTO_REL_TAIL,
    EXACT_BITS_CAP,
    MAX_DEGREE,
    PRIMITIVE_DENSITY,
    SeriesValue,
    _check_dirichlet,
    _dirichlet_tail,
    _lcm_bits,
    asymptotic_sweep,
    classical_L,
    classical_L_direct,
    classical_moment,
    classical_moment_sweep,
    cumulative_moment_check,
    dirichlet_L,
    dirichlet_L_auto,
    exact_mode,
    exact_sum,
    exact_unit_sum,
    extreme_areas,
    main_term,
    moment,
    moment_sweep,
    summability_bound,
    zeta,
)

ZETA3 = 1.2020569031595942  # Apery's constant, reference value


def test_zeta_closed_forms():
    z2 = zeta(2.0)
    assert abs(z2.value - math.pi**2 / 6) <= z2.tail_bound + 1e-15
    z4 = zeta(4.0)
    assert abs(z4.value - math.pi**4 / 90) <= z4.tail_bound + 1e-15
    assert z4.tail_bound <= 1e-12


def test_zeta_bracket_contains_truth():
    z3 = zeta(3.0)
    assert z3.tail_bound <= 1e-12
    assert z3.value <= ZETA3 <= z3.value + z3.tail_bound + 1e-15


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(0.5)
    for tol in (0.0, -1e-12, float("nan")):
        with pytest.raises(InvalidInputError):
            zeta(4.0, tol)


@pytest.mark.parametrize("algo,n", [("a", 0), ("a", 3), ("b", 7), ("b", 12)])
def test_moment_order_one_is_one(algo, n):
    m = moment(algo, n, 1)
    assert m.exact and m.value == 1


def test_moment_examples_exact():
    assert moment("a", 1, 2).value == Fraction(5, 48)
    assert moment("b", 2, 2).value == Fraction(1, 8)


def test_moment_float_agrees_with_exact():
    for algo, n in (("a", 3), ("b", 6)):
        ex = moment(algo, n, 2, exact=True)
        fl = moment(algo, n, 2, exact=False)
        assert not fl.exact
        assert fl.value == pytest.approx(float(ex.value), rel=1e-12)


def test_moment_sweep_matches_single():
    sweep = moment_sweep("a", 4, 2)
    assert sweep[4] == moment("a", 4, 2, exact=False).value
    assert sweep[0] == pytest.approx(0.5, rel=1e-12)  # two cells of area 1/2


def test_moment_sweep_jobs_bitwise_identical():
    assert moment_sweep("b", 9, 2, jobs=1) == moment_sweep("b", 9, 2, jobs=2)
    assert moment_sweep("a", 5, 1.5, jobs=1) == moment_sweep("a", 5, 1.5, jobs=3)


def test_moment_guards():
    with pytest.raises(DomainError):
        moment("a", 2, 0.5)
    with pytest.raises(CapacityError):
        moment("a", 99, 2)
    with pytest.raises(CapacityError):
        moment("a", 8, 2, exact=True)  # 2*6^8 cells exceed the exact budget
    with pytest.raises(DomainError):
        moment("a", 2, 1.5, exact=True)


def test_classical_moment_examples():
    assert classical_moment(1, 2).value == Fraction(1, 2)
    assert classical_moment(2, 2).value == Fraction(5, 18)
    for n in range(9):
        assert classical_moment(n, 1).value == 1


def test_classical_sweep_consistent():
    sweep = classical_moment_sweep(10, 2)
    assert sweep[2] == pytest.approx(5 / 18, rel=1e-12)
    ex = classical_moment(10, 2, exact=True)
    assert sweep[10] == pytest.approx(float(ex.value), rel=1e-12)


@pytest.mark.parametrize("beta", [1, "3/2", 2, 3])
def test_moment_sweep_reads_the_classical_sweep(beta):
    b = Fraction(beta)
    for jobs in (1, 2):
        sweep = moment_sweep("classical", 14, b, jobs=jobs)
        assert [x.hex() for x in sweep] == [x.hex() for x in classical_moment_sweep(14, b)]


def test_classical_cumulative_check_refused_before_the_sweep():
    # no summability bound is stated for the classical partition
    _raises_fast(cumulative_moment_check, "classical", 2, 22, error=InvalidInputError)


# orders 1-3 and the benchmark's beta sweep
@pytest.mark.parametrize("beta", ["1", "2", "3", "3/2", "5/4", "7/4", "9/4", "5/2", "11/4", "13/4", "7/2"])
def test_classical_sweep_equals_the_descent(beta):
    # Depths 0-16 cover half rows split at depth 0 and at depths 1-3 below it.
    b = Fraction(beta)
    oracle = classical_moment_sweep_by_descent(16, b)
    for n in range(17):
        assert classical_moment_sweep(n, b) == oracle[: n + 1]
    # each depth's value is its terms' exact sum, rounded once
    rounded = [float(sum(map(Fraction, terms), Fraction(0))) for terms in classical_terms_by_descent(12, b)]
    assert classical_moment_sweep(12, b) == rounded
    assert classical_moment(14, b, exact=False).value == oracle[14]
    if b >= Fraction(3, 2):  # below, asym refuses or zeta(2 beta - 1) is capped
        rows = asymptotic_sweep("classical", b, 2, 14)
        assert [row.sigma for row in rows] == oracle[2:15]


@given(st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(1, 10**12)), max_size=70))
def test_exact_sum_equals_the_running_total(terms):
    assert exact_sum(iter(terms)) == sum((Fraction(n, d) for n, d in terms), Fraction(0))


def _per_cell_moments(measures):
    # Direct sums of every cell measure raised to orders 1..4.
    return [sum((m**e for m in measures), Fraction(0)) for e in range(1, 5)]


@pytest.mark.parametrize("algo,depths", [("a", range(4)), ("b", range(11))])
def test_exact_moments_equal_per_cell_sums(algo, depths):
    for n in depths:
        direct = _per_cell_moments([t.area() for t in iter_triangles(algo, n)])
        assert [moment(algo, n, e, exact=True).value for e in range(1, 5)] == direct


def test_exact_classical_moments_equal_per_interval_sums():
    # twice the left half's sum; 14 and later lie past ROW_SPLIT + 1,
    # where the half's row walk splits into blocks
    assert ROW_SPLIT < 13
    for n in range(17):
        direct = _per_cell_moments([v - u for u, v in intervals_by_descent(n)])
        assert [classical_moment(n, e, exact=True).value for e in range(1, 5)] == direct
        assert [moment("classical", n, e, exact=True).value for e in range(1, 5)] == direct


# the benchmark's beta sweep, orders 1-3 and two orders whose terms underflow
SWEEP_ORDERS = ["3/2", "5/4", "7/4", "9/4", "5/2", "11/4", "13/4", "7/2", "1", "2", "3", "100", "400"]


@pytest.fixture(scope="module")
def rule_b_dict_sweeps():
    return dict(zip(SWEEP_ORDERS, moment_sweeps_by_dicts("b", 21, SWEEP_ORDERS)))


@pytest.mark.parametrize("beta", SWEEP_ORDERS)
def test_rule_b_moments_equal_the_dict_engine(beta, rule_b_dict_sweeps):
    # bit for bit: the column engine feeds fsum the dict engine's terms
    b = Fraction(beta)
    oracle = [x.hex() for x in rule_b_dict_sweeps[beta]]
    for jobs in (1, 2):
        for n in [*range(8), 21]:  # below the split depth 6 and past it
            assert [x.hex() for x in moment_sweep("b", n, b, jobs=jobs)] == oracle[: n + 1]
    assert moment("b", 13, b, exact=False).value.hex() == oracle[13]
    if b > 1 and b < 400:  # asym refuses order 1, and order 400's main term overflows
        rows = asymptotic_sweep("b", b, 2, 21, jobs=2)
        assert [row.sigma.hex() for row in rows] == oracle[2:]


@pytest.mark.parametrize("block", [1, 3])
def test_rule_b_blocks_equal_the_dict_engine(block, rule_b_dict_sweeps, monkeypatch):
    # A one-depth moment walks its task's deep levels block by block from
    # the first level larger than a block; small blocks start that walk a
    # level or two below each task's root, and below the root of the
    # exact moments and _lcm_bits, which read one level whole.
    monkeypatch.setattr(tiling, "_BLOCK", block)
    for beta in SWEEP_ORDERS:
        b = Fraction(beta)
        oracle = [x.hex() for x in rule_b_dict_sweeps[beta][:17]]
        for jobs in (1, 2):
            assert [moment("b", n, b, exact=False, jobs=jobs).value.hex() for n in range(17)] == oracle
            assert [x.hex() for x in moment_sweep("b", 16, b, jobs=jobs)] == oracle
    for n in range(13):
        orders = (1, 2, 3)
        assert [moment("b", n, e, exact=True).value for e in orders] == [
            exact_moment_by_dicts("b", n, e) for e in orders
        ]
    for n, level in enumerate(level_q_counts("b", 16)):
        assert _lcm_bits("b", n) == math.lcm(*{2 * p * q * r for p, q, r in level}).bit_length()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_depth_rule_b_moment_memory_is_bounded():
    # Each level doubles, so stepping whole levels would need about 4x the
    # memory two levels deeper; the block walk's grows with depth alone.
    assert _traced_peak(moment, "b", 22, 2) < 2 * _traced_peak(moment, "b", 20, 2)


@pytest.mark.parametrize("block", [1, 3, tiling._BLOCK])
def test_merged_twin_terms_in_the_subnormal_range(block, rule_b_dict_sweeps, monkeypatch):
    # A parent (p, q, q) merges its twin children into one cell of measure
    # 2 * 2q * p * q and count 2c.  At order 100 some merged cells at these
    # depths have terms under the smallest normal float, and the sums must
    # still be the dict engine's, which holds the merged cells.
    monkeypatch.setattr(tiling, "_BLOCK", block)
    b = Fraction(100)
    for n in (12, 14):
        *_, (P, Q, R, C) = level_columns_b(n - 1)
        terms = [2 * c * float(4 * p * q * q) ** -100.0 for p, q, r, c in zip(P, Q, R, C) if q == r]
        assert any(0 < t < sys.float_info.min for t in terms), n
        oracle = rule_b_dict_sweeps["100"][n].hex()
        assert moment("b", n, b, exact=False).value.hex() == oracle
        assert moment_sweep("b", n, b)[n].hex() == oracle


# the benchmark's beta sweep and order 2
ONE_DEPTH_ORDERS = ["2", "3/2", "5/4", "7/4", "9/4", "5/2", "11/4", "13/4", "7/2"]


@pytest.mark.parametrize("beta", ONE_DEPTH_ORDERS)
@pytest.mark.parametrize("algo,top", [("b", 22), ("a", 8)])
def test_one_depth_moment_equals_the_sweep(algo, top, beta):
    # A float moment sums only its own depth, with the bits of the full
    # sweep's entry; depths run from below the split depth (6 for b, 3
    # for a) past it.
    b = Fraction(beta)
    sweep = [x.hex() for x in moment_sweep(algo, top, b)]
    for jobs in (1, 2):
        assert [moment(algo, n, b, exact=False, jobs=jobs).value.hex() for n in range(top + 1)] == sweep


@pytest.mark.parametrize("beta", ONE_DEPTH_ORDERS)
def test_one_depth_classical_moment_equals_the_sweep(beta):
    # Depths 13-22 read rows split below depths 1-10.  Past depth 18,
    # where a depth costs seconds per order, only orders 2 and 3/2 run,
    # one for each form of the terms: 1 / x^2 and x^-beta.
    b = Fraction(beta)
    top = 22 if beta in ("2", "3/2") else 18
    sweep = [x.hex() for x in classical_moment_sweep(top, b)]
    assert [classical_moment(n, b, exact=False).value.hex() for n in range(top + 1)] == sweep


def _correctly_rounded(algo, n, beta):
    # the one rounding of the exact sum of the depth's own float terms
    bf = float(beta)
    terms = chain.from_iterable(analysis._terms(m, c, bf) for m, c in analysis._level_at(algo, n))
    return float(sum(map(Fraction, terms)))


@pytest.mark.parametrize("beta", ONE_DEPTH_ORDERS)
def test_float_moment_is_correctly_rounded_up_to_the_split_depth(beta):
    b = Fraction(beta)
    for algo, split in (("a", 3), ("b", 6)):
        for n in range(split + 1):
            assert moment(algo, n, b, exact=False).value == _correctly_rounded(algo, n, b)


def test_float_moment_past_the_split_depth_is_rounded_twice():
    # b/13 at order 9/4 is the fsum of per-task fsums, one ulp below the
    # correctly rounded sum; an exact merge of the tasks would flip this.
    b = Fraction(9, 4)
    assert moment("b", 13, b).value == float.fromhex("0x1.e23a65602ace5p-13")
    assert _correctly_rounded("b", 13, b) == float.fromhex("0x1.e23a65602ace6p-13")


@pytest.mark.parametrize("beta", ONE_DEPTH_ORDERS)
@pytest.mark.parametrize(
    "algo,hi,lows",
    [
        ("b", 14, (5, 6, 7, 14)),  # split depth 6
        ("a", 6, (2, 3, 4, 6)),  # split depth 3
        ("classical", ROW_SPLIT + 3, (2, 3, 4, ROW_SPLIT + 3)),  # rows split below depth 3
    ],
)
def test_asymptotic_sweep_from_its_lowest_depth_equals_the_sweep(algo, hi, lows, beta, monkeypatch):
    # The sigmas never read the series, so a stand-in skips its head (over
    # a second per call for rule a at order 5/4) and its refusals.
    series = SeriesValue(1.0, 0.0, 1)
    monkeypatch.setattr(analysis, "dirichlet_L_auto", lambda *_: (series, 8))
    monkeypatch.setattr(analysis, "classical_L", lambda *_: series)
    b = Fraction(beta)
    sweep = [x.hex() for x in moment_sweep(algo, hi, b)]
    for jobs in (1, 2):
        for lo in lows:
            rows = asymptotic_sweep(algo, b, lo, hi, jobs=jobs)
            assert [row.n for row in rows] == list(range(lo, hi + 1))
            assert [row.sigma.hex() for row in rows] == sweep[lo:]


@pytest.mark.parametrize("n", [*range(17), 22])
def test_exact_rule_b_moments_equal_the_dict_engine(n):
    orders = range(1, 5) if n <= 15 else [1]  # orders >= 2 are exact to depth 15
    assert [moment("b", n, e, exact=True).value for e in orders] == [
        exact_moment_by_dicts("b", n, e) for e in orders
    ]
    if n <= 16:
        for level in level_q_counts("b", n):
            pass
        assert _lcm_bits("b", n) == math.lcm(*{2 * p * q * r for p, q, r in level}).bit_length()


def test_unordered_rule_b_task_raises():
    # the column engine checks its start triples before any work
    for triple in ((3, 1, 1), (1, 2, 1), (2, 1, 2)):
        with pytest.raises(InvariantViolationError):
            child_blocks_b(20, {triple: 1})


def test_exact_unit_sum_all_lanes():
    assert exact_unit_sum("a", 5) == 1
    assert exact_unit_sum("b", 10) == 1
    assert exact_unit_sum("classical", 10) == 1


def test_dirichlet_heads():
    sv = dirichlet_L("a", 6, 1)
    assert sv.value == 10.0
    sv = dirichlet_L("a", 6, 2)
    assert sv.value == pytest.approx(10 + 28 / 2**6, rel=1e-15)


def test_dirichlet_tail_shrinks():
    tails = [dirichlet_L("a", 6, q).tail_bound for q in (4, 8, 16, 32)]
    assert tails == sorted(tails, reverse=True)
    sv, qmax = dirichlet_L_auto("a", 6)
    assert sv.tail_bound < 0.01 * sv.value
    assert qmax >= 8


def test_dirichlet_domain():
    with pytest.raises(DomainError):
        dirichlet_L("a", 3, 10)
    with pytest.raises(DomainError):
        dirichlet_L("b", 2.5, 10)


def test_classical_L_closed_form_and_oracle():
    sv = classical_L(4)
    z3 = zeta(3.0)
    z4 = zeta(4.0)
    expected = 2 * z3.value / z4.value
    assert sv.value == pytest.approx(expected, rel=1e-9)
    direct = classical_L_direct(4, 10**4)
    lo, hi = sv.value, sv.value + sv.tail_bound
    dlo, dhi = direct.value, direct.value + direct.tail_bound
    assert dlo <= hi and lo <= dhi  # brackets overlap


def test_classical_L_domain():
    with pytest.raises(DomainError):
        classical_L(2)


def test_asymptotic_rows_smoke():
    rows = asymptotic_sweep("classical", 2, 5, 8)
    assert [r.n for r in rows] == [5, 6, 7, 8]
    assert all(r.ratio > 0 for r in rows)
    assert rows[0].main_term == pytest.approx(
        main_term("classical", 5, 2, rows[0].L_value), rel=1e-15
    )
    with pytest.raises(DomainError):
        asymptotic_sweep("a", 1, 3, 4)


def test_cumulative_bounds_hold():
    partial, bound = cumulative_moment_check("a", 2, 5)
    assert 0 < partial <= bound
    partial, bound = cumulative_moment_check("b", 2, 8)
    assert 0 < partial <= bound
    partial, bound = cumulative_moment_check("a", 1.5, 6)
    assert 0 < partial <= bound


def test_summability_constants():
    z4 = math.pi**4 / 90
    assert summability_bound("a", 2) == pytest.approx(16 / 3 * z4 * z4, rel=1e-9)
    assert summability_bound("b", 2) == pytest.approx(32 / 3 * 4 * z4 * z4, rel=1e-9)


def test_extreme_area_law():
    for n in range(1, 5):
        smallest, largest = extreme_areas("a", n)
        assert largest == Fraction(1, 2 * (n + 1) ** 2)
        assert smallest <= largest


def test_dirichlet_head_monotone_in_qmax():
    heads = [dirichlet_L("b", 6, q).value for q in (1, 2, 4, 8, 16, 32)]
    assert heads == sorted(heads)
    uppers = [dirichlet_L("b", 6, q) for q in (1, 2, 4, 8, 16, 32)]
    best = uppers[-1]
    for sv in uppers:
        assert sv.value <= best.value + best.tail_bound <= sv.value + sv.tail_bound + 1e-12


def test_zeta_term_cap_guard():
    with pytest.raises(CapacityError):
        zeta(1.05, 1e-12)
    loose = zeta(1.5, 1e-6)  # affordable with a loose tolerance
    assert loose.tail_bound <= 1e-6


def test_moment_values_in_unit_interval():
    for algo in ("a", "b"):
        for n in range(4):
            for beta in (1, 2, 3):
                val = moment(algo, n, beta).value
                assert 0 < val <= 1
                assert (val == 1) == (beta == 1)
    for n in range(1, 6):
        for beta in (1, 2):
            val = classical_moment(n, beta).value
            assert 0 < val <= 1
            assert (val == 1) == (beta == 1)


@functools.lru_cache(maxsize=None)
def _table(algo, qmax):
    return stable_degree_table(algo, qmax)


def _table_dirichlet_L(algo, beta, qmax):
    # The head read from the vector degree table, one term per vector.
    b = Fraction(beta)
    table = _table(algo, qmax)
    if b.denominator == 1:
        head = float(sum(Fraction(d, v[0] ** int(b)) for v, d in sorted(table.items())))
    else:
        bf = float(b)
        head = math.fsum(d * float(v[0]) ** -bf for v, d in sorted(table.items()))
    tail = float(MAX_DEGREE * PRIMITIVE_DENSITY) * qmax ** (3.0 - float(b)) / (float(b) - 3.0)
    return SeriesValue(head, tail, len(table))


# 4 and 6, then the non-integer orders of the benchmark's series menu
# (perfbench/workloads.py, BETA_SERIES).
HEAD_ORDERS = ["4", "6", "11/2", "21/4", "23/4", "25/4", "27/4", "13/2", "26/5", "33/5"]


@pytest.mark.parametrize("algo", ["a", "b"])
@pytest.mark.parametrize("qmax", [1, 2, 3, 8, 80])
def test_dirichlet_head_equals_the_table_head(algo, qmax):
    for beta in map(Fraction, HEAD_ORDERS):
        assert dirichlet_L(algo, beta, qmax) == _table_dirichlet_L(algo, beta, qmax), beta


def _fraction_head(algo, beta, qmax):
    # The reference non-integer head: one Fraction per float-rounded term,
    # summed as a running total and converted once.
    bf = float(beta)
    rows = list(enumerate(degree_counts(algo, qmax)))[1:]
    return float(sum(n * Fraction(d * float(q) ** -bf) for q, row in rows for d, n in row.items()))


NON_INTEGER_ORDERS = ["11/2", "21/4", "23/4", "25/4", "27/4", "13/2", "26/5", "33/5", "7/2", "301/100"]


@pytest.mark.parametrize("algo", ["a", "b"])
@pytest.mark.parametrize("qmax", [8, 80, 256])
def test_non_integer_head_equals_the_fraction_sum(algo, qmax):
    for beta in map(Fraction, NON_INTEGER_ORDERS):
        head = dirichlet_L(algo, beta, qmax).value
        assert head.hex() == _fraction_head(algo, beta, qmax).hex(), beta


@pytest.mark.parametrize("beta", [Fraction(5), Fraction(11, 2), Fraction(6), Fraction(7)])
def test_rule_b_series_closed_form_in_bracket(beta):
    # L_b(beta) = (8 zeta(beta-2) + 4 zeta(beta-1)) / zeta(beta), from the
    # degree weight 8 J_2(q) + 4 phi(q) of rule b.
    with mpmath.workdps(50):
        s = mpmath.mpf(beta.numerator) / beta.denominator
        truth = (8 * mpmath.zeta(s - 2) + 4 * mpmath.zeta(s - 1)) / mpmath.zeta(s)
        for qmax in (1, 8, 80, 1000):
            sv = dirichlet_L("b", beta, qmax)
            lo = mpmath.mpf(sv.value)
            assert lo <= truth <= lo + mpmath.mpf(sv.tail_bound), (qmax, sv)


def _raises_fast(fn, *args, error=CapacityError, **kwargs):
    t0 = time.perf_counter()
    with pytest.raises(error):
        fn(*args, **kwargs)
    assert time.perf_counter() - t0 < 1.0


def test_dirichlet_capacity_raises_before_work():
    _raises_fast(dirichlet_L, "a", 6, 2048)  # rule a's center descent
    _raises_fast(dirichlet_L, "b", Fraction(11, 2), 65537)  # the totient sieve
    _raises_fast(dirichlet_L, "b", 6, 16384)  # the exact integer-order head
    _raises_fast(dirichlet_L, "b", 1000, 80)
    # 3 * 11/10: no qmax up to the 4096 cap brings the tail under 1 %.
    _raises_fast(dirichlet_L_auto, "a", Fraction(33, 10))
    # 3 * 6/5: the first qmax that could is 2048, beyond rule a's budget.
    _raises_fast(dirichlet_L_auto, "a", Fraction(18, 5))
    sv, qmax = dirichlet_L_auto("b", Fraction(18, 5))
    assert sv.tail_bound < 0.01 * sv.value and qmax == 2048


def _doubling_auto(algo, beta):
    # The reference qmax search: it doubles qmax after every head instead
    # of going on to the first qmax that could stop the growth.
    b = Fraction(beta)
    qmax = 8
    upper = math.inf
    while True:
        sv = analysis.dirichlet_L(algo, b, qmax)
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
        qmax *= 2


def _auto_outcome(fn, algo, beta, monkeypatch):
    # (result or error message, the qmax of every head computed)
    heads = []

    def counted(algo, beta, qmax):
        heads.append(qmax)
        return dirichlet_L(algo, beta, qmax)

    monkeypatch.setattr(analysis, "dirichlet_L", counted)
    try:
        return fn(algo, beta), heads
    except CapacityError as exc:
        return str(exc), heads


# Orders that stop at qmax 8 to 2048 or are refused (no qmax up to the
# cap, or one beyond rule a's budget); rule a at 37/10 needs a 7 s head.
AUTO_ORDERS = ["33/10", "7/2", "18/5", "39/10", "4", "21/5", "9/2", "24/5", "5", "11/2", "6", "13/2", "9"]


@pytest.mark.parametrize("algo", ["a", "b"])
def test_dirichlet_auto_matches_the_doubling_loop(algo, monkeypatch):
    for beta in map(Fraction, AUTO_ORDERS):
        got, heads = _auto_outcome(dirichlet_L_auto, algo, beta, monkeypatch)
        want, doubled = _auto_outcome(_doubling_auto, algo, beta, monkeypatch)
        assert got == want, beta
        assert set(heads) <= set(doubled) and heads[-1] == doubled[-1], beta


def test_dirichlet_auto_skips_heads_that_cannot_stop(monkeypatch):
    _, heads = _auto_outcome(dirichlet_L_auto, "b", Fraction(18, 5), monkeypatch)
    _, doubled = _auto_outcome(_doubling_auto, "b", Fraction(18, 5), monkeypatch)
    assert heads == [8, 2048] and len(doubled) == 9


def test_exact_classical_order_one_budget():
    _raises_fast(moment, "classical", 21, 1, exact=True)
    _raises_fast(exact_unit_sum, "classical", 21)
    # Without --exact, depth 21 falls back to the float sweep.
    assert exact_mode("classical", 20, 1) and not exact_mode("classical", 21, 1)


def test_exact_order_one_budget_2d():
    _raises_fast(moment, "a", 9, 1, exact=True)
    _raises_fast(exact_unit_sum, "b", 23)
    # Without exact=True, a/9 and b/23 fall back to the float sweep.
    assert exact_mode("a", 8, 1) and not exact_mode("a", 9, 1)
    assert exact_mode("b", 22, 1) and not exact_mode("b", 23, 1)


def test_locate_capacity_raises_before_work():
    point = (Fraction(3, 7), Fraction(2, 9))
    _raises_fast(locate, "a", point, LOCATE_DEPTH_CAP + 1)
    _raises_fast(locate, "b", point, 10**7)
    assert len(locate("a", point, 400).steps) == 401


def test_classical_sweep_capacity_raises_before_work():
    # the float sweep about doubles per level: about 5.4 s at depth 23
    _raises_fast(classical_moment_sweep, 23, 2)
    _raises_fast(moment, "classical", 30, 2)
    _raises_fast(moment, "classical", 23, 1)  # order 1 past the exact budget
    _raises_fast(classical_moment, 23, Fraction(3, 2))
    _raises_fast(asymptotic_sweep, "classical", 2, 2, 23)


def test_classical_direct_sum_sieve_capacity():
    _raises_fast(classical_L_direct, 4, 65537)
    _raises_fast(classical_L_direct, 4, 10**8)
    assert classical_L_direct(4, 65536).terms_used == 65536


@pytest.mark.parametrize(
    "algo,n",
    [("a", 0), ("a", 3), ("b", 1), ("b", 9), *(("classical", n) for n in (0, 1, 2, 7, 14, 16))],
)
def test_lcm_bits_match_the_cell_measures(algo, n):
    if algo == "classical":
        dens = [(v - u).denominator for u, v in intervals_by_descent(n)]
    else:
        dens = [tri.area().denominator for tri in iter_triangles(algo, n)]
    assert _lcm_bits(algo, n) == math.lcm(*dens).bit_length()


@pytest.mark.parametrize("algo,n,top", [("a", 6, 33), ("b", 15, 82), ("classical", 16, 4)])
def test_exact_order_bound(algo, n, top):
    # the largest exact order at the deepest exact depth, and the next
    assert exact_mode(algo, n, top) and not exact_mode(algo, n, top + 1)
    _raises_fast(moment, algo, n, top + 1, exact=True)
    # a default request beyond the bound falls back to the float sweep
    m = moment(algo, n, top + 1)
    assert not m.exact and m.value == moment_sweep(algo, n, top + 1)[n]


@pytest.mark.parametrize("algo,n,e", [("a", 3, 40), ("b", 12, 60), ("classical", 12, 20)])
def test_exact_moment_size_within_the_bound(algo, n, e):
    # the denominator divides lcm^e and the numerator is smaller
    value = moment(algo, n, e, exact=True).value
    assert value.numerator < value.denominator
    assert value.denominator.bit_length() <= e * _lcm_bits(algo, n) <= EXACT_BITS_CAP
    assert len(str(value.denominator)) <= 4300


def test_exact_order_bound_raises_before_work():
    _raises_fast(moment, "classical", 16, 20, exact=True)
    _raises_fast(moment, "b", 4, 10**6, exact=True)
    # these stay exact: the benchmark's requests, sigma1 and criterion 3
    assert exact_mode("classical", 15, 2) and exact_mode("b", 15, 3)
    assert exact_mode("a", 7, 1) and exact_mode("b", 20, 1)


def test_order_beyond_the_float_range():
    huge = Fraction(10**400)  # --beta 1e400
    _raises_fast(moment, "b", 4, huge, error=DomainError)
    _raises_fast(moment, "b", 4, huge, exact=True, error=DomainError)
    _raises_fast(classical_moment, 3, huge, error=DomainError)
    _raises_fast(moment_sweep, "a", 2, huge, error=DomainError)


@pytest.mark.parametrize("huge", [Fraction(10**400), Fraction(10**5000)])
def test_dirichlet_order_beyond_the_float_range(huge):
    # refused as a domain error whose message does not print the order
    for fn, args in (
        (dirichlet_L, ("a", huge, 64)),
        (dirichlet_L, ("b", huge, 8)),
        (dirichlet_L_auto, ("a", huge)),
        (classical_L, (huge,)),
        (classical_L_direct, (huge, 10)),
    ):
        with pytest.raises(DomainError, match="^Dirichlet order is beyond the float range$"):
            fn(*args)


@pytest.mark.parametrize("algo,beta", [("a", 400), ("b", 600), ("classical", 700)])
def test_main_term_beyond_the_float_range(algo, beta):
    # raised before the series and the moment sweep are computed
    _raises_fast(asymptotic_sweep, algo, beta, 2, 3, error=DomainError)
    _raises_fast(asymptotic_sweep, algo, Fraction(10**400), 2, 3, error=DomainError)



INF, HUGE = float("inf"), Fraction(10**400)
BAD_ORDER = (InvalidInputError, "^bad order -?inf$")
OUT_OF_RANGE = (DomainError, "^[a-z ]+ order is beyond the float range$")


@pytest.mark.parametrize(
    "fn,args,refusal",
    [
        pytest.param(moment, ("a", 2, INF), BAD_ORDER, id="moment-inf"),
        pytest.param(moment, ("b", 2, -INF), BAD_ORDER, id="moment-minus-inf"),
        pytest.param(dirichlet_L, ("a", INF, 8), BAD_ORDER, id="dirichlet_L-inf"),
        pytest.param(classical_L_direct, (INF, 8), BAD_ORDER, id="classical_L_direct-inf"),
        pytest.param(summability_bound, ("a", INF), BAD_ORDER, id="summability_bound-inf"),
        pytest.param(asymptotic_sweep, ("a", INF, 2, 3), BAD_ORDER, id="asymptotic_sweep-inf"),
        pytest.param(summability_bound, ("a", HUGE), OUT_OF_RANGE, id="summability_bound-huge"),
        pytest.param(cumulative_moment_check, ("b", HUGE, 3), OUT_OF_RANGE, id="cumulative_moment_check-huge"),
        pytest.param(main_term, ("a", 3, HUGE, 1.0), OUT_OF_RANGE, id="main_term-huge"),
        pytest.param(zeta, (float("nan"),), (DomainError, "^zeta series diverges for s = nan$"), id="zeta-nan"),
    ],
)
def test_orders_at_infinity_nan_or_beyond_the_float_range(fn, args, refusal):
    # the package's own errors, not a raw OverflowError or a NaN ValueError
    error, match = refusal
    with pytest.raises(error, match=match):
        fn(*args)


@pytest.mark.parametrize(
    "fn,args",
    [
        pytest.param(summability_bound, ("b", 2000), id="summability_bound"),
        pytest.param(cumulative_moment_check, ("b", 2000, 3), id="cumulative_moment_check"),
        pytest.param(main_term, ("b", 3, 2000, 1.0), id="main_term-b"),
        pytest.param(main_term, ("a", 3, 2000, 1.0), id="main_term-a"),
        pytest.param(main_term, ("classical", 3, 2000, 1.0), id="main_term-classical"),
    ],
)
def test_results_beyond_the_float_range_at_orders_inside_it(fn, args):
    # 2.0**2000 overflows; the refusal is the one asymptotic_sweep gives
    with pytest.raises(DomainError, match="is beyond the float range$"):
        fn(*args)
