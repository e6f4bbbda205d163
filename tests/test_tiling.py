import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, pairwise
from math import gcd

import pytest

import farey_brocot.tiling as tiling
from farey_brocot.census import _leaf_edges, _tasks, stable_degree_table
from farey_brocot.core import InvalidInputError, InvariantViolationError, det3, vec_add
from farey_brocot.subdivision import child_rule, extend_code_a, initial_vectors
from farey_brocot.tiling import (
    ROW_SPLIT,
    brocot_level,
    classical_rows,
    descend,
    face_count,
    iter_bases,
    iter_bases_at,
    iter_intervals,
    iter_triangles,
    level_columns_b,
    level_q_counts,
    level_q_counts_coded_a,
    locate,
    split_q_states,
    vertices_up_to,
)

from oracles import intervals_by_descent, nodes_by_descent, point_in_triangle


def test_enumerate_counts_and_unit_area():
    for algo, n, count in (("a", 0, 2), ("a", 1, 12), ("b", 3, 16)):
        tris = list(iter_triangles(algo, n))
        assert len(tris) == count == face_count(algo, n)
        assert sum(t.area() for t in tris) == 1
    for n in range(8):
        assert face_count("classical", n) == 2**n == len(list(iter_intervals(n)))


def test_enumerate_visits_each_once():
    seen = list(iter_triangles("a", 2))
    assert len(seen) == 72
    assert len({frozenset(t.vertices) for t in seen}) == 72


@pytest.mark.parametrize("algo,n", [("a", 3), ("b", 7)])
def test_iter_bases_walks_every_depth_once(algo, n):
    walk = list(iter_bases(algo, n))
    assert [d for _, d in walk].count(n) == face_count(algo, n)
    for d in range(n + 1):
        assert [b for b, e in walk if e == d] == list(iter_bases_at(algo, d))


@pytest.mark.parametrize("algo,n", [("a", n) for n in range(5)] + [("b", n) for n in range(11)])
def test_leaves_walk_matches_the_filtered_walk(algo, n):
    # the four readers of tiling.leaves, item for item against the
    # depth-n nodes filtered from a whole pre-order walk
    kids = child_rule(algo)
    roots = initial_vectors(algo)
    assert list(iter_bases_at(algo, n)) == list(nodes_by_descent(roots, kids, n))

    extend = extend_code_a if algo == "a" else tiling._extend_code_b

    def coded(basis, code, lc):
        return [(ch, *extend(code, rule, lc)) for rule, ch in enumerate(kids(*basis))]

    expected = [(basis, n, code) for basis, code, _ in nodes_by_descent([(r, (), False) for r in roots], coded, n)]
    assert [(t.vertices, t.depth, t.code) for t in iter_triangles(algo, n)] == expected

    for task in _tasks(algo, n):
        _, root, levels = task
        owners = Counter(tuple(sorted(pair)) for b in nodes_by_descent([root], kids, levels)
                         for pair in combinations(b, 2))
        assert Counter(_leaf_edges(task)) == owners


def test_depth0_areas():
    areas = [t.area() for t in iter_triangles("a", 0)]
    assert areas == [Fraction(1, 2), Fraction(1, 2)]


@pytest.mark.parametrize("algo,n", [("a", 3), ("b", 6)])
def test_level_counts_match_geometry(algo, n):
    # multiplicity engine against the geometric stream, depth by depth
    for level in level_q_counts(algo, n):
        pass
    geometric = Counter()
    for basis in iter_bases_at(algo, n):
        qs = tuple(v[0] for v in basis)
        if algo == "a":
            qs = tuple(sorted(qs))
        geometric[qs] += 1
    assert dict(geometric) == level
    assert sum(level.values()) == face_count(algo, n)


def _cells(blocks):
    return [(state, c) for P, Q, R, C in blocks for state, c in zip(zip(P, Q, R), C)]


def _holds(blocks, level):
    # the blocks hold the dict level's states and counts, each state once
    cells = _cells(blocks)
    return len(cells) == len(level) and dict(cells) == level


def test_columns_equal_the_dict_levels():
    # from the root to depth 22, and from every task start of the rule-b
    # moment sweep to depth 16
    for d, (cols, level) in enumerate(zip(level_columns_b(22), level_q_counts("b", 22))):
        assert _holds([cols], level), d
    for triple, count in split_q_states("b", 6):
        start = {triple: count}
        pairs = zip(level_columns_b(16, start), level_q_counts("b", 16, start))
        for d, (cols, level) in enumerate(pairs):
            assert _holds([cols], level), (triple, d)
    # A level is its parents' first children in parent order, then the
    # second children of the parents without twins; a twin's first child
    # carries its count doubled.
    for d, (parents, cols) in enumerate(pairwise(level_columns_b(14)), 1):
        first = [((q + r, p, q), c << (q == r)) for p, q, r, c in zip(*parents)]
        second = [((q + r, p, r), c) for p, q, r, c in zip(*parents) if q != r]
        assert _cells([cols]) == first + second, d


@pytest.mark.parametrize("block", [1, 3, 1024])
def test_blocks_hold_the_dict_levels(block, monkeypatch):
    # child_blocks_b joins into the dict level's states and counts, and no
    # block is empty or outgrows the block size; from the root and from
    # every task start of the rule-b moment sweep.
    monkeypatch.setattr(tiling, "_BLOCK", block)
    starts = [None] + [{t: c} for t, c in split_q_states("b", 6)]
    for start in starts:
        for n, level in enumerate(level_q_counts("b", 12, start)):
            blocks = list(tiling.child_blocks_b(n, start))
            assert all(0 < len(C) <= block for *_, C in blocks), (start, n)
            assert _holds(blocks, level), (start, n)


@pytest.mark.parametrize(
    "start", [{(3, 1, 1): 1}, {(1, 2, 1): 2}, {(2, 1, 2): 1}, {(2, 1, 1): 1, (5, 3, 1): 1}]
)
def test_columns_refuse_an_unordered_start(start):
    with pytest.raises(InvariantViolationError):
        next(level_columns_b(4, start))


def test_coded_counts_match_totals():
    for level in level_q_counts_coded_a(5):
        pass
    assert sum(level.values()) == face_count("a", 5)
    # code length r never exceeds the depth and code sums reach it
    assert all(0 < r <= 5 for (_, _, _, r, _) in level)


@pytest.mark.parametrize("n", range(6))
def test_coded_counts_match_geometry(n):
    # coded multiplicity engine against the geometric stream, keyed by
    # the vertex-order denominators and the code length
    for level in level_q_counts_coded_a(n):
        pass
    coded = Counter()
    for (p, q, r, rlen, _), c in level.items():
        coded[(p, q, r), rlen] += c
    geometric = Counter(
        (tuple(v[0] for v in tri.vertices), len(tri.code)) for tri in iter_triangles("a", n)
    )
    assert coded == geometric


def test_descend_preorder_left_to_right():
    calls = []

    def expand(node, depth):
        calls.append(node)
        return (node + "0", node + "1") if depth < 2 else ()

    walk = list(descend(["L", "R"], expand))
    assert [node for node, _ in walk] == [
        "L", "L0", "L00", "L01", "L1", "L10", "L11",
        "R", "R0", "R00", "R01", "R1", "R10", "R11",
    ]
    assert [d for node, d in walk] == [len(node) - 1 for node, _ in walk]
    assert calls == [node for node, _ in walk]


def test_split_states_are_canonical():
    states = split_q_states("a", 2)
    assert states == sorted(states)
    assert sum(c for _, c in states) == 72


def test_locate_corner_chain():
    chain = locate("a", (Fraction(0), Fraction(0)), 5)
    for step in chain.steps:
        assert sorted(step.coefficients).count(Fraction(0)) >= 2
        assert point_in_triangle((Fraction(0), Fraction(0)), step.triangle.points())
    assert [s.child_index for s in chain.steps[1:]] == [0] * 5


def test_locate_tiebreak_on_new_vertex():
    theta = (Fraction(1, 2), Fraction(1, 2))
    chain = locate("b", theta, 1)
    assert chain.steps[0].child_index == 0  # first root triangle wins the tie
    assert chain.steps[1].child_index == 0  # operation "1" child is index 0
    assert chain.vertex_depth() == 1


def test_locate_finds_target_as_vertex():
    theta = (Fraction(3, 7), Fraction(2, 7))
    chain = locate("a", theta, 7)
    d = chain.vertex_depth()
    assert d is not None and d <= 7


def test_locate_chain_is_nested():
    theta = (Fraction(2, 5), Fraction(1, 3))
    chain = locate("a", theta, 6)
    tris = chain.triangles()
    for parent, child in zip(tris, tris[1:]):
        for v in child.points():
            assert point_in_triangle(v, parent.points())


def test_locate_rejects_outside_point():
    with pytest.raises(InvalidInputError):
        locate("a", (Fraction(3, 2), Fraction(0)), 2)


def test_locate_deterministic():
    theta = (Fraction(1, 3), Fraction(1, 3))
    c1 = locate("a", theta, 6)
    c2 = locate("a", theta, 6)
    assert [s.triangle for s in c1.steps] == [s.triangle for s in c2.steps]


def test_vertices_up_to_small():
    got = vertices_up_to("a", 1)
    assert got == {
        (1, 0, 0): 0,
        (1, 1, 0): 0,
        (1, 0, 1): 0,
        (1, 1, 1): 0,
    }
    got2 = vertices_up_to("a", 2)
    new = {v: d for v, d in got2.items() if v[0] == 2}
    assert new == {
        (2, 1, 0): 1,
        (2, 0, 1): 1,
        (2, 1, 1): 1,
        (2, 2, 1): 1,
        (2, 1, 2): 1,
    }


def _primitive_count(qmax):
    return sum(
        1
        for q in range(1, qmax + 1)
        for a1 in range(q + 1)
        for a2 in range(q + 1)
        if gcd(gcd(q, a1), a2) == 1
    )


@pytest.mark.parametrize("algo", ["a", "b"])
def test_vertices_up_to_count_oracle(algo):
    got = vertices_up_to(algo, 10)
    assert len(got) == _primitive_count(10)
    assert all(v[0] <= 10 for v in got)


def test_iter_intervals_partition():
    pieces = list(iter_intervals(6))
    assert len(pieces) == 64
    assert pieces[0][0] == 0 and pieces[-1][1] == 1
    for (_, hi), (lo, _) in zip(pieces, pieces[1:]):
        assert hi == lo
    assert sum(hi - lo for lo, hi in pieces) == 1


def test_intervals_and_levels_equal_the_descent():
    # depths past ROW_SPLIT read the walk's bottom-aligned blocks
    assert ROW_SPLIT < 14
    for n in range(15):
        oracle = list(intervals_by_descent(n))
        assert list(iter_intervals(n)) == oracle
        assert brocot_level(n) == sorted({x for iv in oracle for x in iv})


def test_iter_intervals_is_lazy():
    t0 = time.perf_counter()
    head = list(islice(iter_intervals(60), 3))
    assert time.perf_counter() - t0 < 1.0
    assert head == list(islice(intervals_by_descent(60), 3))


@pytest.mark.parametrize("split,depths", [(2, range(9)), (ROW_SPLIT, range(ROW_SPLIT - 1, ROW_SPLIT + 3))])
def test_classical_rows_are_bounded_blocks_in_order(monkeypatch, split, depths):
    # At split 2, depths 3-8 recurse once to three times.  The blocks of
    # depth n join end to end into the whole level, left to right.
    monkeypatch.setattr(tiling, "ROW_SPLIT", split)
    for n in depths:
        level = [Fraction(0)]
        for nums, dens in classical_rows(n, ([0, 1], [1, 1])):
            assert len(dens) == len(nums) <= 2**split + 1
            assert Fraction(nums[0], dens[0]) == level[-1]
            level.extend(map(Fraction, nums[1:], dens[1:]))
        assert level == [Fraction(0)] + [v for _, v in intervals_by_descent(n)]


def test_mediant_additive_on_basis_pairs():
    # whenever u, v sit in a common basis, u + v is primitive, so the
    # mediant's denominator is q(u) + q(v) with no reduction
    for algo in ("a", "b"):
        for basis, _ in iter_bases(algo, 4):
            for i in range(3):
                for j in range(i + 1, 3):
                    m = vec_add(basis[i], basis[j])
                    assert gcd(gcd(m[0], m[1]), m[2]) == 1
                    assert m[0] == basis[i][0] + basis[j][0]


def test_located_triangle_belongs_to_tiling():
    for algo, n in (("a", 3), ("b", 5)):
        tiles = {t.vertices for t in iter_triangles(algo, n)}
        for theta in ((Fraction(1, 7), Fraction(2, 7)), (Fraction(0), Fraction(1))):
            chain = locate(algo, theta, n)
            assert chain.steps[-1].triangle.vertices in tiles


from hypothesis import example, given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(0, 40),
    st.integers(0, 40),
    st.sampled_from(["a", "b"]),
)
def test_locate_chain_properties(q1, q2, n1, n2, algo):
    theta = (Fraction(min(n1, q1), q1), Fraction(min(n2, q2), q2))
    chain = locate(algo, theta, 5)
    assert len(chain.steps) == 6
    for step in chain.steps:
        assert min(step.coefficients) >= 0
        assert abs(det3(*step.triangle.vertices)) == 1
        assert point_in_triangle(theta, step.triangle.points())


def _vertex_depth_by_points(chain):
    # The definition on rational points: the first step with a vertex
    # whose projection is theta.
    for s in chain.steps:
        for v in s.triangle.vertices:
            if (Fraction(v[1], v[0]), Fraction(v[2], v[0])) == chain.theta:
                return s.triangle.depth
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from(["a", "b"]),
)
# two corners, an edge midpoint and an edge point off the dyadic grid
@example(1, 1, 0, 0, "a")
@example(1, 1, 1, 1, "b")
@example(2, 1, 1, 0, "b")
@example(3, 1, 2, 1, "a")
def test_vertex_depth_matches_the_point_definition(q1, q2, n1, n2, algo):
    # a numerator of 0 or at least the denominator puts theta on an edge
    theta = (Fraction(min(n1, q1), q1), Fraction(min(n2, q2), q2))
    chain = locate(algo, theta, 12)
    assert chain.vertex_depth() == _vertex_depth_by_points(chain)


@pytest.mark.parametrize("algo", ["a", "b"])
def test_public_vertices_are_plain_tuples(algo):
    vertices = [v for tri in iter_triangles(algo, 2) for v in tri.vertices]
    vertices += [v for s in locate(algo, (Fraction(3, 7), Fraction(2, 9)), 6).steps for v in s.triangle.vertices]
    vertices += list(vertices_up_to(algo, 6)) + list(stable_degree_table(algo, 6))
    assert all(type(v) is tuple and len(v) == 3 for v in vertices)
    assert all(type(t.vertices) is tuple for t in iter_triangles(algo, 2))
