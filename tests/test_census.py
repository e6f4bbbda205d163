import functools
import importlib
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from math import gcd

import pytest

from farey_brocot._jobs import run_tasks
from farey_brocot.core import CapacityError, InvalidInputError, InvariantViolationError
from farey_brocot.subdivision import child_rule
from farey_brocot.census import (
    _SYMMETRIES,
    _graph_task,
    _image,
    _orbit_plan,
    _tasks,
    census,
    degree_counts,
    degrees_at,
    expected_counts,
    expected_degree_histogram_a,
    graph_at,
    split_degrees,
    stable_degree_table,
    totients,
)
from farey_brocot.tiling import vertices_up_to

from oracles import graph_degrees, nodes_by_descent, stable_degrees


def test_census_a_spot_values():
    c = census("a", 0)
    assert (c.faces, c.edges, c.vertices) == (2, 5, 4)
    c = census("a", 2)
    assert (c.faces, c.edges, c.vertices) == (72, 116, 45)
    assert c.degree_histogram == {2: 2, 3: 16, 5: 12, 8: 15}


def test_census_b_spot_values():
    c = census("b", 4)
    assert (c.faces, c.edges, c.vertices) == (32, 56, 25)


@pytest.mark.parametrize("n", range(5))
def test_census_a_matches_closed_forms(n):
    c = census("a", n)
    assert (c.faces, c.edges, c.vertices) == expected_counts("a", n)
    assert c.degree_histogram == expected_degree_histogram_a(n)
    assert c.euler() == 1


@pytest.mark.parametrize("n", range(9))
def test_census_b_matches_closed_forms(n):
    c = census("b", n)
    assert (c.faces, c.edges, c.vertices) == expected_counts("b", n)
    assert sum(d * k for d, k in c.degree_histogram.items()) == 2 * c.edges
    assert c.euler() == 1


def test_capacity_errors():
    # a/7 and b/18 would peak near 158 MiB each; the tasks are never built
    for fn in (census, degrees_at):
        for algo, n in (("a", 7), ("a", 9), ("b", 18), ("b", 21)):
            t0 = time.perf_counter()
            with pytest.raises(CapacityError):
                fn(algo, n)
            assert time.perf_counter() - t0 < 1.0


REDUCED_CASES = [("a", n, jobs) for n in range(7) for jobs in (1, 2)]
REDUCED_CASES += [("b", n, jobs) for n in range(17) for jobs in (1, 2)]
REDUCED_CASES += [("b", 17, 1)]  # CENSUS_DEPTH_CAP


@pytest.mark.parametrize("algo,n,jobs", REDUCED_CASES)
def test_reduced_graph_matches_the_whole_graph(algo, n, jobs):
    # At jobs = 2 the map is built in each of two forked workers, where
    # ``verify --jobs 2`` runs the degree checks.
    verts, edges = graph_at(algo, n)
    deg = graph_degrees(algo, n)
    assert run_tasks(functools.partial(degrees_at, algo), [n] * jobs, jobs) == [deg] * jobs
    c = census(algo, n)
    assert (c.edges, c.vertices) == (len(edges), len(verts))
    assert c.degree_histogram == dict(sorted(Counter(deg.values()).items()))


def test_census_builds_its_graph_in_process(monkeypatch):
    # No subtree's edge set goes through the task runner, whatever --jobs.
    def refuse(*args, **kwargs):
        raise AssertionError("the graph was built through run_tasks")

    monkeypatch.setattr(importlib.import_module("farey_brocot._jobs"), "run_tasks", refuse)
    assert not hasattr(importlib.import_module("farey_brocot.census"), "run_tasks")
    verts, edges = graph_at("b", 12)
    c = census("b", 12)
    assert (c.faces, c.edges, c.vertices) == expected_counts("b", 12)
    assert (c.edges, c.vertices) == (len(edges), len(verts))


def test_census_holds_its_graph_once():
    # Peak traced memory over the size of the graph it counts: 1.09 when
    # one subtree's edge set at a time is alive beside the whole graph,
    # 1.67 when every subtree's set is alive before the union.
    tracemalloc.start()
    try:
        graph = graph_at("b", 14)
        size = tracemalloc.get_traced_memory()[0]
        del graph
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        census("b", 14)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * size


def _drop_one_vertex(deg):
    del deg[min(deg)]
    return deg


def _add_one_edge_end(deg):
    deg[min(deg)] += 1
    return deg


@pytest.mark.parametrize("spoil", [_drop_one_vertex, _add_one_edge_end])
def test_census_checks_the_degree_map_against_the_graph(monkeypatch, spoil):
    module = importlib.import_module("farey_brocot.census")
    monkeypatch.setattr(module, "degrees_at", lambda algo, n: spoil(degrees_at(algo, n)))
    with pytest.raises(InvariantViolationError):
        census("b", 6)


def test_census_builds_one_graph_and_one_degree_map(monkeypatch):
    module = importlib.import_module("farey_brocot.census")
    calls = Counter()

    def counted(fn):
        def call(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(module, "graph_at", counted(graph_at))
    monkeypatch.setattr(module, "degrees_at", counted(degrees_at))
    c = census("a", 3)
    assert calls == {"graph_at": 1, "degrees_at": 1}
    assert (c.faces, c.edges, c.vertices) == expected_counts("a", 3)
    assert c.degree_histogram == expected_degree_histogram_a(3)


def _leaf_owners(algo, root, levels):
    # how many of the leaves `levels` steps below `root` own each edge
    owners = Counter()
    for basis in nodes_by_descent([root], child_rule(algo), levels):
        owners.update(tuple(sorted(pair)) for pair in combinations(basis, 2))
    return owners


@pytest.mark.parametrize("algo,n", [("a", n) for n in range(6)] + [("b", n) for n in range(15)])
def test_task_summaries_count_each_edge_once(algo, n):
    internal, rims = 0, set()
    for task in _tasks(algo, n):
        deg, rim = _graph_task(task)
        owners = _leaf_owners(*task)
        assert set(owners.values()) <= {1, 2}
        # rim edges are the ones a single leaf owns
        assert rim == {e for e, k in owners.items() if k == 1}
        # the degree counts hold both ends of every edge two leaves own
        shared = sum(k == 2 for k in owners.values())
        assert sum(deg.values()) == 2 * shared
        internal += shared
        rims |= rim
    # an internal edge is one task's alone; a rim edge may recur
    assert internal + len(rims) == len(graph_at(algo, n)[1])


@pytest.mark.parametrize("algo,depths,runs", [("a", range(2, 7), 20), ("b", range(4, 18), 8)])
def test_orbit_plan_runs_one_task_per_orbit(algo, depths, runs):
    # from the split depth up: 72 rule-a and 32 rule-b tasks
    for n in depths:
        tasks = _tasks(algo, n)
        plan = _orbit_plan(algo, tasks)
        assert (len(tasks), sum(g is None for _, g in plan)) == ({"a": 72, "b": 32}[algo], runs)
        # a mapped task's source is itself run, and comes first
        assert all(plan[src][1] is None and src < i for i, (src, g) in enumerate(plan) if g)


@pytest.mark.parametrize("algo,n", [("a", n) for n in range(5)] + [("b", n) for n in range(13)])
def test_mapped_summaries_match_their_tasks(algo, n):
    tasks = _tasks(algo, n)
    for task, (src, g) in zip(tasks, _orbit_plan(algo, tasks)):
        if g is not None:
            assert _image(_graph_task(tasks[src]), g) == _graph_task(task)


def test_transpose_fixed_tasks_run():
    # Rule a's depth-2 triangles on the diagonal are their own transposes,
    # four under each root.  Those under the first root run; the point
    # reflection carries them onto those under the second.
    transpose = _SYMMETRIES[1]
    tasks = _tasks("a", 3)
    plan = _orbit_plan("a", tasks)
    fixed = [i for i, (_, basis, _) in enumerate(tasks)
             if sorted(transpose(*v) for v in basis) == sorted(basis)]
    first, second = [i for i in fixed if i < 36], [i for i in fixed if i >= 36]
    assert (len(first), len(second)) == (4, 4)
    assert all(plan[i] == (i, None) for i in first)
    assert sorted(plan[i][0] for i in second) == first


def test_stable_degrees_a_examples():
    table = stable_degrees("a", 1)
    def deg(x, y1, y2):
        return table[(x, y1, y2)]
    assert deg(1, 0, 0) == 2          # square corner
    assert deg(2, 1, 1) == 8          # diagonal midpoint
    assert deg(2, 1, 0) == 5          # side midpoint
    assert deg(3, 1, 1) == 3          # triangle center
    from collections import Counter
    assert Counter(table.values()) == Counter({2: 2, 3: 4, 5: 4, 8: 1})


def test_stable_degrees_b_center():
    table = stable_degrees("b", 2)
    assert table[(2, 1, 1)] == 8
    assert set(table.values()) <= {3, 5, 8}


def test_frontier_degrees_b():
    # the vertices new at depth n, with their still transient degrees
    def frontier(n):
        return split_degrees("b", degrees_at("b", n), degrees_at("b", n - 1))[1]

    assert set(frontier(1).values()) == {4}
    assert set(frontier(2).values()) <= {2, 3, 4}


@pytest.mark.parametrize("algo,checks", [("a", range(1, 5)), ("b", range(2, 8))])
def test_degree_table_matches_measured(algo, checks):
    table = stable_degree_table(algo, 80)
    for n in checks:
        measured = stable_degrees(algo, n)
        for v, d in measured.items():
            if v[0] <= 80:
                assert table[v] == d, (algo, n, v)


@pytest.mark.parametrize("algo", ["a", "b"])
def test_degree_counts_match_the_table(algo):
    qmax = 100
    expected = [Counter() for _ in range(qmax + 1)]
    for v, d in stable_degree_table(algo, qmax).items():
        expected[v[0]][d] += 1
    assert degree_counts(algo, qmax) == [dict(c) for c in expected]


def test_totients_count_residues():
    phi, j2 = totients(40)
    for q in range(1, 41):
        assert phi[q] == sum(1 for a in range(q) if gcd(a, q) == 1)
        assert j2[q] == sum(1 for a in range(q) for b in range(q) if gcd(gcd(a, b), q) == 1)


def test_degree_table_q1_head():
    table = stable_degree_table("a", 1)
    assert sum(table.values()) == 10  # degrees 2,2,3,3 at the corners
    table_b = stable_degree_table("b", 1)
    assert sum(table_b.values()) == 12


def test_degree_two_vertices_are_the_off_diagonal_corners():
    from farey_brocot.census import degrees_at

    for n in (1, 3, 5):
        deg = degrees_at("a", n)
        twos = sorted(v for v, d in deg.items() if d == 2)
        assert twos == [(1, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("fn", [vertices_up_to, degree_counts, stable_degree_table])
def test_vector_tables_refuse_the_classical_rule(fn):
    with pytest.raises(InvalidInputError):
        fn("classical", 5)
