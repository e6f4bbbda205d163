import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import farey_brocot.verify as verify
from farey_brocot.census import degrees_at
from farey_brocot.core import InvalidInputError, coordinates
from farey_brocot.subdivision import child_rule, initial_vectors
from farey_brocot.verify import (
    CHECKS,
    FAIL,
    PASS,
    SKIP,
    disjoint_interiors,
    run_checks,
    sample_contraction,
    scaled_shoelace_area,
)

from oracles import clip_disjoint, clip_inside, shoelace_area


def test_all_checks_pass_a():
    reports = run_checks("a", 3)
    assert [r.name for r in reports] == list(CHECKS)
    assert all(r.status in (PASS, SKIP) for r in reports)
    assert not any(r.status == "fail" for r in reports)


def test_all_checks_pass_b():
    reports = run_checks("b", 5)
    assert all(r.status in (PASS, SKIP) for r in reports)
    by_name = {r.name: r for r in reports}
    assert by_name["lemma13"].status == PASS
    assert by_name["lemma16"].status == PASS
    assert by_name["lemma7"].status == SKIP


def test_classical_selection():
    reports = run_checks("classical", 8, ["sigma1", "lemma8"])
    by_name = {r.name: r for r in reports}
    assert by_name["sigma1"].status == PASS
    assert by_name["lemma8"].status == SKIP


def test_unknown_check_rejected():
    with pytest.raises(InvalidInputError):
        run_checks("a", 3, ["sigma1", "bogus"])


def test_selection_preserves_registry_order():
    reports = run_checks("a", 2, ["lemma8", "sigma1"])
    assert [r.name for r in reports] == ["sigma1", "lemma8"]


def test_reports_deterministic_and_jobs_invariant():
    sel = ["unimodularity", "sigma1", "lemma8", "max-area"]
    one = [r.to_dict() for r in run_checks("a", 3, sel)]
    two = [r.to_dict() for r in run_checks("a", 3, sel)]
    par = [r.to_dict() for r in run_checks("a", 3, sel, jobs=4)]
    assert one == two == par


def test_contraction_sampler_clean():
    checked, witness = sample_contraction(chains=50, depth=8)
    assert witness is None
    assert checked == 50 * 8


# SHA-256 of the degree-set report (sorted-key JSON), recorded while the
# check still graded against the whole qmax-60 table.
PINNED_DEGREE_SET_SHA256 = {
    ("a", 3): "7ef2e5c01052e87d2454ce5cf211614043c1cd1239a1a5b011203500ff32ce04",
    ("a", 5): "8982df54643fe2eb45be1ab3df0c69e6c2b3cf8c315c6fba9e32adf79296e1e7",
    ("b", 12): "8b023af4280efcf3ffbcfc01a1ca60a7ef90b1da3a8c07a50be11fc1f8bae9f4",
    ("b", 16): "b0a4d5059e829d709fce5c6ec8f42d82710c31bedb68479d56d266506f1368c0",
}


@pytest.mark.parametrize("algo,depth", sorted(PINNED_DEGREE_SET_SHA256))
def test_degree_set_report_pinned(algo, depth):
    report = run_checks(algo, depth, ["degree-set"])[0].to_dict()
    assert report["status"] == PASS and report["params"]["table_qmax"] == 60
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_DEGREE_SET_SHA256[algo, depth]


def test_degree_stability_skips_without_lookahead():
    report = run_checks("b", 0, ["degree-stability"])[0]
    assert report.status == SKIP and report.checked == 0
    assert report.params == {"reason": "depth limit leaves no room for lookahead"}


def _bumped_degrees(algo, n):
    # one stable vertex changes degree from depth 3 on
    deg = dict(degrees_at(algo, n))
    if n >= 3:
        deg[min(deg)] += 1
    return deg


# Per check: the rules it is stated for, and the names in farey_brocot.verify
# to replace so that it must find a counterexample.
FAULTS = {
    "unimodularity": (("a", "b"), {"det3": lambda *vs: 2}),
    "regular-partition": (("a", "b"), {"disjoint_interiors": lambda s, t: False}),
    "area-lemma2": (("a", "b"), {"scaled_shoelace_area": lambda basis: 0}),
    "sigma1": (("a", "b", "classical"), {"exact_unit_sum": lambda algo, n: Fraction(2)}),
    "lemma4": (("a",), {"child_vectors_a": lambda *vs, **kw: [(0, 0, 0)] * 6}),
    "lemma7": (("a",), {"level_q_counts_coded_a": lambda depth: [{(1, 1, 1, 4, 0): 1}]}),
    "lemma8": (("a", "b"), {"level_q_counts": lambda algo, depth: [{(5, 1, 1): 1}]}),
    "lemma13": (("b",), {"child_vectors_b": lambda *vs, **kw: ((1, 1, 1), (1, 1, 1))}),
    "lemma16": (("b",), {"vec_add": lambda u, v: (0, 0, 0)}),
    "theorem1-contraction": (("a",), {"diameter_sq": lambda tri: 1}),
    "completeness": (("a", "b"), {"vertices_up_to": lambda algo, qmax: {}}),
    "census-formulas": (("a", "b"), {"expected_counts": lambda algo, n: (0, 0, 0)}),
    "degree-set": (("a", "b"), {"DEGREE_SET": {"a": set(), "b": set()}}),
    "degree-stability": (("a", "b"), {"degrees_at": _bumped_degrees}),
    "max-area": (("a",), {"extreme_areas": lambda algo, n: (0, Fraction(1))}),
    "lemma9-bound": (("a",), {"cumulative_moment_check": lambda *args: (10.0, 1.0)}),
    "lemma14-bound": (("b",), {"cumulative_moment_check": lambda *args: (10.0, 1.0)}),
}

# SHA-256 of the faulted reports at a/4, b/8 and classical/4 (sorted-key
# JSON of the list), recorded before the checks moved into one registry.
PINNED_FAULT_SHA256 = {
    "unimodularity": "07e23914fe87b2e441ce25f05b1b99b8220d539c9c5f4fd705faa0e5c805f750",
    "regular-partition": "f3acd397bc2e754298eef09f67c316872817877dc3ab9e74f789dbdd8b94b044",
    "area-lemma2": "f4b5424c9e1e8bbbe3c572cb9cb00883e9b25f9943f9a03907a0f7b64cd51b0b",
    "sigma1": "bdc5dd31d1e0525678b64bce12ae801c40913bb0e3b9baf80270ce7a02e7ba97",
    "lemma4": "b3964a903a0d8922e616aecd99b74dc70fd5350a1ae7689ae4e851d7f02dc75d",
    "lemma7": "1dc0ad6325af301bb3c084a3393c3d272197ae4f10c98f72baf478f39dc54071",
    "lemma8": "9c30a9453ba274e3cc58edabd762c7ce014fd190123c8e0273c215781bf06f5d",
    "lemma13": "f81dd0e3444e9f7456584839881ef5a08902b226f502349300153e2e3172d02a",
    "lemma16": "3416bc2ab02d6c32fcaebdd34fa75eb2ddba375f51285438f0103f2d5b43c7ab",
    "theorem1-contraction": "8cdf9ea87f9c508dc2ca9d1b2d99cac68364093ebc272ae720dbfdf9a87c4969",
    "completeness": "fa058e09b0b3efb1cbd5dcedd1f6c0f8ed37a8df1cdbca544ad562f4449292d9",
    "census-formulas": "8e71df09d798e1891592b4c736f076d803213380738c5aca70a964685d3f003d",
    "degree-set": "cef5db006c359723737c11f33543ff7e4bb8792bbdcf47d7a65cc8dc65eec0ab",
    "degree-stability": "de02c720056199252d642480ae5186ed29cacf37270cc74a4944391319aef8b2",
    "max-area": "35cbdae063b694e40d07c9be1e2da8cf24ef5e06c1a56613ab5a3154dbe975cc",
    "lemma9-bound": "46fb4fa54d5b7a4c4fec846c3a1e1b940974cfd4c2403a1da654e0b8c3606104",
    "lemma14-bound": "6605f33d10103b7d2cbbbd3a1e94a5fb672d845e0847abea27f8b6993f06c7bb",
}


def test_every_check_has_a_fault():
    assert list(FAULTS) == list(CHECKS)


@pytest.mark.parametrize("name", list(FAULTS))
def test_check_fails_under_its_fault(name, monkeypatch):
    rules, patch = FAULTS[name]
    for attr, value in patch.items():
        monkeypatch.setattr(verify, attr, value)
    reports = [run_checks(algo, depth, [name])[0] for algo, depth in (("a", 4), ("b", 8), ("classical", 4))]
    for r in reports:
        applies = r.algo in rules
        assert r.status == (FAIL if applies else SKIP)
        assert (r.witness is not None) == applies
    text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_FAULT_SHA256[name]


def _boundary_vertex_moved_inside(algo, n):
    # One boundary vertex renamed to an interior vector no depth has yet,
    # with its degree: v, r, the histogram and v - r + f are unchanged.
    deg = dict(degrees_at(algo, n))
    v = next(v for v in deg if v[1] in (0, v[0]) or v[2] in (0, v[0]))
    deg[(max(deg)[0] + 2, 1, 1)] = deg.pop(v)
    return deg


def test_census_formulas_count_face_edge_incidences(monkeypatch):
    monkeypatch.setattr(verify, "degrees_at", _boundary_vertex_moved_inside)
    for algo, depth in (("a", 4), ("b", 8)):
        r = run_checks(algo, depth, ["census-formulas"])[0]
        assert (r.status, r.checked, r.witness) == (FAIL, 1, {"depth": 0, "problem": "handshake"})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["a", "b"]), st.integers(0, 1), st.lists(st.integers(0, 5), min_size=1, max_size=5))
def test_tiling_predicates_match_clip_oracle(algo, root, path):
    # Cells of a random descent: siblings share edges or vertices but no
    # interior, and each child lies in its parent, so both outcomes of
    # both predicates occur.
    kids = child_rule(algo)
    basis = initial_vectors(algo)[root]
    for step in path:
        children = kids(*basis)
        for i, ch in enumerate(children):
            inside = all(min(coordinates(basis, v)) >= 0 for v in ch)
            assert inside and clip_inside(ch, basis)
            assert not disjoint_interiors(ch, basis) and not clip_disjoint(ch, basis)
            for other in children[i + 1:]:
                assert disjoint_interiors(ch, other) and clip_disjoint(ch, other)
                escapes = any(min(coordinates(other, v)) < 0 for v in ch)
                assert escapes and not clip_inside(ch, other)
        basis = children[step % len(children)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["a", "b"]), st.integers(0, 1), st.lists(st.integers(0, 5), max_size=8))
def test_scaled_shoelace_area_matches_the_fraction_area(algo, root, path):
    # The integer area-lemma2 tests against the Fraction shoelace area on
    # every cell of a random descent.
    kids = child_rule(algo)
    cells = [initial_vectors(algo)[root]]
    for step in path:
        children = kids(*cells[-1])
        cells.append(children[step % len(children)])
    for basis in cells:
        (qa, _, _), (qb, _, _), (qc, _, _) = basis
        points = [(Fraction(a1, q), Fraction(a2, q)) for q, a1, a2 in basis]
        assert scaled_shoelace_area(basis) == 2 * qa * qb * qc * shoelace_area(points) == 1
