import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from farey_brocot.core import InvalidInputError, coordinates
from farey_brocot.subdivision import child_rule, initial_vectors
from farey_brocot.verify import CHECKS, PASS, SKIP, disjoint_interiors, run_checks, sample_contraction

from oracles import clip_disjoint, clip_inside


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
