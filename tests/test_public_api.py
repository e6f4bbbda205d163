import pickle
from fractions import Fraction

import pytest

import farey_brocot
from farey_brocot.analysis import AsymptoticRow, MomentValue, SeriesValue, asymptotic_sweep
from farey_brocot.census import Census
from farey_brocot.core import Triangle
from farey_brocot.tiling import DescentChain, DescentStep
from farey_brocot.verify import CHECKS, Check, CheckReport


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from farey_brocot import *", namespace)
    names = farey_brocot.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert namespace[name] is getattr(farey_brocot, name)


# The result records are named tuples, in the order `records` builds them.
# Field order is part of their contract: records unpack and compare as
# tuples in this order, and `CheckReport.to_dict` keys follow it.
RECORD_FIELDS = {
    DescentChain: ("algo", "theta", "steps"),
    DescentStep: ("triangle", "child_index", "coefficients"),
    Triangle: ("vertices", "depth", "algo", "code"),
    SeriesValue: ("value", "tail_bound", "terms_used"),
    MomentValue: ("algo", "depth", "order", "value", "exact"),
    AsymptoticRow: ("algo", "n", "beta", "sigma", "main_term", "ratio", "L_value", "L_tail_bound"),
    Census: ("algo", "depth", "faces", "edges", "vertices", "degree_histogram"),
    Check: ("name", "claim", "body", "rules", "reason"),
    CheckReport: ("name", "claim", "algo", "params", "status", "checked", "witness"),
}


@pytest.fixture(scope="module")
def records():
    chain = farey_brocot.locate("a", (Fraction(3, 7), Fraction(2, 7)), 3)
    return [
        chain,
        chain.steps[-1],
        chain.steps[-1].triangle,
        farey_brocot.zeta(4.0),
        farey_brocot.moment("a", 1, 2),
        asymptotic_sweep("b", 2, 2, 3)[0],
        farey_brocot.census("a", 1),
        CHECKS["sigma1"],
        farey_brocot.run_checks("b", 3, ["lemma13"])[0],
    ]


def test_record_fields_keep_their_order(records):
    assert [type(r) for r in records] == list(RECORD_FIELDS)
    for cls, fields in RECORD_FIELDS.items():
        assert cls._fields == fields, cls


def test_record_defaults():
    t = Triangle(((1, 0, 0), (1, 1, 0), (1, 1, 1)))
    assert (t.depth, t.algo, t.code) == (0, "a", ())
    report = CheckReport("n", "claim", "a", {}, "pass")
    assert report.checked == 0 and report.witness is None
    assert Check("n", "claim", None, ("a",)).reason == ""


def test_record_repr_and_tuple_equality():
    value = SeriesValue(1.5, 0.25, 3)
    assert repr(value) == "SeriesValue(value=1.5, tail_bound=0.25, terms_used=3)"
    assert value == (1.5, 0.25, 3)


def test_records_are_immutable_and_pickle(records):
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert pickle.loads(pickle.dumps(record)) == record, type(record)


def test_check_report_to_dict(records):
    d = records[-1].to_dict()
    assert type(d) is dict
    assert list(d) == list(CheckReport._fields)
    assert d["name"] == "lemma13" and d["status"] == "pass"
