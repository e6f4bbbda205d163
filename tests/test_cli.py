import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from farey_brocot import cli

CLI = [sys.executable, "-m", "farey_brocot.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def payload(proc):
    record = json.loads(proc.stdout)
    record.pop("wall_time_s", None)
    return record


def test_census_payload_spot_values():
    proc = run_cli("census", "--algo", "a", "--depth", "2")
    result = payload(proc)["result"]
    assert result == {
        "f": 72,
        "r": 116,
        "v": 45,
        "degrees": {"2": 2, "3": 16, "5": 12, "8": 15},
    }


def test_moments_exact_fraction_output():
    proc = run_cli("moments", "--algo", "b", "--depth", "2", "--beta", "2", "--exact")
    rec = payload(proc)
    assert rec["result"]["sigma"] == "1/8"
    assert rec["provenance"]["arithmetic"] == "exact"


def test_moments_beta_as_fraction_string():
    proc = run_cli("moments", "--algo", "a", "--depth", "2", "--beta", "3/2")
    rec = payload(proc)
    assert rec["parameters"]["beta"] == "3/2"
    assert rec["provenance"]["arithmetic"] == "compensated-float"


def test_render_svg_triangle_count(tmp_path):
    out = tmp_path / "til5.svg"
    proc = run_cli("render", "--algo", "b", "--depth", "5", "--out", str(out))
    rec = payload(proc)
    svg = out.read_text()
    assert svg.count("<polygon") == 64
    assert rec["result"]["cells"] == 64
    assert svg.startswith('<?xml version="1.0"')
    # depth-0 boundary is emphasized with path strokes, not polygons
    assert svg.count("<path") == 2


def test_render_byte_identical(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli("render", "--algo", "a", "--depth", "3", "--out", str(a), "--labels")
    run_cli("render", "--algo", "a", "--depth", "3", "--out", str(b), "--labels")
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of the SVG files, recorded before the descents were merged into
# one routine; the bytes follow the traversal order.
PINNED_SVG_SHA256 = {
    ("a", "4"): "bb899f1a26346aa5c0534e80bf7fd92c91a7be7ea18eb17ad9db81e77934a5bb",
    ("b", "9"): "92b32f3f656a86fb3f2ccbfe981e2f9b53f97efb7d8d6a6b5b08a21b39922387",
    ("classical", "6"): "5db6d6e1060261a0e8fe45ab082681679ff909aefc4ac06249da171b72c53db8",
}


@pytest.mark.parametrize("algo,depth", sorted(PINNED_SVG_SHA256))
def test_render_svg_pinned_hash(tmp_path, algo, depth):
    out = tmp_path / "t.svg"
    run_cli("render", "--algo", algo, "--depth", depth, "--out", str(out), "--labels")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SVG_SHA256[algo, depth]


# SHA-256 of the SVG files, recorded while the square renderer still read
# Triangle points as Fractions: the benchmark's two renders and label caps
# that cut the labels short.
PINNED_SVG_OPTIONS_SHA256 = {
    "render --algo a --depth 5": "ba3cbcdf6db6c47676d04f0b7a92a2c1cfa46ae145ec89ea9b1acbb133f8600d",
    "render --algo b --depth 12 --labels": "97a64217f6c00f1f52d61ff92b02d4a42de678636fb9e4d33bd0a99e8834be93",
    "render --algo a --depth 2 --labels --label-cap 0": "b0d38d5bdfdd3a66b94139e68861096cdb9724ef100a04048ada04b330d8e42b",
    "render --algo b --depth 4 --labels --label-cap 3": "34bef6168b16e154c9dab4d051cb9e2fa4832defef0f00ad6153bd26399183fa",
}


@pytest.mark.parametrize("command", sorted(PINNED_SVG_OPTIONS_SHA256))
def test_render_svg_options_pinned_hash(tmp_path, command):
    out = tmp_path / "t.svg"
    run_cli(*command.split(), "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SVG_OPTIONS_SHA256[command]


# SHA-256 of the canonical result (sorted-key JSON), recorded before the
# Basis class was folded into Triangle and verify's per-depth walks into
# one.
PINNED_RESULT_SHA256 = {
    "locate --algo a --point 3/7,2/9 --depth 40": "91ed2a6b9925d6a2b8db14f44d671a3001f18b2c729069bae8120b3748ccfdac",
    "locate --algo b --point 3/7,2/9 --depth 40": "0f5adb5ef4d16b4997565aacba749fb9f091ea162affe2f1448017c624fee8c5",
    "verify --algo a --depth 3": "a9fc44e78e16cc81121df13c323d0e8fc3cd877dbdee9a436696af71d4e61da2",
    "verify --algo b --depth 12": "d198b5fbf89747cc0bc8728666d5e26c228f3b4d8f0d9654de42f3904860540b",
}


# Recorded before degree maps were built from one subtree task per
# symmetry orbit.
PINNED_DEGREE_CHECKS_SHA256 = {
    "verify --algo a --depth 3 --checks degree-stability": "1abc52d6b4d7475b5424d8cd94194393803428305cdd13745f811562d11e4762",
    "verify --algo b --depth 16 --checks degree-set,degree-stability,census-formulas": "1e846d7169aefbd76b6fd8bd45a27b7c259d73d3506607336a6357197b455a0c",
}


# Recorded while regular-partition, area-lemma2 and lemma13 still summed
# and compared areas as Fractions.
PINNED_AREA_CHECKS_SHA256 = {
    "verify --algo a --depth 6 --checks regular-partition,area-lemma2": "332d9ebf85ccc0394b4d53596e5a0ec09f39274a725d85a863559ca3eaa0d442",
    "verify --algo b --depth 16 --checks regular-partition,area-lemma2,lemma13": "d060c0f96114ef67dffe93ce5fe2acc5e1c546400606ea1939ec242f2396fadc",
}


def result_sha256(command):
    result = payload(run_cli(*command.split()))["result"]
    text = json.dumps(result, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(PINNED_RESULT_SHA256))
def test_result_pinned_hash(command):
    assert result_sha256(command) == PINNED_RESULT_SHA256[command]


@pytest.mark.parametrize("command", sorted(PINNED_DEGREE_CHECKS_SHA256))
def test_degree_checks_pinned_hash(command):
    assert result_sha256(command) == PINNED_DEGREE_CHECKS_SHA256[command]


@pytest.mark.parametrize("command", sorted(PINNED_AREA_CHECKS_SHA256))
def test_area_checks_pinned_hash(command):
    assert result_sha256(command) == PINNED_AREA_CHECKS_SHA256[command]


def test_geometry_checks_pinned_hash():
    # Recorded while regular-partition still clipped polygons in Fraction
    # arithmetic.  Depth 5 reaches geometry depth 4.
    command = "verify --algo a --depth 5 --checks regular-partition,area-lemma2"
    assert result_sha256(command) == "b7a509f26417f292e642905335814869a9c7810f57c04f4dfdb85091efb30bc1"


def test_locate_chain_payload():
    proc = run_cli("locate", "--algo", "a", "--point", "3/7,2/7", "--depth", "7")
    result = payload(proc)["result"]
    assert len(result["chain"]) == 8
    assert result["vertex_depth"] is not None and result["vertex_depth"] <= 7
    assert result["chain"][0]["vertices"] == [[1, 0, 0], [1, 1, 0], [1, 0, 1]]


def test_verify_json_and_selection():
    proc = run_cli("verify", "--algo", "b", "--depth", "4", "--checks", "lemma13,lemma16")
    result = payload(proc)["result"]
    assert result["failed"] == 0
    assert [r["name"] for r in result["reports"]] == ["lemma13", "lemma16"]
    assert all(r["status"] == "pass" for r in result["reports"])


def test_verify_unknown_check_usage_error():
    proc = run_cli("verify", "--algo", "a", "--depth", "2", "--checks", "bogus", check=False)
    assert proc.returncode == 2
    err = json.loads(proc.stdout)
    assert err["error"]["type"] == "invalid-input"


@pytest.mark.parametrize("checks", [",", ""])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_empty_selection_usage_error(fmt, checks):
    proc = run_cli("verify", "--algo", "a", "--depth", "1", "--checks", checks, "--format", fmt, check=False)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    (line,) = (proc.stdout if fmt == "json" else proc.stderr).splitlines()
    if fmt == "json":
        assert json.loads(line)["error"]["type"] == "invalid-input"
    else:
        assert line.startswith("error (invalid-input):") and proc.stdout == ""


def test_domain_error_exit_code():
    proc = run_cli("moments", "--algo", "a", "--depth", "2", "--beta", "0.5", check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "domain"


def test_capacity_error_exit_code():
    proc = run_cli("census", "--algo", "a", "--depth", "99", check=False)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "capacity"


@pytest.mark.parametrize(
    "command,code,outcome",
    [
        # exact orders past the size bound: the float sweep, or an error
        ("moments --algo a --depth 6 --beta 40", 0, "float"),
        ("moments --algo b --depth 15 --beta 90", 0, "float"),
        ("moments --algo b --depth 4 --beta 3000", 0, "float"),
        ("moments --algo b --depth 4 --beta 1000000", 0, "float"),
        ("moments --algo classical --depth 16 --beta 20 --exact", 1, "capacity"),
        ("moments --algo b --depth 4 --beta 1e400", 1, "domain"),
        # main terms past the float range
        ("asym --algo a --beta 400 --n 2..3", 1, "domain"),
        ("asym --algo classical --beta 700 --n 2..3", 1, "domain"),
        ("classical --depth 3 --beta 700", 1, "domain"),
        # Dirichlet orders past the float range, refused before any
        # message prints them
        ("dirichlet --algo classical --beta 1e400", 1, "domain"),
        ("dirichlet --algo classical --beta 1e400 --qmax 10", 1, "domain"),
        ("dirichlet --algo a --beta 1e5000", 1, "domain"),
        ("dirichlet --algo b --beta 1e5000 --qmax 8", 1, "domain"),
    ],
)
def test_large_orders_print_one_record(command, code, outcome):
    # an unbounded exact order would run far past the timeout
    proc = subprocess.run(CLI + command.split(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == code and "Traceback" not in proc.stderr
    (line,) = proc.stdout.splitlines()
    record = json.loads(line)
    if outcome == "float":
        assert record["result"]["exact"] is False
    else:
        assert record["error"]["type"] == outcome


def test_nan_tolerance_rejected():
    proc = run_cli("dirichlet", "--algo", "classical", "--beta", "4", "--tolerance", "nan", check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "invalid-input"


@pytest.mark.parametrize("algo,tol", [("a", "nan"), ("b", "nan"), ("b", "0"), ("classical", "-1")])
def test_tolerance_rejected_for_every_algo(algo, tol):
    proc = run_cli("dirichlet", "--algo", algo, "--beta", "6", "--qmax", "8", "--tolerance", tol, check=False)
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "invalid-input" and error["message"].startswith("tolerance must be positive")


def test_negative_label_cap_rejected(tmp_path):
    out = tmp_path / "t.svg"
    proc = run_cli("render", "--algo", "a", "--depth", "2", "--labels", "--label-cap", "-3",
                   "--out", str(out), check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "invalid-input"
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["render --algo a --depth 1 --out {}/x.svg", "asym --algo b --beta 2 --n 2..3 --out {}/x.csv",
     "render --algo a --depth 1 --out {}", "asym --algo classical --beta 3/2 --n 2..4 --out {}"],
)
def test_unwritable_out_is_invalid_input(tmp_path, command):
    # a directory that does not exist, or a directory given as the file
    target = tmp_path / "missing" if "/x." in command else tmp_path
    proc = run_cli(*command.format(target).split(), check=False)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["error"]["type"] == "invalid-input"
    assert not (tmp_path / "missing").exists()


def test_asym_refuses_the_out_path_before_the_sweep(tmp_path, monkeypatch, capsys):
    from farey_brocot import analysis

    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(analysis, "asymptotic_sweep", sweep)
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["asym", "--algo", "b", "--beta", "2", "--n", "2..26", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "invalid-input"


def test_usage_error_exit_code():
    proc = run_cli("census", "--algo", "zzz", "--depth", "1", check=False)
    assert proc.returncode == 2


def test_asym_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "asym", "--algo", "b", "--beta", "2", "--n", "4..8", "--out", str(out)
    )
    rec = payload(proc)
    assert len(rec["result"]["rows"]) == 5
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["n", "beta", "sigma", "main_term", "ratio", "L_value", "L_tail_bound"]
    assert [int(r["n"]) for r in rows] == [4, 5, 6, 7, 8]
    assert all(float(r["ratio"]) > 0 for r in rows)


def test_csv_stdout_format():
    proc = run_cli("asym", "--algo", "classical", "--beta", "2", "--n", "3..5", "--format", "csv")
    reader = csv.reader(io.StringIO(proc.stdout))
    header = next(reader)
    assert header == ["n", "beta", "sigma", "main_term", "ratio", "L_value", "L_tail_bound"]
    assert len(list(reader)) == 3


def test_classical_subcommand():
    proc = run_cli("classical", "--depth", "8", "--beta", "2", "--exact")
    result = payload(proc)["result"]
    assert result["exact"] is True
    assert "/" in result["sigma"]
    assert result["ratio"] > 0


def test_classical_exact_ratio_is_the_printed_sigmas():
    # the float sweep's sigma gives 0.8709712262151059, an ulp off
    result = payload(run_cli("classical", "--depth", "6", "--beta", "2", "--exact"))["result"]
    assert result["ratio"] == float(Fraction(result["sigma"])) / result["main_term"]
    assert result["ratio"] == 0.870971226215106


def test_classical_float_sigma_is_the_moment():
    from farey_brocot.analysis import classical_moment

    result = payload(run_cli("classical", "--depth", "12", "--beta", "3/2"))["result"]
    assert result["exact"] is False
    assert result["sigma"] == classical_moment(12, Fraction(3, 2)).value


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(jobs):
    proc = run_cli("census", "--algo", "a", "--depth", "1", "--jobs", jobs, check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "invalid-input"


def test_dirichlet_classical_oracle_agreement():
    proc = run_cli("dirichlet", "--algo", "classical", "--beta", "4", "--qmax", "2000")
    result = payload(proc)["result"]
    lo, hi = result["value"], result["value"] + result["tail_bound"]
    dlo = result["direct_sum"]
    dhi = result["direct_sum"] + result["direct_tail_bound"]
    assert dlo <= hi and lo <= dhi


@pytest.mark.parametrize(
    "args",
    [
        ["census", "--algo", "a", "--depth", "3"],
        ["moments", "--algo", "b", "--depth", "8", "--beta", "2"],
        ["verify", "--algo", "b", "--depth", "6", "--checks", "lemma8,lemma13,sigma1"],
        ["asym", "--algo", "b", "--beta", "2", "--n", "4..8"],
    ],
)
def test_jobs_payloads_byte_identical(args):
    one = run_cli(*args, "--jobs", "1").stdout
    eight = run_cli(*args, "--jobs", "8").stdout
    rec1, rec8 = json.loads(one), json.loads(eight)
    rec1.pop("wall_time_s")
    rec8.pop("wall_time_s")
    rec1["parameters"].pop("jobs")
    rec8["parameters"].pop("jobs")
    assert json.dumps(rec1, sort_keys=True) == json.dumps(rec8, sort_keys=True)


def test_csv_format_for_verify_and_scalar():
    proc = run_cli("verify", "--algo", "a", "--depth", "2", "--checks", "sigma1,max-area", "--format", "csv")
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["name", "algo", "status", "checked", "witness"]
    assert [r[0] for r in rows[1:]] == ["sigma1", "max-area"]
    proc = run_cli("census", "--algo", "a", "--depth", "1", "--format", "csv")
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["degrees", "f", "r", "v"]
    assert rows[1][1:] == ["12", "22", "11"]


def _collector(enabled):
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize(
    "command,small,large",
    [
        ("census --algo b --depth {}", 4, 12),
        ("census --algo b --jobs 2 --depth {}", 4, 12),
        ("moments --algo a --beta 2 --depth {}", 3, 7),
        ("moments --algo a --beta 2 --jobs 2 --depth {}", 3, 7),
        ("classical --beta 2 --depth {}", 8, 16),
        ("dirichlet --algo a --beta 6 --qmax {}", 20, 120),
        ("asym --algo b --beta 2 --n 2..{}", 6, 16),
        ("render --algo b --out {out} --depth {}", 4, 10),
        ("locate --algo a --point 3/7,2/9 --depth {}", 10, 400),
        ("verify --algo a --depth {}", 1, 3),
        ("verify --algo a --jobs 2 --depth {}", 1, 3),
    ],
)
def test_request_garbage_does_not_grow_with_its_size(tmp_path, capsys, command, small, large):
    # main runs with the cyclic collector off, which is safe only while
    # the engines build no reference cycles: what a request leaves for
    # the collector must not depend on how much work it did
    def garbage(size):
        argv = command.format(size, out=tmp_path / "t.svg").split()
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert cli.main(argv) == 0
        finally:
            _collector(enabled)
        return gc.collect()

    garbage(small)  # a module's first import leaves garbage once
    assert garbage(small) == garbage(large)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "command,code,kind",
    [
        ("census --algo a --depth 1", 0, None),
        ("moments --algo a --depth 2 --beta x", 2, "invalid-input"),
        ("moments --algo a --depth 2 --beta 0.5", 1, "domain"),
        ("census --algo a --depth 99", 1, "capacity"),
        ("--help", 0, None),
        ("census --algo zzz --depth 1", 2, None),
    ],
)
def test_main_restores_the_callers_collector(capsys, enabled, command, code, kind):
    was = gc.isenabled()
    _collector(enabled)
    try:
        assert cli.main(command.split()) == code
        assert gc.isenabled() is enabled
    finally:
        _collector(was)
    if kind:
        assert json.loads(capsys.readouterr().out)["error"]["type"] == kind


def test_import_footprint():
    # What `import farey_brocot.cli` adds to sys.modules in a fresh
    # interpreter; the set difference leaves out whatever site hooks load.
    # perfbench/tracer.py reads every module below from sys.modules right
    # after that import, so none of them may become a lazy import.
    code = (
        "import sys; before = set(sys.modules); import farey_brocot.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert not added & {"dataclasses", "inspect", "csv"}
    # --jobs forks its workers only when it runs them
    assert not added & {"multiprocessing", "pickle", "select"}
    traced = {"tiling", "census", "analysis", "render", "verify", "cli", "_jobs"}
    assert {f"farey_brocot.{m}" for m in traced} <= added
