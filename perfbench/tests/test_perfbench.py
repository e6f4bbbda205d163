"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

import refcheck
import run
import tracer
import workloads


@pytest.fixture
def work(tmp_path):
    return tmp_path


def _reference(argv, work):
    ex = run.spawn(run.cli_command(argv), 60.0, work)
    assert ex.code == 0, ex.stderr
    return refcheck.observed(ex.stdout, run.ROOT)


FLOAT_REQUEST = "moments --algo a --depth 3 --beta 3/2".split()
EXACT_REQUEST = "census --algo b --depth 4".split()


def test_recorded_reference_passes_and_is_identical(work):
    for argv in (FLOAT_REQUEST, EXACT_REQUEST):
        refs = {workloads.reference_key(argv): _reference(argv, work)}
        out = run.run_request(argv, 60.0, refs, work)
        assert out.problems == [] and out.identical


def test_corrupted_reference_counts_as_failure(work):
    ref = _reference(FLOAT_REQUEST, work)
    sigma = ref["payload"]["result"]["sigma"]
    key = workloads.reference_key(FLOAT_REQUEST)

    wrong = json.loads(json.dumps(ref))
    wrong["payload"]["result"]["sigma"] = sigma * (1 + 1e-6)
    out = run.run_request(FLOAT_REQUEST, 60.0, {key: wrong}, work)
    assert out.problems and not out.identical

    ulp = json.loads(json.dumps(ref))
    ulp["payload"]["result"]["sigma"] = math.nextafter(sigma, math.inf)
    out = run.run_request(FLOAT_REQUEST, 60.0, {key: ulp}, work)
    assert out.problems == [] and not out.identical

    exact = _reference(EXACT_REQUEST, work)
    exact["payload_sha256"] = "0" * 64
    out = run.run_request(EXACT_REQUEST, 60.0, {workloads.reference_key(EXACT_REQUEST): exact}, work)
    assert out.problems

    out = run.run_request(EXACT_REQUEST, 60.0, {}, work)
    assert out.problems == ["no recorded reference"]


def test_mismatches_compare_exact_fields_exactly():
    want = {"n": 3, "s": "1/3", "ok": True, "x": 0.5, "rows": [1, 2]}
    assert refcheck.mismatches(dict(want), want) == []
    for key, bad in (("n", 4), ("s", "1/4"), ("ok", False), ("x", 0.5001), ("rows", [1, 3]), ("n", 3.0)):
        assert refcheck.mismatches(dict(want, **{key: bad}), want), key


def _traced(argv, work):
    refs = {workloads.reference_key(argv): _reference(argv, work)}
    out = run.run_request(argv, 60.0, refs, work, traced=True)
    assert out.problems == [] and out.identical
    return out.trace


@pytest.mark.parametrize("argv", [
    "moments --algo a --depth 4 --beta 3/2".split(),
    "verify --algo b --depth 4".split(),
    "verify --algo b --depth 4 --jobs 2".split(),
    "render --algo a --depth 2 --out {}".split(),
])
def test_spans_nest_and_self_times_fit_the_wall(argv, work):
    argv = [a.format(work / "t.svg") for a in argv]
    dump = _traced(argv, work)
    spans = tracer.load_spans(dump)
    by_id = {s.id: s for s in spans}
    assert spans and spans[0].name == "cli.main"
    self_by_lane = defaultdict(int)
    for s in spans:
        assert s.self_ns() >= 0, s.name
        self_by_lane[s.lane] += s.self_ns()
        if s.kind == "gen":
            assert s.busy <= s.end - s.start
        parent = by_id.get(s.parent)
        if parent is not None:
            assert parent.start <= s.start and s.end <= parent.end, (s.name, parent.name)
    assert self_by_lane[dump["pid"]] <= dump["wall_ns"]
    assert all(total <= dump["wall_ns"] for total in self_by_lane.values())


def test_task_time_is_charged_to_the_owning_module(work):
    dump = _traced("verify --algo b --depth 4 --jobs 2".split(), work)
    m = tracer.layer_metrics([dump])
    assert 1 <= m["jobs.workers"] <= os.cpu_count()
    assert m["jobs.tasks"] >= 17
    assert 0 <= m["jobs.self_s"] < m["jobs.run_tasks_s"]
    # degree-set runs in a worker; its spans must come back to the parent.
    assert m["verify.degree-set_s"] > 0 and m["census.stable_degree_table_s"] > 0
    assert 0 < m["jobs.efficiency"] <= 1.0


def test_counters_match_the_payload(work):
    argv = "census --algo b --depth 6".split()
    dump = _traced(argv, work)
    m = tracer.layer_metrics([dump])
    ex = run.spawn(run.cli_command(argv), 60.0, work)
    result = json.loads(ex.stdout)["result"]
    assert (m["census.vertices"], m["census.edges"]) == (result["v"], result["r"])


@pytest.mark.parametrize("argv", [
    "moments --algo a --depth 4 --beta 3/2".split(),
    "census --algo b --depth 8".split(),
    "verify --algo b --depth 5".split(),
])
def test_jobs_do_not_change_canonical_payloads(argv, work):
    texts = set()
    for jobs in ("1", "2"):
        ex = run.spawn(run.cli_command(argv + ["--jobs", jobs]), 60.0, work)
        assert ex.code == 0
        texts.add(refcheck.canonical_text(json.loads(ex.stdout)))
    assert len(texts) == 1


def test_wall_ceiling_kills_a_hung_request(work):
    ex = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], 0.5, work)
    assert ex.timed_out and ex.code != 0 and ex.wall_s < 5


def test_memory_ceiling_applies_in_the_child(work):
    big = workloads.MEMORY_CEILING_MB * 2 * 1024 * 1024
    ex = run.spawn([sys.executable, "-c", f"bytearray({big})"], 30.0, work)
    assert ex.code != 0 and b"MemoryError" in ex.stderr


def test_seed_only_picks_menu_entries_with_references():
    refs = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    keys = {workloads.reference_key(argv) for argv in workloads.all_reference_requests()}
    assert keys <= set(refs)
    for name in workloads.WORKLOADS:
        shapes = set()
        for seed in range(20):
            reqs = workloads.requests(name, seed)
            assert all(workloads.reference_key(argv) in refs for argv, _ in reqs)
            shapes.add(tuple(len(argv) for argv, _ in reqs))
        assert len(shapes) == 1
    excluded = {e for e, _ in workloads.EXCLUDED}
    assert not excluded & keys


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracer.PER_LAYER
    checks = sorted(tracer.CHECK_NAMES)
    from farey_brocot.verify import CHECKS

    assert checks == sorted(CHECKS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_speed_probe_runs_without_the_package(work):
    code = ("import runpy, sys; runpy.run_path('perfbench/calibrate.py', run_name='__main__'); "
            "print(any(m.split('.')[0] == 'farey_brocot' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, env=run.child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"
    assert 0 < run.measure_probe(work) < 30
