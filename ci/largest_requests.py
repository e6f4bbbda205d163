"""Run the largest requests the capacity caps admit, through the CLI.

Usage (from the repository root, with the package importable):

    python3 ci/largest_requests.py

Every request runs under a fresh interpreter that times it and reads its
peak RSS from ``RUSAGE_CHILDREN``; both are printed and never gated,
since CI hosts are noisy.  The script exits 1 unless every request exits
0 and prints a result record with no failed check, and unless every
equality in ``EQUALITIES`` holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile

CLI = [sys.executable, "-m", "farey_brocot.cli"]

# Runs argv[1:] as its only child; prints wall seconds and peak MiB last.
PROBE = (
    "import resource, subprocess, sys, time; t = time.perf_counter(); "
    "code = subprocess.run(sys.argv[1:]).returncode; "
    "print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "
    "file=sys.stderr); sys.exit(code)"
)

REQUESTS = [
    # every check at a/6 and b/16, the deepest depths the degree and census
    # checks run at, and at classical/20
    "verify --algo a --depth 6",
    "verify --algo a --depth 6 --jobs 2",
    "verify --algo b --depth 16",
    "verify --algo b --depth 16 --jobs 2",
    "verify --algo classical --depth 20",
    # the deepest float sweeps the moment cap admits, alone and under asym
    "classical --depth 22 --beta 2",
    "moments --algo classical --depth 22 --beta 2",
    "moments --algo classical --depth 22 --beta 3/2",
    "asym --algo classical --beta 3/2 --n 2..22",
    "moments --algo b --depth 26 --beta 2",
    "moments --algo b --depth 26 --beta 2 --jobs 2",
    "asym --algo b --beta 2 --n 2..26",
    "moments --algo a --depth 10 --beta 2",
    "asym --algo a --beta 2 --n 2..10",
    # the largest exact moments EXACT_UNIT_CAP admits
    "moments --algo classical --depth 20 --beta 1 --exact",
    "moments --algo b --depth 22 --beta 1 --exact",
    "moments --algo a --depth 8 --beta 1 --exact",
    # the largest exact classical order EXACT_BITS_CAP admits at depth 16,
    # through moments and through classical
    "moments --algo classical --depth 16 --beta 4 --exact",
    "classical --depth 16 --beta 4 --exact",
    # the largest censuses CENSUS_DEPTH_CAP admits
    "census --algo a --depth 6",
    "census --algo b --depth 17",
    "census --algo b --depth 17 --jobs 2",
    # the Dirichlet head at qmax 1024, the largest-memory request admitted
    "dirichlet --algo a --beta 6 --qmax 1024",
    # the deepest rule-a render
    "render --algo a --depth 6 --out {out}/til_a6.svg",
]


def _sigma(record):
    return record["result"]["sigma"]


def _row(n):
    return lambda record: next((row["sigma"] for row in record["result"]["rows"] if row["n"] == n), None)


def _apart_from_time_and_jobs(record):
    params = {k: v for k, v in record["parameters"].items() if k != "jobs"}
    return {**record, "parameters": params, "wall_time_s": None}


# (claim, (request, what of its record), (request, what of its record)).
# A moment sums its own depth alone, so it equals that depth's row of the
# sweep, and every payload is byte-identical for any --jobs.
EQUALITIES = [
    (
        "classical/22 order 2: moment equals the classical command's",
        ("moments --algo classical --depth 22 --beta 2", _sigma),
        ("classical --depth 22 --beta 2", _sigma),
    ),
    (
        "classical/22 order 3/2: moment equals the asym row",
        ("moments --algo classical --depth 22 --beta 3/2", _sigma),
        ("asym --algo classical --beta 3/2 --n 2..22", _row(22)),
    ),
    (
        "b/26 order 2: moment equals the asym row",
        ("moments --algo b --depth 26 --beta 2", _sigma),
        ("asym --algo b --beta 2 --n 2..26", _row(26)),
    ),
    (
        "b/26 order 2: moment equals its --jobs 2 value",
        ("moments --algo b --depth 26 --beta 2", _sigma),
        ("moments --algo b --depth 26 --beta 2 --jobs 2", _sigma),
    ),
    (
        "classical/16 order 4: exact moment equals the classical command's",
        ("moments --algo classical --depth 16 --beta 4 --exact", _sigma),
        ("classical --depth 16 --beta 4 --exact", _sigma),
    ),
    (
        "verify a/6: records equal at --jobs 1 and 2 apart from wall_time_s and jobs",
        ("verify --algo a --depth 6", _apart_from_time_and_jobs),
        ("verify --algo a --depth 6 --jobs 2", _apart_from_time_and_jobs),
    ),
    (
        "verify b/16: records equal at --jobs 1 and 2 apart from wall_time_s and jobs",
        ("verify --algo b --depth 16", _apart_from_time_and_jobs),
        ("verify --algo b --depth 16 --jobs 2", _apart_from_time_and_jobs),
    ),
    (
        "census b/17: records equal at --jobs 1 and 2 apart from wall_time_s and jobs",
        ("census --algo b --depth 17", _apart_from_time_and_jobs),
        ("census --algo b --depth 17 --jobs 2", _apart_from_time_and_jobs),
    ),
]


def run(request: str, out: str):
    """(its record if it passed, else {}; the line to print) of one request."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *CLI, *request.format(out=out).split()],
        capture_output=True,
        text=True,
    )
    *log, probe = proc.stderr.splitlines()
    wall, rss = map(float, probe.split())
    try:
        record = json.loads(proc.stdout)
    except ValueError:
        record = {}
    result = record.get("result")
    ok = proc.returncode == 0 and isinstance(result, dict) and result.get("failed", 0) == 0
    line = f"{request}: {'ok' if ok else 'FAILED'}, {wall:.2f} s, peak RSS {rss:.1f} MiB"
    if not ok:
        line += "\n".join([f" (exit {proc.returncode})", *log, proc.stdout[-2000:]])
    return (record if ok else {}), line


def main() -> int:
    records, failed = {}, False
    with tempfile.TemporaryDirectory() as out:
        for request in REQUESTS:
            records[request], line = run(request, out)
            print(line, flush=True)
            failed |= not records[request]
    for claim, (left, read_left), (right, read_right) in EQUALITIES:
        same = bool(records[left] and records[right]) and read_left(records[left]) == read_right(records[right])
        print(f"{claim}: {same}")
        failed |= not same
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
