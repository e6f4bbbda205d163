"""Workload definitions: the CLI requests each workload sends.

A request is a list of ``farey_brocot.cli`` arguments.  A placeholder in
braces (``{beta_sweep}``, ``{beta_series}``, ``{point}``, ``{work}``) is
filled per run; the seed picks the first three from fixed menus whose
entries all cost the same amount of work and whose references are all
recorded.  Depths, ``--qmax``, algorithms and ``--jobs`` never depend on
the seed.

Why each workload exists, and which layer dominates it:

* ``analysis``: level evolution of denominator triples with the float
  and exact moment reductions, then ``stable_degree_table`` with the
  Dirichlet head, once with an integer order (exact ``Fraction`` head)
  and once with a non-integer order (``fsum`` head).  Every request runs
  with one worker; no graph build, SVG, verify checks or fork pool.
* ``geometry``: vector descents, graph build, degree grading, SVG
  emission and the exact-geometry checks with one worker, then the same
  layers plus level evolution on the ``run_tasks`` fork pool
  (``--jobs 2``), whose payloads must equal the ``jobs=1`` references.
  It bypasses the Dirichlet series.

Two workloads, each the union of two request sets (``sweep`` and
``series``; ``geometry`` and ``parallel``): on a shared 2-CPU host, four
workloads of 25-second runs spread by more than the bounds allow, and two
leave time for 50-second runs.  Sizes keep one pass near five seconds, so
a run holds seven or eight passes, with each layer still dominating its
part; ``verify`` at ``a/3`` and ``b/12`` passes and skips the same checks
as at ``a/5`` and ``b/16``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORK_DIR = ".bench_work"

# Non-integer orders: the float moment path costs the same for each.
BETA_SWEEP = ["3/2", "5/4", "7/4", "9/4", "5/2", "11/4", "13/4", "7/2"]
# Non-integer orders in (5, 7): the fsum Dirichlet head costs the same for each.
BETA_SERIES = ["11/2", "21/4", "23/4", "25/4", "27/4", "13/2", "26/5", "33/5"]
# Rational points for a depth-400 descent; each costs about the same.
POINTS = ["3/7,2/9", "5/11,3/13", "2/17,9/19", "7/23,11/29", "13/31,5/37", "1/3,1/5", "4/9,7/15", "8/21,5/27"]

MENUS: Dict[str, List[str]] = {"beta_sweep": BETA_SWEEP, "beta_series": BETA_SERIES, "point": POINTS}

# (request template, wall-time ceiling in seconds).  Each ceiling is at
# least four times the request's wall time on a 2-CPU machine.
WORKLOADS: Dict[str, List[Tuple[str, float]]] = {
    "analysis": [
        ("moments --algo a --depth 8 --beta 2", 5.0),
        ("moments --algo b --depth 21 --beta {beta_sweep}", 8.0),
        ("classical --depth 18 --beta 2", 5.0),
        ("moments --algo classical --depth 15 --beta 2 --exact", 5.0),
        ("moments --algo b --depth 15 --beta 3 --exact", 5.0),
        ("dirichlet --algo a --beta 6 --qmax 80", 12.0),
        ("dirichlet --algo b --beta {beta_series} --qmax 80", 8.0),
        ("dirichlet --algo classical --beta 4 --qmax 10000", 5.0),
    ],
    "geometry": [
        ("census --algo a --depth 6", 5.0),
        ("census --algo b --depth 14", 5.0),
        ("render --algo a --depth 5 --out {work}/a5.svg", 5.0),
        ("render --algo b --depth 12 --labels --out {work}/b12.svg", 5.0),
        ("locate --algo a --depth 400 --point {point}", 5.0),
        ("verify --algo a --depth 3", 10.0),
        ("moments --algo a --depth 8 --beta 2 --jobs 2", 5.0),
        ("census --algo b --depth 16 --jobs 2", 6.0),
        ("verify --algo b --depth 12 --jobs 2", 10.0),
    ],
}

# Address-space ceiling for every request, applied in the child only.
# The largest request peaks near 80 MB resident.
MEMORY_CEILING_MB = 1536

# Requests deliberately absent from every workload, and why.
EXCLUDED: List[Tuple[str, str]] = [
    ("asym --algo a --beta 11/10 --n 2..6",
     "beta near 1 drives dirichlet_L_auto towards qmax 4096; the vector degree table "
     "would need about 11 GB at qmax 512"),
    ("dirichlet --algo a --beta 6 --qmax 256",
     "the degree table grows like 0.28*qmax^3 entries and takes about 1.4 GB at qmax 256"),
    ("moments --algo classical --depth 30 --beta 2",
     "allowed by the depth cap but extrapolates to about an hour (2.2x per level)"),
]


def choose(seed: int) -> Dict[str, str]:
    """The seeded menu picks, plus the fixed work directory."""
    rng = random.Random(seed)
    picks = {name: rng.choice(menu) for name, menu in sorted(MENUS.items())}
    picks["work"] = WORK_DIR
    return picks


def requests(workload: str, seed: int) -> List[Tuple[List[str], float]]:
    """The workload's requests as (cli argv, wall-time ceiling) pairs."""
    picks = choose(seed)
    return [(template.format(**picks).split(), ceiling) for template, ceiling in WORKLOADS[workload]]


def reference_key(argv: List[str]) -> str:
    """Requests share a reference whatever their ``--jobs``: the payload
    must not depend on the worker count."""
    out: List[str] = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--jobs":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


def all_reference_requests() -> List[List[str]]:
    """Every jobs=1 request any seed can produce, each once."""
    seen: Dict[str, List[str]] = {}
    for templates in WORKLOADS.values():
        for template, _ in templates:
            slots = [name for name in MENUS if "{" + name + "}" in template]
            options = MENUS[slots[0]] if slots else [None]
            for option in options:
                fill = {"work": WORK_DIR}
                if slots:
                    fill[slots[0]] = option
                argv = template.format(**fill).split()
                key = reference_key(argv)
                seen.setdefault(key, key.split())
    return list(seen.values())
