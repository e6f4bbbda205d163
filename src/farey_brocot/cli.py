"""Command-line front end.

Every subcommand prints one output record: the command echo, its
parameters, the result payload, provenance (arithmetic mode and tail
bounds where they apply), and wall time.  JSON output uses sorted keys
so identical requests produce identical payloads; only the wall-time
field varies between runs.

Exit codes: 0 success, 2 usage or invalid input, 1 domain or capacity
errors.  With --format json, errors are emitted as machine-parseable
JSON on stdout.  `main` turns the cyclic garbage collector off for the
request and back on only if it was on: the engines' data holds no
reference cycles, and a request leaves a fixed few hundred parser
objects.  Forked workers inherit this; library calls are unaffected.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import CapacityError, DomainError, InvalidInputError
from .subdivision import ALGO_A, ALGO_B, ALGO_CLASSICAL
from . import analysis
from .census import census as compute_census
from .render import render_svg
from .tiling import locate as locate_point
from .verify import FAIL, PASS, SKIP, run_checks

ASYM_CSV_COLUMNS = ["n", "beta", "sigma", "main_term", "ratio", "L_value", "L_tail_bound"]


def _parse_beta(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse order {text!r}; use a decimal or p/q") from exc


def _parse_point(text: str) -> Tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInputError(f"point must be 'p1/q1,p2/q2', got {text!r}")
    try:
        return Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse point {text!r}") from exc


def _parse_range(text: str) -> Tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        try:
            n = int(text)
        except ValueError as exc:
            raise InvalidInputError(f"bad range {text!r}; use A..B") from exc
        return n, n
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise InvalidInputError(f"bad range {text!r}; use A..B") from exc


def _check_out(path: str) -> None:
    # Refused before any work, so a bad path costs no computation.
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise InvalidInputError(f"cannot write --out {path!r}: not a file in a writable directory")


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write --out {path!r}: {exc.strerror}") from None


# --- handlers ----------------------------------------------------------------


def _do_census(args) -> Tuple[Dict, Dict, Dict]:
    c = compute_census(args.algo, args.depth)
    result = {
        "f": c.faces,
        "r": c.edges,
        "v": c.vertices,
        "degrees": {str(d): k for d, k in sorted(c.degree_histogram.items())},
    }
    params = {"algo": args.algo, "depth": args.depth, "jobs": args.jobs}
    return result, params, {"arithmetic": "exact"}


def _do_moments(args) -> Tuple[Dict, Dict, Dict]:
    beta = _parse_beta(args.beta)
    m = analysis.moment(args.algo, args.depth, beta, exact=True if args.exact else None, jobs=args.jobs)
    result = {
        "sigma": str(m.value) if m.exact else m.value,
        "exact": m.exact,
    }
    params = {
        "algo": args.algo,
        "depth": args.depth,
        "beta": str(beta),
        "exact": bool(args.exact),
        "jobs": args.jobs,
    }
    mode = "exact" if m.exact else "compensated-float"
    return result, params, {"arithmetic": mode}


def _do_dirichlet(args) -> Tuple[Dict, Dict, Dict]:
    beta = _parse_beta(args.beta)
    if not args.tolerance > 0:  # also rejects NaN
        raise InvalidInputError(f"tolerance must be positive, got {args.tolerance}")
    qmax = args.qmax
    if args.algo == ALGO_CLASSICAL:
        sv = analysis.classical_L(beta, tol=args.tolerance)
        result = {
            "value": sv.value,
            "tail_bound": sv.tail_bound,
            "terms_used": sv.terms_used,
            "form": "2*zeta(beta-1)/zeta(beta)",
        }
        if args.qmax:
            direct = analysis.classical_L_direct(beta, args.qmax)
            result["direct_sum"] = direct.value
            result["direct_tail_bound"] = direct.tail_bound
    else:
        qmax = args.qmax or 64
        sv = analysis.dirichlet_L(args.algo, beta, qmax)
        result = {"value": sv.value, "tail_bound": sv.tail_bound, "terms_used": sv.terms_used}
    # echoed only now: an order the series refused may be too long to print
    params = {"algo": args.algo, "beta": str(beta), "qmax": qmax}
    return result, params, {"arithmetic": "compensated-float", "tail_bound": sv.tail_bound}


def _do_asym(args) -> Tuple[Dict, Dict, Dict]:
    beta = _parse_beta(args.beta)
    lo, hi = _parse_range(args.n)
    if args.out:
        _check_out(args.out)
    rows = analysis.asymptotic_sweep(args.algo, beta, lo, hi, jobs=args.jobs)
    table = [{c: getattr(r, c) for c in ASYM_CSV_COLUMNS} for r in rows]
    result = {"rows": table}
    if args.out:
        import csv  # imported where CSV is written: most requests write none

        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=ASYM_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(table)
        _write_out(args.out, text.getvalue())
        result["out"] = args.out
    params = {
        "algo": args.algo,
        "beta": str(beta),
        "n": f"{lo}..{hi}",
        "jobs": args.jobs,
    }
    prov = {"arithmetic": "compensated-float", "L_tail_bound": rows[0].L_tail_bound}
    return result, params, prov


def _do_locate(args) -> Tuple[Dict, Dict, Dict]:
    theta = _parse_point(args.point)
    chain = locate_point(args.algo, theta, args.depth)
    steps = []
    for s in chain.steps:
        steps.append(
            {
                "depth": s.triangle.depth,
                "child_index": s.child_index,
                "vertices": [list(v) for v in s.triangle.vertices],
                "coefficients": [str(c) for c in s.coefficients],
            }
        )
    result = {
        "theta": [str(theta[0]), str(theta[1])],
        "chain": steps,
        "vertex_depth": chain.vertex_depth(),
    }
    params = {"algo": args.algo, "point": args.point, "depth": args.depth}
    return result, params, {"arithmetic": "exact"}


def _do_verify(args) -> Tuple[Dict, Dict, Dict]:
    selection = None
    if args.checks != "all":
        selection = [s.strip() for s in args.checks.split(",") if s.strip()]
    reports = run_checks(args.algo, args.depth, selection, jobs=args.jobs)
    result = {
        "reports": [r.to_dict() for r in reports],
        "passed": sum(r.status == PASS for r in reports),
        "failed": sum(r.status == FAIL for r in reports),
        "skipped": sum(r.status == SKIP for r in reports),
    }
    params = {
        "algo": args.algo,
        "depth": args.depth,
        "checks": args.checks,
        "jobs": args.jobs,
    }
    return result, params, {"arithmetic": "exact"}


def _do_classical(args) -> Tuple[Dict, Dict, Dict]:
    beta = _parse_beta(args.beta)
    exact = analysis.exact_mode(ALGO_CLASSICAL, args.depth, beta, True if args.exact else None)
    row = None
    if args.depth >= 2 and beta > 1:
        row = analysis.asymptotic_sweep(ALGO_CLASSICAL, beta, args.depth, args.depth)[0]
    if exact or row is None:
        sigma = analysis.classical_moment(args.depth, beta, exact=exact).value
    else:
        # the float moment is the same entry of the sweep behind the row
        sigma = row.sigma
    result: Dict = {"sigma": str(sigma) if exact else sigma, "exact": exact}
    prov: Dict = {"arithmetic": "exact" if exact else "compensated-float"}
    if row is not None:
        result.update(main_term=row.main_term, ratio=row.ratio, L_value=row.L_value)
        prov["L_tail_bound"] = row.L_tail_bound
    params = {"depth": args.depth, "beta": str(beta), "exact": bool(args.exact)}
    return result, params, prov


def _do_render(args) -> Tuple[Dict, Dict, Dict]:
    if not args.out:
        raise InvalidInputError("render needs --out PATH")
    _check_out(args.out)
    svg = render_svg(
        args.algo,
        args.depth,
        labels=args.labels,
        label_cap=args.label_cap,
    )
    _write_out(args.out, svg)
    if args.algo == ALGO_CLASSICAL:
        count = 2**args.depth
    else:
        count = svg.count("<polygon")
    result = {"out": args.out, "cells": count, "bytes": len(svg.encode("utf-8"))}
    params = {
        "algo": args.algo,
        "depth": args.depth,
        "labels": bool(args.labels),
        "label_cap": args.label_cap,
    }
    return result, params, {"arithmetic": "exact"}


# --- plumbing ----------------------------------------------------------------


def _add_common(sp, *, algo=None, depth=False, beta=False, jobs=False, out=False):
    if algo:
        sp.add_argument("--algo", choices=algo, required=True)
    if depth:
        sp.add_argument("--depth", type=int, required=True)
    if beta:
        sp.add_argument("--beta", required=True, help="order: decimal or p/q")
    if jobs:
        sp.add_argument("--jobs", type=int, default=1)
    if out:
        sp.add_argument("--out", help="output file path")
    sp.add_argument("--format", choices=["json", "csv", "table"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farey-brocot",
        description="Exact Stern-Brocot and 2-d Farey-Brocot partitions: "
        "tilings, censuses, series, moments, verification, rendering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("census", help="graph census of a tiling")
    _add_common(sp, algo=[ALGO_A, ALGO_B], depth=True, jobs=True)
    sp.set_defaults(handler=_do_census)

    sp = sub.add_parser("moments", help="moment of a tiling")
    _add_common(sp, algo=[ALGO_A, ALGO_B, ALGO_CLASSICAL], depth=True, beta=True, jobs=True)
    sp.add_argument("--exact", action="store_true", help="force exact rational arithmetic")
    sp.set_defaults(handler=_do_moments)

    sp = sub.add_parser("dirichlet", help="degree-weighted Dirichlet series")
    _add_common(sp, algo=[ALGO_A, ALGO_B, ALGO_CLASSICAL], beta=True)
    sp.add_argument("--qmax", type=int, default=0, help="head cutoff denominator")
    sp.add_argument("--tolerance", type=float, default=1e-12)
    sp.set_defaults(handler=_do_dirichlet)

    sp = sub.add_parser("asym", help="moment over main-term ratios for a depth range")
    _add_common(sp, algo=[ALGO_A, ALGO_B, ALGO_CLASSICAL], beta=True, jobs=True, out=True)
    sp.add_argument("--n", required=True, help="depth range A..B")
    sp.set_defaults(handler=_do_asym)

    sp = sub.add_parser("locate", help="nested triangles containing a rational point")
    _add_common(sp, algo=[ALGO_A, ALGO_B], depth=True)
    sp.add_argument("--point", required=True, help="rational point 'p1/q1,p2/q2'")
    sp.set_defaults(handler=_do_locate)

    sp = sub.add_parser("verify", help="run lemma and formula checks")
    _add_common(sp, algo=[ALGO_A, ALGO_B, ALGO_CLASSICAL], depth=True, jobs=True)
    sp.add_argument("--checks", default="all", help="comma-separated check names or 'all'")
    sp.set_defaults(handler=_do_verify)

    sp = sub.add_parser("classical", help="classical interval-partition moment and ratio")
    _add_common(sp, depth=True, beta=True)
    sp.add_argument("--exact", action="store_true")
    sp.set_defaults(handler=_do_classical)

    sp = sub.add_parser("render", help="render a tiling to SVG")
    _add_common(sp, algo=[ALGO_A, ALGO_B, ALGO_CLASSICAL], depth=True, out=True)
    sp.add_argument("--labels", action="store_true", help="label vertices '(a1,a2)/q'")
    sp.add_argument("--label-cap", type=int, default=200)
    sp.set_defaults(handler=_do_render)
    return parser


def _emit(record: Dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    elif fmt == "csv":
        _emit_csv(record)
    else:
        _emit_table(record)


def _emit_csv(record: Dict) -> None:
    import csv

    result = record["result"]
    writer = csv.writer(sys.stdout)
    if "rows" in result:
        writer.writerow(ASYM_CSV_COLUMNS)
        for row in result["rows"]:
            writer.writerow([row[c] for c in ASYM_CSV_COLUMNS])
    elif "reports" in result:
        writer.writerow(["name", "algo", "status", "checked", "witness"])
        for rep in result["reports"]:
            writer.writerow(
                [rep["name"], rep["algo"], rep["status"], rep["checked"],
                 json.dumps(rep["witness"], sort_keys=True) if rep["witness"] else ""]
            )
    else:
        keys = sorted(result)
        writer.writerow(keys)
        writer.writerow([_csv_cell(result[k]) for k in keys])


def _csv_cell(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value


def _emit_table(record: Dict) -> None:
    result = record["result"]
    out = sys.stdout
    out.write(f"command: {record['command']}\n")
    for k, v in sorted(record["parameters"].items()):
        out.write(f"  {k} = {v}\n")
    if "reports" in result:
        width = max(len(r["name"]) for r in result["reports"])
        for rep in result["reports"]:
            line = f"{rep['name']:<{width}}  {rep['status']:<7}  checked={rep['checked']}"
            if rep["witness"]:
                line += f"  witness={json.dumps(rep['witness'], sort_keys=True)}"
            out.write(line + "\n")
        out.write(
            f"passed={result['passed']} failed={result['failed']} skipped={result['skipped']}\n"
        )
    elif "rows" in result:
        out.write(",".join(ASYM_CSV_COLUMNS) + "\n")
        for row in result["rows"]:
            out.write(",".join(str(row[c]) for c in ASYM_CSV_COLUMNS) + "\n")
    else:
        for k, v in sorted(result.items()):
            out.write(f"{k}: {v}\n")
    out.write(f"wall_time_s: {record['wall_time_s']}\n")


def main(argv: Optional[List[str]] = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        t0 = time.perf_counter()
        try:
            if getattr(args, "jobs", 1) < 1:
                raise InvalidInputError(f"--jobs must be >= 1, got {args.jobs}")
            result, params, provenance = args.handler(args)
        except InvalidInputError as exc:
            return _fail_out(args, "invalid-input", exc, 2)
        except DomainError as exc:
            return _fail_out(args, "domain", exc, 1)
        except CapacityError as exc:
            return _fail_out(args, "capacity", exc, 1)
        record = {
            "command": args.command,
            "parameters": params,
            "result": result,
            "provenance": provenance,
            "wall_time_s": round(time.perf_counter() - t0, 6),
        }
        _emit(record, args.format)
        return 0
    finally:
        if enabled:
            gc.enable()


def _fail_out(args, kind: str, exc: Exception, code: int) -> int:
    if getattr(args, "format", "json") == "json":
        sys.stdout.write(
            json.dumps(
                {"error": {"type": kind, "message": str(exc)}}, sort_keys=True
            )
            + "\n"
        )
    sys.stderr.write(f"error ({kind}): {exc}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
