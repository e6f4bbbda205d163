"""Compare CLI payloads against recorded references.

Exact fields (ints, strings such as ``p/q`` rationals, booleans, census
counts, SVG polygon counts and sizes) must match exactly.  Floats match
within ``FLOAT_REL_TOL``, so a last-ulp rounding change passes and a
wrong answer does not.  The canonical payload drops ``wall_time_s`` and
``parameters.jobs``: a ``--jobs 2`` request is checked against its
``jobs=1`` reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Tuple

FLOAT_REL_TOL = 1e-9


def canonical(record: Dict[str, Any]) -> Dict[str, Any]:
    out = {k: v for k, v in record.items() if k != "wall_time_s"}
    if isinstance(out.get("parameters"), dict):
        out["parameters"] = {k: v for k, v in out["parameters"].items() if k != "jobs"}
    return out


def canonical_text(record: Dict[str, Any]) -> str:
    return json.dumps(canonical(record), sort_keys=True, ensure_ascii=False)


def mismatches(got: Any, want: Any, path: str = "$") -> List[str]:
    """Every place where `got` differs from `want`, as readable strings."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} differs from {want!r} beyond rel {FLOAT_REL_TOL}"]
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out: List[str] = []
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                out.append(f"{path}.{key}: present on one side only")
            else:
                out.extend(mismatches(got[key], want[key], f"{path}.{key}"))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected a list of {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(mismatches(g, w, f"{path}[{i}]"))
        return out
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def _has_float(value: Any) -> bool:
    if isinstance(value, float):
        return True
    if isinstance(value, dict):
        return any(_has_float(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_float(v) for v in value)
    return False


def digest(record: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_text(record).encode("utf-8")).hexdigest()


def svg_facts(path: Path) -> Dict[str, int]:
    data = path.read_bytes()
    return {"bytes": len(data), "polygons": data.count(b"<polygon")}


def observed(stdout: bytes, root: Path) -> Dict[str, Any]:
    """What a request produced: its canonical payload (or, when the payload
    holds no floats and so must match byte for byte, its SHA-256) and,
    for renders, the facts of the SVG file it wrote."""
    record = json.loads(stdout.decode("utf-8").strip().splitlines()[-1])
    payload = canonical(record)
    obs: Dict[str, Any] = {"payload": payload} if _has_float(payload) else {"payload_sha256": digest(payload)}
    if record.get("command") == "render":
        obs["svg"] = svg_facts(root / record["result"]["out"])
    return obs


def check(stdout: bytes, root: Path, reference: Dict[str, Any]) -> Tuple[List[str], bool]:
    """(mismatches against `reference`, whether the canonical payload is
    byte-identical to the recorded one)."""
    try:
        obs = observed(stdout, root)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        return [f"unreadable output: {exc}"], False
    problems = mismatches(obs, reference)
    if "payload" in obs and "payload" in reference:
        identical = canonical_text(obs["payload"]) == canonical_text(reference["payload"])
    else:
        identical = obs.get("payload_sha256") == reference.get("payload_sha256")
    return problems, identical
