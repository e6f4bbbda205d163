"""Plain SVG 1.1 renderings of tilings.

Triangles are emitted as one <polygon> element each (so the element
count equals the cell count), the depth-0 boundary as emphasized
<path> strokes, and optional vertex labels as <text>.  Output contains
no timestamps or environment data: identical requests give identical
bytes.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from .core import CapacityError, InvalidInputError, Vec
from .subdivision import ALGO_A, ALGO_B, ALGO_CLASSICAL, initial_vectors
from .tiling import brocot_level, iter_bases_at

RENDER_DEPTH_CAP = {ALGO_A: 6, ALGO_B: 16, ALGO_CLASSICAL: 16}
_SIZE, _MARGIN = 800, 40  # canvas width in pixels and the blank border inside it

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
)


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def render_svg(
    algo: str,
    depth: int,
    labels: bool = False,
    label_cap: int = 200,
) -> str:
    """Render the depth-n tiling; returns the SVG document as a string."""
    cap = RENDER_DEPTH_CAP.get(algo)
    if cap is None:
        raise InvalidInputError(f"unknown algorithm {algo!r}")
    if depth < 0:
        raise InvalidInputError("depth must be nonnegative")
    if depth > cap:
        raise CapacityError(f"render depth {depth} exceeds capacity {cap} for {algo!r}")
    if label_cap < 0:
        raise InvalidInputError(f"label cap must be nonnegative, got {label_cap}")
    if algo == ALGO_CLASSICAL:
        return _render_classical(depth, labels, label_cap)
    return _render_square(algo, depth, labels, label_cap)


def _render_square(algo: str, depth: int, labels: bool, label_cap: int) -> str:
    span = _SIZE - 2 * _MARGIN

    def xy(v: Vec) -> Tuple[str, str]:
        # Int true division is correctly rounded, so a1 / q is the float
        # of the reduced fraction a1/q.
        q, a1, a2 = v
        return _fmt(_MARGIN + a1 / q * span), _fmt(_MARGIN + (1.0 - a2 / q) * span)

    out: List[str] = [_HEADER.format(w=_SIZE, h=_SIZE)]
    out.append(f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="white"/>\n')
    out.append('<g fill="none" stroke="#555" stroke-width="0.6">\n')
    verts: Set[Vec] = set()
    for basis in iter_bases_at(algo, depth):
        pts = " ".join(",".join(xy(v)) for v in basis)
        out.append(f'<polygon points="{pts}"/>\n')
        verts.update(basis)
    out.append("</g>\n")
    out.append('<g fill="none" stroke="#000" stroke-width="2">\n')
    for basis in initial_vectors(algo):
        d = "M " + " L ".join(" ".join(xy(v)) for v in basis) + " Z"
        out.append(f'<path d="{d}"/>\n')
    out.append("</g>\n")
    if labels:
        out.append('<g font-family="monospace" font-size="10" fill="#a00">\n')
        for q, a1, a2 in sorted(verts)[:label_cap]:
            x, y = xy((q, a1, a2))
            out.append(f'<text x="{x}" y="{y}">({a1},{a2})/{q}</text>\n')
        out.append("</g>\n")
    out.append("</svg>\n")
    return "".join(out)


def _render_classical(depth: int, labels: bool, label_cap: int) -> str:
    span = _SIZE - 2 * _MARGIN
    height = 120
    base_y = height / 2
    out: List[str] = [_HEADER.format(w=_SIZE, h=height)]
    out.append(f'<rect x="0" y="0" width="{_SIZE}" height="{height}" fill="white"/>\n')
    out.append(
        f'<line x1="{_MARGIN}" y1="{_fmt(base_y)}" x2="{_SIZE - _MARGIN}" '
        f'y2="{_fmt(base_y)}" stroke="#000" stroke-width="2"/>\n'
    )
    level = brocot_level(depth)
    out.append('<g stroke="#555" stroke-width="1">\n')
    for f in level:
        x = _fmt(_MARGIN + float(f) * span)
        out.append(f'<line x1="{x}" y1="{_fmt(base_y - 12)}" x2="{x}" y2="{_fmt(base_y + 12)}"/>\n')
    out.append("</g>\n")
    if labels:
        out.append('<g font-family="monospace" font-size="10" fill="#a00">\n')
        for f in level[:label_cap]:
            x = _fmt(_MARGIN + float(f) * span)
            out.append(
                f'<text x="{x}" y="{_fmt(base_y - 18)}" text-anchor="middle">'
                f"{f.numerator}/{f.denominator}</text>\n"
            )
        out.append("</g>\n")
    out.append("</svg>\n")
    return "".join(out)
