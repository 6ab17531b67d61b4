"""Deterministic SVG rendering of configurations and solution conics.

Conics are drawn from their canonical affine form: eigen-decompose the 2x2
block in closed form, build the center/axes (or the parabola axis), sample a
fixed number of parameter values per branch, and map back. Output is
byte-stable for identical input: fixed sample counts, fixed float formatting,
no timestamps.
"""
from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .conics import ConicClass, ConicMatrix, classify
from .projective import _finite, _vec

SAMPLES = 512
CANVAS_W = 640.0
CANVAS_H = 480.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

Viewport = tuple[float, float, float, float]
DEFAULT_VIEWPORT: Viewport = (-5.0, -5.0, 5.0, 5.0)


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return f"{x:.4f}"


class _Mapper:
    """World-to-screen transform with uniform scale and a small margin."""

    def __init__(self, viewport: Viewport):
        xmin, ymin, xmax, ymax = viewport
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("viewport must have positive extent")
        self.viewport = viewport
        margin = 20.0
        sx = (CANVAS_W - 2 * margin) / (xmax - xmin)
        sy = (CANVAS_H - 2 * margin) / (ymax - ymin)
        self.scale = min(sx, sy)
        self.cx = 0.5 * (xmin + xmax)
        self.cy = 0.5 * (ymin + ymax)

    def to_screen(self, x: float, y: float) -> tuple[float, float]:
        return (
            CANVAS_W / 2 + (x - self.cx) * self.scale,
            CANVAS_H / 2 - (y - self.cy) * self.scale,
        )

    def contains(self, x: float, y: float, slack: float = 0.5) -> bool:
        xmin, ymin, xmax, ymax = self.viewport
        dx = slack * (xmax - xmin)
        dy = slack * (ymax - ymin)
        return (xmin - dx) <= x <= (xmax + dx) and (ymin - dy) <= y <= (ymax + dy)


def _conic_center(cm: ConicMatrix) -> Optional[tuple[float, float]]:
    det = cm.a * cm.c - cm.b * cm.b
    scale = max(abs(cm.a), abs(cm.b), abs(cm.c))
    if scale == 0.0 or abs(det) <= 1e-12 * scale * scale:
        return None
    x0 = (-cm.d * cm.c + cm.e * cm.b) / det
    y0 = (-cm.a * cm.e + cm.b * cm.d) / det
    return (x0, y0)


def _axes(cm: ConicMatrix):
    """The eigenvalues of the leading block (a b; b c) of cm, the larger in
    magnitude first, each with its unit eigenvector, in closed form.

    The eigenvector (cos t, sin t) with t = atan2(2b, a - c) / 2 has the
    eigenvalue (a + c)/2 + hypot((a - c)/2, b), and (-sin t, cos t) the one
    with the minus sign. The larger in magnitude takes the sign of a + c, and
    the smaller is det / larger, which does not cancel as the difference of
    the two terms does when the block is nearly singular (a parabola).
    """
    a, b, c = cm.a, cm.b, cm.c
    t = 0.5 * math.atan2(2.0 * b, a - c)
    u = (math.cos(t), math.sin(t))
    w = (-u[1], u[0])
    half, rad = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    big, vb, vs = (half + rad, u, w) if half >= 0.0 else (half - rad, w, u)
    return (big, vb), ((a * c - b * b) / big, vs)


def sample_conic(cm: ConicMatrix, viewport: Viewport) -> list[list[tuple[float, float]]]:
    """Sample a non-degenerate conic into one or more polyline branches of
    SAMPLES segments each.

    An ellipse is one closed loop, a hyperbola two branches, a parabola one
    open branch. Branches are world-coordinate polylines, already restricted
    to a generous neighborhood of the viewport.
    """
    kind = classify(cm)
    xmin, ymin, xmax, ymax = viewport
    reach = 2.0 * math.hypot(xmax - xmin, ymax - ymin)
    branches: list[list[tuple[float, float]]] = []

    if kind in (ConicClass.REAL_ELLIPSE, ConicClass.HYPERBOLA):
        center = _conic_center(cm)
        if center is None:
            return []
        x0, y0 = center
        fc = cm.point_value((x0, y0, 1.0))
        (lam1, v1), (lam2, v2) = _axes(cm)

        if kind is ConicClass.REAL_ELLIPSE:
            r1 = math.sqrt(max(-fc / lam1, 0.0))
            r2 = math.sqrt(max(-fc / lam2, 0.0))
            loop = []
            for i in range(SAMPLES + 1):
                th = 2.0 * math.pi * i / SAMPLES
                u, s = r1 * math.cos(th), r2 * math.sin(th)
                loop.append((x0 + u * v1[0] + s * v2[0], y0 + u * v1[1] + s * v2[1]))
            branches.append(loop)
        else:
            # order the axes so the first one carries the cosh direction
            if -fc / lam1 > 0.0:
                lp, ln, vp, vn = lam1, lam2, v1, v2
            else:
                lp, ln, vp, vn = lam2, lam1, v2, v1
            r1 = math.sqrt(-fc / lp)
            r2 = math.sqrt(fc / ln)
            umax = math.asinh(max(reach / min(r1, r2), 2.0))
            for sign in (1.0, -1.0):
                br = []
                for i in range(SAMPLES + 1):
                    u = -umax + 2.0 * umax * i / SAMPLES
                    cu, su = math.cosh(u), math.sinh(u)
                    px = x0 + sign * r1 * cu * vp[0] + r2 * su * vn[0]
                    py = y0 + sign * r1 * cu * vp[1] + r2 * su * vn[1]
                    br.append((px, py))
                branches.append(br)

    elif kind is ConicClass.PARABOLA:
        (lam, v1), (_, v2) = _axes(cm)  # v1 the curved coordinate, v2 the axis
        # rotated frame: lam*u^2 + 2*du*u + 2*dv*s + f = 0  ->  s(u)
        du = cm.d * v1[0] + cm.e * v1[1]
        dv = cm.d * v2[0] + cm.e * v2[1]
        if abs(dv) < 1e-14:
            return []
        br = []
        for i in range(SAMPLES + 1):
            u = -reach + 2.0 * reach * i / SAMPLES
            s = -(lam * u * u + 2.0 * du * u + cm.f) / (2.0 * dv)
            br.append((u * v1[0] + s * v2[0], u * v1[1] + s * v2[1]))
        branches.append(br)
    else:
        return []

    mapper = _Mapper(viewport)
    clipped: list[list[tuple[float, float]]] = []
    for br in branches:
        run: list[tuple[float, float]] = []
        for pt in br:
            if mapper.contains(*pt):
                run.append(pt)
            elif run:
                clipped.append(run)
                run = []
        if run:
            clipped.append(run)
    return [c for c in clipped if len(c) >= 2]


def _line_segment(l, viewport: Viewport) -> Optional[tuple]:
    xmin, ymin, xmax, ymax = viewport
    a, b, c = _vec(l)
    pts = []
    if abs(b) > 1e-15:
        for x in (xmin, xmax):
            y = -(a * x + c) / b
            if ymin - 1e-9 <= y <= ymax + 1e-9:
                pts.append((x, y))
    if abs(a) > 1e-15:
        for y in (ymin, ymax):
            x = -(b * y + c) / a
            if xmin - 1e-9 <= x <= xmax + 1e-9:
                pts.append((x, y))
    dedup: list[tuple[float, float]] = []
    for p in pts:
        if not any(math.hypot(p[0] - q[0], p[1] - q[1]) < 1e-9 for q in dedup):
            dedup.append(p)
    if len(dedup) < 2:
        return None
    return dedup[0], dedup[1]


def render_svg(
    points: Sequence,
    lines: Sequence,
    conics: Iterable[ConicMatrix],
    viewport: Viewport = DEFAULT_VIEWPORT,
) -> str:
    """Render a configuration and its solution conics as an SVG document; a
    point may also be given as [x, y], read as (x, y, 1)."""
    mapper = _Mapper(viewport)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int(CANVAS_W)}" height="{int(CANVAS_H)}" '
        f'viewBox="0 0 {int(CANVAS_W)} {int(CANVAS_H)}">',
        f'<rect width="{int(CANVAS_W)}" height="{int(CANVAS_H)}" fill="white"/>',
    ]

    conic_list = list(conics)
    for ci, cm in enumerate(conic_list):
        color = PALETTE[ci % len(PALETTE)]
        for branch in sample_conic(cm, viewport):
            coords = " ".join(
                f"{_fmt(sx)},{_fmt(sy)}"
                for sx, sy in (mapper.to_screen(x, y) for x, y in branch)
            )
            closed = branch[0] == branch[-1]
            tag = "polygon" if closed else "polyline"
            out.append(
                f'<{tag} points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5" class="conic"/>'
            )

    for l in lines:
        seg = _line_segment(l, viewport)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = seg
        sx1, sy1 = mapper.to_screen(x1, y1)
        sx2, sy2 = mapper.to_screen(x2, y2)
        out.append(
            f'<line x1="{_fmt(sx1)}" y1="{_fmt(sy1)}" x2="{_fmt(sx2)}" '
            f'y2="{_fmt(sy2)}" stroke="#555555" stroke-width="1" class="input-line"/>'
        )

    for pi, p in enumerate(points):
        v = _vec(p if hasattr(p, "vec") or len(p) > 2 else (p[0], p[1], 1.0))
        if not _finite(v):
            continue  # a point at infinity, or with an inf or NaN coordinate, has no dot
        x, y = v[0] / v[2], v[1] / v[2]
        sx, sy = mapper.to_screen(x, y)
        out.append(
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3.5" fill="black" class="input-point"/>'
        )
        out.append(
            f'<text x="{_fmt(sx + 6.0)}" y="{_fmt(sy - 6.0)}" font-size="12" '
            f'font-family="sans-serif">P{pi + 1}</text>'
        )

    if not conic_list:
        out.append(
            f'<text x="{_fmt(CANVAS_W / 2)}" y="30" font-size="16" '
            'font-family="sans-serif" text-anchor="middle" class="banner">'
            "0 real solutions</text>"
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
