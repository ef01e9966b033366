"""Deterministic SVG rendering of the rank-3 affine chart.

Rays and chambers live in the chart of coordinate-sum one; the three
standard rays go to fixed canvas corners and everything else follows by
affine combination.  This is the only place in the package where floating
point appears: coordinates are emitted with 12 significant digits
(IEEE round-half-even), elements in a fixed order, so output bytes are
identical across runs and platforms.

Each renderer takes only what it cannot work out: ``render_boundary``
draws ``fundamental_domain(sys)`` itself, and the two symmetric renderers
draw on ``symmetric.base_system()``.  The colours are the fixed table
``COLORS``, and the chart pictures of a system refuse m != 3.
"""

from __future__ import annotations

import math

from .atlas import fundamental_domain, project_affine
from .coxeter import CoxeterSystem
from .symmetric import base_system, d_classes

COLORS = {
    "background": "#ffffff",
    "nef": "#2b6cb0",
    "fundamental": "#c53030",
    "orbit": "#4a5568",
    "edge": "#1a202c",
    "conic": "#1a202c",
    "apex": "#2f855a",
    "proven": "#2f855a",
    "expected": "#d69e2e",
    "label": "#444444",
}


# The canvas: a 900 x 800 viewBox at the origin, with the standard rays
# e1, e2, e3 of the sum-one chart at these corner anchors.
WIDTH, HEIGHT = 900.0, 800.0
CORNERS = ((WIDTH / 6.0, 2.0 * HEIGHT / 3.0),
           (5.0 * WIDTH / 6.0, 2.0 * HEIGHT / 3.0),
           (WIDTH / 2.0, HEIGHT / 6.0))


def fnum(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"svg coordinate {x} is not finite")
    s = format(x, ".12g")
    return "0" if s in ("-0", "-0.0") else s


def chart_xy(vec) -> tuple[float, float]:
    """Canvas position of a ray: normalize to the sum-one chart, then take
    the affine combination of the corner anchors."""
    hat = [float(x) for x in project_affine(vec)]
    x = sum(h * c[0] for h, c in zip(hat, CORNERS))
    y = sum(h * c[1] for h, c in zip(hat, CORNERS))
    return x, y


def _points_attr(pts) -> str:
    return " ".join(f"{fnum(x)},{fnum(y)}" for x, y in pts)


def polygon(pts, fill, opacity, stroke, width=1.0) -> str:
    return (f'<polygon points="{_points_attr(pts)}" fill="{fill}" '
            f'fill-opacity="{fnum(opacity)}" stroke="{stroke}" '
            f'stroke-width="{fnum(width)}"/>')


def segment(p, q, stroke, width=2.0) -> str:
    return (f'<line x1="{fnum(p[0])}" y1="{fnum(p[1])}" x2="{fnum(q[0])}" '
            f'y2="{fnum(q[1])}" stroke="{stroke}" stroke-width="{fnum(width)}"/>')


def disc(p, r, fill) -> str:
    return f'<circle cx="{fnum(p[0])}" cy="{fnum(p[1])}" r="{fnum(r)}" fill="{fill}"/>'


def text(p, s, fill) -> str:
    return (f'<text x="{fnum(p[0])}" y="{fnum(p[1])}" fill="{fill}" '
            f'font-size="18" font-family="sans-serif">{s}</text>')


def conic_ellipse(sys: CoxeterSystem) -> str:
    """The invariant quadric as a canvas ellipse: every system drawn here has
    m = 3 and n >= 2, so it is Lorentzian and the quadric meets the chart
    plane in an ellipse (the chart section of a round cone)."""
    rows = sys.quadric_matrix().rows  # integral entries
    # any positive multiple of the quadric has the same conic: scale the
    # entries to at most 53 bits, so that each float is finite at any n
    bits = max(abs(e.numerator).bit_length() for row in rows for e in row)
    scale = 1 << max(0, bits - 53)
    q = [[e.numerator / scale for e in row] for row in rows]

    def form(u, v):
        return sum(u[a] * q[a][b] * v[b] for a in range(3) for b in range(3))

    # barycentric chart: v(x, y) = w0 + x*u1 + y*u2
    u1, u2, w0 = (1.0, 0.0, -1.0), (0.0, 1.0, -1.0), (0.0, 0.0, 1.0)
    k = [[form(u1, u1), form(u1, u2), form(u1, w0)],
         [form(u2, u1), form(u2, u2), form(u2, w0)],
         [form(w0, u1), form(w0, u2), form(w0, w0)]]

    c1, c2, c3 = CORNERS
    # canvas = M * (x, y) + c3  with columns c1-c3 and c2-c3
    m11, m12 = c1[0] - c3[0], c2[0] - c3[0]
    m21, m22 = c1[1] - c3[1], c2[1] - c3[1]
    det = m11 * m22 - m12 * m21
    # inverse affine: chart = T * (X, Y, 1) in homogeneous coordinates
    t = [[m22 / det, -m12 / det, (m12 * c3[1] - m22 * c3[0]) / det],
         [-m21 / det, m11 / det, (m21 * c3[0] - m11 * c3[1]) / det],
         [0.0, 0.0, 1.0]]
    kc = [[sum(t[a][r] * k[a][b] * t[b][s] for a in range(3) for b in range(3))
           for s in range(3)] for r in range(3)]

    a, b, c = kc[0][0], kc[0][1], kc[1][1]
    d2 = a * c - b * b
    cx = (b * kc[1][2] - c * kc[0][2]) / d2
    cy = (b * kc[0][2] - a * kc[1][2]) / d2
    f0 = kc[0][2] * cx + kc[1][2] * cy + kc[2][2]
    half_tr = (a + c) / 2.0
    diff = math.hypot((a - c) / 2.0, b)
    lam1, lam2 = half_tr + diff, half_tr - diff
    r1, r2 = math.sqrt(-f0 / lam1), math.sqrt(-f0 / lam2)
    angle = 0.5 * math.degrees(math.atan2(2.0 * b, a - c))
    color = COLORS["conic"]
    return (f'<ellipse cx="{fnum(cx)}" cy="{fnum(cy)}" rx="{fnum(r1)}" '
            f'ry="{fnum(r2)}" transform="rotate({fnum(angle)} {fnum(cx)} '
            f'{fnum(cy)})" fill="none" stroke="{color}" stroke-width="1.5" '
            f'stroke-dasharray="7 5"/>')


def _document(sys: CoxeterSystem, under: list[str], over: list[str]) -> str:
    """The SVG document: background, the ``under`` elements, the quadric,
    then the ``over`` elements."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
         f'viewBox="0 0 {fnum(WIDTH)} {fnum(HEIGHT)}">'),
        (f'<rect x="0" y="0" width="{fnum(WIDTH)}" height="{fnum(HEIGHT)}" '
         f'fill="{COLORS["background"]}"/>'),
        *under, conic_ellipse(sys), *over, "</svg>",
    ]
    return "\n".join(lines) + "\n"


def _labels(labels: bool, named) -> list[str]:
    """A text label beside each ``(name, ray)`` when ``labels`` is set."""
    if not labels:
        return []
    out = []
    for name, ray in named:
        x, y = chart_xy(ray)
        out.append(text((x + 8, y - 8), name, COLORS["label"]))
    return out


def _chamber_style(word_len: int) -> tuple[str, float]:
    if word_len == 0:
        return COLORS["nef"], 0.85
    if word_len == 1:
        return COLORS["fundamental"], 0.8
    return COLORS["orbit"], max(0.08, 0.5 * (0.72 ** (word_len - 2)))


def _require_chart(sys: CoxeterSystem):
    if sys.m != 3:  # the affine chart is the rank-3 one
        raise ValueError("svg output needs m = 3")


def _tiling(sys: CoxeterSystem, labels: bool, tiles) -> str:
    """``(level, rays)`` tiles as polygons, deepest first, styled by
    ``_chamber_style(level)``, with the H1-H3 labels over the quadric."""
    under = []
    for level, rays in sorted(tiles, key=lambda tile: -tile[0]):
        fill, opacity = _chamber_style(level)
        under.append(polygon([chart_xy(r) for r in rays], fill, opacity,
                             COLORS["edge"], 0.75))
    hyperplanes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return _document(sys, under,
                     _labels(labels, zip(("H1", "H2", "H3"), hyperplanes)))


def render_chambers(sys: CoxeterSystem, chambers, labels: bool = False) -> str:
    """Chamber tiling in the chart: nef cone and fundamental region
    highlighted, orbit depth encoded by fill opacity, quadric overlaid."""
    _require_chart(sys)
    return _tiling(sys, labels, [(len(ch.word), ch.rays) for ch in chambers])


def render_boundary(sys: CoxeterSystem, patches) -> str:
    """Boundary sampling: fundamental region outline, quadric, and the
    patch cones (apex-to-ray segments, or single rays when the apex is
    zero).  The picture has no labels."""
    _require_chart(sys)
    under, over = [], []
    for ch in fundamental_domain(sys):
        pts = [chart_xy(r) for r in ch.rays]
        fill, _ = _chamber_style(len(ch.word))
        under.append(polygon(pts, fill, 0.25, COLORS["edge"], 0.75))
    for p in patches:
        ray_pts = [chart_xy(r) for r in p.base_rays]
        if p.has_apex:
            apex_pt = chart_xy(p.apex)
            for rp in ray_pts:
                over.append(segment(apex_pt, rp, COLORS["proven"], 1.5))
            over.append(disc(apex_pt, 3.0, COLORS["apex"]))
        for rp in ray_pts:
            over.append(disc(rp, 2.5, COLORS["nef"]))
    return _document(sys, under, over)


def render_symmetric_movable(cones, labels: bool = False) -> str:
    """Quadrilateral tiling of the movable cone in the symmetric case."""
    tiles = [(cone.word.syllable_length + 1, cone.rays) for cone in cones]
    return _tiling(base_system(), labels, tiles)


def render_symmetric_psef(patches, labels: bool = False) -> str:
    """Expected pseudoeffective picture: the quadric plus the proven
    boundary segments and the conjectural cones glued tangentially."""
    under, over = [], []
    for p in patches:
        pts = [chart_xy(r) for r in p.rays]
        if p.status == "expected":
            under.append(polygon(pts, COLORS["expected"], 0.3,
                                 COLORS["expected"], 0.5))
        elif p.status == "proven":
            over.append(segment(pts[0], pts[1], COLORS["proven"], 2.0))
            over.extend(disc(pt, 2.5, COLORS["proven"]) for pt in pts)
    over += _labels(labels, zip(("D1", "D2"), d_classes()))
    return _document(base_system(), under, over)
