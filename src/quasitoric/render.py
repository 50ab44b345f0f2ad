"""Deterministic SVG rendering of planar polytopes, fans, and
configurations.

Every emitted coordinate is the 12-significant-digit decimal of an exact
value: scale factors and anchor points are computed in the field, and
each drawn point is converted to text once (`_xy`, which also flips the
vertical axis, as SVG y grows downward).  The viewport is sized from
those texts read back as Fractions, so identical inputs produce
byte-identical SVG.  Arrowheads come from a single marker definition,
which keeps the geometry square-root free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

from .configuration import VectorConfiguration
from .errors import DimensionTooHigh
from .fan import Fan
from .field import FieldElement, rational_field
from .polytope import HalfspaceRep, vertices_from_halfspaces

SIGNIFICANT_DIGITS = 12
_Q = rational_field()
_ORIGIN = ("0", "0")  # coordinate texts of the origin


@dataclass(frozen=True)
class RenderSpec:
    """Viewport bounds are rational (xmin, ymin, xmax, ymax); when absent
    they are computed from the geometry with a 1/4 relative margin."""
    viewport: Optional[tuple] = None
    labels: bool = True
    stroke_width: Fraction = Fraction(1, 50)


def render_svg(target, spec: RenderSpec = RenderSpec()) -> str:
    """SVG document for a polytope, fan, or (configuration, triangulation)
    pair; None renders a well-formed empty document."""
    if target is None:
        return _document([], (Fraction(0), Fraction(0), Fraction(1),
                              Fraction(1)), spec)
    if isinstance(target, HalfspaceRep):
        if target.dimension != 2:
            raise DimensionTooHigh("only n = 2 polytopes render")
        return _render_polytope(target, spec)
    if isinstance(target, Fan):
        if target.dimension != 2:
            raise DimensionTooHigh("only n = 2 fans render")
        return _render_fan(target, spec)
    if isinstance(target, tuple) and isinstance(target[0],
                                                VectorConfiguration):
        target, _ = target  # the triangulation is not drawn
    if isinstance(target, VectorConfiguration):
        if target.dimension != 2:
            raise DimensionTooHigh("only n = 2 configurations render")
        return _render_configuration(target, spec)
    raise TypeError(f"cannot render {type(target).__name__}")


# ---------------------------------------------------------------------------
# target renderers
# ---------------------------------------------------------------------------

def _render_polytope(H: HalfspaceRep, spec: RenderSpec) -> str:
    V = vertices_from_halfspaces(H)
    ordered = _order_around(V.vertices, _centroid(V.vertices))
    corners = [_xy(v) for v in ordered]
    bounds = spec.viewport or _bounds(corners)
    width, size = _sizes(bounds, spec)
    points = " ".join(f"{x},{y}" for x, y in corners)
    parts = [f'<polygon points="{points}" fill="#dce9f5" '
             f'stroke="#1f3a5f" stroke-width="{width}"/>']
    # inward normal arrows anchored at edge midpoints
    reach = _span(bounds) * Fraction(3, 20)
    for j, normal in enumerate(H.normals):
        edge = _edge_vertices(V, j)
        if not edge:
            continue
        mid = _centroid(edge)
        tip = _xy(_offset_point(mid, normal, reach))
        parts.append(_arrow(_xy(mid), tip, "#a03030", width))
        if spec.labels:
            parts.append(_label(tip, f"X{j + 1}", size))
    return _document(parts, bounds, spec)


def _render_fan(fan: Fan, spec: RenderSpec) -> str:
    tips = [_xy(_offset_point(None, ray, Fraction(1))) for ray in fan.rays]
    bounds = spec.viewport or _bounds(tips + [_ORIGIN])
    width, size = _sizes(bounds, spec)
    parts = []
    shades = ("#dce9f5", "#f5e9dc", "#e4f5dc", "#f5dcee", "#dcf2f5",
              "#eff5dc")
    maximal = [c for c in fan.maximal_cones() if len(c) >= 2]
    for idx, cone in enumerate(maximal):
        (x1, y1), (x2, y2) = tips[cone[0]], tips[cone[-1]]
        shade = shades[idx % len(shades)]
        parts.append(
            f'<path d="M 0 0 L {x1},{y1} L {x2},{y2} Z" fill="{shade}" '
            f'fill-opacity="0.6" stroke="none"/>')
    for j, tip in enumerate(tips):
        parts.append(_arrow(_ORIGIN, tip, "#1f3a5f", width))
        if spec.labels:
            parts.append(_label(tip, f"r{j + 1}", size))
    return _document(parts, bounds, spec)


def _render_configuration(config: VectorConfiguration,
                          spec: RenderSpec) -> str:
    scale = _uniform_scale(config.vectors)
    tips = [_xy([scale * x for x in v]) for v in config.vectors]
    bounds = spec.viewport or _bounds(tips + [_ORIGIN])
    width, size = _sizes(bounds, spec)
    parts = []
    for j, tip in enumerate(tips):
        ghost = j in config.ghosts
        color = "#8a8a8a" if ghost else "#1f3a5f"
        dash = ' stroke-dasharray="0.05 0.025"' if ghost else ""
        parts.append(_arrow(_ORIGIN, tip, color, width, dash))
        if spec.labels:
            suffix = "*" if ghost else ""
            parts.append(_label(tip, f"X{j + 1}{suffix}", size))
    return _document(parts, bounds, spec)


# ---------------------------------------------------------------------------
# exact plumbing
# ---------------------------------------------------------------------------

def _coord_text(x) -> str:
    if not isinstance(x, FieldElement):
        x = _Q.element(x)
    return x.decimal(SIGNIFICANT_DIGITS)


def _xy(v) -> tuple:
    """The two coordinate texts of a planar point, taken once per drawn
    point; y is negated because the SVG y axis points down."""
    return _coord_text(v[0]), _coord_text(-v[1])


def _centroid(points):
    field = points[0][0].field
    count = field.element(len(points))
    sx = points[0][0]
    sy = points[0][1]
    for p in points[1:]:
        sx = sx + p[0]
        sy = sy + p[1]
    return (sx / count, sy / count)


def _order_around(points, center):
    """Counterclockwise angular order by exact cross-product comparison."""
    def half(p):
        dy = (p[1] - center[1]).sign()
        if dy > 0:
            return 0
        if dy < 0:
            return 1
        return 0 if (p[0] - center[0]).sign() > 0 else 1

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        px, py = p[0] - center[0], p[1] - center[1]
        qx, qy = q[0] - center[0], q[1] - center[1]
        return -(px * qy - py * qx).sign()

    return sorted(points, key=cmp_to_key(cmp))


def _edge_vertices(V, facet: int):
    return [v for v, act in zip(V.vertices, V.active) if facet in act]


def _offset_point(base, direction, length: Fraction):
    """base + direction scaled so its largest coordinate equals length;
    exact (no square roots), deterministic."""
    field = direction[0].field
    mags = [x if x.sign() >= 0 else -x for x in direction]
    biggest = mags[0]
    for m in mags[1:]:
        if (m - biggest).sign() > 0:
            biggest = m
    factor = field.element(length) / biggest
    scaled = tuple(factor * x for x in direction)
    if base is None:
        return scaled
    return tuple(b + s for b, s in zip(base, scaled))


def _uniform_scale(vectors):
    field = vectors[0][0].field
    biggest = None
    for v in vectors:
        for x in v:
            m = x if x.sign() >= 0 else -x
            if biggest is None or (m - biggest).sign() > 0:
                biggest = m
    if biggest is None or biggest.is_zero():
        return field.one
    return field.one / biggest


def _bounds(points):
    """Viewport around point texts with a 1/4 relative margin, sized from
    the texts read back (decimal is odd, so -y is exact)."""
    xs = [Fraction(x) for x, _ in points]
    ys = [-Fraction(y) for _, y in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    margin = max(xmax - xmin, ymax - ymin, Fraction(1)) / 4
    return (xmin - margin, ymin - margin, xmax + margin, ymax + margin)


def _span(bounds) -> Fraction:
    return max(bounds[2] - bounds[0], bounds[3] - bounds[1])


def _sizes(bounds, spec: RenderSpec) -> tuple:
    """Stroke width and label font size texts of one document."""
    span = _span(bounds)
    return _coord_text(span * spec.stroke_width), _coord_text(span / 18)


def _arrow(start, tip, color, width, extra="") -> str:
    return (f'<line x1="{start[0]}" y1="{start[1]}" '
            f'x2="{tip[0]}" y2="{tip[1]}" stroke="{color}" '
            f'stroke-width="{width}" marker-end="url(#tip)"{extra}/>')


def _label(anchor, text, size) -> str:
    return (f'<text x="{anchor[0]}" y="{anchor[1]}" font-size="{size}" '
            f'font-family="sans-serif" fill="#222222">{text}</text>')


def _document(parts, bounds, spec: RenderSpec) -> str:
    xmin, ymin, xmax, ymax = bounds
    # flipped y: viewBox rows run from -ymax upward
    view = (_coord_text(xmin), _coord_text(-ymax),
            _coord_text(xmax - xmin), _coord_text(ymax - ymin))
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{view[0]} {view[1]} {view[2]} {view[3]}" '
        'width="640" height="640">\n'
        '<defs><marker id="tip" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>\n'
    )
    body = "\n".join(parts)
    return head + body + ("\n" if body else "") + "</svg>\n"
