"""Deterministic SVG rendering of planar polytopes, fans, and
configurations.

Every emitted coordinate is the 12-significant-digit decimal of an exact
value: viewports, scale factors, and anchor points are computed in the
field (or in Fractions) and only converted to text at the last moment,
so identical inputs produce byte-identical SVG.  Arrowheads come from a
single marker definition, which keeps the geometry square-root free.
The vertical axis is flipped during emission (SVG y grows downward).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

from .configuration import Triangulation, VectorConfiguration
from .errors import DimensionTooHigh
from .fan import Fan
from .field import FieldElement, rational_field
from .polytope import HalfspaceRep, vertices_from_halfspaces

SIGNIFICANT_DIGITS = 12
_Q = rational_field()


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
        config, triangulation = target
        if config.dimension != 2:
            raise DimensionTooHigh("only n = 2 configurations render")
        return _render_configuration(config, triangulation, spec)
    if isinstance(target, VectorConfiguration):
        if target.dimension != 2:
            raise DimensionTooHigh("only n = 2 configurations render")
        return _render_configuration(target, None, spec)
    raise TypeError(f"cannot render {type(target).__name__}")


# ---------------------------------------------------------------------------
# target renderers
# ---------------------------------------------------------------------------

def _render_polytope(H: HalfspaceRep, spec: RenderSpec) -> str:
    V = vertices_from_halfspaces(H)
    centroid = _centroid(V.vertices)
    ordered = _order_around(V.vertices, centroid)
    bounds = spec.viewport or _bounds([_approx_pair(v) for v in ordered])
    parts = []
    points = " ".join(_pair_text(v) for v in ordered)
    parts.append(f'<polygon points="{points}" fill="#dce9f5" '
                 f'stroke="#1f3a5f" stroke-width="{_w(spec, bounds)}"/>')
    # inward normal arrows anchored at edge midpoints
    span = _span(bounds)
    for j, (normal, _) in enumerate(zip(H.normals, H.offsets)):
        edge = _edge_vertices(V, j)
        if not edge:
            continue
        mid = _centroid(edge)
        tip = _offset_point(mid, normal, span * Fraction(3, 20))
        parts.append(_arrow(mid, tip, "#a03030", _w(spec, bounds)))
        if spec.labels:
            parts.append(_label(tip, f"X{j + 1}", span))
    return _document(parts, bounds, spec)


def _render_fan(fan: Fan, spec: RenderSpec) -> str:
    radius = Fraction(1)
    tips = [_offset_point(None, ray, radius) for ray in fan.rays]
    bounds = spec.viewport or _bounds([_approx_pair(t) for t in tips]
                                      + [(Fraction(0), Fraction(0))])
    parts = []
    shades = ("#dce9f5", "#f5e9dc", "#e4f5dc", "#f5dcee", "#dcf2f5",
              "#eff5dc")
    maximal = [c for c in fan.maximal_cones() if len(c) >= 2]
    for idx, cone in enumerate(maximal):
        first, last = cone[0], cone[-1]
        shade = shades[idx % len(shades)]
        parts.append(
            f'<path d="M 0 0 L {_pair_text(tips[first])} '
            f'L {_pair_text(tips[last])} Z" fill="{shade}" '
            f'fill-opacity="0.6" stroke="none"/>')
    origin = None
    for j, tip in enumerate(tips):
        parts.append(_arrow(origin, tip, "#1f3a5f", _w(spec, bounds)))
        if spec.labels:
            parts.append(_label(tip, f"r{j + 1}", _span(bounds)))
    return _document(parts, bounds, spec)


def _render_configuration(config: VectorConfiguration,
                          triangulation: Optional[Triangulation],
                          spec: RenderSpec) -> str:
    scale = _uniform_scale(config.vectors)
    tips = [tuple(scale * x for x in v) for v in config.vectors]
    bounds = spec.viewport or _bounds([_approx_pair(t) for t in tips]
                                      + [(Fraction(0), Fraction(0))])
    parts = []
    for j, tip in enumerate(tips):
        ghost = j in config.ghosts
        color = "#8a8a8a" if ghost else "#1f3a5f"
        dash = ' stroke-dasharray="0.05 0.025"' if ghost else ""
        parts.append(_arrow(None, tip, color, _w(spec, bounds), dash))
        if spec.labels:
            suffix = "*" if ghost else ""
            parts.append(_label(tip, f"X{j + 1}{suffix}", _span(bounds)))
    return _document(parts, bounds, spec)


# ---------------------------------------------------------------------------
# exact plumbing
# ---------------------------------------------------------------------------

def _approx(x) -> Fraction:
    """Rational stand-in used only for viewport sizing."""
    if isinstance(x, FieldElement):
        return Fraction(x.decimal(SIGNIFICANT_DIGITS))
    return Fraction(x)


def _approx_pair(v):
    return (_approx(v[0]), _approx(v[1]))


def _coord_text(x) -> str:
    if not isinstance(x, FieldElement):
        x = _Q.element(x)
    return x.decimal(SIGNIFICANT_DIGITS)


def _pair_text(v) -> str:
    # SVG y axis points down: flip the second coordinate
    return f"{_coord_text(v[0])},{_coord_text(_negate(v[1]))}"


def _negate(x):
    return -x


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


def _bounds(pairs):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    margin = max(xmax - xmin, ymax - ymin, Fraction(1)) / 4
    return (xmin - margin, ymin - margin, xmax + margin, ymax + margin)


def _span(bounds) -> Fraction:
    return max(bounds[2] - bounds[0], bounds[3] - bounds[1])


def _w(spec: RenderSpec, bounds) -> str:
    return _coord_text(_span(bounds) * spec.stroke_width)


def _arrow(base, tip, color, width, extra="") -> str:
    start = _pair_text(base) if base is not None else "0,0"
    return (f'<line x1="{start.split(",")[0]}" y1="{start.split(",")[1]}" '
            f'x2="{_pair_text(tip).split(",")[0]}" '
            f'y2="{_pair_text(tip).split(",")[1]}" stroke="{color}" '
            f'stroke-width="{width}" marker-end="url(#tip)"{extra}/>')


def _label(anchor, text, span: Fraction) -> str:
    size = _coord_text(span / 18)
    x = _coord_text(anchor[0])
    y = _coord_text(_negate(anchor[1]))
    return (f'<text x="{x}" y="{y}" font-size="{size}" '
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
