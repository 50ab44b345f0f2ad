import hashlib
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q
from quasitoric import documents as docs
from quasitoric.configuration import Triangulation, VectorConfiguration
from quasitoric.corpus import (
    kite_configuration_data,
    pentagon_facets,
    pentagon_field,
    sqrt2_field,
    trapezoid_facets,
)
from quasitoric.errors import DimensionTooHigh
from quasitoric.fan import normal_fan
from quasitoric.field import FieldElement
from quasitoric.polytope import HalfspaceRep, halfspaces_from_vertices
from quasitoric.render import (
    SIGNIFICANT_DIGITS,
    RenderSpec,
    _coord_text,
    render_svg,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def sha256(svg: str) -> str:
    return hashlib.sha256(svg.encode("utf-8")).hexdigest()


def parse(svg: str):
    return ET.fromstring(svg)


class TestPolytopeRender:
    def test_pentagon_structure(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        svg = render_svg(H)
        root = parse(svg)
        polygons = root.findall(f"{SVG_NS}polygon")
        assert len(polygons) == 1
        points = polygons[0].attrib["points"].split()
        assert len(points) == 5
        arrows = root.findall(f"{SVG_NS}line")
        assert len(arrows) == 5
        labels = [t.text for t in root.findall(f"{SVG_NS}text")]
        assert labels == ["X1", "X2", "X3", "X4", "X5"]

    def test_labels_can_be_disabled(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        svg = render_svg(H, RenderSpec(labels=False))
        assert parse(svg).findall(f"{SVG_NS}text") == []

    def test_coordinates_are_twelve_significant_digits(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        svg = render_svg(H)
        # the apothem-1 pentagon vertex y = tan(36 deg) at full precision
        assert "0.726542528005" in svg
        # and the circumradius 1/cos(36 deg) on the negative x axis
        assert "-1.23606797750" in svg

    def test_explicit_viewport(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        vp = (Fraction(-2), Fraction(-2), Fraction(2), Fraction(2))
        svg = render_svg(H, RenderSpec(viewport=vp))
        assert 'viewBox="-2.00000000000 -2.00000000000 ' \
               '4.00000000000 4.00000000000"' in svg

    def test_each_point_converted_once(self, monkeypatch):
        """Every drawn point (5 vertices, 5 edge midpoints, 5 arrow tips)
        costs two decimals; the stroke width, the label size and the four
        viewBox numbers are the document's only other conversions."""
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        calls = []
        decimal = FieldElement.decimal

        def counting(self, *args):
            calls.append(self)
            return decimal(self, *args)

        monkeypatch.setattr(FieldElement, "decimal", counting)
        render_svg(H)
        assert len(calls) <= 2 * 15 + 6


class TestFanRender:
    def test_trapezoid_fan_rays(self):
        k = sqrt2_field()
        fan = normal_fan(HalfspaceRep(2, trapezoid_facets(k, k.alpha)))
        svg = render_svg(fan)
        root = parse(svg)
        assert len(root.findall(f"{SVG_NS}line")) == 4
        # four shaded sectors (plus the marker path in defs)
        paths = root.findall(f"{SVG_NS}path")
        assert len(paths) == 4

    def test_trapezoid_fan_document_bytes(self):
        """The trapezoid's normal fan, read back from its fan document,
        renders to pinned bytes."""
        k = sqrt2_field()
        fan = normal_fan(HalfspaceRep(2, trapezoid_facets(k, k.alpha)))
        svg = render_svg(docs.fan_from_doc(docs.fan_to_doc(fan)))
        assert len(svg) == 1750
        assert sha256(svg) == ("8e3130ed7a6f8e03f6b604e0a0b73e18"
                               "ec39c3f901466a9326305184c3c2ea0c")

    def test_dimension_guard(self):
        from quasitoric.corpus import twisted_cube_fan_data
        from quasitoric.fan import Fan
        rays, cones = twisted_cube_fan_data(Q)
        with pytest.raises(DimensionTooHigh):
            render_svg(Fan(3, rays, cones))
        pts = [tuple(Q.element(x) for x in p) for p in
               [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]]
        with pytest.raises(DimensionTooHigh):
            render_svg(halfspaces_from_vertices(pts))


class TestConfigurationRender:
    def test_kite_ghost_dashed(self):
        k = pentagon_field()
        vectors, maximal, ghosts = kite_configuration_data(k)
        config = VectorConfiguration(2, vectors, ghosts)
        svg = render_svg((config, Triangulation(maximal)))
        root = parse(svg)
        lines = root.findall(f"{SVG_NS}line")
        assert len(lines) == 5
        dashed = [l for l in lines if "stroke-dasharray" in l.attrib]
        assert len(dashed) == 1
        labels = [t.text for t in root.findall(f"{SVG_NS}text")]
        assert "X5*" in labels

    def test_kite_bytes(self):
        k = pentagon_field()
        vectors, maximal, ghosts = kite_configuration_data(k)
        config = VectorConfiguration(2, vectors, ghosts)
        svg = render_svg((config, Triangulation(maximal)))
        assert len(svg) == 1647
        assert sha256(svg) == ("3218e39b42ac0f2dfa07537a5555ada2"
                               "d154c07fe4866502cb0569603daf21cd")


class TestDocumentProperties:
    def test_empty_render(self):
        svg = render_svg(None)
        root = parse(svg)
        assert root.tag == f"{SVG_NS}svg"
        assert root.findall(f"{SVG_NS}line") == []

    def test_identical_across_runs(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        first = render_svg(H)
        for _ in range(3):
            assert render_svg(H) == first

    def test_wellformed_for_all_two_dim_targets(self):
        k = pentagon_field()
        targets = [
            HalfspaceRep(2, pentagon_facets(k)),
            normal_fan(HalfspaceRep(2, pentagon_facets(k))),
            None,
        ]
        for t in targets:
            parse(render_svg(t))


def fraction_decimal_oracle(q: Fraction) -> str:
    """Independent half-even decimal of a rational at SIGNIFICANT_DIGITS
    significant digits, on Fraction arithmetic alone."""
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    q = abs(q)
    e = 0
    while q >= 10 ** (e + 1):
        e += 1
    while q < 10 ** e:
        e -= 1
    scaled = q * Fraction(10) ** (SIGNIFICANT_DIGITS - 1 - e)
    n, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r > scaled.denominator or (2 * r == scaled.denominator
                                      and n % 2 == 1):
        n += 1
    if n == 10 ** SIGNIFICANT_DIGITS:
        n //= 10
        e += 1
    digits = str(n)
    if e >= SIGNIFICANT_DIGITS:
        body = digits + "0" * (e - SIGNIFICANT_DIGITS + 1)
    elif e >= 0:
        body = digits[:e + 1] + "." + digits[e + 1:]
    else:
        body = "0." + "0" * (-e - 1) + digits
    return sign + body


# ties: SIGNIFICANT_DIGITS + 1 significant digits, the last one a 5
_ties = st.builds(
    lambda head, shift, sign: Fraction(sign * (10 * head + 5), 10 ** shift),
    st.integers(10 ** (SIGNIFICANT_DIGITS - 1), 10 ** SIGNIFICANT_DIGITS - 1),
    st.integers(0, 30), st.sampled_from([1, -1]))
_fractions = st.builds(Fraction, st.integers(-10 ** 16, 10 ** 16),
                       st.integers(1, 10 ** 8))


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(_ties, _fractions))
def test_rational_text_matches_fraction_oracle(q):
    """Rational coordinates, stroke widths and label sizes go through
    FieldElement.decimal over Q; it rounds half-even like the oracle."""
    assert _coord_text(q) == fraction_decimal_oracle(q)
