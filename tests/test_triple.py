import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q, qvec
from quasitoric import linalg as linalg_module
from quasitoric.corpus import (
    ENTRY_NAMES,
    corpus_entry,
    fifth_roots_of_unity,
    orbifold_interval_facets,
    pentagon_facets,
    pentagon_field,
    sqrt2_field,
    trapezoid_facets,
    trapezoid_quasilattice_generators,
    unit_square_facets,
)
from quasitoric.documents import triple_from_doc
from quasitoric.errors import (
    CountMismatch,
    NormalNotInQuasilattice,
    NormalWrongDirection,
    SingularVertexFrame,
)
from quasitoric.fan import normal_fan
from quasitoric.linalg import solve_unique
from quasitoric.polytope import (
    HalfspaceRep,
    halfspaces_from_vertices,
    vertices_from_halfspaces,
)
from quasitoric.quasilattice import ql_span
from quasitoric.triple import (
    FundamentalTriple,
    _finite_order,
    chart_groups,
    triple_validate,
)


def z2():
    return ql_span([qvec(1, 0), qvec(0, 1)])


def subgroup_order_oracle(images):
    """BFS enumeration of the subgroup of (Q/Z)^n generated by rational
    images; independent of the Hermite path."""
    gens = [tuple(x.as_fraction() % 1 for x in img) for img in images]
    seen = {tuple(Fraction(0) for _ in gens[0])}
    frontier = list(seen)
    while frontier:
        nxt = []
        for element in frontier:
            for g in gens:
                candidate = tuple((a + b) % 1 for a, b in zip(element, g))
                if candidate not in seen:
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    return len(seen)


@st.composite
def rational_images(draw):
    """(images, n): at most 3 images in Q^n, n <= 3, denominators <= 6."""
    n = draw(st.integers(1, 3))
    coordinate = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    images = draw(st.lists(st.lists(coordinate, min_size=n, max_size=n),
                           min_size=1, max_size=3))
    return [tuple(Q.element(x) for x in img) for img in images], n


@settings(max_examples=200, deadline=None, database=None)
@given(rational_images())
def test_finite_order_matches_subgroup_enumeration(case):
    images, n = case
    assert _finite_order(images, n) == subgroup_order_oracle(images)


class TestValidate:
    def test_trapezoid_triple(self):
        k = sqrt2_field()
        a = k.alpha
        H = HalfspaceRep(2, trapezoid_facets(k, a))
        ql = ql_span(trapezoid_quasilattice_generators(k, a))
        report = triple_validate(FundamentalTriple(H, ql, H.normals))
        assert report.simple
        assert report.warning is None
        assert len(report.normal_coefficients) == 4

    def test_pentagon_triple(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        ql = ql_span(list(fifth_roots_of_unity(k)))
        report = triple_validate(FundamentalTriple(H, ql, H.normals))
        assert report.normals_span_quasilattice  # -Y_i span Q5 as well

    def test_half_normal_rejected(self):
        H = HalfspaceRep(2, unit_square_facets(Q))
        normals = list(H.normals[:3]) + [(Q.zero, Q.element("-1/2"))]
        with pytest.raises(NormalNotInQuasilattice):
            triple_validate(FundamentalTriple(H, z2(), normals))

    def test_wrong_direction_rejected(self):
        H = HalfspaceRep(2, unit_square_facets(Q))
        normals = list(H.normals[:3]) + [qvec(0, 1)]
        with pytest.raises(NormalWrongDirection):
            triple_validate(FundamentalTriple(H, z2(), normals))

    def test_count_mismatch(self):
        H = HalfspaceRep(2, unit_square_facets(Q))
        with pytest.raises(CountMismatch):
            triple_validate(FundamentalTriple(H, z2(), H.normals[:3]))

    def test_nonsimple_warns_instead_of_failing(self):
        pts = [qvec(1, 1, 0), qvec(1, -1, 0), qvec(-1, 1, 0),
               qvec(-1, -1, 0), qvec(0, 0, 1)]
        H = halfspaces_from_vertices(pts)
        ql = ql_span(list(H.normals))
        report = triple_validate(FundamentalTriple(H, ql, H.normals))
        assert not report.simple
        assert "stratified" in report.warning

    def test_scaled_normals_accepted(self):
        # doubled normals are positive multiples and members of Z^2
        H = HalfspaceRep(2, unit_square_facets(Q))
        normals = [tuple(x + x for x in n) for n in H.normals]
        report = triple_validate(FundamentalTriple(H, z2(), normals))
        # twice the unit normals span 2 Z^2, not all of Z^2
        assert report.simple and not report.normals_span_quasilattice


class TestChartGroups:
    def test_delzant_square_trivial(self):
        H = HalfspaceRep(2, unit_square_facets(Q))
        triple = FundamentalTriple(H, z2(), H.normals)
        reports = chart_groups(triple)
        assert len(reports) == 4
        assert all(r.classification == "trivial" and r.order == 1
                   for r in reports)

    def test_orbifold_interval_order_two(self):
        H = HalfspaceRep(1, orbifold_interval_facets(Q))
        ql = ql_span([qvec(1)])
        reports = chart_groups(FundamentalTriple(H, ql, H.normals))
        by_vertex = {r.vertex[0].as_fraction(): r for r in reports}
        assert by_vertex[0].classification == "finite"
        assert by_vertex[0].order == 2
        assert by_vertex[1].classification == "trivial"
        # cross-check against the subgroup enumeration oracle
        assert subgroup_order_oracle(by_vertex[0].images) == 2

    def test_orbifold_higher_order_vs_oracle(self):
        for k in (3, 4, 6):
            one = Q.one
            H = HalfspaceRep(1, [((Q.element(k),), Q.zero),
                                 ((-one,), -one)])
            ql = ql_span([qvec(1)])
            reports = chart_groups(FundamentalTriple(H, ql, H.normals))
            r0 = next(r for r in reports
                      if r.vertex[0].as_fraction() == 0)
            assert r0.classification == "finite"
            assert r0.order == k
            assert subgroup_order_oracle(r0.images) == k

    def test_trapezoid_sqrt2_infinite_at_origin(self):
        k = sqrt2_field()
        a = k.alpha
        H = HalfspaceRep(2, trapezoid_facets(k, a))
        ql = ql_span(trapezoid_quasilattice_generators(k, a))
        reports = chart_groups(FundamentalTriple(H, ql, H.normals))
        origin = next(r for r in reports
                      if all(c.is_zero() for c in r.vertex))
        assert origin.classification == "infinite"
        assert origin.order is None

    def test_trapezoid_integer_parameter_trivial(self):
        for a in ("1", "2", "3"):
            H = HalfspaceRep(2, trapezoid_facets(Q, Q.element(a)))
            ql = ql_span(trapezoid_quasilattice_generators(Q, Q.element(a)))
            reports = chart_groups(FundamentalTriple(H, ql, H.normals))
            assert all(r.classification == "trivial" for r in reports)

    def test_rational_triples_never_infinite(self):
        # finite or trivial only, since the quasilattice is a lattice
        H = HalfspaceRep(2, trapezoid_facets(Q, Q.element("1/2")))
        ql = ql_span(trapezoid_quasilattice_generators(Q,
                                                       Q.element("1/2")))
        assert ql.is_lattice()
        reports = chart_groups(FundamentalTriple(H, ql, H.normals))
        assert all(r.classification in ("trivial", "finite")
                   for r in reports)
        for r in reports:
            if r.classification == "finite":
                assert subgroup_order_oracle(r.images) == r.order

    def test_nonsimple_refused(self):
        pts = [qvec(1, 1, 0), qvec(1, -1, 0), qvec(-1, 1, 0),
               qvec(-1, -1, 0), qvec(0, 0, 1)]
        H = halfspaces_from_vertices(pts)
        ql = ql_span(list(H.normals))
        with pytest.raises(SingularVertexFrame):
            chart_groups(FundamentalTriple(H, ql, H.normals))

    def test_random_delzant_rectangles_trivial(self):
        """Randomized Delzant rectangles: lattice Z^2, primitive normals
        forming a basis at each vertex, so every chart is trivial."""
        rng = random.Random(20240701)
        lattice = z2()
        for _ in range(1000):
            x0 = Fraction(rng.randint(-8, 8), rng.choice([1, 2]))
            y0 = Fraction(rng.randint(-8, 8), rng.choice([1, 2]))
            w = Fraction(rng.randint(1, 8), rng.choice([1, 2]))
            h = Fraction(rng.randint(1, 8), rng.choice([1, 2]))
            facets = [
                (qvec(1, 0), Q.element(x0)),
                (qvec(0, 1), Q.element(y0)),
                (qvec(-1, 0), Q.element(-(x0 + w))),
                (qvec(0, -1), Q.element(-(y0 + h))),
            ]
            H = HalfspaceRep(2, facets)
            reports = chart_groups(FundamentalTriple(H, lattice, H.normals))
            assert all(r.classification == "trivial" for r in reports)


# ---- one elimination per vertex against one per generator ----------------

def per_generator_charts(triple):
    """(vertex, images, classification, order) per chart as chart_groups
    found them before it solved all generators at once: one solve per
    generator, and the order from the subgroup enumeration."""
    body = triple.body
    if isinstance(body, HalfspaceRep):
        V = vertices_from_halfspaces(body)
        charts = [(tuple(v), sorted(act))
                  for v, act in zip(V.vertices, V.active)]
    else:
        charts = [(c, list(c)) for c in body.maximal_cones() if c]
    out = []
    for vertex, active in charts:
        frame = [triple.normals[j] for j in active]
        images = []
        for g in triple.quasilattice.generators:
            x, = solve_unique(frame, [g])
            images.append(tuple(y - y.floor() for y in x))
        if all(y.is_zero() for img in images for y in img):
            kind, order = "trivial", 1
        elif any(not y.is_rational() for img in images for y in img):
            kind, order = "infinite", None
        else:
            kind, order = "finite", subgroup_order_oracle(images)
        out.append((vertex, tuple(images), kind, order))
    return out


def corpus_triples():
    """Every corpus triple (hirzebruch at three parameters), on its
    polytope and on the polytope's normal fan."""
    triples = []
    for name in ENTRY_NAMES:
        for a in (("sqrt2", "3/7", "2/1") if name == "hirzebruch"
                  else ("sqrt2",)):
            doc = corpus_entry(name, a).get("triple.json")
            if doc is None:
                continue
            triple = triple_from_doc(doc)
            fan_triple = FundamentalTriple(normal_fan(triple.body),
                                           triple.quasilattice,
                                           triple.normals)
            label = f"{name}-{a}" if name == "hirzebruch" else name
            triples += [pytest.param(triple, id=label),
                        pytest.param(fan_triple, id=f"{label}-fan")]
    return triples


def chart_tuples(triple):
    return [(r.vertex, r.images, r.classification, r.order)
            for r in chart_groups(triple)]


@pytest.mark.parametrize("triple", corpus_triples())
def test_charts_agree_with_per_generator_solves_on_corpus(triple):
    assert chart_tuples(triple) == per_generator_charts(triple)


def test_charts_agree_with_per_generator_solves_on_rectangles():
    # rectangles whose normals are multiples of the axes, over Z^2 and a
    # random rational point: trivial and finite charts
    rng = random.Random(20261020)
    for _ in range(60):
        x0, y0 = rng.randint(-4, 4), rng.randint(-4, 4)
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        m = [rng.randint(1, 3) for _ in range(4)]
        facets = [(qvec(m[0], 0), Q.element(m[0] * x0)),
                  (qvec(0, m[1]), Q.element(m[1] * y0)),
                  (qvec(-m[2], 0), Q.element(-m[2] * (x0 + w))),
                  (qvec(0, -m[3]), Q.element(-m[3] * (y0 + h)))]
        H = HalfspaceRep(2, facets)
        extra = qvec(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                     Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        lattice = ql_span([qvec(1, 0), qvec(0, 1), extra])
        triple = FundamentalTriple(H, lattice, H.normals)
        assert chart_tuples(triple) == per_generator_charts(triple)


@pytest.mark.parametrize("name,a,vertices", [
    ("pentagon", "sqrt2", 5),     # 5 generators, not 5 x 5 solves
    ("hirzebruch", "3/7", 4),     # 3 generators, not 4 x 3 solves
])
def test_charts_take_one_elimination_per_vertex(monkeypatch, name, a,
                                                vertices):
    triple = triple_from_doc(corpus_entry(name, a)["triple.json"])
    calls = []
    gauss_jordan = linalg_module._gauss_jordan

    def counting(*args):
        calls.append(args)
        return gauss_jordan(*args)

    monkeypatch.setattr(linalg_module, "_gauss_jordan", counting)
    assert len(chart_groups(triple)) == vertices
    assert len(calls) == vertices
