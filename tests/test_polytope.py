import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import (Q, as_fractions, fieldelement_sign, fvec, qvec,
                      scalar_dot)
from quasitoric import corpus as corpus_module
from quasitoric import polytope as polytope_module
from quasitoric.corpus import (
    pentagon_facets,
    pentagon_field,
    sqrt2_field,
    trapezoid_facets,
    unit_square_facets,
)
from quasitoric.documents import polytope_from_doc
from quasitoric.errors import (
    DegenerateDimension,
    InternalInvariantError,
    NotFullDimensional,
    UnboundedPolytope,
)
from quasitoric.fan import positively_proportional
from quasitoric.field import (FieldElement, from_numerators, numerator_dot,
                              numerators)
from quasitoric.linalg import dot, rref_rows, solve_unique
from quasitoric.lp import strict_lp_feasible
from quasitoric.polytope import (
    HalfspaceRep,
    VertexRep,
    _unbounded,
    face_lattice,
    halfspaces_from_vertices,
    is_simple,
    vertices_from_halfspaces,
)


def square():
    return HalfspaceRep(2, unit_square_facets(Q))


class TestConstruction:
    def test_unbounded(self):
        with pytest.raises(UnboundedPolytope):
            HalfspaceRep(2, [(qvec(1, 0), Q.zero), (qvec(0, 1), Q.zero)])

    def test_degenerate(self):
        facets = [(qvec(1), Q.zero), (qvec(-1), Q.zero)]
        with pytest.raises(DegenerateDimension):
            HalfspaceRep(1, facets)


class TestVertexEnumeration:
    def test_unit_square(self):
        V = vertices_from_halfspaces(square())
        coords = {as_fractions(v) for v in V.vertices}
        assert coords == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert all(len(a) == 2 for a in V.active)
        assert V.redundant_facets == ()

    @pytest.mark.parametrize("a_text", ["1", "2", "3", "1/2", "sqrt2"])
    def test_trapezoid_vertices(self, a_text):
        if a_text == "sqrt2":
            k = sqrt2_field()
            a = k.alpha
        else:
            k = Q
            a = k.element(a_text)
        H = HalfspaceRep(2, trapezoid_facets(k, a))
        V = vertices_from_halfspaces(H)
        expected = {
            (k.zero, k.zero), (k.one, k.zero), (k.zero, k.one),
            (a + 1, k.one),
        }
        assert set(V.vertices) == expected

    def test_pentagon_against_cramer_oracle(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        V = vertices_from_halfspaces(H)
        assert len(V.vertices) == 5
        assert all(len(a) == 2 for a in V.active)
        # oracle: solve each adjacent-pair system by Cramer's rule
        oracle = set()
        for i in range(5):
            j = (i + 1) % 5
            (a, b), la = H.normals[i], H.offsets[i]
            (c, d), lb = H.normals[j], H.offsets[j]
            det = a * d - b * c
            x = (la * d - b * lb) / det
            y = (a * lb - la * c) / det
            oracle.add((x, y))
        assert set(V.vertices) == oracle
        # regularity: equal squared edge lengths
        verts = sorted(oracle, key=lambda v: 0)  # set -> list
        lengths = set()
        ordered = list(V.vertices)
        for i, v in enumerate(ordered):
            for w in ordered[i + 1:]:
                diff = (v[0] - w[0], v[1] - w[1])
                lengths.add(dot(diff, diff))
        # 5 edges and 5 diagonals: exactly two distinct squared lengths
        assert len(lengths) == 2

    def test_redundant_facet_reported(self):
        facets = unit_square_facets(Q) + [(qvec(1, 1), Q.element(-1))]
        H = HalfspaceRep(2, facets)
        V = vertices_from_halfspaces(H)
        assert V.redundant_facets == (4,)

    def test_tangent_facet_is_active_but_not_a_facet(self):
        # x + y >= 0 touches the square only at the origin
        facets = unit_square_facets(Q) + [(qvec(1, 1), Q.zero)]
        H = HalfspaceRep(2, facets)
        V = vertices_from_halfspaces(H)
        assert V.redundant_facets == ()
        origin = next(a for v, a in zip(V.vertices, V.active)
                      if as_fractions(v) == (0, 0))
        assert 4 in origin and len(origin) == 3

    def test_many_facets(self):
        # x >= -1 - j for j < 28: only j = 0 is a facet of [-1, 1] x [0, 1]
        facets = [(qvec(1, 0), Q.element(-1 - j)) for j in range(28)]
        facets += [(qvec(-1, 0), Q.element(-1)), (qvec(0, 1), Q.zero),
                   (qvec(0, -1), Q.element(-1))]
        H = HalfspaceRep(2, facets)
        V = vertices_from_halfspaces(H)
        assert {as_fractions(v) for v in V.vertices} == {
            (-1, 0), (-1, 1), (1, 0), (1, 1)}
        assert V.redundant_facets == tuple(range(1, 28))


class TestHull:
    def test_square_roundtrip(self):
        H = square()
        V = vertices_from_halfspaces(H)
        H2 = halfspaces_from_vertices(V.vertices)
        assert H2.facet_count == 4
        matched = 0
        for n, o in zip(H.normals, H.offsets):
            for n2, o2 in zip(H2.normals, H2.offsets):
                if positively_proportional(n, n2):
                    # same halfspace up to the same positive factor
                    lead = next(i for i, x in enumerate(n) if not x.is_zero())
                    factor = n[lead] / n2[lead]
                    assert o == factor * o2
                    matched += 1
        assert matched == 4

    def test_pentagon_roundtrip(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        V = vertices_from_halfspaces(H)
        H2 = halfspaces_from_vertices(V.vertices)
        assert H2.facet_count == 5
        for n in H.normals:
            assert sum(1 for n2 in H2.normals
                       if positively_proportional(n, n2)) == 1

    def test_collinear_points(self):
        with pytest.raises(NotFullDimensional):
            halfspaces_from_vertices([qvec(0, 0), qvec(1, 1), qvec(2, 2)])

    def test_four_simplex(self):
        pts = [qvec(*([0] * 4))] + [
            qvec(*(1 if j == i else 0 for j in range(4))) for i in range(4)]
        H = halfspaces_from_vertices(pts)
        assert H.facet_count == 5
        assert sorted(as_fractions(n) + (o.as_fraction(),)
                      for n, o in zip(H.normals, H.offsets)) == [
            (-1, -1, -1, -1, -1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0),
            (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)]
        with pytest.raises(NotFullDimensional):
            halfspaces_from_vertices([qvec(*([0] * 4))] * 5)

    def test_four_cube_roundtrip(self):
        corners = {qvec(*c) for c in itertools.product((0, 1), repeat=4)}
        H = halfspaces_from_vertices(sorted(corners, key=as_fractions))
        assert H.facet_count == 8
        V = vertices_from_halfspaces(H)
        assert set(V.vertices) == corners
        assert is_simple(H, V)
        H2 = halfspaces_from_vertices(V.vertices)
        assert (H2.normals, H2.offsets) == (H.normals, H.offsets)

    def test_interval_hull(self):
        H = halfspaces_from_vertices([qvec(3), qvec(-1), qvec(2)])
        V = vertices_from_halfspaces(H)
        assert {as_fractions(v) for v in V.vertices} == {(-1,), (3,)}

    def test_square_pyramid(self):
        pts = [qvec(1, 1, 0), qvec(1, -1, 0), qvec(-1, 1, 0),
               qvec(-1, -1, 0), qvec(0, 0, 1)]
        H = halfspaces_from_vertices(pts)
        assert H.facet_count == 5
        V = vertices_from_halfspaces(H)
        assert len(V.vertices) == 5
        assert not is_simple(H, V)
        apex = next(a for v, a in zip(V.vertices, V.active)
                    if as_fractions(v) == (0, 0, 1))
        assert len(apex) == 4


SQUARE_CORNERS = list(itertools.product((0, 1), repeat=2))
CUBE_CORNERS = list(itertools.product((0, 1), repeat=3))
PYRAMID_CORNERS = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]


def drop_a_face(monkeypatch, corners, dropped):
    """(H, V) of the hull of the corners, with the intersection closure
    patched to leave out its first face of dimension dropped."""
    H = halfspaces_from_vertices([qvec(*c) for c in corners])
    V = vertices_from_halfspaces(H)
    closure = polytope_module.intersection_closure
    face = min(set(face_lattice(H, V).of_dimension(dropped)), key=sorted)

    def dropping(generators):
        return closure(generators) - {face}

    monkeypatch.setattr(polytope_module, "intersection_closure", dropping)
    return H, V


class TestFaceLattice:
    def test_square_counts(self):
        H = square()
        V = vertices_from_halfspaces(H)
        fl = face_lattice(H, V)
        assert len(fl.of_dimension(2)) == 1
        assert len(fl.of_dimension(1)) == 4
        assert len(fl.of_dimension(0)) == 4

    def test_pentagon_counts(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        V = vertices_from_halfspaces(H)
        fl = face_lattice(H, V)
        assert len(fl.of_dimension(1)) == 5
        assert len(fl.of_dimension(0)) == 5

    def test_trapezoid_counts(self):
        H = HalfspaceRep(2, trapezoid_facets(Q, Q.one))
        V = vertices_from_halfspaces(H)
        fl = face_lattice(H, V)
        assert len(fl.of_dimension(1)) == 4
        assert len(fl.of_dimension(0)) == 4

    @pytest.mark.parametrize("corners, dropped", [
        (SQUARE_CORNERS, 0), (CUBE_CORNERS, 0), (PYRAMID_CORNERS, 1),
        (PYRAMID_CORNERS, 2)])
    def test_a_dropped_face_breaks_euler_poincare(self, monkeypatch,
                                                  corners, dropped):
        # a face missing from the closure keeps every chain to the top,
        # so only the face numbers see it; the Euler-Poincare relation
        # is the one equation a square has, a cube without a vertex
        # keeps h_1 = h_2 = 3, and a square pyramid is not simple
        H, V = drop_a_face(monkeypatch, corners, dropped)
        with pytest.raises(InternalInvariantError,
                           match="Euler-Poincare relation"):
            face_lattice(H, V)

    @pytest.mark.parametrize("dropped", [1, 2])
    def test_a_dropped_face_breaks_dehn_sommerville(self, monkeypatch,
                                                    dropped):
        # the cube has f = (8, 12, 6, 1) and h = (1, 3, 3, 1); without an
        # edge h = (2, 2, 3, 1), without a facet h = (0, 5, 2, 1)
        H, V = drop_a_face(monkeypatch, CUBE_CORNERS, dropped)
        with pytest.raises(InternalInvariantError,
                           match="Dehn-Sommerville equations"):
            face_lattice(H, V)

    def test_any_polygon_is_simple(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        V = vertices_from_halfspaces(H)
        assert is_simple(H, V)


class TestRoundtripProperty:
    """H <-> V roundtrip on random rational polygons, >= 1000 cases."""

    def test_random_polygons(self):
        rng = random.Random(20240620)
        done = 0
        attempts = 0
        while done < 1000 and attempts < 4000:
            attempts += 1
            count = rng.randint(3, 6)
            pts = [qvec(Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4])),
                        Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4])))
                   for _ in range(count)]
            try:
                H = halfspaces_from_vertices(pts)
            except NotFullDimensional:
                continue
            V = vertices_from_halfspaces(H)
            # every input point is inside; hull vertices are among inputs
            assert all(H.contains(p) for p in pts)
            assert set(V.vertices) <= set(pts)
            H2 = halfspaces_from_vertices(V.vertices)
            assert H2.facet_count == H.facet_count
            for n, o in zip(H.normals, H.offsets):
                hits = [(n2, o2) for n2, o2 in zip(H2.normals, H2.offsets)
                        if positively_proportional(n, n2)]
                assert len(hits) == 1
            done += 1
        assert done == 1000


def subset_scan(H):
    """The vertex enumeration that extreme_rays replaced, kept as its
    oracle: solve every n-subset of facets in index order and keep each
    feasible solution, listed where the scan first meets it."""
    n, d = H.dimension, H.facet_count
    seen = {}
    for subset in itertools.combinations(range(d), n):
        try:
            mu, = solve_unique([H.normals[j] for j in subset],
                               [[H.offsets[j] for j in subset]])
        except ValueError:  # the normals of the subset are dependent
            continue
        if mu in seen:
            continue
        signs = [(dot(mu, H.normals[j]) - H.offsets[j]).sign()
                 for j in range(d)]
        if min(signs) >= 0:
            seen[mu] = frozenset(j for j in range(d) if signs[j] == 0)
    used = set().union(*seen.values())
    return VertexRep(tuple(seen), tuple(seen.values()),
                     tuple(j for j in range(d) if j not in used))


@st.composite
def small_polytopes(draw):
    """A box around the origin cut by halfspaces with small integer data
    that hold strictly at the origin, so the polytope is bounded and full
    dimensional; the small data make many vertices nonsimple.  Sometimes
    a facet is repeated, and the facets come in random order."""
    n = draw(st.integers(1, 4))
    facets = []
    for i in range(n):
        for s in (1, -1):
            unit = [0] * n
            unit[i] = s
            facets.append((unit, -draw(st.integers(1, 2))))
    for _ in range(draw(st.integers(0, 8 - n))):
        normal = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)
                      .filter(any))
        facets.append((normal, draw(st.integers(-3, -1))))
    if draw(st.booleans()):
        facets.append(draw(st.sampled_from(facets)))
    facets = draw(st.permutations(facets))
    return HalfspaceRep(n, [(qvec(*a), Q.element(b)) for a, b in facets])


class TestSubsetScanOracle:
    """The double-description engine gives the subset scan's VertexRep:
    the same vertices in the same order, active sets and redundant
    facets."""

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_polytopes())
    def test_random_polytopes(self, H):
        assert vertices_from_halfspaces(H) == subset_scan(H)

    @pytest.mark.parametrize("name", [
        name for name in corpus_module.ENTRY_NAMES
        if "polytope.json" in corpus_module.corpus_entry(name)])
    def test_corpus_and_field_intervals(self, name):
        # the engine decides no sign the scan did not, so the isolating
        # interval that documents write narrows no further
        doc = corpus_module.corpus_entry(name)["polytope.json"]
        engine_H, scan_H = polytope_from_doc(doc), polytope_from_doc(doc)
        assert engine_H.field is not scan_H.field
        assert vertices_from_halfspaces(engine_H) == subset_scan(scan_H)
        assert engine_H.field.interval == scan_H.field.interval


def pre_certificate_vertices(H):
    """vertices_from_halfspaces as it was before the certificate kept its
    vertices, kept as the oracle of the certificate's VertexRep: the
    extreme rays of the cone {(t, x) : <a_j, x> >= b_j t} alone, which
    has no other point with t <= 0 than the origin when H is bounded."""
    rows = [(-b,) + a for a, b in zip(H.normals, H.offsets)]
    found = []
    rays, lines = polytope_module.extreme_rays(rows)
    assert not lines
    for ray, active in rays:
        assert ray[0] == H.field.one
        found.append((ray[1:], active))
    found.sort(key=lambda item: sorted(item[1]))
    active_sets = tuple(active for _, active in found)
    used = set().union(*active_sets)
    redundant = tuple(j for j in range(H.facet_count) if j not in used)
    return VertexRep(tuple(v for v, _ in found), active_sets, redundant)


SYSTEM_CASES = ("bounded", "dropped", "point", "flat", "empty", "rank")


@st.composite
def facet_systems(draw):
    """(n, [(normal, offset)]) with rational data, n = 1-4: the facets of
    the hull of a few lattice points ("bounded"), or that system with one
    facet dropped (often unbounded), every offset moved so the facets
    pass through one lattice point ("point") or one facet doubled by its
    opposite ("flat"), a facet contradicted by a parallel one ("empty"),
    or the hull taken in n - 1 coordinates with an n-th coordinate of the
    normals made up as a combination of the others (normals of rank
    n - 1).  The facets come in random order."""
    case = draw(st.sampled_from(SYSTEM_CASES))
    n = draw(st.integers(2 if case == "rank" else 1, 4))
    m = n - 1 if case == "rank" else n
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m),
                           min_size=m + 1, max_size=m + 3))
    rays, lines = polytope_module.extreme_rays(
        [qvec(1, *point) for point in points])
    assume(not lines)
    facets = draw(st.permutations([(as_fractions(ray[1:]),
                                    -ray[0].as_fraction())
                                   for ray, _ in rays]))
    if case == "dropped":
        del facets[draw(st.integers(0, len(facets) - 1))]
    elif case == "point":
        point = draw(st.tuples(*[st.integers(-2, 2)] * n))
        facets = [(a, sum(x * y for x, y in zip(a, point)))
                  for a, _ in facets]
    elif case in ("flat", "empty"):
        a, b = draw(st.sampled_from(facets))
        gap = 0 if case == "flat" else draw(st.integers(1, 2))
        facets.append((tuple(-x for x in a), -b - gap))
    elif case == "rank":
        weights = draw(st.tuples(*[st.integers(-2, 2)] * m))
        facets = [(a + (sum(x * w for x, w in zip(a, weights)),), b)
                  for a, b in facets]
    return n, facets


CERTIFICATE_FIELDS = {
    "Q": lambda: Q,
    "sqrt2": sqrt2_field,
    "pentagon": pentagon_field,
}
RATIONAL = ("Q", (), ())


@st.composite
def changed_systems(draw):
    """(system, change): a facet system and a coordinate change x = M y + p
    over Q, Q(sqrt2) or the pentagon field, given as (field name, matrix
    entries, shift), M upper triangular with a nonzero diagonal and every
    scalar a power-basis coefficient tuple of small integers.  Over Q, and
    in n = 4, where the reference's probes over a field of degree > 1 can
    take seconds, the change is the identity."""
    system = draw(facet_systems())
    name = draw(st.sampled_from(sorted(CERTIFICATE_FIELDS)))
    if name == "Q" or system[0] == 4:
        return system, RATIONAL
    degree = {"sqrt2": 2, "pentagon": 4}[name]
    scalar = st.tuples(*[st.integers(-2, 2)] * degree)
    return system, (name, draw(st.lists(scalar, min_size=6, max_size=6)),
                    draw(st.lists(scalar, min_size=3, max_size=3)))


def changed_facets(system, change):
    """The facets of the rational system in the coordinates y of
    x = M y + p: normal M^T a, offset b - <a, p>.  M is invertible, so
    the system keeps its kind (bounded, unbounded, flat, empty) and the
    rank of its normals."""
    n, raw = system
    name, entries, shift = change
    k = CERTIFICATE_FIELDS[name]()
    facets = [(fvec(k, *a), k.element(b)) for a, b in raw]
    if name == "Q":
        return n, facets
    entries = iter(entries)
    M = [[k.element(next(entries)) if i <= j else k.zero
          for j in range(n)] for i in range(n)]
    for i in range(n):
        if M[i][i].is_zero():
            M[i][i] = k.one
    p = [k.element(x) for x in shift[:n]]
    return n, [(tuple(dot([row[j] for row in M], a) for j in range(n)),
                b - dot(a, p)) for a, b in facets]


def _recession_probes(n: int, normals) -> None:
    """The LP test of boundedness: 2n Fourier-Motzkin probes, one per
    (coordinate i, sign s), each for a z with <a_j, z> >= 0 for all j
    and s z_i >= 1.  Raises UnboundedPolytope naming the first feasible
    probe."""
    field = normals[0][0].field
    recession = [(normal, field.zero, ">=") for normal in normals]
    for i in range(n):
        for s in (1, -1):
            unit = [field.zero] * n
            unit[i] = field.element(s)
            probe = recession + [(tuple(unit), field.one, ">=")]
            if strict_lp_feasible(probe, n, field) is not None:
                raise _unbounded(i, s)


def counted_lps(patch):
    """The argument tuples of every later strict_lp_feasible call made by
    the polytope module."""
    calls = []

    def counting(*args):
        calls.append(args)
        return strict_lp_feasible(*args)

    patch.setattr(polytope_module, "strict_lp_feasible", counting)
    return calls


class TestCertificateOracle:
    """The certificate whose boundedness half is the double description
    raises the error class and message of the LP certificate (recession
    probes, then the interior LP), and keeps the VertexRep that vertex
    enumeration gave before it existed, over Q and over fields of degree
    2 and 4.  It runs no LP on an unbounded system, whether its normals
    span or not."""

    @settings(max_examples=120, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(changed_systems())
    @example(((2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1),
                   ((0, -1), -1)]), RATIONAL))           # bounded
    @example(((2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1)]),
              RATIONAL))                                 # dropped
    @example(((2, [((1, 1), 0), ((-1, 1), 0)]), RATIONAL))  # both signs of x
    @example(((2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), 0),
                   ((0, -1), 0)]), RATIONAL))            # point
    @example(((2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1),
                   ((0, -1), -1), ((-1, 0), 0)]), RATIONAL))  # flat
    @example(((2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1),
                   ((0, -1), -1), ((1, 0), 2)]), RATIONAL))   # empty
    @example(((2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)]),
              RATIONAL))                                 # empty, unbounded
    @example(((3, [((1, 1, 0), 0), ((-1, -1, 0), -1),
                   ((0, 0, 1), 0), ((0, 0, -1), -1)]),
              RATIONAL))                                 # rank n - 1
    @example(((4, [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0),
                   ((0, 0, 0, 1), 0), ((-1, -1, -1, -1), -1)]),
              RATIONAL))                                 # 4-simplex
    @example(((2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1),
                   ((0, -1), -1)]),
              ("pentagon", [(0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, -1)] * 2,
               [(0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 0, 0)])))  # bounded
    @example(((2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1)]),
              ("sqrt2", [(0, 1), (1, 1), (-1, 0)] * 2,
               [(0, 1), (1, 1), (0, 0)])))               # dropped
    @example(((2, [((1, 1), 0), ((-1, 1), 0)]),
              ("sqrt2", [(0, 1), (0, 0), (1, 0)] * 2,
               [(0, 1), (1, 0), (0, 0)])))               # both signs of y_1
    @example(((2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1),
                   ((0, -1), -1), ((-1, 0), 0)]),
              ("pentagon", [(1, 0, 0, 0), (0, 0, 1, 0), (2, 0, 0, 0)] * 2,
               [(0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 0, 0)])))  # flat
    @example(((3, [((1, 1, 0), 0), ((-1, -1, 0), -1),
                   ((0, 0, 1), 0), ((0, 0, -1), -1)]),
              ("pentagon", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                            (1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0)],
               [(0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 0)])))  # rank n - 1
    def test_agrees_with_lp_certificate(self, case):
        n, facets = changed_facets(*case)
        normals = [a for a, _ in facets]
        try:
            _recession_probes(n, normals)
            polytope_module._interior_lp(n, normals, [b for _, b in facets])
            expected = None
        except (UnboundedPolytope, DegenerateDimension) as exc:
            expected = type(exc), str(exc)
        with pytest.MonkeyPatch.context() as patch:
            lps = counted_lps(patch)
            try:
                H = HalfspaceRep(n, facets)
            except (UnboundedPolytope, DegenerateDimension) as exc:
                assert (type(exc), str(exc)) == expected
                # the interior LP runs only once the system is bounded
                assert len(lps) == (type(exc) is DegenerateDimension)
                return
        assert expected is None and len(lps) == 1
        assert vertices_from_halfspaces(H) == pre_certificate_vertices(H)

    def test_lp_first_over_algebraic_fields(self, monkeypatch):
        # over a field of degree > 1 no LP probe runs first: the double
        # description alone certifies the pentagon, with one interior LP,
        # and names the recession direction the probes would, with none,
        # whether the normals span (the wedge) or not (one facet lifted
        # to R^3, unbounded along its kernel)
        k = pentagon_field()
        wedge = pentagon_facets(k)[:2]
        lifted = [(a + (k.zero,), b) for a, b in wedge[:1]]
        expected = []
        for n, facets in ((2, wedge), (3, lifted)):
            with pytest.raises(UnboundedPolytope) as probed:
                _recession_probes(n, [a for a, _ in facets])
            expected.append(str(probed.value))
        lps = counted_lps(monkeypatch)
        H = HalfspaceRep(2, pentagon_facets(k))
        assert len(vertices_from_halfspaces(H).vertices) == 5
        assert len(lps) == 1
        for (n, facets), message in zip(((2, wedge), (3, lifted)), expected):
            with pytest.raises(UnboundedPolytope) as certified:
                HalfspaceRep(n, facets)
            assert str(certified.value) == message
        assert len(lps) == 1


def scalar_scaled(ray):
    lead = next(x for x in ray if not x.is_zero())
    scale = abs(lead).inverse()
    return tuple(scale * x for x in ray)


def scalar_extreme_rays(rows):
    """extreme_rays with its rays kept as field elements and every new
    ray scaled to a leading +-1 by an inverse, all by scalar operators:
    the reference of the engine on integer rays.  It splits off the
    lines by the same rule: the reduced rows of [rows^T | I] with their
    pivot in I."""
    dim = len(rows[0])
    field = rows[0][0].field
    reduced = rref_rows([column + tuple(field.one if k == i else field.zero
                                        for k in range(dim))
                         for i, column in enumerate(zip(*rows))])
    pivots = [next(c for c, x in enumerate(row) if not x.is_zero())
              for row in reduced]
    lines = [row[len(rows):] for row, c in zip(reduced, pivots)
             if c >= len(rows)]
    seed = [c for c in pivots if c < len(rows)]
    rank = len(seed)
    seeded = sum(1 << j for j in seed)
    rays = [(scalar_scaled(row[len(rows):]), seeded & ~(1 << j))
            for row, j in zip(reduced, seed)]
    for j, h in enumerate(rows):
        bit = 1 << j
        if seeded & bit:
            continue
        kept, above, below = [], [], []
        for ray, zero in rays:
            value = scalar_dot(h, ray)
            side = value.sign()
            if side > 0:
                kept.append((ray, zero))
                above.append((ray, zero, value))
            elif side < 0:
                below.append((ray, zero, value))
            else:
                kept.append((ray, zero | bit))
        zeros = [zero for _, zero in rays]
        for r_up, z_up, v_up in above:
            for r_down, z_down, v_down in below:
                common = z_up & z_down
                if common.bit_count() < rank - 2 or sum(
                        1 for z in zeros if common & z == common) > 2:
                    continue
                kept.append((scalar_scaled([v_up * a - v_down * b
                                            for a, b in zip(r_down, r_up)]),
                             common | bit))
        rays = kept
    checked = []
    for ray, mask in rays:
        signs = [scalar_dot(h, ray).sign() for h in rows]
        zero = frozenset(j for j, s in enumerate(signs) if s == 0)
        assert min(signs) >= 0 and mask == sum(1 << j for j in zero)
        checked.append((ray, zero))
    for line in lines:
        assert all(scalar_dot(h, line).is_zero() for h in rows)
    return checked, lines


RAY_FIELDS = {"pentagon": pentagon_field, "sqrt2": sqrt2_field}


@st.composite
def ray_systems(draw):
    """(kind, data): the rows (1, p) over 1-5 lattice points p in n = 1-4
    ("hull"), or the homogenized facet rows of such a hull plus t >= 0
    ("facets"), or the rows (1, p) over 3-5 points of the pentagon field,
    each a fifth root of unity scaled by 1-2 plus a lattice shift
    ("pentagon"), or those rows with a zero last coordinate added
    ("lifted", whose cone has that coordinate's axis as a line), or the
    rows (1, p + t d) over 1-4 points on one line of R^2 or R^3 over
    Q(sqrt2) or the pentagon field ("collinear", with n - 1 lines), p and
    d of power-basis coefficient tuples of small integers."""
    kind = draw(st.sampled_from(["hull", "facets", "pentagon", "lifted",
                                 "collinear"]))
    if kind in ("pentagon", "lifted"):
        return kind, draw(st.lists(
            st.tuples(st.integers(0, 4), st.integers(1, 2),
                      st.tuples(st.integers(-1, 1), st.integers(-1, 1))),
            min_size=3, max_size=5))
    if kind == "collinear":
        name = draw(st.sampled_from(sorted(RAY_FIELDS)))
        n = draw(st.integers(2, 3))
        scalar = st.tuples(*[st.integers(-2, 2)] * {"sqrt2": 2,
                                                     "pentagon": 4}[name])
        vector = st.tuples(*[scalar] * n)
        direction = draw(vector.filter(lambda d: any(map(any, d))))
        return kind, (name, draw(vector), direction,
                      draw(st.lists(st.integers(-2, 2), min_size=1,
                                    max_size=4, unique=True)))
    n = draw(st.integers(1, 4))
    return kind, (n, draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                                   min_size=1, max_size=n + 3)))


def ray_system_fields(system):
    """Two fresh copies of the field of the system, one per engine."""
    kind, data = system
    if kind in ("pentagon", "lifted"):
        return pentagon_field(), pentagon_field()
    if kind == "collinear":
        return RAY_FIELDS[data[0]](), RAY_FIELDS[data[0]]()
    return Q, Q


def ray_system_rows(system, k):
    kind, data = system
    if kind in ("pentagon", "lifted"):
        roots = corpus_module.fifth_roots_of_unity(k)
        lift = (k.zero,) if kind == "lifted" else ()
        return [(k.one,) + tuple(scale * c + shift for c, shift in
                                 zip(roots[root], shifts)) + lift
                for root, scale, shifts in data]
    if kind == "collinear":
        _, base, direction, ts = data
        return [(k.one,) + tuple(k.element(p) + t * k.element(d)
                                 for p, d in zip(base, direction))
                for t in ts]
    n, points = data
    rows = [qvec(1, *point) for point in points]
    if kind == "hull":
        return rows
    rays, lines = scalar_extreme_rays(rows)
    assume(not lines)   # "facets" of points that span no full hull
    facets = [(ray[1:], ray[0]) for ray, _ in rays]
    return [(c,) + w for w, c in facets] + [qvec(1, *[0] * n)]


def numerator_pairs(vector) -> tuple:
    return tuple((x.num, x.den) for x in vector)


class TestIntegerRayOracle:
    """The double description on integer rays gives the (ray, zero set)
    list and the lines of the scalar engine, in the same order, and its
    sign queries refine the isolating interval of the field exactly as
    far, on pointed cones and on cones with lines."""

    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(ray_systems())
    @example(("hull", (2, [(0, 0), (1, 0), (0, 1), (1, 1)])))
    @example(("hull", (3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)])))
    @example(("facets", (3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),
                             (1, 1, 1)])))
    @example(("pentagon", [(j, 1, (0, 0)) for j in range(5)]))
    @example(("pentagon", [(0, 2, (1, 0)), (1, 1, (0, -1)),
                           (3, 2, (0, 0)), (4, 1, (-1, 1))]))
    @example(("lifted", [(j, 1, (0, 0)) for j in range(5)]))
    @example(("lifted", [(0, 2, (1, 0)), (1, 1, (0, -1)),
                         (3, 2, (0, 0)), (4, 1, (-1, 1))]))
    @example(("collinear", ("sqrt2", ((0, 1), (1, 0)), ((1, 1), (0, -1)),
                            [-1, 0, 2])))
    @example(("collinear", ("pentagon",
                            ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)),
                            ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, -1)),
                            [-2, 1])))
    def test_agrees_with_scalar_engine(self, system):
        fields = ray_system_fields(system)
        systems = [ray_system_rows(system, k) for k in fields]
        outcomes = []
        for engine, rows in zip((polytope_module.extreme_rays,
                                 scalar_extreme_rays), systems):
            rays, lines = engine(rows)
            outcomes.append(([(numerator_pairs(ray), zero)
                              for ray, zero in rays],
                             [numerator_pairs(line) for line in lines]))
        assert outcomes[0] == outcomes[1]
        assert fields[0].interval == fields[1].interval

    @pytest.mark.parametrize("facets", [
        corpus_module.pentagon_facets, corpus_module.kite_facets,
        corpus_module.thick_rhombus_facets,
        corpus_module.thin_rhombus_facets])
    def test_pentagon_family(self, facets):
        found = []
        for engine in (polytope_module.extreme_rays, scalar_extreme_rays):
            k = pentagon_field()
            rows = [(-b,) + a for a, b in facets(k)]
            rows.append((k.one, k.zero, k.zero))
            rays, lines = engine(rows)
            found.append(([(numerator_pairs(ray), zero)
                           for ray, zero in rays],
                          [numerator_pairs(line) for line in lines],
                          k.interval))
        assert found[0] == found[1]


def test_recheck_refuses_a_wrong_ray(monkeypatch):
    # a returned ray moved off its zero set fails the exact recheck,
    # with or without python -O
    unit_lead = polytope_module._unit_lead

    def moved(field, nums):
        ray = unit_lead(field, nums)
        return ray[:-1] + (ray[-1] + 1,)

    monkeypatch.setattr(polytope_module, "_unit_lead", moved)
    with pytest.raises(InternalInvariantError,
                       match="extreme ray fails its exact recheck"):
        vertices_from_halfspaces(square())


def fieldelement_recheck(field, rays, row_nums):
    """polytope._recheck with each returned ray scaled by scalar_scaled, an
    inverse and n + 1 products, and each sign asked of an element built
    over 1: the reference of the rays built from their numerators."""
    checked = []
    for ray, mask in rays:
        ray = scalar_scaled(from_numerators(field, ray))
        nums = numerators(field, ray)
        signs = [FieldElement(field, numerator_dot(field, h, nums), 1).sign()
                 for h in row_nums]
        zero = frozenset(j for j, s in enumerate(signs) if s == 0)
        if min(signs) < 0 or mask != sum(1 << j for j in zero):
            raise InternalInvariantError(
                "extreme ray fails its exact recheck")
        checked.append((ray, zero))
    return checked


def logged_extreme_rays(rows, reference):
    """extreme_rays of the rows as (rays, zero sets, lines) in (num, den)
    pairs, with the irrational values whose sign was asked, in order,
    each as its numerators of content 1.  The reference closes the run
    as the engine did on FieldElements: fieldelement_recheck, and every
    side test asked of an element built over 1."""
    asked = []
    sign = FieldElement.sign

    def logged(self):
        if any(self.num[1:]):
            g = gcd(*self.num)
            asked.append(tuple(x // g for x in self.num))
        return sign(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FieldElement, "sign", logged)
        if reference:
            patch.setattr(polytope_module, "numerator_sign",
                          fieldelement_sign)
            patch.setattr(polytope_module, "_recheck",
                          fieldelement_recheck)
        rays, lines = polytope_module.extreme_rays(rows)
    return ([(numerator_pairs(ray), zero) for ray, zero in rays],
            [numerator_pairs(line) for line in lines], asked)


class TestFieldElementRecheckOracle:
    """The rays built from their numerators by one division, rechecked
    with integer signs, are the rays of the FieldElement recheck, with
    the same zero sets and lines; the irrational values asked are the
    same, in the same order, so twin field handles end with the same
    interval after every call."""

    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(ray_systems())
    @example(("hull", (2, [(0, 0), (1, 0), (0, 1), (1, 1)])))
    @example(("hull", (3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)])))
    @example(("pentagon", [(0, 2, (1, 0)), (1, 1, (0, -1)),
                           (3, 2, (0, 0)), (4, 1, (-1, 1))]))
    @example(("lifted", [(j, 1, (0, 0)) for j in range(5)]))
    @example(("collinear", ("sqrt2", ((0, 1), (1, 0)), ((1, 1), (0, -1)),
                            [-1, 0, 2])))
    def test_agrees_with_fieldelement_recheck(self, system):
        fields = ray_system_fields(system)
        systems = [ray_system_rows(system, k) for k in fields]
        outcome = logged_extreme_rays(systems[0], reference=False)
        expected = logged_extreme_rays(systems[1], reference=True)
        assert outcome == expected
        assert fields[0].interval == fields[1].interval

    def test_pentagon_family_on_one_pair_of_handles(self):
        # one call after another on the same twin handles: the intervals
        # agree after each
        fields = pentagon_field(), pentagon_field()
        for facets in (corpus_module.pentagon_facets,
                       corpus_module.kite_facets,
                       corpus_module.thick_rhombus_facets,
                       corpus_module.thin_rhombus_facets):
            found = []
            for k, reference in zip(fields, (False, True)):
                rows = [(-b,) + a for a, b in facets(k)]
                rows.append((k.one, k.zero, k.zero))
                found.append(logged_extreme_rays(rows, reference))
            assert found[0] == found[1]
            assert fields[0].interval == fields[1].interval
