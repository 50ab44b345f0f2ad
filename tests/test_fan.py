import collections
import functools
import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import Q, qvec
from quasitoric import configuration as configuration_module
from quasitoric import fan as fan_module
from quasitoric import linalg as linalg_module
from quasitoric.configuration import (
    Triangulation,
    VectorConfiguration,
    config_validate,
)
from quasitoric.corpus import (
    fifth_roots_of_unity,
    hirzebruch_configuration_data,
    kite_configuration_data,
    kite_facets,
    pentagon_facets,
    pentagon_field,
    sqrt2_field,
    thick_rhombus_configuration_data,
    thick_rhombus_facets,
    thin_rhombus_facets,
    trapezoid_facets,
    twisted_cube_fan_data,
    unit_square_facets,
)
from quasitoric.documents import dumps, fan_from_doc, fan_to_doc, parse_json
from quasitoric.errors import (
    InvalidFan,
    MixedFields,
    NotFullDimensional,
    RedundantFacet,
)
from quasitoric.fan import (
    Fan,
    complete_fan_certificate,
    cones_meet_in_common_face,
    fan_is_complete,
    fan_is_simplicial,
    fan_is_valid,
    fan_predicates,
    fans_equivalent,
    is_polytopal,
    normal_fan,
    positively_proportional,
    redundant_facets_lp,
)
from quasitoric.field import FieldElement, RealAlgebraicField
from quasitoric.linalg import (
    dot,
    mat_rank,
    rank_kernel_solve,
    rref_rows,
    solve_unique,
)
from quasitoric.lp import strict_lp_feasible
from quasitoric.polytope import (
    FaceLattice,
    HalfspaceRep,
    extreme_rays,
    face_lattice,
    halfspaces_from_vertices,
    intersection_closure,
    is_simple,
    redundant_facets,
    vertices_from_halfspaces,
)


def corpus_polytopes():
    k = pentagon_field()
    k2 = sqrt2_field()
    return [
        ("square", HalfspaceRep(2, unit_square_facets(Q))),
        ("pentagon", HalfspaceRep(2, pentagon_facets(k))),
        ("thick-rhombus", HalfspaceRep(2, thick_rhombus_facets(k))),
        ("trapezoid-2", HalfspaceRep(2, trapezoid_facets(Q, Q.element(2)))),
        ("trapezoid-sqrt2",
         HalfspaceRep(2, trapezoid_facets(k2, k2.alpha))),
    ]


SQUARE_PYRAMID = [qvec(1, 1, 0), qvec(1, -1, 0), qvec(-1, 1, 0),
                  qvec(-1, -1, 0), qvec(0, 0, 1)]
OCTAHEDRON = [qvec(*(s if j == i else 0 for j in range(3)))
              for i in range(3) for s in (1, -1)]

# 2-d collections in which every ray lies in exactly two of the cones,
# which are not fans: (rays, maximal cones)
NON_FANS_WITH_PAIRED_WALLS = {
    # rays at 0, 27 and 63 degrees, each in two of the three cones, which
    # cover only the 63-degree sector
    "zig-zag": ([(1, 0), (2, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]),
    # every second ray of a pentagon joined: the cones lie on opposite
    # sides of every wall, but wind twice around the origin
    "pentagram": ([(1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)],
                  [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)]),
    # winding once with a fold: both cones at the ray (-1, 2) lie
    # clockwise of it, so the sector between (1, 2) and (-1, 2) is covered
    # three times, though the sum of the first cone's rays, (-1, -1),
    # lies in no other cone
    "fold": ([(-1, 0), (0, -1), (1, 0), (-1, 2), (1, 2)],
             [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
}


def face_closed(n, rays, cones):
    """The fan of the given cones and all their faces."""
    generating = Fan(n, rays, cones)
    closed = set()
    for cone in generating.cones:
        closed |= generating.cone_faces(cone)
    return Fan(n, rays, closed)


def non_fan_with_paired_walls(name):
    rays, cones = NON_FANS_WITH_PAIRED_WALLS[name]
    return face_closed(2, [qvec(*r) for r in rays], cones)


def verdicts(fan):
    """fan_predicates of a fan, and config_validate of its rays with its
    cones as the triangulation."""
    config = VectorConfiguration(fan.dimension, fan.rays)
    return (fan_predicates(fan),
            config_validate(config, Triangulation(fan.cones)))


def unmarked(fan):
    """The same rays and cones without the normal-fan mark, so that the
    predicates decide them on the cones' duals and by wall pairing."""
    return Fan(fan.dimension, fan.rays, fan.cones)


class TestFanConstruction:
    def test_zero_ray_rejected(self):
        with pytest.raises(InvalidFan):
            Fan(2, [qvec(0, 0)], [(0,)])

    def test_repeated_ray_rejected(self):
        with pytest.raises(InvalidFan):
            Fan(2, [qvec(1, 0), qvec(2, 0)], [(0,), (1,)])

    def test_origin_cone_always_present(self):
        fan = Fan(2, [qvec(1, 0)], [(0,)])
        assert () in fan.cones


    def test_twisted_cube_document_keys_each_ray_once(self, monkeypatch):
        # the rays of the twisted cube are the cube's vertices, so only
        # its 4 antiparallel pairs share a line and are pair-tested, not
        # all C(8, 2); the face closure of the loaded fan keeps the rays
        # the fan accepted: one line key per ray, not two
        doc = parse_json(dumps(fan_to_doc(
            Fan(3, *twisted_cube_fan_data(Q)))))
        keys = counting(monkeypatch, "_line_key")
        dots = counting(monkeypatch, "dot")
        fan = fan_from_doc(doc)
        assert len(keys) == fan.ray_count
        assert [(fan.rays.index(u), fan.rays.index(v))
                for u, v in dots] == [(0, 7), (1, 6), (2, 5), (3, 4)]

    @pytest.mark.parametrize("name, pairs", [("cube-8", 7), ("decagon", 5)])
    def test_normal_fan_construction_asks_no_sign(self, monkeypatch, name,
                                                  pairs):
        # a normal fan's rays are the certified facet normals; the same
        # rays unmarked ask one dot sign per antiparallel pair
        H = {"cube-8": lambda: truncated_cube(8),
             "decagon": decagon}[name]()
        cones = normal_fan(H).cones
        asked = []
        sign = FieldElement.sign
        monkeypatch.setattr(FieldElement, "sign",
                            lambda x: asked.append(x) or sign(x))
        dots = counting(monkeypatch, "dot")
        fan = Fan(H.dimension, H.normals, cones, polytope=H)
        assert fan.cones == cones
        assert asked == [] and dots == []
        Fan(H.dimension, H.normals, cones)
        assert len(dots) == len(asked) == pairs

    def test_rays_from_different_fields_rejected(self):
        k2 = sqrt2_field()
        k3 = RealAlgebraicField([-3, 0, 1], (1, 2))
        with pytest.raises(MixedFields):
            Fan(2, [(k2.alpha, k2.one), (k3.one, k3.alpha)], [(0,), (1,)])


def counting(monkeypatch, name):
    """The argument tuples of every later call of fan_module.<name>."""
    calls = []
    function = getattr(fan_module, name)

    def wrapper(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(fan_module, name, wrapper)
    return calls


def truncated_cube(cuts):
    """The cube [-4, 4]^3 with its first `cuts` corners cut at depth 5/2:
    the cuts meet neither each other nor another vertex."""
    facets = []
    for i in range(3):
        for s in (1, -1):
            normal = [0, 0, 0]
            normal[i] = s
            facets.append((qvec(*normal), Q.element(-4)))
    for corner in list(itertools.product((1, -1), repeat=3))[:cuts]:
        facets.append((qvec(*(-s for s in corner)),
                       Q.element(Fraction(5, 2) - 12)))
    return HalfspaceRep(3, facets)


def decagon():
    """The decagon with normals +-Y_j over the pentagon field."""
    field = pentagon_field()
    Y = fifth_roots_of_unity(field)
    normals = list(Y) + [tuple(-c for c in y) for y in Y]
    return HalfspaceRep(2, [(n, -field.one) for n in normals])


def all_pairs_proportional(u, v):
    """positively_proportional as it was: every 2x2 minor of (u, v)
    vanishes and <u, v> > 0."""
    return all((u[i] * v[j] - u[j] * v[i]).is_zero()
               for i, j in itertools.combinations(range(len(u)), 2)) \
        and dot(u, v).sign() > 0


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    st.sampled_from([None, -2, -1, 1, 3]))))
def test_positively_proportional_agrees_with_all_minors(case):
    # with c given, v is c u, so parallel pairs of both signs are drawn
    u, v, c = case
    if c is not None:
        v = [c * x for x in u]
    u, v = qvec(*u), qvec(*v)
    assert positively_proportional(u, v) == all_pairs_proportional(u, v)


class TestNormalFan:
    def test_square_quadrants(self):
        H = HalfspaceRep(2, unit_square_facets(Q))
        fan = normal_fan(H)
        assert fan.rays == H.normals
        maximal = {c for c in fan.maximal_cones()}
        assert maximal == {(0, 1), (0, 3), (1, 2), (2, 3)}

    def test_trapezoid_rays(self):
        k = sqrt2_field()
        a = k.alpha
        H = HalfspaceRep(2, trapezoid_facets(k, a))
        fan = normal_fan(H)
        expected = [(k.one, k.zero), (k.zero, k.one),
                    (k.zero, -k.one), (-k.one, a)]
        assert len(fan.rays) == 4
        for ray, exp in zip(fan.rays, expected):
            assert positively_proportional(ray, exp)
        assert len([c for c in fan.maximal_cones()]) == 4

    def test_pentagon_fan(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        fan = normal_fan(H)
        assert fan.ray_count == 5
        preds = fan_predicates(fan)
        assert preds.valid and preds.complete and preds.simplicial

    def test_redundant_facet_rejected(self):
        facets = unit_square_facets(Q) + [(qvec(1, 1), Q.element(-1))]
        with pytest.raises(RedundantFacet):
            normal_fan(HalfspaceRep(2, facets))

    def test_tangent_facet_rejected(self):
        facets = unit_square_facets(Q) + [(qvec(1, 1), Q.zero)]
        with pytest.raises(RedundantFacet):
            normal_fan(HalfspaceRep(2, facets))

    def test_bijection_cardinalities(self):
        for name, H in corpus_polytopes():
            V = vertices_from_halfspaces(H)
            fan = normal_fan(H)
            maximal = [c for c in fan.maximal_cones()]
            assert len(maximal) == len(V.vertices), name
            assert fan.ray_count == H.facet_count, name

    def test_normal_fan_always_valid_complete(self):
        for name, H in corpus_polytopes():
            fan = normal_fan(H)
            assert fan.polytope is H, name
            preds = fan_predicates(unmarked(fan))
            assert preds.valid and preds.complete, name
            assert fan_predicates(fan) == preds, name

    def test_simple_iff_simplicial(self):
        for name, H in corpus_polytopes():
            V = vertices_from_halfspaces(H)
            fan = unmarked(normal_fan(H))
            assert is_simple(H, V) == fan_is_simplicial(fan), name
        # nonsimple 3d example
        H = halfspaces_from_vertices(SQUARE_PYRAMID)
        V = vertices_from_halfspaces(H)
        fan = unmarked(normal_fan(H))
        assert not is_simple(H, V)
        assert not fan_is_simplicial(fan)
        assert fan_is_valid(fan)
        assert fan_is_complete(fan)


class TestPredicates:
    def test_two_opposite_rays_valid_not_complete(self):
        fan = Fan(2, [qvec(1, 0), qvec(-1, 0)], [(0,), (1,)])
        assert fan_is_valid(fan)
        assert not fan_is_complete(fan)

    def test_overlapping_cones_invalid(self):
        # (1,1) lies inside the first quadrant cone
        fan = Fan(2, [qvec(1, 0), qvec(0, 1), qvec(1, 1)],
                  [(0, 1), (2,), (0,), (1,)])
        assert not fan_is_valid(fan)

    def test_missing_face_invalid(self):
        fan = Fan(2, [qvec(1, 0), qvec(0, 1)], [(0, 1), (0,)])
        # the ray (1,) is a face of (0,1) but missing from the fan
        assert not fan_is_valid(fan)

    def test_index_subset_that_is_not_a_face_invalid(self):
        # (1,1) lies inside cone(e1, e2): (1,) is an index subset of the
        # maximal cone (0,1,2) but not one of its faces, so the collection
        # is face-closed yet not a fan
        fan = Fan(2, [qvec(1, 0), qvec(1, 1), qvec(0, 1)],
                  [(0, 1, 2), (0,), (2,), (1,)])
        assert fan.maximal_cones() == ((0, 1, 2),)
        assert (1,) not in fan.cone_faces((0, 1, 2))
        assert not fan_is_valid(fan)

    def test_four_dimensional_coordinate_fan(self):
        # rays +-e_i and the 16 orthant cones cover R^4; without -e_4 and
        # its cones the support is the half-space x_4 >= 0
        rays = [qvec(*(s if j == i else 0 for j in range(4)))
                for i in range(4) for s in (1, -1)]
        orthants = list(itertools.product(*[(2 * i, 2 * i + 1)
                                            for i in range(4)]))
        fan = face_closed(4, rays, orthants)
        assert fan_predicates(fan) == (True, True, True)
        half = face_closed(4, rays[:7], [c for c in orthants if 7 not in c])
        assert fan_is_valid(half)
        assert not fan_is_complete(half)

    def test_four_dimensional_cross_polytope_fan_document(self):
        # the normal fan of the 4-d cross-polytope, read back from its
        # document: 16 rays and 8 maximal cones, each over a 3-cube with
        # 8 rays, so face closure at load needs non-simplicial faces
        H = HalfspaceRep(4, [(qvec(*(-x for x in signs)), Q.element(-1))
                             for signs in itertools.product((1, -1),
                                                            repeat=4)])
        text = dumps(fan_to_doc(normal_fan(H)))
        fan = fan_from_doc(parse_json(text))
        assert fan.polytope is None
        maximal = fan.maximal_cones()
        assert len(maximal) == 8 and all(len(c) == 8 for c in maximal)
        assert fan_predicates(fan) == (True, False, True)

    def test_cone_listing_a_ray_inside_its_wall(self):
        # the octant fan with (1,1,0) listed in the (+,+,+) cone: that
        # cone's wall on z = 0 has the index set of e1, e2 and (1,1,0),
        # the (+,+,-) cone's wall that of e1 and e2, one geometric cone
        rays = [qvec(1, 0, 0), qvec(0, 1, 0), qvec(0, 0, 1),
                qvec(-1, 0, 0), qvec(0, -1, 0), qvec(0, 0, -1),
                qvec(1, 1, 0)]
        octants = [c + (6,) if c == (0, 1, 2) else c
                   for c in itertools.product((0, 3), (1, 4), (2, 5))]
        fan = face_closed(3, rays, octants)
        assert (0, 1, 6) in fan.cone_faces((0, 1, 2, 6))
        assert (6,) not in fan.cones
        assert fan_predicates(fan) == (True, False, True)

    def test_one_rank_per_cone(self, monkeypatch):
        ranked = collections.Counter()
        rank = fan_module.mat_rank

        def counting_rank(rows):
            ranked[tuple(map(tuple, rows))] += 1
            return rank(rows)

        monkeypatch.setattr(fan_module, "mat_rank", counting_rank)
        for H in [HalfspaceRep(2, pentagon_facets(pentagon_field())),
                  halfspaces_from_vertices(SQUARE_PYRAMID)]:
            fan = unmarked(normal_fan(H))
            fan_predicates(fan)
            fan_is_simplicial(fan)
            assert ranked and max(ranked.values()) == 1
            ranked.clear()

    def test_walls_with_more_rays_than_their_dimension(self):
        # an extra ray in each quadrant of the plane z = 0 gives every wall
        # on that plane three rays: the cones over it cover the upper
        # half-space, and together with those under it all of R^3
        plane = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 1, 0), (-1, 0, 0),
                 (-1, -1, 0), (0, -1, 0), (1, -1, 0)]
        rays = [qvec(*r) for r in plane + [(0, 0, 1), (0, 0, -1)]]
        walls = [(q, q + 1, (q + 2) % 8) for q in range(0, 8, 2)]
        upper = [w + (8,) for w in walls]
        lower = [w + (9,) for w in walls]
        half = face_closed(3, rays, upper)
        assert fan_is_valid(half)
        assert not fan_is_complete(half)
        full = face_closed(3, rays, upper + lower)
        assert fan_predicates(full) == (True, False, True)

    @pytest.mark.parametrize("name", list(NON_FANS_WITH_PAIRED_WALLS))
    def test_paired_walls_of_a_non_fan(self, name):
        fan = non_fan_with_paired_walls(name)
        assert fan_is_complete(fan)  # outside its precondition
        # the certificate answers no, and the pairwise path decides
        assert not complete_fan_certificate(fan.rays, fan.maximal_cones(), 2)
        preds, report = verdicts(fan)
        assert not preds.valid and not preds.complete
        assert report.cone_compatibility is False

    def test_one_dimensional_completeness(self):
        complete = Fan(1, [qvec(2), qvec(-1)], [(0,), (1,)])
        assert fan_is_complete(complete)
        half = Fan(1, [qvec(1)], [(0,)])
        assert not fan_is_complete(half)

    def test_sector_coverage_disjointness(self):
        # valid complete 2-fan: consecutive sectors share exactly one ray
        k = pentagon_field()
        fan = normal_fan(HalfspaceRep(2, pentagon_facets(k)))
        maximal = [c for c in fan.maximal_cones()]
        assert len(maximal) == 5
        # each ray appears in exactly two maximal cones
        for i in range(fan.ray_count):
            assert sum(1 for c in maximal if i in c) == 2


class TestPolytopality:
    def test_roundtrip_on_corpus_normal_fans(self):
        for name, H in corpus_polytopes():
            fan = normal_fan(H)
            witness = is_polytopal(fan)
            assert witness is not None, name
            rebuilt = normal_fan(HalfspaceRep(2, list(zip(fan.rays,
                                                          witness))))
            assert fans_equivalent(rebuilt, fan), name

    def test_complete_two_fan_always_polytopal(self):
        # projective-plane style fan, not built from any polytope
        rays = [qvec(1, 0), qvec(0, 1), qvec(-1, -1)]
        fan = Fan(2, rays, [(0, 1), (1, 2), (0, 2), (0,), (1,), (2,)])
        assert is_polytopal(fan) is not None

    def test_precondition_enforced(self):
        fan = Fan(2, [qvec(1, 0), qvec(-1, 0)], [(0,), (1,)])
        with pytest.raises(InvalidFan):
            is_polytopal(fan)

    def test_twisted_cube_is_not_polytopal(self):
        rays, cones = twisted_cube_fan_data(Q)
        fan = Fan(3, rays, cones)
        preds = fan_predicates(fan)
        assert preds.valid and preds.simplicial and preds.complete
        assert is_polytopal(fan) is None

    @pytest.mark.parametrize("from_document", [False, True])
    def test_twisted_cube_takes_one_rank_per_maximal_cone(
            self, monkeypatch, from_document):
        # every face of a simplicial maximal cone takes its rank from it,
        # and a loaded document's faces share the ranks of its cones
        calls = []
        mat_rank = fan_module.mat_rank

        def counting(rows):
            calls.append(rows)
            return mat_rank(rows)

        monkeypatch.setattr(fan_module, "mat_rank", counting)
        fan = Fan(3, *twisted_cube_fan_data(Q))
        if from_document:
            fan = fan_from_doc(parse_json(dumps(fan_to_doc(fan))))
        assert is_polytopal(fan) is None
        assert 0 < len(calls) <= len(fan.maximal_cones())

    def test_twisted_cube_takes_one_elimination_per_wall_and_cone(
            self, monkeypatch):
        # the certificate's one elimination per maximal cone, 12 of them,
        # each solving the cone's walls and point test together, and the
        # 12 ranks (the LP has no equalities to eliminate)
        calls = []
        gauss_jordan = linalg_module._gauss_jordan

        def counting(*args):
            calls.append(args)
            return gauss_jordan(*args)

        monkeypatch.setattr(linalg_module, "_gauss_jordan", counting)
        assert is_polytopal(Fan(3, *twisted_cube_fan_data(Q))) is None
        assert len(calls) <= 24

    def test_twisted_cube_sweep_oracle(self):
        """Independent confirmation: no offset vector with entries in
        (1/2)Z over [-2, 2] (after exact translation normalization) makes
        the support function strictly convex across every wall."""
        rays, cones = twisted_cube_fan_data(Q)
        int_rays = [tuple(int(c.as_fraction()) for c in r) for r in rays]
        maximal = [c for c in cones if len(c) == 3]

        def det3(M):
            return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                    - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                    + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))

        def solve3(A, b):
            d = det3(A)
            assert d != 0
            cols = []
            for j in range(3):
                M = [row[:] for row in A]
                for i in range(3):
                    M[i][j] = b[i]
                cols.append(Fraction(det3(M), d))
            return cols

        # wall inequalities: coefficients over the 8 offsets
        inequalities = []
        for sigma, tau in itertools.permutations(maximal, 2):
            shared = set(sigma) & set(tau)
            if len(shared) != 2:
                continue
            (k,) = set(tau) - shared
            A_t = [[int_rays[j][i] for j in sigma] for i in range(3)]
            c = solve3(A_t, list(int_rays[k]))
            coeffs = [Fraction(0)] * 8
            for pos, j in enumerate(sigma):
                coeffs[j] += c[pos]
            coeffs[k] -= 1
            inequalities.append(coeffs)
        # normalize translation: the vertex of cone (0,1,3) at the origin
        fixed = (0, 1, 3)
        free = [j for j in range(8) if j not in fixed]
        # integerize: offsets are half-integers, scale everything by lcm
        scaled = []
        for coeffs in inequalities:
            lcm = 1
            for c in coeffs:
                lcm = lcm * c.denominator // __import__("math").gcd(
                    lcm, c.denominator)
            scaled.append([int(c * lcm) for c in coeffs])
        grid = range(-4, 5)  # offsets k/2 for k in [-4, 4]
        found = False
        for values in itertools.product(grid, repeat=5):
            lam = [0] * 8
            for j, v in zip(free, values):
                lam[j] = v  # doubled offsets; scaling cancels in signs
            if all(sum(c * l for c, l in zip(coeffs, lam)) > 0
                   for coeffs in scaled):
                found = True
                break
        assert not found


# ---------------------------------------------------------------------------
# the maximal-pair check against the all-pairs definition
# ---------------------------------------------------------------------------

def all_pairs_valid(fan):
    """The fan axioms checked literally: face closure, and every two cones
    (faces included) meeting in a common face."""
    cone_set = set(fan.cones)
    if any(not fan.cone_faces(c) <= cone_set for c in fan.cones):
        return False
    return all(cones_meet_in_common_face(fan.rays, a, b)
               for a, b in itertools.combinations(fan.cones, 2))


def is_pointed(rays, cone, field=Q):
    return strict_lp_feasible([(rays[i], field.zero, ">") for i in cone],
                              len(rays[0]), field) is not None


def primitive(v):
    """The direction of a nonzero integer vector."""
    g = math.gcd(*v)
    return tuple(x // g for x in v)


@st.composite
def small_fans(draw):
    """Random rays in a small box and random pointed cones on them,
    closed under faces."""
    n = draw(st.sampled_from([2, 3]))
    coords = st.lists(st.integers(-2, 2), min_size=n,
                      max_size=n).filter(any)
    raw = draw(st.lists(coords, min_size=n + 1, max_size=6,
                        unique_by=primitive))
    rays = [qvec(*r) for r in raw]
    # cones as ray-index bit masks, at most n + 1 rays each
    masks = draw(st.lists(st.integers(1, 2 ** len(rays) - 1),
                          min_size=2, max_size=4, unique=True))
    subsets = [tuple(i for i in range(len(rays)) if mask >> i & 1)
               for mask in masks]
    cones = [c for c in subsets if len(c) <= n + 1 and is_pointed(rays, c)]
    return face_closed(n, rays, cones)


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_fans())
def test_maximal_pairs_agree_with_all_pairs(fan):
    assert fan_is_valid(fan) == all_pairs_valid(fan)


# ---------------------------------------------------------------------------
# the pairwise check on the double description against its LP forms
# ---------------------------------------------------------------------------

def cone_contains_point(vectors, cone, point, field) -> bool:
    """Exact membership of a point in the cone of the indexed vectors by
    one LP in a variable per vector, the rule the duals replaced, kept as
    their oracle."""
    cone = tuple(cone)
    if not cone:
        return all(x.is_zero() for x in point)
    k = len(cone)
    constraints = [(tuple(vectors[j][i] for j in cone), point[i], "=")
                   for i in range(len(point))]
    for j in range(k):
        unit = [field.zero] * k
        unit[j] = field.one
        constraints.append((tuple(unit), field.zero, ">="))
    return strict_lp_feasible(constraints, k, field) is not None


def cone_contains_index(vectors, cone, index, field, cache=None) -> bool:
    key = (index, tuple(cone))
    if cache is not None and key in cache:
        return cache[key]
    result = cone_contains_point(vectors, cone, vectors[index], field)
    if cache is not None:
        cache[key] = result
    return result


def recursive_cones_meet(vectors, S1, S2, field, cache=None):
    """cones_meet_in_common_face as it was before the double description:
    membership LPs, a separation LP, and a recursion into the separated
    faces F1 and F2."""
    S1, S2 = tuple(S1), tuple(S2)
    F1 = tuple(i for i in S1 if i in S2 or cone_contains_index(
        vectors, S2, i, field, cache))
    F2 = tuple(j for j in S2 if j in S1 or cone_contains_index(
        vectors, S1, j, field, cache))
    if F1 == S1 and F2 == S2:
        return True
    dimension = len(vectors[S1[0]]) if S1 else len(vectors[S2[0]])
    constraints = [(vectors[i], field.zero, "=" if i in F1 else ">")
                   for i in S1]
    constraints += [(vectors[j], field.zero, "=") if j in F2 else
                    (tuple(-x for x in vectors[j]), field.zero, ">")
                    for j in S2]
    if strict_lp_feasible(constraints, dimension, field) is None:
        return False
    return recursive_cones_meet(vectors, F1, F2, field, cache)


def corpus_configurations():
    """Vectors of the corpus configurations over the pentagon field and
    Q(sqrt2)."""
    k, k2 = pentagon_field(), sqrt2_field()
    return [kite_configuration_data(k)[0],
            thick_rhombus_configuration_data(k)[0],
            hirzebruch_configuration_data(k2, k2.alpha)[0]]


@st.composite
def cone_pairs(draw):
    """(vectors, S1, S2, field): two cones, pointed or not and the zero
    cone among them, either on the vectors of a corpus configuration or
    on rays r + alpha s, r and s in a small box, and some of their
    opposites, over Q, Q(sqrt2) or the pentagon field."""
    if draw(st.booleans()):
        vectors = draw(st.sampled_from(corpus_configurations()))
        field = vectors[0][0].field
        n = len(vectors[0])
    else:
        field = draw(st.sampled_from(ORACLE_FIELDS))
        n = draw(st.sampled_from([2, 3]))
        box = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        pairs = draw(st.lists(st.tuples(box, box), min_size=n + 1,
                              max_size=6))
        vectors = [tuple(field.element(r) + field.alpha * field.element(t)
                         for r, t in zip(rs, ts)) for rs, ts in pairs]
        assume(all(any(not x.is_zero() for x in v) for v in vectors))
        # opposite vectors put lines into the cones
        vectors += [tuple(-x for x in v) for v in draw(
            st.lists(st.sampled_from(vectors), max_size=2, unique=True))]
    indices = st.lists(st.integers(0, len(vectors) - 1), max_size=n + 1,
                       unique=True).map(lambda c: tuple(sorted(c)))
    return vectors, draw(indices), draw(indices), field


@settings(max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(cone_pairs())
def test_pairwise_check_agrees_with_its_recursive_form(case):
    vectors, S1, S2, field = case
    assert cones_meet_in_common_face(vectors, S1, S2) == \
        recursive_cones_meet(vectors, S1, S2, field)


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_fans())
def test_pairwise_check_agrees_with_its_recursive_form_on_fans(fan):
    for a, b in itertools.combinations(fan.cones, 2):
        assert cones_meet_in_common_face(fan.rays, a, b) == \
            recursive_cones_meet(fan.rays, a, b, fan.field)


# (vectors, S1, S2, whether the cones meet in a common face), with lines
WEDGE = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1),
         (0, -1, 1)]
PLANE = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]
PAIR_CASES = {
    # {y, z >= 0} and {z >= |y|} meet in {z >= y >= 0}, which holds
    # (0, 1, 1) off the face {y = 0} the rays of the first span there
    "wedges": (WEDGE, (0, 1, 2, 3), (0, 1, 4, 5), False),
    "wedge and its facet": (WEDGE, (0, 1, 2, 3), (0, 1, 3), True),
    "opposite half-planes": (PLANE, (0, 1, 2), (0, 1, 3), True),
    "line in a half-plane": (PLANE, (0, 1), (0, 1, 2), True),
    "ray inside a half-plane": (PLANE, (0, 1, 2), (4,), False),
    "ray in the plane": (PLANE, (0, 1, 2, 3), (4,), False),
    "zero cone and a half-plane": (PLANE, (), (0, 1, 2), False),
    "zero cone and a ray": (PLANE, (), (4,), True),
}


@pytest.mark.parametrize("name", sorted(PAIR_CASES))
@pytest.mark.parametrize("field", ["Q", "sqrt2", "pentagon"])
def test_pairwise_check_on_cones_with_lines(name, field):
    k = {"Q": Q, "sqrt2": sqrt2_field(), "pentagon": pentagon_field()}[field]
    vectors, S1, S2, expected = PAIR_CASES[name]
    vectors = embedded_rays(k, vectors)
    for a, b in ((S1, S2), (S2, S1)):
        assert cones_meet_in_common_face(vectors, a, b) is expected
        assert recursive_cones_meet(vectors, a, b, k) is expected


def test_repeated_ray_configuration_takes_no_lp(monkeypatch):
    # one dual per simplex and one double description of their meet;
    # covering reads the same duals, and the Fan rejects the repeated ray
    lps = counting(monkeypatch, "strict_lp_feasible")
    dds = counting(monkeypatch, "extreme_rays")
    config = VectorConfiguration(
        2, [qvec(1, 0), qvec(2, 0), qvec(0, 1), qvec(-1, -1)])
    report = config_validate(config, Triangulation([(0, 2), (1, 3)]))
    assert report.complete is None
    assert not lps
    v = config.vectors
    assert [list(rows) for rows, in dds[:2]] == [[v[0], v[2]], [v[1], v[3]]]
    assert len(dds) == 3


@st.composite
def cone_points(draw):
    """(vectors, cone, point, field): up to 5 vectors r + alpha s, r and
    s in a small box, over Q, Q(sqrt2) or the pentagon field, some of
    them repeated; a cone on up to 5 of them, which may be simplicial or
    not, pointed or not, or the zero cone; and a point that is one of
    the vectors, an integer combination of the cone's vectors or a new
    vector."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    n = draw(st.integers(1, 3))
    box = st.lists(st.integers(-2, 2), min_size=n, max_size=n)

    def vector():
        return tuple(field.element(r) + field.alpha * field.element(t)
                     for r, t in zip(draw(box), draw(box)))

    vectors = [vector() for _ in range(draw(st.integers(1, 5)))]
    vectors += draw(st.lists(st.sampled_from(vectors), max_size=2))
    cone = tuple(sorted(draw(st.sets(
        st.integers(0, len(vectors) - 1), max_size=5))))
    kind = draw(st.sampled_from(["vector", "combination", "new"]))
    if kind == "vector":
        point = draw(st.sampled_from(vectors))
    elif kind == "combination":
        point = tuple(field.zero for _ in range(n))
        for i in cone:
            c = draw(st.integers(-1, 2))
            point = tuple(x + c * y for x, y in zip(point, vectors[i]))
    else:
        point = vector()
    return vectors, cone, point, field


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cone_points())
def test_membership_from_the_dual_agrees_with_lp(case):
    vectors, cone, point, field = case
    assert fan_module.in_cone(fan_module.cone_dual(vectors, cone), point) \
        == cone_contains_point(vectors, cone, point, field)


# (vectors, cone, points in it, points outside it) in the plane
MEMBERSHIP_CASES = {
    "simplicial": ([(1, 0), (1, 1)], (0, 1), [(2, 1), (0, 0)],
                   [(0, 1), (-1, 0)]),
    "non-simplicial": ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
                       (0, 1, 2, 3), [(0, 0, 1), (1, 0, 1)],
                       [(1, 1, 1), (0, 0, -1)]),
    "half-plane": ([(1, 0), (-1, 0), (0, 1)], (0, 1, 2),
                   [(-3, 0), (5, 2)], [(0, -1)]),
    "line": ([(1, 2), (-1, -2)], (0, 1), [(-2, -4), (0, 0)], [(1, 1)]),
    "zero cone": ([(1, 0)], (), [(0, 0)], [(1, 0), (-1, 0)]),
    "repeated": ([(1, 0), (1, 0), (0, 1)], (0, 1), [(3, 0)],
                 [(0, 1), (-1, 0)]),
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_CASES))
@pytest.mark.parametrize("field", ["Q", "sqrt2", "pentagon"])
def test_membership_from_the_dual_on_named_cones(name, field):
    k = {"Q": Q, "sqrt2": sqrt2_field(), "pentagon": pentagon_field()}[field]
    vectors, cone, inside, outside = MEMBERSHIP_CASES[name]
    vectors = embedded_rays(k, vectors)
    dual = fan_module.cone_dual(vectors, cone)
    for points, expected in ((inside, True), (outside, False)):
        for point in embedded_rays(k, points):
            assert fan_module.in_cone(dual, point) is expected
            assert cone_contains_point(vectors, cone, point, k) is expected


def forbid_lp(monkeypatch):
    """Make every module's strict_lp_feasible raise."""
    def refused(*args):
        raise AssertionError("an LP was asked")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quasitoric" and hasattr(
                module, "strict_lp_feasible"):
            monkeypatch.setattr(module, "strict_lp_feasible", refused)


def cone_over_20_gon(apex):
    """The cone over 20 points (1 - t^2, 2t, 1 + t^2) of the circle, a
    pointed cone with 20 facets, and the ray apex, face-closed."""
    rays = [qvec(1 - t * t, 2 * t, 1 + t * t)
            for t in (Fraction(k, 5) for k in range(-10, 10))]
    return face_closed(3, rays + [qvec(*apex)], [tuple(range(20)), (20,)])


def test_cone_over_20_gon_and_its_opposite_ray_is_a_fan(monkeypatch):
    # the membership LP of the opposite ray in the 20-ray cone exceeded
    # the LP's variable budget
    forbid_lp(monkeypatch)
    fan = cone_over_20_gon((0, 0, -1))
    assert len(fan.cone_faces(tuple(range(20)))) == 42
    assert fan_predicates(fan) == (True, False, False)


def test_ray_inside_the_cone_over_20_gon_is_no_fan(monkeypatch):
    forbid_lp(monkeypatch)
    assert not fan_is_valid(cone_over_20_gon((0, 0, 1)))


def test_refused_triangulation_validates_without_lp(monkeypatch):
    forbid_lp(monkeypatch)
    config = VectorConfiguration(2, [qvec(1, 0), qvec(0, 1), qvec(-1, 0),
                                     qvec(1, 1)])
    report = config_validate(config, Triangulation([(0, 1), (1, 2)]))
    assert report.cone_compatibility and report.covering
    assert report.complete is False
    report = config_validate(config, Triangulation([(0, 1), (2, 3)]))
    assert not report.cone_compatibility


# ---------------------------------------------------------------------------
# cone faces from the double-description engine against the LP rule
# ---------------------------------------------------------------------------

def lp_cone_faces(rays, cone):
    """The faces of a cone by the rule cone_faces used before the
    double-description engine, kept as its oracle: the cone itself and
    every proper index subset on which some linear functional vanishes
    while it is positive on the other rays, one exact LP per subset."""
    faces = {cone}
    for r in range(len(cone)):
        for sub in itertools.combinations(cone, r):
            constraints = [(rays[i], Q.zero, "=" if i in sub else ">")
                           for i in cone]
            if strict_lp_feasible(constraints, len(rays[0]), Q) is not None:
                faces.add(sub)
    return faces


@st.composite
def one_cone_fans(draw):
    """A fan holding no cone yet, on 3 to 6 random rays in a small box in
    dimension 2 to 4; the cone of all its rays is mostly not simplicial,
    and sometimes not pointed."""
    n = draw(st.integers(2, 4))
    coords = st.lists(st.integers(-2, 2), min_size=n,
                      max_size=n).filter(any)
    raw = draw(st.lists(coords, min_size=3, max_size=6,
                        unique_by=primitive))
    return Fan(n, [qvec(*r) for r in raw], [])


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(one_cone_fans())
def test_cone_faces_agree_with_lp_rule(fan):
    cone = tuple(range(fan.ray_count))
    assert fan.cone_faces(cone) == lp_cone_faces(fan.rays, cone)


def projected_cone_faces(fan, cone):
    """The faces of a non-simplicial cone by the rule cone_faces used
    before the double-description engine took cones with lines, kept as
    its oracle: the zero sets of the extreme rays of the dual cone taken
    in coordinates of the span of the rays (the pivot coordinates of
    their reduced echelon form), where the dual is pointed."""
    rays = [fan.rays[i] for i in cone]
    span = [next(k for k, x in enumerate(row) if not x.is_zero())
            for row in rref_rows(rays)]
    dual, lines = extreme_rays([tuple(r[k] for k in span) for r in rays])
    assert not lines
    facets = {frozenset(cone[p] for p in zero) for _, zero in dual}
    faces = {tuple(sorted(face)) for face in intersection_closure(facets)}
    faces.add(cone)
    return faces


# rays of non-simplicial cones that are not full-dimensional, with their
# faces: three rays of a plane in R^3, the middle one inside the cone of
# the other two, and the cone over a square in a 3-space of R^4
LOW_CONES = {
    "planar": ([(1, 0, 0), (1, 1, 0), (0, 1, 0)],
               {(), (0,), (2,), (0, 1, 2)}),
    "square": ([(1, 1, 1, 0), (1, -1, 1, 0), (-1, -1, 1, 0),
                (-1, 1, 1, 0)],
               {(), (0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3),
                (0, 3), (0, 1, 2, 3)}),
}


def embedded_rays(k, rays):
    """The rays under the invertible map x -> M x, M upper triangular
    with ones on the diagonal and, above it, the entries 1 + j alpha
    (plain integers over Q), so no ray lies in a coordinate subspace it
    did not span before."""
    n = len(rays[0])
    entry = (lambda j: k.element(1 + j)) if k is Q else (
        lambda j: k.one + j * k.alpha)
    M = [[k.one if i == j else entry(j) if i < j else k.zero
          for j in range(n)] for i in range(n)]
    return [tuple(dot(row, [k.element(x) for x in ray]) for row in M)
            for ray in rays]


@pytest.mark.parametrize("name", sorted(LOW_CONES))
@pytest.mark.parametrize("field", ["Q", "pentagon"])
def test_cone_faces_of_cones_with_dual_lines(name, field):
    rays, expected = LOW_CONES[name]
    k = Q if field == "Q" else pentagon_field()
    fan = Fan(len(rays[0]), embedded_rays(k, rays), [])
    cone = tuple(range(len(rays)))
    assert fan.cone_rank(cone) == len(rays[0]) - 1 < len(rays)
    assert extreme_rays(fan.rays)[1]    # the dual cone has a line
    assert fan.cone_faces(cone) == expected
    assert projected_cone_faces(fan, cone) == expected


# ---------------------------------------------------------------------------
# the wall-pairing completeness test against independent references
# ---------------------------------------------------------------------------

def angular_complete_2d(fan):
    """Completeness of a 2-fan by angular order: consecutive rays span
    sectors below pi that are cones of the fan."""
    def upper(r):
        return r[1].sign() > 0 or (r[1].is_zero() and r[0].sign() > 0)

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def cmp(i, j):
        a, b = fan.rays[i], fan.rays[j]
        if upper(a) != upper(b):
            return -1 if upper(a) else 1
        return -cross(a, b).sign()

    k = fan.ray_count
    if k < 3:
        return False
    order = sorted(range(k), key=functools.cmp_to_key(cmp))
    for i, j in zip(order, order[1:] + order[:1]):
        if cross(fan.rays[i], fan.rays[j]).sign() <= 0:
            return False
        if not any(i in c and j in c for c in fan.cones):
            return False
    return True


@st.composite
def normal_fans_minus_one_cone(draw):
    """The normal fan of a random lattice polytope in dimension 2 or 3,
    with one maximal cone removed or none; returns (fan, removed)."""
    n = draw(st.sampled_from([2, 3]))
    coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    points = draw(st.lists(coords, min_size=n + 1, max_size=n + 4,
                           unique_by=tuple))
    try:
        H = halfspaces_from_vertices([qvec(*p) for p in points])
    except NotFullDimensional:
        assume(False)
    fan = normal_fan(H)
    maximal = fan.maximal_cones()
    removed = draw(st.sampled_from((None,) + maximal))
    fan = Fan(n, fan.rays, [c for c in fan.cones if c != removed])
    return fan, removed


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(normal_fans_minus_one_cone())
def test_wall_pairing_agrees_with_references(case):
    fan, removed = case
    assert fan_is_valid(fan)
    expected = removed is None
    if fan.dimension == 2:
        assert angular_complete_2d(fan) == expected
    assert fan_is_complete(fan) == expected


# ---------------------------------------------------------------------------
# normal-fan verdicts from the polytope certificate against the LP path
# ---------------------------------------------------------------------------

@st.composite
def polytopes_with_extra_facets(draw):
    """The hull of random lattice points in dimension 2 or 3, maybe cut
    through the middle by one more halfspace, plus up to two halfspaces
    that do not change it: a scaled copy of a facet, one through a vertex,
    or one below every vertex."""
    n = draw(st.sampled_from([2, 3]))
    coords = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    points = draw(st.lists(coords, min_size=n + 1, max_size=n + 3,
                           unique_by=tuple))
    try:
        H = halfspaces_from_vertices([qvec(*p) for p in points])
    except NotFullDimensional:
        assume(False)
    facets = list(zip(H.normals, H.offsets))

    def values(normal):
        return sorted((dot(v, normal).as_fraction()
                       for v in vertices_from_halfspaces(H).vertices))

    if draw(st.booleans()):
        normal = qvec(*draw(coords.filter(any)))
        low, *_, high = values(normal)
        assume(low < high)
        facets.append((normal, Q.element((low + high) / 2)))
        H = HalfspaceRep(n, facets)
    kinds = st.sampled_from(["duplicate", "touching", "loose"])
    for kind in draw(st.lists(kinds, max_size=2)):
        if kind == "duplicate":
            normal, offset = draw(st.sampled_from(facets))
            scale = Q.element(draw(st.integers(1, 3)))
            facets.append((tuple(scale * x for x in normal), scale * offset))
        else:
            normal = qvec(*draw(coords.filter(any)))
            low = values(normal)[0]
            facets.append((normal, Q.element(low if kind == "touching"
                                             else low - 1)))
    draw(st.randoms(use_true_random=False)).shuffle(facets)
    return HalfspaceRep(n, facets)


@settings(max_examples=50, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(polytopes_with_extra_facets())
@example(halfspaces_from_vertices(SQUARE_PYRAMID))
@example(halfspaces_from_vertices(OCTAHEDRON))
def test_certificate_agrees_with_lp(H):
    # the vertex-incidence rule of redundant_facets and normal_fan against
    # the LP test and the face lattice: facet j is irredundant iff some
    # (n-1)-face has facet set {j}, and the cones are the faces' facet sets
    V = vertices_from_halfspaces(H)
    lattice = face_lattice(H, V)
    redundant = redundant_facets(H)
    assert redundant == redundant_facets_lp(H)
    facets = lattice.of_dimension(H.dimension - 1)
    assert redundant == [j for j in range(H.facet_count)
                         if frozenset({j}) not in facets]
    if not redundant:
        fan = normal_fan(H)
        assert set(fan.cones) == {tuple(sorted(face))
                                  for face, _ in lattice.faces}
        preds = fan_predicates(fan)
        assert preds == (True, is_simple(H, V), True)
        assert preds == fan_predicates(unmarked(fan))


def rank_face_lattice(H, V):
    """face_lattice with the dimension of each face n minus the rank of
    its active normals: the reference of the grading."""
    n = H.dimension
    sets = intersection_closure({frozenset(a) for a in V.active})
    sets.add(frozenset())
    faces = [(s, n - mat_rank([list(H.normals[j]) for j in sorted(s)])
              if s else n) for s in sets]
    faces.sort(key=lambda t: (-t[1], sorted(t[0])))
    return FaceLattice(n, tuple(faces))


@settings(max_examples=50, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(polytopes_with_extra_facets())
@example(halfspaces_from_vertices(SQUARE_PYRAMID))
@example(halfspaces_from_vertices(OCTAHEDRON))
def test_face_dimensions_from_grading_agree_with_rank(H):
    # nonsimple vertices and halfspaces that touch or repeat a facet make
    # active sets larger than n, where rank and set size part ways
    V = vertices_from_halfspaces(H)
    assert face_lattice(H, V) == rank_face_lattice(H, V)


# ---------------------------------------------------------------------------
# the complete-fan certificate against the pairwise path
# ---------------------------------------------------------------------------

def lp_path_verdicts(fan):
    """verdicts with the certificate switched off, so that every answer
    comes from the pairwise path."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (fan_module, configuration_module):
            patch.setattr(module, "complete_fan_certificate",
                          lambda *args: False)
        return verdicts(Fan(fan.dimension, fan.rays, fan.cones))


@st.composite
def certificate_cases(draw):
    """The unmarked normal fan of the hull of random lattice points in
    dimension 1 to 4, or of its polar (simplicial whenever the hull is),
    as it is, with one maximal cone dropped, or with one ray negated."""
    n = draw(st.integers(1, 4))
    coords = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    points = draw(st.lists(coords, min_size=n + 1, max_size=n + 2,
                           unique_by=tuple))
    if draw(st.booleans()):
        # centre the points so that the origin is inside their hull
        total = [sum(column) for column in zip(*points)]
        points = [[len(points) * x - t for x, t in zip(p, total)]
                  for p in points]
    try:
        H = halfspaces_from_vertices([qvec(*p) for p in points])
    except NotFullDimensional:
        assume(False)
    if all(b.sign() < 0 for b in H.offsets) and draw(st.booleans()):
        vertices = vertices_from_halfspaces(H).vertices
        H = HalfspaceRep(n, [(v, Q.element(-1)) for v in vertices])
    fan = normal_fan(H)
    rays, cones = list(fan.rays), list(fan.cones)
    mutation = draw(st.sampled_from(["none", "drop", "negate"]))
    if mutation == "drop":
        cones.remove(draw(st.sampled_from(fan.maximal_cones())))
    elif mutation == "negate":
        k = draw(st.integers(0, len(rays) - 1))
        rays[k] = tuple(-x for x in rays[k])
    try:
        return Fan(n, rays, cones)
    except InvalidFan:  # the negated ray is another ray's opposite
        assume(False)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(certificate_cases())
@example(non_fan_with_paired_walls("pentagram"))
@example(non_fan_with_paired_walls("fold"))
def test_complete_fan_certificate_agrees_with_lp_path(fan):
    expected = lp_path_verdicts(fan)
    assert verdicts(fan) == expected
    if complete_fan_certificate(fan.rays, fan.maximal_cones(),
                                fan.dimension):
        assert expected[0] == (True, True, True)


def _wall_owners(maximal) -> dict:
    """Each wall of the simplicial cones on the index tuples in maximal,
    a cone less one ray, mapped to its owners: (position in maximal,
    apex) for each cone on it, the apex being the ray it adds."""
    owners = {}
    for pos, cone in enumerate(maximal):
        for apex in cone:
            wall = tuple(i for i in cone if i != apex)
            owners.setdefault(wall, []).append((pos, apex))
    return owners


def kernel_sign_certificate(vectors, maximal, n) -> bool:
    """complete_fan_certificate as it was: a kernel vector of each wall
    and the signs of its dot products with the two apexes."""
    maximal = list(maximal)
    if any(len(cone) != n for cone in maximal):
        return False
    zero = vectors[maximal[0][0]][0].field.zero
    for wall, owners in _wall_owners(maximal).items():
        if len(owners) != 2:
            return False
        # n = 1: the wall () spans {0}, whose normal space is all of R
        rows = [list(vectors[i]) for i in wall] or [[zero] * n]
        kernel = rank_kernel_solve(rows).kernel
        if len(kernel) != 1:
            return False
        a, b = (dot(kernel[0], vectors[k]).sign() for _, k in owners)
        if a * b != -1:
            return False
    first, *others = maximal
    point = [sum((vectors[j][i] for j in first), zero) for i in range(n)]
    for cone in others:
        A_t = [[vectors[j][i] for j in cone] for i in range(n)]
        if all(x.sign() >= 0 for x in solve_unique(A_t, [point])[0]):
            return False
    return True


def assert_certificates_agree(vectors, maximal, n):
    relations = complete_fan_certificate(vectors, maximal, n)
    assert bool(relations) == kernel_sign_certificate(vectors, maximal, n)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(certificate_cases())
@example(non_fan_with_paired_walls("pentagram"))
@example(non_fan_with_paired_walls("fold"))
@example(non_fan_with_paired_walls("zig-zag"))
def test_relation_certificate_agrees_with_kernel_signs(fan):
    assert_certificates_agree(fan.rays, fan.maximal_cones(), fan.dimension)


def algebraic_certificate_cases():
    """Cases (rays, maximal cones, n) over Q(sqrt2) and the pentagon
    field: normal fans of corpus polygons and the fans of corpus
    configurations, as they are, with one maximal cone dropped, or with
    one ray negated; plus 1-d fans on two rays that point the same way or
    opposite ways."""
    k, k2 = pentagon_field(), sqrt2_field()
    fans = []
    for name, facets in [("pentagon", pentagon_facets(k)),
                         ("kite", kite_facets(k)),
                         ("thick-rhombus", thick_rhombus_facets(k)),
                         ("thin-rhombus", thin_rhombus_facets(k)),
                         ("trapezoid-sqrt2", trapezoid_facets(k2, k2.alpha))]:
        fan = normal_fan(HalfspaceRep(2, facets))
        fans.append((name, list(fan.rays), list(fan.maximal_cones())))
    for name, (vectors, maximal, _) in [
            ("kite-config", kite_configuration_data(k)),
            ("thick-rhombus-config", thick_rhombus_configuration_data(k)),
            ("hirzebruch-sqrt2-config",
             hirzebruch_configuration_data(k2, k2.alpha))]:
        fans.append((name, list(vectors), list(maximal)))
    cases = []
    for name, rays, maximal in fans:
        cases.append(pytest.param(rays, maximal, 2, id=name))
        for cone in maximal:
            dropped = [c for c in maximal if c != cone]
            cases.append(pytest.param(rays, dropped, 2,
                                      id=f"{name}-drop{cone}"))
        for j in range(len(rays)):
            negated = list(rays)
            negated[j] = tuple(-x for x in rays[j])
            cases.append(pytest.param(negated, maximal, 2,
                                      id=f"{name}-negate{j}"))
    for sign in (1, -1):
        rays = [(k2.alpha,), (sign * (k2.one + k2.alpha),)]
        cases.append(pytest.param(rays, [(0,), (1,)], 1,
                                  id=f"sqrt2-line{sign}"))
    return cases


@pytest.mark.parametrize("rays,maximal,n", algebraic_certificate_cases())
def test_relation_certificate_agrees_with_kernel_signs_over_algebraic_fields(
        rays, maximal, n):
    assert_certificates_agree(rays, maximal, n)


def per_wall_certificate(vectors, maximal, n):
    """complete_fan_certificate as it was: one solve per wall and one per
    point test."""
    maximal = list(maximal)
    if any(len(cone) != n for cone in maximal):
        return None
    relations = []
    for owners in _wall_owners(maximal).values():
        if len(owners) != 2:
            return None
        (s, a), (_, k) = owners
        sigma = maximal[s]
        A_t = [[vectors[j][i] for j in sigma] for i in range(n)]
        try:
            c, = solve_unique(A_t, [vectors[k]])
        except ValueError:
            return None
        if c[sigma.index(a)].sign() >= 0:
            return None
        relations.append((sigma, c, k))
    zero = vectors[maximal[0][0]][0].field.zero
    first, *others = maximal
    point = [sum((vectors[j][i] for j in first), zero) for i in range(n)]
    for cone in others:
        A_t = [[vectors[j][i] for j in cone] for i in range(n)]
        if all(x.sign() >= 0 for x in solve_unique(A_t, [point])[0]):
            return None
    return relations


def signs_asked(certificate, *args):
    """(the relations as (cone, (num, den) of each coefficient, apex) or
    None, the set of (num, den) whose sign the certificate asked)."""
    asked = set()
    sign = FieldElement.sign

    def recording(x):
        asked.add((x.num, x.den))
        return sign(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FieldElement, "sign", recording)
        relations = certificate(*args)
    if relations is None:
        return None, asked
    return [(s, tuple((x.num, x.den) for x in c), k)
            for s, c, k in relations], asked


@st.composite
def wall_certificate_cases(draw):
    """A certificate case carried into Q, Q(sqrt2) or the pentagon field
    by an invertible map I + alpha E, E with entries in {-1, 0, 1}, and
    each ray scaled by p + q alpha, p in 1..3 and q in {0, 1}: the map
    and the positive scales keep fans fans and non-fans non-fans."""
    fan = draw(certificate_cases())
    field = draw(st.sampled_from(ORACLE_FIELDS))
    n = fan.dimension
    alpha = field.alpha
    M = [[field.element(int(i == j)) + draw(st.integers(-1, 1)) * alpha
          for j in range(n)] for i in range(n)]
    assume(mat_rank(M) == n)
    vectors = []
    for ray in fan.rays:
        scale = draw(st.integers(1, 3)) + draw(st.integers(0, 1)) * alpha
        image = [sum((row[j] * ray[j].as_fraction() for j in range(n)),
                     field.zero) for row in M]
        vectors.append(tuple(scale * x for x in image))
    return vectors, fan.maximal_cones(), n


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(wall_certificate_cases())
@example(kite_configuration_data(pentagon_field())[:2] + (2,))
@example(thick_rhombus_configuration_data(pentagon_field())[:2] + (2,))
def test_one_elimination_per_cone_agrees_with_one_solve_per_wall(case):
    vectors, maximal, n = case
    expected, expected_asked = signs_asked(per_wall_certificate, *case)
    relations, asked = signs_asked(complete_fan_certificate, *case)
    assert relations == expected
    if expected is not None:
        assert asked == expected_asked


# ---------------------------------------------------------------------------
# keyed fan bookkeeping against the pairwise loops it replaced
# ---------------------------------------------------------------------------

ORACLE_FIELDS = (Q, sqrt2_field(), pentagon_field())


def pairwise_ray_check(rays):
    """Fan's repeated-ray check as it was: positively_proportional on
    every pair of rays, in order."""
    for i, j in itertools.combinations(range(len(rays)), 2):
        if positively_proportional(rays[i], rays[j]):
            raise InvalidFan(
                f"rays {i} and {j} are positive multiples of each other")


def pairwise_fans_equivalent(f1, f2):
    """fans_equivalent as it was: every ray of f1 against every ray of
    f2."""
    if f1.dimension != f2.dimension or f1.ray_count != f2.ray_count:
        return False
    perm = []
    for r in f1.rays:
        matches = [j for j, s in enumerate(f2.rays)
                   if positively_proportional(r, s)]
        if len(matches) != 1:
            return False
        perm.append(matches[0])
    if len(set(perm)) != len(perm):
        return False
    mapped = {tuple(sorted(perm[i] for i in cone)) for cone in f1.cones}
    return mapped == set(f2.cones)


def asked_signs(thunk):
    """thunk's result, or its InvalidFan message, and the set of the
    irrational values whose sign it asked."""
    asked = set()
    sign = FieldElement.sign

    def recording(x):
        if not x.is_rational():
            asked.add((x.num, x.den))
        return sign(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FieldElement, "sign", recording)
        try:
            result = thunk()
        except InvalidFan as error:
            result = str(error)
    return result, asked


@st.composite
def ray_lists(draw):
    """(field, n, rays): a few nonzero rays a + b alpha over Q, Q(sqrt 2)
    or the pentagon field, plus multiples of them by factors of either
    sign, 1 among them, inserted anywhere: parallel, antiparallel and
    repeated rays."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    n = draw(st.integers(1, 3))
    small = st.integers(-2, 2)

    def element():
        return field.element(draw(small)) + draw(small) * field.alpha

    def ray():
        r = tuple(element() for _ in range(n))
        assume(not all(x.is_zero() for x in r))
        return r

    base = [ray() for _ in range(draw(st.integers(1, 4)))]
    rays = list(base)
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.sampled_from(base))
        c = draw(st.sampled_from([field.one, -field.one, None]))
        if c is None:
            c = element()
            assume(not c.is_zero())
        rays.insert(draw(st.integers(0, len(rays))),
                    tuple(c * x for x in r))
    return field, n, rays


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(ray_lists())
def test_keyed_ray_check_agrees_with_pairwise_loop(case):
    _, n, rays = case
    keyed = asked_signs(lambda: Fan(n, rays, ()) and None)
    assert keyed == asked_signs(lambda: pairwise_ray_check(rays))


@st.composite
def fan_pairs(draw):
    """Two fans on the rays of ray_lists: the second on the rays of the
    first, reordered and each scaled by a square, negated or not, and on
    the cones of the first, maybe with one dropped."""
    field, n, rays = draw(ray_lists())
    masks = draw(st.lists(st.integers(1, 2 ** len(rays) - 1), max_size=3))
    cones = [tuple(i for i in range(len(rays)) if mask >> i & 1)
             for mask in masks]
    try:
        f1 = Fan(n, rays, cones)
    except InvalidFan:
        assume(False)
    perm = draw(st.permutations(range(len(rays))))
    moved = [None] * len(rays)
    for i, r in enumerate(rays):
        c = field.element(draw(st.integers(1, 3))) + draw(
            st.integers(-1, 1)) * field.alpha
        c = c * c
        if draw(st.integers(0, 4)) == 0:
            c = -c
        moved[perm[i]] = tuple(c * x for x in r)
    mapped = [tuple(perm[i] for i in cone) for cone in f1.cones]
    if mapped and draw(st.booleans()):
        mapped.pop(draw(st.integers(0, len(mapped) - 1)))
    try:
        f2 = Fan(n, moved, mapped)
    except InvalidFan:
        assume(False)
    return f1, f2


@settings(max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(fan_pairs())
def test_keyed_fans_equivalent_agrees_with_pairwise_scan(case):
    f1, f2 = case
    keyed = asked_signs(lambda: fans_equivalent(f1, f2))
    assert keyed == asked_signs(lambda: pairwise_fans_equivalent(f1, f2))


def index_set_maximal(cones):
    """Cones not properly contained (as index sets) in another cone: the
    definition, over all pairs."""
    return tuple(c for c in cones
                 if not any(set(c) < set(d) for d in cones))


@st.composite
def cone_collections(draw):
    """Random rays in a small box and random index sets on them, not
    closed under faces."""
    n = draw(st.sampled_from([2, 3]))
    coords = st.lists(st.integers(-2, 2), min_size=n,
                      max_size=n).filter(any)
    raw = draw(st.lists(coords, min_size=1, max_size=6,
                        unique_by=primitive))
    masks = draw(st.lists(st.integers(1, 2 ** len(raw) - 1), max_size=8))
    cones = [tuple(i for i in range(len(raw)) if mask >> i & 1)
             for mask in masks]
    return n, [qvec(*r) for r in raw], cones


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cone_collections())
def test_maximal_cones_agree_with_index_set_definition(case):
    n, rays, cones = case
    fan = Fan(n, rays, cones)
    assert fan.maximal_cones() == index_set_maximal(fan.cones)
    pointed = [c for c in fan.cones if is_pointed(rays, c)]
    closed = Fan(n, rays, pointed).face_closure()
    assert closed.maximal_cones() == index_set_maximal(closed.cones)


def wall_crossing_rows(fan):
    """The wall-crossing constraints as is_polytopal built them before
    walls were keyed: one solve per ordered pair of adjacent maximal
    cones."""
    n, d, field = fan.dimension, fan.ray_count, fan.field
    maximal = [c for c in fan.maximal_cones() if len(c) == n]
    constraints = []
    for sigma, tau in itertools.permutations(maximal, 2):
        shared = set(sigma) & set(tau)
        if len(shared) != n - 1:
            continue
        (k,) = set(tau) - shared
        A_t = [[fan.rays[j][i] for j in sigma] for i in range(n)]
        c, = solve_unique(A_t, [fan.rays[k]])
        coeffs = [field.zero] * d
        for pos, j in enumerate(sigma):
            coeffs[j] = c[pos]
        coeffs[k] = coeffs[k] - field.one
        constraints.append((tuple(coeffs), field.zero, ">"))
    return constraints


def polytopal_rows(fan):
    """The constraints is_polytopal hands to the LP, as (num, den) pairs,
    and its answer."""
    calls = []

    def recording(constraints, *args):
        calls.append(constraints)
        return strict_lp_feasible(constraints, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fan_module, "strict_lp_feasible", recording)
        witness = is_polytopal(fan)
    return as_pairs(calls[0]), witness


def as_pairs(constraints):
    return [(tuple((x.num, x.den) for x in coeffs), (b.num, b.den),
             relation) for coeffs, b, relation in constraints]


@st.composite
def simple_polytopes(draw):
    """The hull of random lattice points in the plane, or the polar of
    that of random points around the origin in space when it is simple."""
    n = draw(st.sampled_from([2, 3]))
    coords = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    points = draw(st.lists(coords, min_size=n + 1, max_size=n + 3,
                           unique_by=tuple))
    total = [sum(column) for column in zip(*points)]
    points = [[len(points) * x - t for x, t in zip(p, total)]
              for p in points]
    try:
        H = halfspaces_from_vertices([qvec(*p) for p in points])
    except NotFullDimensional:
        assume(False)
    if n == 3:
        assume(all(b.sign() < 0 for b in H.offsets))
        vertices = vertices_from_halfspaces(H).vertices
        H = HalfspaceRep(n, [(v, Q.element(-1)) for v in vertices])
        assume(is_simple(H, vertices_from_halfspaces(H)))
    return H


def assert_rows_serve_the_oracle(fan):
    """is_polytopal's rows are half of the ordered-pair rows, one per
    wall, and the LP over them answers as over all of those; returns
    the witness."""
    rows, witness = polytopal_rows(fan)
    oracle = wall_crossing_rows(fan)
    walls = {tuple(i for i in cone if i != apex)
             for cone in fan.maximal_cones() for apex in cone}
    assert set(rows) <= set(as_pairs(oracle))
    assert len(rows) == len(walls)
    assert 2 * len(rows) == len(oracle)
    assert witness == strict_lp_feasible(oracle, fan.ray_count, fan.field)
    return witness


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(simple_polytopes())
@example(truncated_cube(0))
@example(truncated_cube(4))
@example(HalfspaceRep(2, pentagon_facets(pentagon_field())))
def test_wall_keyed_rows_equal_ordered_pair_rows(H):
    assert assert_rows_serve_the_oracle(normal_fan(H)) is not None


def test_twisted_cube_rows_equal_ordered_pair_rows():
    fan = Fan(3, *twisted_cube_fan_data(Q))
    assert assert_rows_serve_the_oracle(fan) is None
