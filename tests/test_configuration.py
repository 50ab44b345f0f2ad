import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import Q, qvec
from quasitoric import configuration as configuration_module
from quasitoric import fan as fan_module
from quasitoric.configuration import (
    AugmentedTriple,
    Triangulation,
    VectorConfiguration,
    augment,
    config_validate,
    decode,
)
from quasitoric.corpus import (
    fifth_roots_of_unity,
    hirzebruch_configuration_data,
    kite_configuration_data,
    pentagon_field,
    sqrt2_field,
    thick_rhombus_configuration_data,
    thin_rhombus_facets,
    trapezoid_facets,
    trapezoid_quasilattice_generators,
    unit_square_facets,
)
from quasitoric.errors import (
    FanNotComplete,
    FanNotSimplicial,
    InvalidConfiguration,
)
from quasitoric.fan import (
    Fan,
    complete_fan_certificate,
    cones_meet_in_common_face,
    fans_equivalent,
    normal_fan,
)
from quasitoric.linalg import mat_rank
from quasitoric.polytope import HalfspaceRep
from quasitoric.quasilattice import ql_span
from quasitoric.triple import FundamentalTriple


def build(field, data):
    vectors, maximal, ghosts = data
    return (VectorConfiguration(2, vectors, ghosts),
            Triangulation(maximal))


class TestValidate:
    def test_completeness_domain_error_reads_null(self):
        # vectors 0 and 1 are positive multiples, so no fan can be built
        config = VectorConfiguration(
            2, [qvec(1, 0), qvec(2, 0), qvec(0, 1), qvec(-1, -1)])
        report = config_validate(config, Triangulation([(0, 2), (1, 3)]))
        assert report.complete is None

    def test_completeness_program_error_propagates(self, monkeypatch):
        def broken(fan):
            raise RuntimeError("not a domain error")
        monkeypatch.setattr("quasitoric.configuration.walls_paired",
                            broken)
        # one cone: compatible, refused by the complete-fan certificate,
        # so completeness is decided on a Fan
        config = VectorConfiguration(
            2, [qvec(1, 0), qvec(0, 1), qvec(-1, -1)])
        with pytest.raises(RuntimeError):
            config_validate(config, Triangulation([(0, 1)]))

    def test_refused_certificate_runs_once(self, monkeypatch):
        # two quadrants meeting in the ray e2: compatible, and refused by
        # the certificate, whose verdict the wall-pairing test on the Fan
        # does not ask again
        runs = []

        def counted(*args):
            runs.append(args)
            return complete_fan_certificate(*args)

        for module in (configuration_module, fan_module):
            monkeypatch.setattr(module, "complete_fan_certificate", counted)
        config = VectorConfiguration(2, [qvec(1, 0), qvec(0, 1),
                                         qvec(-1, 0)])
        report = config_validate(config, Triangulation([(0, 1), (1, 2)]))
        assert report.cone_compatibility and report.covering
        assert report.complete is False
        assert len(runs) == 1

    def test_certified_fan_is_complete_without_a_fan(self, monkeypatch):
        def unused(fan):
            raise AssertionError("completeness decided on a Fan")
        monkeypatch.setattr("quasitoric.configuration.walls_paired",
                            unused)
        k = pentagon_field()
        config, tri = build(k, thick_rhombus_configuration_data(k))
        report = config_validate(config, tri)
        assert report.complete and report.completeness_matches_spanning

    def test_thick_rhombus_balanced_odd(self):
        k = pentagon_field()
        config, tri = build(k, thick_rhombus_configuration_data(k))
        report = config_validate(config, tri)
        assert report.p == 7 and report.n == 2
        assert report.balanced
        assert all(x.is_zero() for x in report.vector_sum)
        assert report.odd and report.m == 2
        assert report.spanning
        assert report.axioms_pass()
        assert report.complete
        assert report.completeness_matches_spanning

    def test_hirzebruch_configuration(self):
        k = sqrt2_field()
        config, tri = build(k, hirzebruch_configuration_data(k, k.alpha))
        report = config_validate(config, tri)
        assert report.balanced and report.odd and report.m == 1
        assert report.complete and report.spanning
        assert report.axioms_pass()

    def test_kite_exact_sum_reported_not_repaired(self):
        """The printed kite configuration does not balance: the exact sum
        is (1, 8 s^3 - 8 s) with s = sin(2 pi / 5)."""
        k = pentagon_field()
        config, tri = build(k, kite_configuration_data(k))
        report = config_validate(config, tri)
        assert not report.balanced
        x, y = report.vector_sum
        assert x.coeffs == (Fraction(1), Fraction(0), Fraction(0),
                            Fraction(0))
        assert y.coeffs == (Fraction(0), Fraction(-8), Fraction(0),
                            Fraction(8))
        # 2 sin(4 pi/5) - 2 sin(2 pi/5) is negative (approximately -0.727)
        assert y.sign() == -1
        # the axioms still hold; only balance fails
        assert report.odd
        assert report.axioms_pass()
        assert report.complete

    def test_ghost_inside_simplex_fails_validation(self):
        k = sqrt2_field()
        vectors, maximal, _ = hirzebruch_configuration_data(k, k.alpha)
        config = VectorConfiguration(2, vectors, ghosts=(0,))
        report = config_validate(config, Triangulation(maximal))
        assert not report.ghosts_disjoint
        with pytest.raises(InvalidConfiguration):
            decode(config, Triangulation(maximal))

    def test_dependent_simplex_reported(self):
        vectors = [qvec(1, 0), qvec(2, 0)]
        config = VectorConfiguration(2, vectors)
        tri = Triangulation([(0, 1)])
        report = config_validate(config, tri)
        assert not report.simplex_independence

    def test_incompatible_triangulation_has_no_completeness_verdict(self):
        # cone(e1, (1,1)) lies inside cone(e1, e2) without being a face
        vectors = [qvec(1, 0), qvec(0, 1), qvec(1, 1), qvec(-1, -1)]
        report = config_validate(VectorConfiguration(2, vectors),
                                 Triangulation([(0, 1), (0, 2), (1, 3)]))
        assert report.simplex_independence
        assert report.cone_compatibility is False
        assert report.complete is None
        assert report.completeness_matches_spanning is None

    def test_four_dimensional_coordinate_configuration(self):
        vectors = [qvec(*(s if j == i else 0 for j in range(4)))
                   for i in range(4) for s in (1, -1)]
        orthants = itertools.product(*[(2 * i, 2 * i + 1)
                                       for i in range(4)])
        report = config_validate(VectorConfiguration(4, vectors),
                                 Triangulation(orthants))
        assert report.cone_compatibility is True
        assert report.covering is True
        assert report.complete is True
        assert report.completeness_matches_spanning is True

    def test_triangulation_closure_from_maximal_listing(self):
        tri = Triangulation([(0, 3), (3, 2), (2, 1), (1, 0)])
        assert (3,) in tri.simplices
        assert () in tri.simplices
        assert tri.maximal() == ((0, 1), (0, 3), (1, 2), (2, 3))


class TestDecode:
    def test_hirzebruch_decode(self):
        k = sqrt2_field()
        a = k.alpha
        config, tri = build(k, hirzebruch_configuration_data(k, a))
        triple = decode(config, tri)
        expected_fan = normal_fan(HalfspaceRep(2, trapezoid_facets(k, a)))
        assert fans_equivalent(triple.body, expected_fan)
        expected_ql = ql_span(trapezoid_quasilattice_generators(k, a))
        assert triple.quasilattice == expected_ql

    def test_decode_records_ray_generators(self):
        k = sqrt2_field()
        config, tri = build(k, hirzebruch_configuration_data(k, k.alpha))
        triple = decode(config, tri)
        assert triple.normals == config.vectors[:4]


def fan_triple(field, facets, ql_generators):
    H = HalfspaceRep(2, facets)
    fan = normal_fan(H)
    ql = ql_span(ql_generators)
    return FundamentalTriple(fan, ql, fan.rays)


class TestAugment:
    def test_hirzebruch_reproduces_va_exactly(self):
        k = sqrt2_field()
        a = k.alpha
        triple = fan_triple(k, trapezoid_facets(k, a),
                            trapezoid_quasilattice_generators(k, a))
        aug = augment(triple)
        expected = ((k.one, k.zero), (k.zero, k.one), (k.zero, -k.one),
                    (-k.one, a), (k.zero, -a))
        assert aug.configuration.vectors == expected
        assert aug.ghost_indices == frozenset({4})
        # decode . augment returns the original fan and quasilattice
        back = decode(aug.configuration, aug.triangulation)
        assert set(back.body.cones) == set(triple.body.cones)
        assert back.body.rays == triple.body.rays
        assert back.quasilattice == triple.quasilattice

    def test_delzant_square_parity_batch(self):
        z2 = [qvec(1, 0), qvec(0, 1)]
        triple = fan_triple(Q, unit_square_facets(Q), z2)
        aug = augment(triple)
        tail = [tuple(x.as_fraction() for x in v)
                for v in aug.configuration.vectors[4:]]
        assert tail == [(1, 0), (1, 0), (-2, 0)]
        assert aug.configuration.count == 7
        assert aug.ghost_indices == frozenset({4, 5, 6})

    def test_thin_rhombus_augmentation(self):
        k = pentagon_field()
        Y = fifth_roots_of_unity(k)
        triple = fan_triple(k, thin_rhombus_facets(k), list(Y))
        aug = augment(triple)
        vectors = aug.configuration.vectors
        assert vectors[:4] == (Y[1], Y[4], tuple(-c for c in Y[1]),
                               tuple(-c for c in Y[4]))
        # ghosts: Y0 and Y2 join to span Q5, then -(Y0 + Y2) rebalances
        assert vectors[4] == Y[0]
        assert vectors[5] == Y[2]
        minus_sum = tuple(-(Y[0][i] + Y[2][i]) for i in range(2))
        assert vectors[6] == minus_sum
        assert aug.ghost_indices == frozenset({4, 5, 6})
        report = config_validate(aug.configuration, aug.triangulation)
        assert report.balanced and report.odd and report.m == 2

    def test_already_balanced_odd_kept_verbatim(self):
        # projective-plane fan: rays sum to zero, defect already odd
        rays = [qvec(1, 0), qvec(0, 1), qvec(-1, -1)]
        fan = Fan(2, rays, [(0, 1), (1, 2), (0, 2), (0,), (1,), (2,)])
        ql = ql_span(rays)
        aug = augment(FundamentalTriple(fan, ql, rays))
        assert aug.configuration.count == 3
        assert aug.ghost_indices == frozenset()
        assert aug.configuration.vectors == tuple(rays)

    def test_odd_defect_nonzero_sum_fallback(self):
        # rays (1), (-2) on the line: sum -1, defect already odd
        rays = [qvec(1), qvec(-2)]
        fan = Fan(1, rays, [(0,), (1,)])
        ql = ql_span([qvec(1)])
        aug = augment(FundamentalTriple(fan, ql, rays))
        values = [v[0].as_fraction() for v in aug.configuration.vectors]
        assert values == [1, -2, 2, -1]
        assert sum(values) == 0
        assert aug.ghost_indices == frozenset({2, 3})

    def test_incomplete_fan_rejected(self):
        rays = [qvec(1, 0), qvec(0, 1)]
        fan = Fan(2, rays, [(0, 1), (0,), (1,)])
        ql = ql_span(rays)
        with pytest.raises(FanNotComplete):
            augment(FundamentalTriple(fan, ql, rays))

    def test_nonsimplicial_fan_rejected(self):
        rays = [qvec(1, 0), qvec(0, 1), qvec(-1, 0), qvec(0, -1),
                qvec(1, 1)]
        # the 3-ray upper cone is not simplicial; the ray (1, 1) inside it
        # is no face of it, so it is not listed as a cone
        fan = Fan(2, rays, [(0, 1, 4), (1, 2), (2, 3), (0, 3),
                            (0,), (1,), (2,), (3,)])
        ql = ql_span(rays[:2])
        with pytest.raises(FanNotSimplicial):
            augment(FundamentalTriple(fan, ql, rays))

    def test_postcondition_replay_on_corpus_triples(self):
        k = pentagon_field()
        k2 = sqrt2_field()
        triples = [
            fan_triple(Q, unit_square_facets(Q),
                       [qvec(1, 0), qvec(0, 1)]),
            fan_triple(k2, trapezoid_facets(k2, k2.alpha),
                       trapezoid_quasilattice_generators(k2, k2.alpha)),
            fan_triple(k, thin_rhombus_facets(k),
                       list(fifth_roots_of_unity(k))),
        ]
        for triple in triples:
            aug = augment(triple)
            report = config_validate(aug.configuration, aug.triangulation)
            assert report.balanced and report.odd and report.spanning
            assert report.axioms_pass()
            back = decode(aug.configuration, aug.triangulation)
            assert set(back.body.cones) == set(triple.body.cones)
            assert back.quasilattice == triple.quasilattice


# ---------------------------------------------------------------------------
# compatibility from maximal simplices against all pairs of simplices
# ---------------------------------------------------------------------------

@st.composite
def triangulated_configurations(draw):
    """Random small vectors (repeats allowed) and random independent
    simplices on them."""
    n = draw(st.sampled_from([2, 3]))
    coords = st.lists(st.integers(-2, 2), min_size=n,
                      max_size=n).filter(any)
    vectors = [qvec(*v) for v in draw(st.lists(coords, min_size=n,
                                               max_size=6))]
    subsets = draw(st.lists(
        st.lists(st.sampled_from(range(len(vectors))), min_size=1,
                 max_size=n, unique=True),
        min_size=2, max_size=6))
    simplices = [s for s in subsets
                 if mat_rank([list(vectors[i]) for i in s]) == len(s)]
    return VectorConfiguration(n, vectors), Triangulation(simplices)


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(triangulated_configurations())
def test_maximal_pairs_decide_compatibility(case):
    config, tri = case
    all_pairs = all(
        cones_meet_in_common_face(config.vectors, a, b)
        for a, b in itertools.combinations(sorted(tri.simplices), 2))
    assert config_validate(config, tri).cone_compatibility == all_pairs


# ---------------------------------------------------------------------------
# maximal simplices from the given ones against the pair-loop definition
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.sets(st.integers(0, 6), max_size=5), max_size=7))
def test_maximal_simplices_agree_with_pair_loop(simplices):
    # the closure by a loop over every subset of every given simplex, the
    # construction before the maximal ones came out of the same pass
    closure = {()}
    for s in simplices:
        for r in range(len(s) + 1):
            closure.update(itertools.combinations(sorted(s), r))
    tri = Triangulation([tuple(s) for s in simplices])
    assert tri.simplices == closure
    assert tri.maximal() == tuple(sorted(
        s for s in tri.simplices
        if not any(set(s) < set(t) for t in tri.simplices)))


def test_empty_triangulation_has_the_empty_simplex():
    assert Triangulation([]).maximal() == ((),)
    assert Triangulation([()]).maximal() == ((),)


def test_repeated_index_rejected():
    with pytest.raises(InvalidConfiguration, match="repeats a vector index"):
        Triangulation([(1, 1), (2,)])


@pytest.mark.parametrize("n", [0, -1])
def test_dimension_below_one_rejected(n):
    with pytest.raises(InvalidConfiguration, match="dimension must be >= 1"):
        VectorConfiguration(n, [])
