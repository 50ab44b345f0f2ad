import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Q, qvec
from quasitoric import cli
from quasitoric import gale as gale_module
from quasitoric.configuration import (
    Triangulation,
    VectorConfiguration,
    augment,
    config_validate,
)
from quasitoric.corpus import (
    fifth_roots_of_unity,
    hirzebruch_configuration_data,
    kite_configuration_data,
    pentagon_field,
    sqrt2_field,
    thick_rhombus_configuration_data,
    thin_rhombus_facets,
    unit_square_facets,
)
from quasitoric.documents import configuration_to_doc, dumps
from quasitoric.errors import NotBalanced, NotOdd, NotSpanning
from quasitoric.fan import normal_fan
from quasitoric.gale import chamber_check, gale_dual
from quasitoric.linalg import dot, mat_rank, rank_kernel_solve, rref_rows
from quasitoric.lp import strict_lp_feasible
from quasitoric.polytope import HalfspaceRep
from quasitoric.quasilattice import ql_span
from quasitoric.triple import FundamentalTriple


def build(field, data):
    vectors, maximal, ghosts = data
    return (VectorConfiguration(2, vectors, ghosts),
            Triangulation(maximal))


def corpus_configurations():
    k = pentagon_field()
    k2 = sqrt2_field()
    out = [
        ("thick-rhombus", *build(k, thick_rhombus_configuration_data(k))),
        ("hirzebruch-sqrt2",
         *build(k2, hirzebruch_configuration_data(k2, k2.alpha))),
        ("hirzebruch-2",
         *build(Q, hirzebruch_configuration_data(Q, Q.element(2)))),
    ]
    # augmented thin rhombus and square
    H = HalfspaceRep(2, thin_rhombus_facets(k))
    fan = normal_fan(H)
    aug = augment(FundamentalTriple(fan, ql_span(
        list(fifth_roots_of_unity(k))), fan.rays))
    out.append(("thin-rhombus-augmented", aug.configuration,
                aug.triangulation))
    Hs = HalfspaceRep(2, unit_square_facets(Q))
    fs = normal_fan(Hs)
    aug2 = augment(FundamentalTriple(fs, ql_span(
        [qvec(1, 0), qvec(0, 1)]), fs.rays))
    out.append(("square-augmented", aug2.configuration,
                aug2.triangulation))
    return out


class TestGaleDual:
    def test_kernel_orthogonality_everywhere(self):
        for name, config, tri in corpus_configurations():
            gale = gale_dual(config, tri)
            matrix = [list(row) for row in zip(*config.vectors)]
            for krow in gale.kernel_rows:
                for vrow in matrix:
                    assert dot(vrow, krow).is_zero(), name
            assert len(gale.kernel_rows) == 2 * gale.m + 1, name
            assert config.count - config.dimension == 2 * gale.m + 1, name

    def test_hirzebruch_m_one(self):
        k = sqrt2_field()
        config, tri = build(k, hirzebruch_configuration_data(k, k.alpha))
        gale = gale_dual(config, tri)
        assert gale.m == 1
        assert len(gale.points) == 5

    def test_thick_rhombus_m_two(self):
        k = pentagon_field()
        config, tri = build(k, thick_rhombus_configuration_data(k))
        gale = gale_dual(config, tri)
        assert gale.m == 2
        assert len(gale.points) == 7

    def test_chamber_cardinalities(self):
        for name, config, tri in corpus_configurations():
            gale = gale_dual(config, tri)
            expected = config.count - config.dimension
            assert gale.virtual_chamber, name
            for sigma in gale.virtual_chamber:
                assert len(sigma) == expected, name

    def test_kite_not_balanced(self):
        k = pentagon_field()
        config, tri = build(k, kite_configuration_data(k))
        with pytest.raises(NotBalanced):
            gale_dual(config, tri)

    def test_even_defect_rejected(self):
        vectors = [qvec(1, 0), qvec(0, 1), qvec(-1, 0), qvec(0, -1)]
        config = VectorConfiguration(2, vectors)
        with pytest.raises(NotOdd):
            gale_dual(config)

    def test_not_spanning_rejected(self):
        vectors = [qvec(1, 0), qvec(-1, 0), qvec(2, 0), qvec(-2, 0),
                   qvec(0, 0)]
        with pytest.raises(NotSpanning):
            gale_dual(VectorConfiguration(2, vectors))

    def test_zero_leaf_dimension(self):
        # balanced with p - n = 1: the dual lives in C^0
        vectors = [qvec(1, 0), qvec(0, 1), qvec(-1, -1)]
        config = VectorConfiguration(2, vectors)
        tri = Triangulation([(0, 1), (1, 2), (0, 2)])
        gale = gale_dual(config, tri)
        assert gale.m == 0
        report = chamber_check(gale)
        assert report.all_interior

    def test_determinism(self):
        k = pentagon_field()
        config, tri = build(k, thick_rhombus_configuration_data(k))
        g1 = gale_dual(config, tri)
        g2 = gale_dual(config, tri)
        assert g1.points == g2.points
        assert g1.virtual_chamber == g2.virtual_chamber
        assert g1.kernel_rows == g2.kernel_rows


class TestChamberCheck:
    def test_report_shape(self):
        k = sqrt2_field()
        config, tri = build(k, hirzebruch_configuration_data(k, k.alpha))
        gale = gale_dual(config, tri)
        report = chamber_check(gale)
        assert len(report.members) == 4
        for member in report.members:
            assert member.cardinality == 3

    def test_vertex_omission_fails_interior(self):
        """A member omitting an index whose dual point is a hull vertex
        reports no interior: a separating functional exists."""
        k = sqrt2_field()
        config, tri = build(k, hirzebruch_configuration_data(k, k.alpha))
        gale = gale_dual(config, tri)
        # the dual points include extreme points; a singleton member
        # around any nonzero point cannot contain 0 in its hull interior
        nonzero = next(
            j for j, (re, im) in enumerate(gale.points)
            if any(not x.is_zero() for x in re + im))
        report = chamber_check(gale, chamber=((nonzero,),))
        assert not report.members[0].zero_in_interior

    def test_never_raises_on_odd_members(self):
        k = sqrt2_field()
        config, tri = build(k, hirzebruch_configuration_data(k, k.alpha))
        gale = gale_dual(config, tri)
        report = chamber_check(gale, chamber=((), (0, 1, 2, 3, 4)))
        assert not report.members[0].zero_in_interior
        assert isinstance(report.members[1].zero_in_interior, bool)

    def test_member_index_out_of_range(self):
        k = sqrt2_field()
        config, tri = build(k, hirzebruch_configuration_data(k, k.alpha))
        gale = gale_dual(config, tri)
        for member in ((0, 5), (-1, 2, 3)):
            with pytest.raises(ValueError, match="out of range"):
                chamber_check(gale, chamber=(member,))


# ---- the dual coordinates as reference -----------------------------------

def reference_kernel_rows(config):
    """The ones vector, then the reduced row echelon form of the kernel
    projected off the ones direction."""
    p = config.count
    field = config.field
    matrix = [list(row) for row in zip(*config.vectors)]
    ones = tuple(field.one for _ in range(p))
    projected = [tuple(x - vec[0] * o for x, o in zip(vec, ones))
                 for vec in rank_kernel_solve(matrix).kernel]
    return (ones,) + tuple(rref_rows(projected))


def reference_interior(gale, sigma) -> bool:
    """The LP in the |sigma| convex weights of the chosen dual points."""
    field = gale.kernel_rows[0][0].field
    one, zero = field.one, field.zero
    k = len(sigma)
    constraints = [(tuple(one for _ in sigma), one, "=")]
    for i in range(gale.m):
        for part in (0, 1):
            constraints.append((tuple(gale.points[j][part][i]
                                      for j in sigma), zero, "="))
    for idx in range(k):
        unit = [zero] * k
        unit[idx] = one
        constraints.append((tuple(unit), zero, ">"))
    return strict_lp_feasible(constraints, k, field) is not None


FIELDS = {"Q": Q, "sqrt2": sqrt2_field(), "pentagon": pentagon_field()}


@st.composite
def balanced_configurations(draw):
    """A balanced configuration of p = n + 2m + 1 vectors, the last one
    the negated sum of the others.  Entries a + b * alpha are drawn from
    few values, so zero, repeated and parallel vectors occur; with a
    repeat the complement of range(n) is dependent.  Random members are
    rarely interior: the weights e_0 + yA vanish off the member, so every
    vector but the first lies on one side of y's hyperplane."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    p = n + 2 * m + 1
    entry = st.tuples(st.integers(-2, 2), st.integers(-1, 1))
    vectors = [tuple(field.element(a) + b * field.alpha
                     for a, b in draw(st.lists(entry, min_size=n,
                                               max_size=n)))
               for _ in range(p - 1)]
    if n > 1 and draw(st.booleans()):
        vectors[1] = vectors[0]
    vectors.append(tuple(-sum(col, field.zero) for col in zip(*vectors)))
    # (0,) is interior (weights e_0) and (1,) is not, as a rule
    members = [(), (0,), (1,), tuple(range(p)), tuple(range(n, p))]
    members += draw(st.lists(
        st.lists(st.integers(0, p - 1), unique=True, max_size=p).map(
            lambda s: tuple(sorted(s))), max_size=4))
    # complements of n indices: one solve when independent, else the LP
    rests = draw(st.lists(st.lists(st.integers(0, p - 1), unique=True,
                                   min_size=n, max_size=n), max_size=3))
    members += [complement(p, rest) for rest in rests]
    return VectorConfiguration(n, vectors), members


def complement(p, rest) -> tuple:
    return tuple(j for j in range(p) if j not in rest)


def both_paths(config):
    """config with the complement of every n-subset of its indices (one
    solve each when independent, the LP when dependent) and that of the
    first index alone, which has fewer than n indices (the LP).  The
    configuration must have a dependent n-subset."""
    p, n = config.count, config.dimension
    rests = list(combinations(range(p), n))
    assert any(mat_rank([config.vectors[j] for j in rest]) < n
               for rest in rests)
    return config, [complement(p, rest) for rest in rests + [(0,)]]


def five_vectors(field):
    """e_1, e_2, (-1/3, a) and twice (-1/3, -(1 + a)/2), a = alpha: the
    complement (0, 1) fixes y = (-1, 0), so the member (2, 3, 4) is
    interior with weights 1/3 by one solve; (3, 4) is a dependent pair."""
    a, third = field.alpha, field.element(Fraction(-1, 3))
    low = (third, -(field.one + a) / 2)
    return VectorConfiguration(2, [(field.one, field.zero),
                                   (field.zero, field.one),
                                   (third, a), low, low])


@settings(max_examples=100, deadline=None, database=None)
@given(balanced_configurations())
@example(both_paths(five_vectors(FIELDS["Q"])))
@example(both_paths(five_vectors(FIELDS["sqrt2"])))
@example(both_paths(five_vectors(FIELDS["pentagon"])))
def test_gale_dual_matches_dual_coordinates(case):
    config, members = case
    matrix = [list(row) for row in zip(*config.vectors)]
    if rank_kernel_solve(matrix).rank < config.dimension:
        with pytest.raises(NotSpanning):
            gale_dual(config)
        return
    gale = gale_dual(config)

    def numerators(rows):
        return [[(x.num, x.den) for x in row] for row in rows]

    assert numerators(gale.kernel_rows) == numerators(
        reference_kernel_rows(config))
    report = chamber_check(gale, chamber=members)
    assert [r.zero_in_interior for r in report.members] == [
        reference_interior(gale, sigma) for sigma in members]


def integral_16gon_facets():
    """The centrally symmetric 16-gon with primitive normals invariant
    under rotation by 90 degrees and unit edge multipliers."""
    quarter = [(1, 0), (2, 1), (1, 1), (1, 2)]
    normals = []
    for _ in range(4):
        normals += quarter
        quarter = [(-y, x) for x, y in quarter]
    vertex, facets = (0, 0), []
    for x, y in normals:
        facets.append((qvec(x, y), Q.element(vertex[0] * x + vertex[1] * y)))
        vertex = (vertex[0] + y, vertex[1] - x)
    return facets


def lp_widths(monkeypatch):
    """The number of variables of each later LP that gale runs."""
    widths = []

    def recording(constraints, num_vars, field=None):
        widths.append(num_vars)
        return strict_lp_feasible(constraints, num_vars, field)

    monkeypatch.setattr(gale_module, "strict_lp_feasible", recording)
    return widths


def test_chamber_lps_have_n_variables(monkeypatch):
    """Every member of the augmented 16-gon's chamber is the complement of
    n independent indices, so one solve decides it and no LP runs; a
    complement that is dependent, or has fewer than n indices, still
    takes exactly one LP, in n variables."""
    fan = normal_fan(HalfspaceRep(2, integral_16gon_facets()))
    aug = augment(FundamentalTriple(fan, ql_span(
        [qvec(1, 0), qvec(0, 1)]), fan.rays))
    gale = gale_dual(aug.configuration, aug.triangulation)
    p, n = gale.count, aug.configuration.dimension
    assert (p, n) == (19, 2)
    widths = lp_widths(monkeypatch)
    report = chamber_check(gale)
    assert len(report.members) == len(gale.virtual_chamber) == 16
    assert widths == []
    assert [r.zero_in_interior for r in report.members] == [
        reference_interior(gale, sigma) for sigma in gale.virtual_chamber]
    vectors = aug.configuration.vectors
    dependent = next(rest for rest in combinations(range(p), n)
                     if mat_rank([vectors[j] for j in rest]) < n)
    for rest in (dependent, (0,)):
        sigma = complement(p, rest)
        widths.clear()
        report = chamber_check(gale, chamber=(sigma,))
        assert widths == [n]
        assert report.members[0].zero_in_interior == reference_interior(
            gale, sigma)


def test_gale_cli_runs_the_lp_for_a_dependent_simplex(monkeypatch, capsys,
                                                      tmp_path):
    """A configuration document whose triangulation has the dependent
    maximal simplex (3, 4): its member (0, 1, 2) takes the one LP of the
    run, the members of (0, 1) and (1, 2) one solve each."""
    k = FIELDS["sqrt2"]
    config = five_vectors(k)
    tri = Triangulation([(0, 1), (1, 2), (3, 4)])
    path = tmp_path / "configuration.json"
    path.write_text(dumps(configuration_to_doc(config, tri)))
    widths = lp_widths(monkeypatch)
    assert cli.main(["gale", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert widths == [2]
    gale = gale_dual(config, tri)
    members = [tuple(i - 1 for i in r["member"])
               for r in report["chamber_check"]]
    assert members == list(gale.virtual_chamber)
    verdicts = [r["zero_in_interior"] for r in report["chamber_check"]]
    assert verdicts == [reference_interior(gale, sigma) for sigma in members]
    assert verdicts == [True, False, True]
