import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import Q, qvec, reference_membership
from quasitoric import linalg
from quasitoric.configuration import _missing_generators
from quasitoric.corpus import (
    fifth_roots_of_unity,
    interval_za_generators,
    pentagon_facets,
    pentagon_field,
    sqrt2_field,
    trapezoid_facets,
    trapezoid_quasilattice_generators,
    unit_interval_facets,
)
from quasitoric.errors import NotSpanning
from quasitoric.fan import normal_fan, positively_proportional
from quasitoric.field import rational_field
from quasitoric.linalg import integer_kernel, rank_kernel_solve
from quasitoric.polytope import HalfspaceRep
from quasitoric.quasilattice import (
    Quasilattice,
    integral_membership,
    integral_memberships,
    is_quasirational,
    ql_span,
    RayWitness,
    ray_generator,
)


def combination(gens, coeffs):
    n = len(gens[0])
    field = gens[0][0].field
    acc = [field.zero] * n
    for c, g in zip(coeffs, gens):
        for i in range(n):
            acc[i] = acc[i] + c * g[i]
    return tuple(acc)


class TestSpan:
    def test_z2(self):
        ql = ql_span([qvec(1, 0), qvec(0, 1)])
        assert ql.is_lattice()
        assert ql.flattened_rank() == 2

    def test_q5_dense(self):
        k = pentagon_field()
        ql = ql_span(list(fifth_roots_of_unity(k)))
        assert not ql.is_lattice()
        assert ql.flattened_rank() == 4

    def test_qa_sqrt2(self):
        k = sqrt2_field()
        ql = ql_span(trapezoid_quasilattice_generators(k, k.alpha))
        assert not ql.is_lattice()
        assert ql.flattened_rank() == 3

    def test_qa_sqrt2_rank_oracle(self):
        """Hand computation: flattening (1,0), (0,1), (0,a) over the
        power basis (1, a) gives four rows whose nonzero columns are
        pairwise distinct unit vectors; exactly three are nonzero."""
        k = sqrt2_field()
        ql = ql_span(trapezoid_quasilattice_generators(k, k.alpha))
        expected = [
            [1, 0, 0],  # x coordinate, coefficient of 1
            [0, 0, 0],  # x coordinate, coefficient of a
            [0, 1, 0],  # y coordinate, coefficient of 1
            [0, 0, 1],  # y coordinate, coefficient of a
        ]
        assert ql.flattened == expected

    def test_qa_rational_is_lattice(self):
        for a in ("3", "2", "1/2"):
            ql = ql_span(trapezoid_quasilattice_generators(Q, Q.element(a)))
            assert ql.is_lattice()

    def test_not_spanning(self):
        with pytest.raises(NotSpanning):
            ql_span([qvec(1, 0), qvec(2, 0)])

    def test_flattened_reconstruction(self):
        """Each integer row is a positive multiple of the rational row of
        power-basis coefficients it flattens."""
        k = pentagon_field()
        gens = list(fifth_roots_of_unity(k))
        gens.append(tuple(x / 6 for x in gens[0]))
        gens.append(tuple(x * Fraction(3, 4) for x in gens[1]))
        ql = ql_span(gens)
        degree = k.degree
        for i in range(2):
            for kk in range(degree):
                row = ql.flattened[i * degree + kk]
                coeffs = [g[i].coeffs[kk] for g in ql.generators]
                assert all(isinstance(x, int) for x in row)
                pivot = next((j for j, c in enumerate(coeffs) if c), None)
                if pivot is None:
                    assert not any(row)
                    continue
                scale = Fraction(row[pivot]) / coeffs[pivot]
                assert scale > 0
                assert [Fraction(x) for x in row] == \
                    [scale * c for c in coeffs]


class TestMembership:
    def test_qa_contains_fourth_normal(self):
        k = sqrt2_field()
        a = k.alpha
        ql = ql_span(trapezoid_quasilattice_generators(k, a))
        coeffs = ql.contains((-k.one, a))
        assert coeffs == (-1, 0, 1)

    def test_z2_excludes_half(self):
        ql = ql_span([qvec(1, 0), qvec(0, 1)])
        assert ql.contains(qvec("1/2", 0)) is None

    def test_q5_ghost_vector(self):
        k = pentagon_field()
        Y = fifth_roots_of_unity(k)
        ql = ql_span(list(Y))
        target = tuple(Y[3][i] + Y[4][i] + Y[0][i] for i in range(2))
        coeffs = ql.contains(target)
        assert coeffs is not None
        assert combination(ql.generators, coeffs) == target

    def test_every_generator_is_a_member(self):
        k = pentagon_field()
        ql = ql_span(list(fifth_roots_of_unity(k)))
        for g in ql.generators:
            coeffs = ql.contains(g)
            assert coeffs is not None
            assert combination(ql.generators, coeffs) == g

    def test_witness_additivity(self):
        k = sqrt2_field()
        ql = ql_span(trapezoid_quasilattice_generators(k, k.alpha))
        rng = random.Random(20240630)
        for _ in range(100):
            x = [rng.randint(-5, 5) for _ in range(3)]
            y = [rng.randint(-5, 5) for _ in range(3)]
            v = combination(ql.generators, x)
            w = combination(ql.generators, y)
            summed = tuple(a + b for a, b in zip(v, w))
            coeffs = ql.contains(summed)
            assert coeffs is not None
            assert combination(ql.generators, coeffs) == summed


class TestRayGenerator:
    def test_z2_direction(self):
        ql = ql_span([qvec(1, 0), qvec(0, 1)])
        witness = ray_generator(ql, qvec(2, 4))
        assert witness is not None
        assert tuple(c.as_fraction() for c in witness.vector) == (1, 2)

    def test_irrational_slope_absent(self):
        k = sqrt2_field()
        ql = ql_span([(k.one, k.zero), (k.zero, k.one)])
        assert ray_generator(ql, (k.one, k.alpha)) is None

    def test_q5_generator_ray(self):
        k = pentagon_field()
        Y = fifth_roots_of_unity(k)
        ql = ql_span(list(Y))
        direction = tuple(-c for c in Y[1])
        witness = ray_generator(ql, direction)
        assert witness is not None
        # the witness lies on the ray: positively proportional to -Y1
        assert positively_proportional(witness.vector, direction)
        # and is an exact integer combination of the generators
        assert combination(ql.generators, witness.coefficients) \
            == witness.vector


class TestQuasirationality:
    def test_pentagon_wrt_q5(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        ql = ql_span(list(fifth_roots_of_unity(k)))
        assert is_quasirational(H, ql)

    def test_trapezoid_wrt_qa(self):
        k = sqrt2_field()
        a = k.alpha
        H = HalfspaceRep(2, trapezoid_facets(k, a))
        ql = ql_span(trapezoid_quasilattice_generators(k, a))
        assert is_quasirational(H, ql)

    def test_interval_wrt_z_plus_az(self):
        k = sqrt2_field()
        H = HalfspaceRep(1, unit_interval_facets(k))
        ql = ql_span(interval_za_generators(k, k.alpha))
        assert is_quasirational(H, ql)

    def test_pentagon_not_quasirational_wrt_z2(self):
        k = pentagon_field()
        H = HalfspaceRep(2, pentagon_facets(k))
        z2 = ql_span([(k.one, k.zero), (k.zero, k.one)])
        assert not is_quasirational(H, z2)

    def test_always_quasirational_wrt_own_normal_span(self):
        """A polytope is always quasirational with respect to the
        quasilattice generated by any set of its normals."""
        k = pentagon_field()
        bodies = [
            HalfspaceRep(2, pentagon_facets(k)),
            HalfspaceRep(2, trapezoid_facets(sqrt2_field(),
                                             sqrt2_field().alpha)),
            HalfspaceRep(1, unit_interval_facets(Q)),
        ]
        for H in bodies:
            ql = ql_span(list(H.normals))
            assert is_quasirational(H, ql)

    def test_lattice_case_matches_classical_rationality(self):
        # rational polytopes are quasirational wrt Z^n; pentagon is not
        H = HalfspaceRep(2, trapezoid_facets(Q, Q.element(2)))
        z2 = ql_span([qvec(1, 0), qvec(0, 1)])
        assert is_quasirational(H, z2)


def test_integral_membership_adhoc_list():
    k = sqrt2_field()
    a = k.alpha
    vectors = [(k.one, k.zero), (k.zero, k.one), (k.zero, -k.one),
               (-k.one, a)]
    # (0, a) = (1,0) + (-1,a)
    target = (k.zero, a)
    coeffs = integral_membership(vectors, target)
    assert coeffs is not None
    assert combination(vectors, coeffs) == target


def test_membership_takes_two_hermite_forms(monkeypatch):
    """One HNF of the transposed system and one of its kernel basis: the
    kernel is read off the first HNF, not recomputed."""
    calls = []
    original = linalg.hnf

    def counting_hnf(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(linalg, "hnf", counting_hnf)
    vectors = [qvec(1, 0), qvec(0, 1), qvec(1, 1)]  # kernel (1, 1, -1)
    assert integral_membership(vectors, qvec(2, 3)) == (0, 1, 2)
    assert len(calls) == 2


# ---- ray generators against the rational-kernel construction -------------

def reference_ray_generator(ql, direction):
    """Ray generator through a rational kernel in (x, t) and the integer
    kernel of the annihilator of its x-projection: an independent route
    to the lattice of x with G x parallel to the direction."""
    rational = rational_field()
    field = ql.field
    n, p = ql.dimension, ql.generator_count
    alpha_powers = [field.one]
    for _ in range(field.degree - 1):
        alpha_powers.append(alpha_powers[-1] * field.alpha)
    rows = []
    for i in range(n):
        generated = [g[i].coeffs for g in ql.generators]
        scaled = [(a * direction[i]).coeffs for a in alpha_powers]
        for k in range(field.degree):
            rows.append([rational.element(c[k]) for c in generated]
                        + [rational.element(-c[k]) for c in scaled])
    basis_x = [vec[:p] for vec in rank_kernel_solve(rows).kernel]
    if all(x.is_zero() for vec in basis_x for x in vec):
        return None
    annihilator = rank_kernel_solve([list(b) for b in basis_x]).kernel
    if annihilator:
        C = []
        for row in annihilator:
            d = math.lcm(*(x.as_fraction().denominator for x in row))
            C.append([int(x.as_fraction() * d) for x in row])
        lattice_rows = integer_kernel(C)
    else:
        lattice_rows = [[int(i == j) for j in range(p)] for i in range(p)]
    pivot = next(i for i, x in enumerate(direction) if not x.is_zero())
    for row in lattice_rows:
        w = combination(ql.generators, row)
        t = w[pivot] / direction[pivot]
        if t.is_zero():
            continue
        assert all((w[i] - t * direction[i]).is_zero() for i in range(n))
        if t.sign() < 0:
            row = [-x for x in row]
            w = tuple(-x for x in w)
        return RayWitness(w, tuple(row))
    return None


ORACLE_FIELDS = (Q, sqrt2_field(), pentagon_field())


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_ray_generator_matches_rational_kernel_oracle(data):
    k = data.draw(st.sampled_from(ORACLE_FIELDS))
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(n, n + 2))
    small = st.builds(Fraction, st.integers(-3, 3),
                      st.sampled_from([1, 1, 1, 2, 3]))
    sparse = st.one_of(st.just(Fraction(0)), small)
    element = st.lists(sparse, min_size=k.degree, max_size=k.degree).map(
        k.element)
    vector = st.tuples(*[element] * n)
    gens = data.draw(st.lists(vector, min_size=p, max_size=p))
    try:
        ql = ql_span(gens)
    except NotSpanning:
        assume(False)
    if data.draw(st.booleans()):
        # a scaled combination of generators: the ray meets the span
        x = data.draw(st.lists(st.integers(-2, 2), min_size=p, max_size=p))
        scale = data.draw(element)
        direction = tuple(scale * c for c in combination(gens, x))
    else:
        direction = data.draw(vector)
    assume(any(not c.is_zero() for c in direction))
    assert ray_generator(ql, direction) == \
        reference_ray_generator(ql, direction)


# ---- memberships from the kept Hermite form against the reference ------

def oracle_vectors(k, n):
    small = st.builds(Fraction, st.integers(-3, 3),
                      st.sampled_from([1, 1, 1, 2, 3]))
    sparse = st.one_of(st.just(Fraction(0)), small)
    element = st.lists(sparse, min_size=k.degree, max_size=k.degree).map(
        k.element)
    return st.tuples(*[element] * n)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_kept_hermite_form_matches_the_reference_membership(data):
    k = data.draw(st.sampled_from(ORACLE_FIELDS))
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(n, n + 2))
    vector = oracle_vectors(k, n)
    gens = data.draw(st.lists(vector, min_size=p, max_size=p))
    try:
        ql = ql_span(gens)
    except NotSpanning:
        assume(False)
    xs = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=p,
                                     max_size=p), max_size=3))
    members = [combination(gens, x) for x in xs]
    # fractions of members: mostly not integral after the generators'
    # row scaling, so refused before any solve
    divisor = data.draw(st.integers(2, 6))
    targets = members + [tuple(c / divisor for c in m) for m in members]
    targets += data.draw(st.lists(vector, max_size=3))
    got = ql.memberships(targets)
    assert got == [reference_membership(gens, t) for t in targets]
    assert got == [ql.contains(t) for t in targets]
    assert got == [integral_membership(gens, t) for t in targets]
    assert got == integral_memberships(gens, targets)
    assert None not in got[:len(members)]
    # the span with its members added is the same quasilattice
    bigger = ql_span(list(gens) + targets[:len(members)])
    assert bigger == ql and hash(bigger) == hash(ql)


def sequential_missing_generators(vectors, generators):
    """The ghost loop one generator at a time: each generator not in the
    Z-span of the running vectors is appended to them."""
    span = list(vectors)
    missing = []
    for g in generators:
        if reference_membership(span, g) is None:
            span.append(g)
            missing.append(g)
    return missing


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_batched_ghost_loop_picks_the_sequential_ghosts(data):
    k = data.draw(st.sampled_from(ORACLE_FIELDS))
    n = data.draw(st.integers(1, 3))
    vector = oracle_vectors(k, n)
    vectors = data.draw(st.lists(vector, min_size=1, max_size=4))
    generators = data.draw(st.lists(vector, max_size=5))
    if vectors and data.draw(st.booleans()):
        # a member of the starting span among the generators
        x = data.draw(st.lists(st.integers(-2, 2), min_size=len(vectors),
                               max_size=len(vectors)))
        generators.append(combination(vectors, x))
    assert _missing_generators(vectors, generators) == \
        sequential_missing_generators(vectors, generators)


class TestHashAndEquality:
    def test_equal_quasilattices_hash_alike(self):
        e1, e2 = qvec(1, 0), qvec(0, 1)
        e12 = qvec(1, 1)
        a = Quasilattice([e1, e2])
        b = Quasilattice([e1, e2, e12])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_quasilattices(self):
        a = Quasilattice([qvec(1, 0), qvec(0, 1)])
        assert a != Quasilattice([qvec(2, 0), qvec(0, 1)])
        assert a != Quasilattice([qvec(1)])
        k = sqrt2_field()
        assert a != Quasilattice([(k.one, k.zero), (k.zero, k.one)])
