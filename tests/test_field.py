import collections
import random
from fractions import Fraction
import math
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import scalar_dot
from quasitoric import cli, render
from quasitoric import field as field_module
from quasitoric.corpus import corpus_entry, pentagon_field
from quasitoric.documents import dumps
from quasitoric.errors import (
    DivisionByZero,
    MixedFields,
    MultipleRootsInInterval,
    NoRootInInterval,
    NotInvertible,
    NotSquarefree,
    ParseError,
)
from quasitoric.field import (
    FieldElement,
    RealAlgebraicField,
    dot,
    numerator_difference,
    numerator_dot,
    numerators,
    parse_rational,
    rational_field,
    sub_multiple,
)


def sqrt5_field():
    return RealAlgebraicField(["-5", "0", "1"], ("2", "3"))


def quartic_field():
    # x^4 - 10 x^2 + 5, the root near 3.0777
    return RealAlgebraicField(["5", "0", "-10", "0", "1"], ("3", "4"))


def sin72_field():
    # minimal polynomial of sin(2*pi/5): x^4 - 5/4 x^2 + 5/16
    return RealAlgebraicField(["5/16", "0", "-5/4", "0", "1"],
                              ("9/10", "1"))


def bisect_root(poly, lo, hi, width):
    """Independent bisection oracle: tightens [lo, hi] around the unique
    sign-change root of poly until hi - lo <= width."""
    def ev(x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    lo, hi = Fraction(lo), Fraction(hi)
    assert (ev(lo) < 0) != (ev(hi) < 0)
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = ev(mid)
        if v == 0:
            return mid, mid
        if (ev(lo) < 0) != (v < 0):
            hi = mid
        else:
            lo = mid
    return lo, hi


class TestFieldCreate:
    def test_sqrt5_valid(self):
        k = sqrt5_field()
        assert k.degree == 2
        lo, hi = k.interval
        assert lo == 2 and hi == 3

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            RealAlgebraicField(["4", "-4", "1"], ("1", "3"))

    def test_no_root(self):
        with pytest.raises(NoRootInInterval):
            RealAlgebraicField(["-5", "0", "1"], ("3", "4"))

    def test_multiple_roots(self):
        # x^2 - 5 has both roots inside [-3, 3]
        with pytest.raises(MultipleRootsInInterval):
            RealAlgebraicField(["-5", "0", "1"], ("-3", "3"))

    def test_endpoint_root_rejected(self):
        with pytest.raises(NoRootInInterval):
            RealAlgebraicField(["-4", "0", "1"], ("2", "3"))

    def test_quartic_against_bisection_oracle(self):
        poly = [Fraction(5), Fraction(0), Fraction(-10), Fraction(0),
                Fraction(1)]
        olo, ohi = bisect_root(poly, 3, 4, Fraction(1, 10 ** 15))
        k = quartic_field()
        k.refine_below(Fraction(1, 10 ** 15))
        lo, hi = k.interval
        # both intervals bracket the same root
        assert lo <= ohi and olo <= hi
        # 12 significant digits agree with the oracle midpoint
        approx = k.alpha.decimal(12)
        mid = (olo + ohi) / 2
        assert abs(Fraction(approx) - mid) < Fraction(1, 10 ** 10)

    def test_degree_one_degenerates_to_q(self):
        k = rational_field()
        x = k.element("7/3")
        y = k.element("-1/3")
        assert (x + y).as_fraction() == Fraction(2)


class TestArithmetic:
    def test_golden_ratio_identity(self):
        k = sqrt5_field()
        phi = k.element(["1/2", "1/2"])
        sq = phi * phi
        assert sq == phi + 1
        assert sq.coeffs == (Fraction(3, 2), Fraction(1, 2))

    def test_inverse_of_alpha(self):
        k = sqrt5_field()
        inv = k.alpha.inverse()
        assert inv == k.element(["0", "1/5"])
        assert inv * k.alpha == k.one

    def test_additive_inverse(self):
        k = sin72_field()
        rng = random.Random(7)
        for _ in range(50):
            x = k.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(4)])
            assert (x + (-x)).is_zero()

    def test_division_by_zero(self):
        k = sqrt5_field()
        with pytest.raises(DivisionByZero):
            k.zero.inverse()

    def test_mixed_fields_rejected(self):
        a = sqrt5_field().alpha
        b = quartic_field().alpha
        with pytest.raises(MixedFields):
            a + b

    def test_same_root_fields_interoperate(self):
        k1 = RealAlgebraicField(["-5", "0", "1"], ("2", "3"))
        k2 = RealAlgebraicField(["-5", "0", "1"], ("1", "5/2"))
        assert (k1.alpha - k2.alpha).is_zero()

    def test_conjugate_root_field_is_distinct(self):
        k1 = RealAlgebraicField(["-5", "0", "1"], ("2", "3"))
        k2 = RealAlgebraicField(["-5", "0", "1"], ("-3", "-2"))
        with pytest.raises(MixedFields):
            k1.alpha + k2.alpha

    def test_reducible_modulus_surfaces_loudly(self):
        # x^2 - 3x + 2 = (x-1)(x-2) is squarefree, so construction passes;
        # inverting alpha - 1 must fail loudly.
        k = RealAlgebraicField(["2", "-3", "1"], ("1/2", "3/2"))
        elem = k.alpha - 1
        with pytest.raises(NotInvertible):
            elem.inverse()
        with pytest.raises(NotInvertible):
            elem.sign()


class TestSign:
    def test_alpha_minus_two_positive(self):
        k = sqrt5_field()
        assert (k.alpha - 2).sign() == 1

    def test_zero_sign(self):
        assert sqrt5_field().zero.sign() == 0

    def test_phi_identity_sign_zero(self):
        k = sqrt5_field()
        phi = k.element(["1/2", "1/2"])
        assert (phi * phi - phi - 1).sign() == 0

    def test_needs_refinement(self):
        # alpha - 2.2360679... requires several bisections to separate
        k = sqrt5_field()
        tight = k.element(Fraction(2236067977, 10 ** 9))
        assert (k.alpha - tight).sign() == 1
        tight2 = k.element(Fraction(2236067978, 10 ** 9))
        assert (k.alpha - tight2).sign() == -1


def random_element(k, rng, span=9):
    return k.element([Fraction(rng.randint(-span, span),
                               rng.randint(1, span))
                      for _ in range(k.degree)])


class TestFieldAxioms:
    """Randomized exact checks of the field axioms and the sign law."""

    CASES = 1000
    SEED = 20240601

    def test_axioms(self):
        k = sin72_field()
        rng = random.Random(self.SEED)
        for _ in range(self.CASES):
            x = random_element(k, rng, 5)
            y = random_element(k, rng, 5)
            z = random_element(k, rng, 5)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == k.zero
            if not x.is_zero():
                assert x * x.inverse() == k.one

    def test_sign_multiplicative(self):
        k = sqrt5_field()
        rng = random.Random(self.SEED + 1)
        for _ in range(self.CASES):
            x = random_element(k, rng)
            y = random_element(k, rng)
            if x.is_zero() or y.is_zero():
                continue
            assert x.sign() * y.sign() == (x * y).sign()

    def test_order_compatible_with_addition(self):
        k = sqrt5_field()
        rng = random.Random(self.SEED + 2)
        for _ in range(200):
            x = random_element(k, rng)
            y = random_element(k, rng)
            z = random_element(k, rng)
            if x < y:
                assert x + z < y + z


def schoolbook_product(k, a, b):
    """Independent product oracle: full polynomial product of the
    coefficient lists, then the remainder by the monic minimal polynomial."""
    d = k.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, d - 1, -1):
        c = prod[top]
        for i, m in enumerate(k.minpoly):
            prod[top - d + i] -= c * m
    return tuple(prod[:d])


PRODUCT_FIELDS = (
    rational_field(),
    RealAlgebraicField(["-2", "0", "1"], ("1", "2")),
    pentagon_field(),
)

small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_product_and_inverse_match_oracle(data):
    k = data.draw(st.sampled_from(PRODUCT_FIELDS))
    coeff_lists = st.lists(small_rationals, min_size=k.degree,
                           max_size=k.degree)
    a_coeffs = data.draw(coeff_lists)
    b_coeffs = data.draw(coeff_lists)
    a, b = k.element(a_coeffs), k.element(b_coeffs)
    product = a * b
    assert product.coeffs == schoolbook_product(k, a_coeffs, b_coeffs)
    if not a.is_zero():
        inverse = a.inverse()
        assert a * inverse == 1
        elements = (product, inverse)
    else:
        elements = (product,)
    for x in elements:
        assert len(x.coeffs) == k.degree
        assert all(type(c) is Fraction for c in x.coeffs)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_representation_is_canonical(data):
    k = data.draw(st.sampled_from(PRODUCT_FIELDS))
    coeff_lists = st.lists(small_rationals, min_size=k.degree,
                           max_size=k.degree)
    a_coeffs = data.draw(coeff_lists)
    b_coeffs = data.draw(coeff_lists)
    a, b = k.element(a_coeffs), k.element(b_coeffs)
    # sums, differences and negation against coefficient-wise Fractions
    assert (a + b).coeffs == tuple(x + y for x, y in zip(a_coeffs, b_coeffs))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(a_coeffs, b_coeffs))
    assert (-a).coeffs == tuple(-x for x in a_coeffs)
    elements = [a, b, a + b, a - b, -a, a * b, (a + b) - b]
    if not a.is_zero():
        elements.append(a.inverse())
    for x in elements:
        # one (num, den) per value: den positive, the pair in lowest terms
        assert x.den > 0
        assert gcd(x.den, *x.num) == 1
        assert len(x.num) == k.degree
        y = k.element(list(x.coeffs))
        assert x == y and hash(x) == hash(y)
    # one rational value built from an int, a Fraction, "p/q" text and
    # arithmetic, including arithmetic whose irrational parts cancel
    n = data.draw(st.integers(-50, 50))
    r = data.draw(small_rationals)
    same_int = [k.element(n), k.element(Fraction(n)), k.element(str(n)),
                k.one * n, k.zero + n, (a + n) - a, (a * 2 + n) - a - a]
    text = f"{r.numerator}/{r.denominator}"
    same_fraction = [k.element(r), k.element(text),
                     k.element(r.numerator) / r.denominator, k.one * r,
                     r + k.zero, (a + r) - a, (a - r) * -1 + a]
    for same, value in ((same_int, n), (same_fraction, r)):
        for x in same:
            assert x == same[0] and hash(x) == hash(same[0])
            assert x == value
            assert x.coeffs == (Fraction(value),) + (Fraction(0),) * (
                k.degree - 1)


# ---------------------------------------------------------------------------
# vector kernels against the scalar loops they replace
# ---------------------------------------------------------------------------

def scalar_sub_multiple(xs, f, ys):
    """x - f * y entry by entry with the scalar operators: the reference
    of the row kernel."""
    return [x - f * y for x, y in zip(xs, ys)]


# a second handle on each field: its elements coerce, as in the operators
TWIN_FIELDS = {id(k): RealAlgebraicField(k.minpoly, k.interval)
               for k in PRODUCT_FIELDS}
FOREIGN_FIELD = RealAlgebraicField(["-3", "0", "1"], ("1", "2"))


@st.composite
def kernel_vectors(draw, k, n, first_in_field=False):
    """n entries for field k: mostly elements with many zero coefficients,
    sometimes an int, a Fraction or an element of a twin handle of k."""
    coeffs = st.lists(st.one_of(st.just(Fraction(0)), small_rationals),
                      min_size=k.degree, max_size=k.degree)
    out = []
    for i in range(n):
        kind = "element" if first_in_field and i == 0 else draw(
            st.sampled_from(["element"] * 5 + ["int", "fraction", "twin"]))
        if kind == "int":
            out.append(draw(st.integers(-9, 9)))
        elif kind == "fraction":
            out.append(draw(small_rationals))
        else:
            field = TWIN_FIELDS[id(k)] if kind == "twin" else k
            out.append(field.element(draw(coeffs)))
    return out


def same_element(x, y):
    return x == y and (x.num, x.den) == (y.num, y.den)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_dot_kernel_matches_scalar_loop(data):
    k = data.draw(st.sampled_from(PRODUCT_FIELDS))
    n = data.draw(st.integers(1, 5))
    u = data.draw(kernel_vectors(k, n, first_in_field=True))
    v = data.draw(kernel_vectors(k, n))
    expected = scalar_dot(u, v)
    assert same_element(dot(u, v), expected)
    # the integer form: a positive multiple of the same value
    value = FieldElement(k, numerator_dot(k, numerators(k, u),
                                          numerators(k, v)), 1)
    if expected.is_zero():
        assert value.is_zero()
    else:
        ratio = value / expected
        assert ratio.is_rational() and ratio.as_fraction() > 0


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_row_kernel_matches_scalar_loop(data):
    k = data.draw(st.sampled_from(PRODUCT_FIELDS))
    n = data.draw(st.integers(1, 5))
    xs = data.draw(kernel_vectors(k, n))
    ys = data.draw(kernel_vectors(k, n))
    f = data.draw(kernel_vectors(k, 1, first_in_field=True))[0]
    got = sub_multiple(xs, f, ys)
    expected = [_in_field(k, x) for x in scalar_sub_multiple(xs, f, ys)]
    assert len(got) == len(expected)
    assert all(same_element(a, b) for a, b in zip(got, expected))


def _in_field(k, x):
    # x - f y with x an int or a Fraction is an element of f's field
    return x if isinstance(x, FieldElement) else k.element(x)


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_kernels_refuse_a_foreign_field(data):
    # a foreign element anywhere raises MixedFields, as the scalar
    # operators do
    k = data.draw(st.sampled_from(PRODUCT_FIELDS))
    n = data.draw(st.integers(1, 4))
    vectors = [data.draw(kernel_vectors(k, n, first_in_field=True))
               for _ in range(2)]
    which = data.draw(st.integers(0, 1))
    where = data.draw(st.integers(0, n - 1))
    vectors[which][where] = FOREIGN_FIELD.element(
        data.draw(st.lists(small_rationals, min_size=1, max_size=2)))
    u, v = vectors
    f = data.draw(kernel_vectors(k, 1, first_in_field=True))[0]
    for kernel, scalar, args in ((dot, scalar_dot, (u, v)),
                                 (sub_multiple, scalar_sub_multiple,
                                  (u, f, v))):
        with pytest.raises(MixedFields):
            scalar(*args)
        with pytest.raises(MixedFields):
            kernel(*args)


class TestRefinement:
    def test_monotone_and_root_preserving(self):
        k = quartic_field()
        prev_lo, prev_hi = k.interval
        for _ in range(40):
            lo, hi = k.refine()
            assert prev_lo <= lo <= hi <= prev_hi
            assert hi - lo <= (prev_hi - prev_lo) / 2 or lo == hi
            prev_lo, prev_hi = lo, hi
        # the root stays inside: alpha's defining property retains sign change
        assert (k.alpha * k.alpha * k.alpha * k.alpha
                - 10 * k.alpha * k.alpha + 5).is_zero()

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_interval_depends_on_the_queries_not_their_order(self, data):
        # refinement only shrinks the interval and interval evaluation is
        # inclusion-isotone, so a query decided on an interval is decided
        # on every later one: the interval left behind is the one the
        # hardest query needs, whatever the order of the queries
        queries = data.draw(st.lists(st.tuples(
            st.sampled_from(["sign", "floor"]),
            st.lists(st.fractions(-3, 3, max_denominator=60),
                     min_size=4, max_size=4)), min_size=1, max_size=8))
        shuffled = data.draw(st.permutations(queries))
        intervals = []
        for order in (queries, shuffled):
            k = pentagon_field()
            for method, coeffs in order:
                getattr(k.element(coeffs), method)()
            intervals.append(k.interval)
        assert intervals[0] == intervals[1]


class TestDecimal:
    def test_rational_values(self):
        k = rational_field()
        assert k.element("1/2").decimal(12) == "0.500000000000"
        assert k.element(3).decimal(3) == "3.00"
        assert k.element("-1/3").decimal(5) == "-0.33333"
        assert k.element(0).decimal(12) == "0"
        assert k.element(12345).decimal(3) == "12300"

    def test_sqrt5(self):
        k = sqrt5_field()
        assert k.alpha.decimal(12) == "2.23606797750"

    def test_floor(self):
        k = sqrt5_field()
        assert k.alpha.floor() == 2
        assert (-k.alpha).floor() == -3
        assert k.element("7/2").floor() == 3
        assert k.element("-7/2").floor() == -4


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)


def test_parse_rational_rejects_past_the_digit_limit():
    for text in ("1" * 5000, "1/" + "1" * 5000):
        with pytest.raises(ParseError, match="^not a rational: '1"):
            parse_rational(text)


# ---------------------------------------------------------------------------
# Oracles: the Fraction implementation that integer parsing and the integer
# Sturm chains replaced, kept verbatim as the reference
# ---------------------------------------------------------------------------

def ref_parse_rational(text):
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {text!r}") from exc
    raise ParseError(f"not a rational: {text!r}")


def ref_trim(p):
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def ref_divmod(p, q):
    q = ref_trim(q)
    rem = list(ref_trim(p))
    quot = [Fraction(0)] * max(0, len(rem) - len(q) + 1)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and rem:
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem = list(ref_trim(rem))
    return ref_trim(quot), ref_trim(rem)


def ref_gcd(p, q):
    a, b = ref_trim(p), ref_trim(q)
    while b:
        _, r = ref_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def ref_derivative(p):
    return ref_trim([i * c for i, c in enumerate(p)][1:])


def ref_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_count_roots(p, lo, hi):
    chain = [ref_trim(p), ref_derivative(p)]
    while chain[-1]:
        _, r = ref_divmod(chain[-2], chain[-1])
        chain.append(tuple(-c for c in r))
    chain.pop()

    def variations(x):
        signs = [1 if v > 0 else -1
                 for v in (ref_eval(p, x) for p in chain) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return variations(lo) - variations(hi)


def ref_reduction_table(poly):
    d = len(poly) - 1
    rows = []
    row = tuple(-c for c in poly[:-1])
    for _ in range(d - 1):
        rows.append(row)
        top = row[-1]
        row = (top * rows[0][0],) + tuple(
            c + top * r for c, r in zip(row[:-1], rows[0][1:]))
    scale = lcm(*[c.denominator for row in rows for c in row])
    return scale, tuple(tuple(int(c * scale) for c in row) for row in rows)


class ReferenceField:
    """RealAlgebraicField's set-up, refinement, same_field and root test
    on Fraction polynomials."""

    def __init__(self, minpoly, interval):
        poly = ref_trim([ref_parse_rational(c) for c in minpoly])
        if len(poly) - 1 < 1:
            raise ParseError("minimal polynomial must have degree >= 1")
        if poly[-1] != 1:
            raise ParseError("minimal polynomial must be monic")
        lo, hi = (ref_parse_rational(interval[0]),
                  ref_parse_rational(interval[1]))
        if not lo < hi:
            raise ParseError("interval endpoints must satisfy lo < hi")
        g = ref_gcd(poly, ref_derivative(poly))
        if len(g) - 1 > 0:
            raise NotSquarefree(
                f"gcd with derivative has degree {len(g) - 1}")
        if ref_eval(poly, lo) == 0 or ref_eval(poly, hi) == 0:
            raise NoRootInInterval(
                "minimal polynomial vanishes at an interval endpoint")
        roots = ref_count_roots(poly, lo, hi)
        if roots == 0:
            raise NoRootInInterval("no root of the minimal polynomial in "
                                   f"[{lo}, {hi}]")
        if roots > 1:
            raise MultipleRootsInInterval(
                f"{roots} roots of the minimal polynomial in [{lo}, {hi}]")
        self.minpoly = poly
        self._lo, self._hi = lo, hi
        self._lo_negative = ref_eval(poly, lo) < 0
        self.scale, self._reduce = ref_reduction_table(poly)

    def refine(self):
        lo, hi = self._lo, self._hi
        if lo == hi:
            return lo, hi
        mid = (lo + hi) / 2
        vmid = ref_eval(self.minpoly, mid)
        if vmid == 0:
            self._lo = self._hi = mid
        elif self._lo_negative != (vmid < 0):
            self._hi = mid
        else:
            self._lo = mid
        return self._lo, self._hi

    def same_field(self, other):
        if self.minpoly != other.minpoly:
            return False
        lo = max(self._lo, other._lo)
        hi = min(self._hi, other._hi)
        if lo >= hi:
            return False
        return ref_count_roots(self.minpoly, lo, hi) == 1

    def vanishes(self, coeffs, lo, hi):
        g = ref_gcd(ref_trim(coeffs), self.minpoly)
        return len(g) - 1 > 0 and ref_count_roots(g, lo, hi) > 0


def outcome(make, *args):
    """make(*args), or the class and message of the exception it raised."""
    try:
        return make(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


CANONICAL_TEXTS = st.builds(
    lambda sign, num, slash, den: sign + num + (slash + den if slash else ""),
    st.sampled_from(["", "-", "+"]),
    st.from_regex(r"\A[0-9]{0,4}\Z") | st.integers(0, 10 ** 40).map(str),
    st.sampled_from(["", "/"]),
    st.from_regex(r"\A[0-9]{0,3}\Z") | st.integers(0, 10 ** 30).map(str))

ODD_TEXTS = st.sampled_from([
    "+3", " 3/4 ", "1.5", "1e3", "1_000", "٣", "3/-4", "/", "", "-0",
    "00", "-007/010", "5/0", "0/0", "-", "3/", "/4", "1/2/3", "²",
    "--1", "- 1", "1 /2", "\t-2\n", ".5", "1E-2", "-0/5", "inf", "nan"])


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(
    CANONICAL_TEXTS, ODD_TEXTS,
    st.text(alphabet="0123456789-+/ ._e٣²", max_size=10)))
def test_parse_rational_matches_the_fraction_route(text):
    new = outcome(parse_rational, text)
    assert new == outcome(ref_parse_rational, text)
    if not isinstance(new, tuple):
        assert type(new) is Fraction


def polynomial_product(factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


small_factors = st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(
    lambda f: f[-1] != 0)


def same_set_up(minpoly, interval):
    """Set up the field and its reference, require the same error or the
    same state over 20 refinements, and return both (None, None after an
    error)."""
    k = outcome(RealAlgebraicField, minpoly, interval)
    ref = outcome(ReferenceField, minpoly, interval)
    if isinstance(ref, tuple):
        assert k == ref
        return None, None
    assert isinstance(k, RealAlgebraicField)
    assert (k.minpoly, k.scale, k._reduce, k._lo_negative, k.interval) == (
        ref.minpoly, ref.scale, ref._reduce, ref._lo_negative,
        (ref._lo, ref._hi))
    assert all(type(c) is Fraction for c in k.minpoly)
    for _ in range(20):
        assert k.refine() == ref.refine()
    return k, ref


@pytest.mark.parametrize("minpoly,interval", [
    (["0", "1", "0", "1"], ("-6", "1")),       # x^3 + x, one root
    (["0", "7", "0", "0", "1"], ("-6", "1")),  # x^4 + 7x, two roots
    (["0", "7", "0", "0", "1"], ("-6", "-1")),
    (["-2", "0", "0", "1"], ("1", "2")),       # a chain x^3 - 2, 3x^2, 2
])
def test_sparse_sturm_chains_match_the_fraction_reference(minpoly,
                                                          interval):
    # a degree gap in the chain makes a pseudo-remainder's sign matter
    same_set_up(minpoly, interval)


GRID = [Fraction(i, 4) for i in range(-24, 25)]


@st.composite
def field_declarations(draw):
    """(minpoly, interval, factors): a polynomial of degree 1 to 5 with
    integer or rational coefficients (a product of small factors, one
    possibly repeated, or a random polynomial, often sparse: gaps in the
    degrees of a Sturm chain are what make the sign of a pseudo-remainder
    matter), and an interval that is
    mostly quarter steps around a sign change, else random."""
    if draw(st.booleans()):
        factors = draw(st.lists(small_factors, min_size=1, max_size=3))
        if draw(st.integers(0, 3)) == 3:
            factors.append(factors[0])  # not squarefree
        poly = polynomial_product(factors)
    else:
        factors = []
        poly = draw(st.lists(st.just(0) | st.integers(-30, 30),
                             min_size=2, max_size=6))
    poly = [Fraction(c) for c in ref_trim(poly)]
    assume(2 <= len(poly) <= 6)
    if draw(st.integers(0, 5)) < 5:
        poly = [c / poly[-1] for c in poly]  # monic
    minpoly = [draw(st.sampled_from([str(c), c])) for c in poly]
    cells = [i for i in range(len(GRID) - 1)
             if ref_eval(poly, GRID[i]) * ref_eval(poly, GRID[i + 1]) <= 0]
    if cells and draw(st.integers(0, 4)) < 4:
        i = draw(st.sampled_from(cells))
        lo = GRID[max(0, i - draw(st.integers(0, 24)))]
        hi = GRID[min(len(GRID) - 1, i + 1 + draw(st.integers(0, 24)))]
    else:
        ends = st.fractions(-6, 6, max_denominator=8)
        lo, hi = draw(ends), draw(ends)
    return minpoly, (str(lo), str(hi)), factors


@settings(max_examples=400, deadline=None, database=None)
@given(field_declarations(), st.data())
def test_field_setup_matches_the_fraction_reference(declaration, data):
    minpoly, interval, factors = declaration
    k, ref = same_set_up(minpoly, interval)
    if ref is None:
        return
    # a second declaration of the same polynomial: same root or not
    other = data.draw(field_declarations().map(lambda d: d[1]))
    k2 = outcome(RealAlgebraicField, minpoly, other)
    ref2 = outcome(ReferenceField, minpoly, other)
    assert isinstance(k2, tuple) == isinstance(ref2, tuple)
    if not isinstance(k2, tuple):
        assert k.same_field(k2) == ref.same_field(ref2)
    # the reducibility test on a factor of the polynomial or a random
    # element, over the refined interval
    d = k.degree
    candidates = [f for f in factors if 1 <= len(f) - 1 < d]
    coeffs = data.draw(st.one_of(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        *[st.just(f) for f in candidates]))
    x = k.element([Fraction(c) for c in coeffs])
    if x.is_rational():
        return
    lo, hi = k.interval
    try:
        x._check_not_root(lo, hi)
        vanishes = False
    except NotInvertible:
        vanishes = True
    assert vanishes == ref.vanishes([Fraction(c) for c in coeffs], lo, hi)


# ---------------------------------------------------------------------------
# the general kernels as references of the rational path and integer bounds
# ---------------------------------------------------------------------------
# Rational values multiply and invert without the reduction table, and
# sign and floor read integer Horner bounds.  The references below are the
# kernels those shortcuts replace: the convolution product folded through
# the table, the Bareiss inverse of the multiplication matrix, and
# interval Horner evaluation to Fractions.

def lowest_terms(num, den):
    g = gcd(den, *num)
    return tuple(x // g for x in num), den // g


def convolution_product(x, y):
    """(num, den) of x * y by the convolution folded through the table."""
    k = x.field
    d = k.degree
    if d == 1:
        return lowest_terms((x.num[0] * y.num[0],), x.den * y.den)
    conv = [0] * (2 * d - 1)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            conv[i + j] += a * b
    out = [c * k.scale for c in conv[:d]]
    for c, row in zip(conv[d:], k._reduce):
        for i, r in enumerate(row):
            out[i] += c * r
    return lowest_terms(out, x.den * y.den * k.scale)


def bareiss_inverse(x):
    """(num, den) of 1 / x by fraction-free Gauss-Jordan elimination on
    the matrix of multiplication by x, rational values included."""
    k = x.field
    num = x.num
    d = len(num)
    if d == 1:
        n = num[0]
        return (x.den if n > 0 else -x.den,), abs(n)
    scale = k.scale
    cols = [list(num)]
    for _ in range(d - 1):
        prev = cols[-1]
        top = prev[-1]
        cols.append([scale * c + top * r
                     for c, r in zip([0] + prev[:-1], k._reduce[0])])
    rows = [[*row, 0] for row in zip(*cols)]
    rows[0][-1] = x.den
    last = 1
    for c in range(d):
        p = next(i for i in range(c, d) if rows[i][c])
        rows[p], rows[c] = rows[c], rows[p]
        pivot = rows[c]
        pk = pivot[c]
        for i, row in enumerate(rows):
            if i != c:
                f = row[c]
                rows[i] = [(pk * a - f * b) // last
                           for a, b in zip(row, pivot)]
        last = pk
    sign = 1 if last > 0 else -1
    return lowest_terms([sign * scale ** j * row[-1]
                         for j, row in enumerate(rows)], sign * last)


def fraction_bounds(x):
    """Min and max of x over its field's interval, by interval Horner on
    Fractions."""
    lo, hi = x.field.interval
    vlo = vhi = Fraction(0)
    for c in reversed(x.coeffs):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def reference_sign(x):
    if x.is_rational():
        return (x.num[0] > 0) - (x.num[0] < 0)
    while True:
        vlo, vhi = fraction_bounds(x)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        x.field.refine()


def reference_floor(x):
    if x.is_rational():
        return x.num[0] // x.den
    while True:
        vlo, vhi = fraction_bounds(x)
        if math.floor(vlo) == math.floor(vhi):
            return math.floor(vlo)
        x.field.refine()


def oracle_coefficients(degree):
    """Coefficient lists of rational values, zero and general elements."""
    zero = st.just([Fraction(0)] * degree)
    rational = small_rationals.map(
        lambda r: [r] + [Fraction(0)] * (degree - 1))
    general = st.lists(small_rationals, min_size=degree, max_size=degree)
    return st.one_of(zero, rational, general)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_rational_path_matches_the_general_kernels(data):
    k = data.draw(st.sampled_from(PRODUCT_FIELDS))
    coeffs = oracle_coefficients(k.degree)
    a = k.element(data.draw(coeffs))
    b = k.element(data.draw(coeffs))
    for x, y in ((a, b), (b, a), (a, a)):
        product = x * y
        assert (product.num, product.den) == convolution_product(x, y)
    for x in (a, b):
        if x.is_zero():
            with pytest.raises(DivisionByZero):
                x.inverse()
        else:
            inverse = x.inverse()
            assert (inverse.num, inverse.den) == bareiss_inverse(x)


# ---------------------------------------------------------------------------
# the inverse memo against the uncached kernel
# ---------------------------------------------------------------------------
# Each handle keeps the inverse of every irrational value inverted over it;
# bareiss_inverse above is the solve it saves.

MEMO_FIELDS = (
    lambda: RealAlgebraicField(["-2", "0", "1"], ("1", "2")),
    pentagon_field,
)


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_inverse_memo_matches_the_uncached_kernel(data):
    # k and other are two handles of one field; an element of other is
    # inverted over other or coerced into k first
    make = data.draw(st.sampled_from(MEMO_FIELDS))
    k, other = make(), make()
    for _ in range(data.draw(st.integers(0, 4))):
        other.refine()
    pool = data.draw(st.lists(oracle_coefficients(k.degree), min_size=1,
                              max_size=4))
    queries = data.draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1),
                  st.sampled_from(["own", "coerced", "other"]),
                  st.booleans()),
        min_size=1, max_size=12))
    stored = {k: set(), other: set()}
    for i, kind, ask_sign in queries:
        if kind == "own":
            x = k.element(pool[i])
        elif kind == "coerced":
            x = k.element(other.element(pool[i]))
        else:
            x = other.element(pool[i])
        if ask_sign:
            x.sign()  # refines the handle between inverses
        if x.is_zero():
            with pytest.raises(DivisionByZero):
                x.inverse()
            continue
        inverse = x.inverse()
        assert inverse.field is x.field
        assert (inverse.num, inverse.den) == bareiss_inverse(x)
        if not x.is_rational():
            stored[x.field].add((x.num, x.den))
    for handle, keys in stored.items():
        assert set(handle._inverses) == keys
        for (num, den), inverse in handle._inverses.items():
            x = FieldElement(handle, num, den)
            assert (inverse.num, inverse.den) == bareiss_inverse(x)


def test_inverse_memo_stores_no_failure():
    # x^2 - 1 = (x - 1)(x + 1) is squarefree; alpha is 1, so alpha - 1
    # has nonzero coefficients and no inverse
    k = RealAlgebraicField(["-1", "0", "1"], ("1/2", "3/2"))
    elem = k.alpha - 1
    for _ in range(2):
        with pytest.raises(NotInvertible):
            elem.inverse()
    assert k._inverses == {}


def test_analyze_over_q_stores_no_inverse(tmp_path, monkeypatch, capsys):
    handles = [render._Q]
    init = RealAlgebraicField.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        handles.append(self)

    monkeypatch.setattr(RealAlgebraicField, "__init__", recording)
    path = tmp_path / "polytope.json"
    path.write_text(dumps(corpus_entry("square")["polytope.json"]))
    assert cli.main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert len(handles) > 1
    assert all(k.degree == 1 and k._inverses == {} for k in handles)


def test_augment_solves_each_irrational_inverse_once(tmp_path, monkeypatch,
                                                     capsys):
    # the redundancy LPs and interior LP of the pentagon triple's polytope
    # ask for most of their inverses more than once
    path = tmp_path / "triple.json"
    path.write_text(dumps(corpus_entry("pentagon")["triple.json"]))
    asked = collections.Counter()
    solved = collections.Counter()
    inverse = FieldElement.inverse
    kernel = field_module._bareiss_inverse

    def asking(x):
        if not x.is_rational():
            asked[x.field, x.num, x.den] += 1
        return inverse(x)

    def solving(field, num, den):
        solved[field, num, den] += 1
        return kernel(field, num, den)

    monkeypatch.setattr(FieldElement, "inverse", asking)
    monkeypatch.setattr(field_module, "_bareiss_inverse", solving)
    assert cli.main(["augment", str(path)]) == 0
    capsys.readouterr()
    assert sum(asked.values()) > 2 * len(asked)
    assert solved == collections.Counter(dict.fromkeys(asked, 1))


def convolved_sub_multiple(xs, f, ys):
    """(num, den) of each x - f * y, with f * y by convolution_product:
    the reference of sub_multiple's rational path."""
    out = []
    for x, y in zip(xs, ys):
        num, den = convolution_product(f, y)
        out.append(lowest_terms([a * den - b * x.den
                                 for a, b in zip(x.num, num)], x.den * den))
    return out


def convolved_difference(k, a, u, b, v):
    """numerator_difference by the convolutions a * u_i - b * v_i folded
    through the table, unreduced, so with the factor scale."""
    d = k.degree
    out = []
    for i in range(0, len(u), d):
        conv = [0] * (2 * d - 1)
        for p, x in enumerate(a):
            for q, y in enumerate(u[i:i + d]):
                conv[p + q] += x * y
        for p, x in enumerate(b):
            for q, z in enumerate(v[i:i + d]):
                conv[p + q] -= x * z
        row = [c * k.scale for c in conv[:d]]
        for c, reduction in zip(conv[d:], k._reduce):
            for j, r in enumerate(reduction):
                row[j] += c * r
        out.extend(row)
    return out


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_rational_scalars_match_the_convolution(data):
    # over a field of degree > 1 a rational f in sub_multiple, or
    # rational a and b in numerator_difference, scales the numerators;
    # the convolution path gives the same elements and the same
    # integers, factor scale included
    k = data.draw(st.sampled_from(PRODUCT_FIELDS[1:]))
    d = k.degree
    n = data.draw(st.integers(1, 4))
    coeffs = oracle_coefficients(d)
    xs = [k.element(data.draw(coeffs)) for _ in range(n)]
    ys = [k.element(data.draw(coeffs)) for _ in range(n)]
    f = k.element(data.draw(coeffs))
    got = sub_multiple(xs, f, ys)
    assert [(x.num, x.den) for x in got] == convolved_sub_multiple(xs, f, ys)
    integers = st.integers(-9, 9)
    u, v = (data.draw(st.lists(integers, min_size=n * d, max_size=n * d))
            for _ in range(2))
    scalar = st.one_of(
        st.tuples(integers).map(lambda c: c + (0,) * (d - 1)),
        st.tuples(*[integers] * d))
    a, b = data.draw(scalar), data.draw(scalar)
    assert numerator_difference(k, a, u, b, v) == \
        convolved_difference(k, a, u, b, v)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_integer_bounds_decide_as_fraction_bounds(data):
    # twin fields: one answers through the integer bounds, the other
    # through the references; they must agree on every answer and end
    # with the same interval, so the same bisections were taken
    k = data.draw(st.sampled_from(PRODUCT_FIELDS))
    twin = RealAlgebraicField(k.minpoly, k.interval)
    ref = RealAlgebraicField(k.minpoly, k.interval)
    queries = data.draw(st.lists(st.tuples(
        st.sampled_from(["sign", "floor"]), oracle_coefficients(k.degree)),
        min_size=1, max_size=8))
    for method, coeffs in queries:
        x = twin.element(coeffs)
        y = ref.element(coeffs)
        if method == "sign":
            assert x.sign() == reference_sign(y)
        else:
            assert x.floor() == reference_floor(y)
        assert twin.interval == ref.interval
