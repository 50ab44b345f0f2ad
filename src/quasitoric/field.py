"""Exact scalars: Q and real algebraic extensions Q(alpha).

A field handle carries a monic squarefree minimal polynomial with rational
coefficients together with an isolating interval for one of its real roots.
Elements are dense power-basis polynomials in alpha, stored as integer
numerators over one positive denominator in lowest terms, so equality is
equality of that pair and every arithmetic operation is exact.  A
rational value, one whose numerators after the constant term are zero,
multiplies and inverts as a rational number in every field, scales the
numerators of the vector kernels as a factor, and has the sign of its
integer.  The vector kernels (dot, sub_multiple) run a whole vector
operation on the integer numerators and reduce each result once, not
once per scalar operation; the double description and Fourier-Motzkin
keep their rays and rows as integer numerator vectors, each divided by
its content, and check their results on them (numerator_dot,
numerator_difference, ray_numerators, numerator_sign).  Sign
determination refines the isolating interval by bisection until interval
evaluation of the element excludes zero, reading the sign off integer
Horner bounds over one positive scale; Sturm chains make root counting
(and hence isolation) decidable.  Field set-up runs on integers: the
canonical rational texts -?[0-9]+ and -?[0-9]+/[0-9]+ are read straight
into (num, den) pairs (other texts go through Fraction), and one Sturm
chain of the primitive integer multiple of the minimal polynomial, built
from signed pseudo-remainders, gives the squarefree test, the root count,
same_field and the sign at every bisection midpoint, each sign at a
rational p/q from homogenised integer Horner.  Refinement only shrinks
the interval and interval evaluation is inclusion-isotone, so a sign or
floor decided on one interval is decided on every later one: the interval
a handle ends with depends on the set of values whose sign or floor was
asked, not on the order of the questions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import attrgetter, mul, neg
from typing import Iterable, Sequence, Union

from .errors import (
    DivisionByZero,
    InternalInvariantError,
    MixedFields,
    MultipleRootsInInterval,
    NoRootInInterval,
    NotInvertible,
    NotSquarefree,
    ParseError,
)

RationalLike = Union[int, Fraction, str]

# Number of futile bisections of the isolating interval before running the
# gcd test that detects a reducible modulus (an exact zero with nonzero
# coefficients; impossible over an irreducible modulus).
_REDUCIBILITY_CHECK_AFTER = 12

_denominator = attrgetter("denominator")


def parse_rational(text: RationalLike) -> Fraction:
    """Parse integer or "p/q" text (or any text Fraction accepts) into a
    Fraction."""
    if isinstance(text, Fraction):
        return text
    return Fraction(*_rational_pair(text))


def _canonical_rational(text: str):
    """(num, den) of a canonical rational text, -?[0-9]+ or
    -?[0-9]+/[0-9]+ in ASCII digits, den not reduced; None for any other
    text.  A zero den raises ZeroDivisionError, and int raises ValueError
    past its digit limit, as Fraction does."""
    head, slash, tail = text.partition("/")
    digits = head[1:] if head[:1] == "-" else head
    if not (digits.isdigit() and digits.isascii()):
        return None
    if not slash:
        return int(head), 1
    if not (tail.isdigit() and tail.isascii()):
        return None
    den = int(tail)
    if not den:
        raise ZeroDivisionError(text)
    return int(head), den


def _rational_pair(value) -> tuple[int, int]:
    """(num, den) with value == num / den and den > 0, not necessarily in
    lowest terms, for an int, Fraction or rational text.

    Canonical texts are read straight into integers; every other text
    takes the Fraction(text.strip()) route, so together they accept what
    Fraction accepts.  Anything else, true and false included, raises
    ParseError."""
    if isinstance(value, str):
        try:
            pair = _canonical_rational(value)
            if pair is None:
                parsed = Fraction(value.strip())
                pair = parsed.numerator, parsed.denominator
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
        return pair
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise ParseError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# dense polynomials over Q, coefficients ascending
# ---------------------------------------------------------------------------

def _trim(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def _deg(p: Sequence[Fraction]) -> int:
    return len(p) - 1


def _poly_derivative(p):
    return _trim([i * c for i, c in enumerate(p)][1:])


def _interval_eval(nums, den: int, lo: Fraction, hi: Fraction):
    """Evaluate the polynomial with coefficients nums[i] / den over
    [lo, hi] by interval Horner; returns (alo, ahi, scale) with
    alo / scale and ahi / scale the min and max, scale > 0.

    Runs on integers: with lo = l/q and hi = h/q, the k-th Horner value
    times q^(k-1) is an integer, and scaling by a positive number keeps
    the min and max, so signs read off alo and ahi and floors are
    alo // scale and ahi // scale."""
    q = lcm(lo.denominator, hi.denominator)
    l = lo.numerator * (q // lo.denominator)
    h = hi.numerator * (q // hi.denominator)
    alo = ahi = 0
    power = 1
    for c in reversed(nums):
        cands = (alo * l, alo * h, ahi * l, ahi * h)
        alo = min(cands) + c * power
        ahi = max(cands) + c * power
        power *= q
    return alo, ahi, den * power // q


def _interval_sign(alo: int, ahi: int, scale: int):
    """The sign an enclosure from _interval_eval decides, or None."""
    return 1 if alo > 0 else -1 if ahi < 0 else None


def _interval_floor(alo: int, ahi: int, scale: int):
    """The floor an enclosure from _interval_eval decides, or None; a
    decided floor may be 0."""
    flo = alo // scale
    return flo if flo == ahi // scale else None


# Sturm sequences run on primitive integer polynomials: each remainder is
# a signed pseudo-remainder made primitive, so every member is a positive
# multiple of the Euclidean member and has its signs (Basu, Pollack and
# Roy, Algorithms in Real Algebraic Geometry, 2.2 and 8.3), and every
# sign at a rational p/q comes from the integer q^deg * P(p/q).

def _primitive_polynomial(poly: Sequence[Fraction]) -> tuple[int, ...]:
    """The positive multiple of the rational polynomial poly (nonzero
    leading coefficient positive) with integer coefficients of content 1."""
    den = lcm(*map(_denominator, poly))
    return _primitive([c.numerator * (den // c.denominator) for c in poly])


def _negated_remainder(a: Sequence[int], b: Sequence[int]) -> tuple:
    """A positive multiple of -(a mod b), primitive, for integer a and
    nonzero integer b.

    Each of the k reduction steps multiplies the running remainder by
    lc = lead(b), so it ends as lc^k * (a mod b); negating it unless
    lc^k < 0 leaves |lc|^k * -(a mod b)."""
    lc = b[-1]
    top = len(b) - 1
    r = list(a)
    steps = 0
    while len(r) > top:
        t = r[-1]
        shift = len(r) - 1 - top
        if lc != 1:
            r = [lc * c for c in r]
        for i, c in enumerate(b, shift):
            r[i] -= t * c
        r = list(_trim(r))
        steps += 1
    if lc > 0 or not steps % 2:
        r = [-c for c in r]
    return _primitive(r)


def _sturm_sequence(p: Sequence[int], q: Sequence[int]) -> list:
    """The signed remainder sequence p, q, -(p mod q), ... of integer
    polynomials, each member primitive, up to its last nonzero member, a
    greatest common divisor of p and q.  With q = p' it is the Sturm
    chain of p."""
    chain = [tuple(p), tuple(q)]
    while chain[-1]:
        chain.append(_negated_remainder(chain[-2], chain[-1]))
    chain.pop()
    return chain


def _value_at(p: Sequence[int], x: Fraction) -> int:
    """q^deg(p) * p(x) for x = a/q with q > 0: an integer with the sign of
    p(x), by homogenised Horner."""
    a, q = x.numerator, x.denominator
    acc = 0
    power = 1
    for c in reversed(p):
        acc = acc * a + c * power
        power *= q
    return acc


def _sign_changes(chain, x: Fraction) -> int:
    changes = 0
    last = 0
    for p in chain:
        v = _value_at(p, x)
        if v:
            if (v < 0) != (last < 0) and last:
                changes += 1
            last = v
    return changes


def _root_count(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi] of the first member of
    the Sturm chain."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


# ---------------------------------------------------------------------------
# integer numerators over one denominator
# ---------------------------------------------------------------------------
# An element keeps its coefficients as integer numerators over one common
# denominator, so sums, products, inverses and interval evaluation run on
# integer vectors and reduce the result by one gcd (Cohen, A Course in
# Computational Algebraic Number Theory, 4.2-4.3).

def _reduction_table(poly) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(scale, rows) with rows[k] / scale the power-basis coefficients of
    x^(d+k) modulo the monic poly of degree d, for k = 0 .. d-2.

    Degree 1 has no rows and scale 1."""
    d = _deg(poly)
    rows = []
    row = tuple(-c for c in poly[:-1])  # x^d
    for _ in range(d - 1):
        rows.append(row)
        top = row[-1]
        row = (top * rows[0][0],) + tuple(
            c + top * r for c, r in zip(row[:-1], rows[0][1:]))
    scale = lcm(*[c.denominator for row in rows for c in row])
    return scale, tuple(tuple(int(c * scale) for c in row) for row in rows)


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class RealAlgebraicField:
    """Q(alpha) for alpha the unique root of a monic squarefree polynomial
    in an isolating interval.  Degree 1 degenerates to Q.

    The isolating interval only ever shrinks (refinements are cached on the
    handle); every cached state isolates the same root, so sharing a handle
    across threads stays sound.  Inverses are cached on the handle as
    refinements are: `_inverses` maps the (num, den) of each irrational
    value inverted over the handle to its inverse, for as long as the
    handle lives.  Rational values and failed inverses are never stored.
    An inverse decides no sign, and the worst a race can do is store one
    value twice, equal both times, so sharing stays sound; elements are
    never mutated, so one cached inverse serves every caller.

    `scale` is the positive denominator of the reduction table (1 over
    Q): the vector kernels' numerators are scale times the plain values.
    """

    __slots__ = ("minpoly", "degree", "_lo", "_hi", "_lo_negative",
                 "scale", "_reduce", "_pad", "_sturm", "_inverses")

    def __init__(self, minpoly: Iterable[RationalLike],
                 interval: tuple[RationalLike, RationalLike]):
        poly = _trim([parse_rational(c) for c in minpoly])
        if _deg(poly) < 1:
            raise ParseError("minimal polynomial must have degree >= 1")
        if poly[-1] != 1:
            raise ParseError("minimal polynomial must be monic")
        lo, hi = (parse_rational(interval[0]), parse_rational(interval[1]))
        if not lo < hi:
            raise ParseError("interval endpoints must satisfy lo < hi")
        # one Sturm chain of the primitive integer multiple p of the minimal
        # polynomial: its last member is gcd(p, p'), and it counts roots
        p = _primitive_polynomial(poly)
        chain = _sturm_sequence(p, _poly_derivative(p))
        if _deg(chain[-1]) > 0:
            raise NotSquarefree(
                f"gcd with derivative has degree {_deg(chain[-1])}")
        at_lo = _value_at(p, lo)
        if at_lo == 0 or _value_at(p, hi) == 0:
            raise NoRootInInterval(
                "minimal polynomial vanishes at an interval endpoint")
        roots = _root_count(chain, lo, hi)
        if roots == 0:
            raise NoRootInInterval("no root of the minimal polynomial in "
                                   f"[{lo}, {hi}]")
        if roots > 1:
            raise MultipleRootsInInterval(
                f"{roots} roots of the minimal polynomial in [{lo}, {hi}]")
        self.minpoly = poly
        self.degree = _deg(poly)
        self._sturm = chain
        self._lo = lo
        self._hi = hi
        # Sign of the minimal polynomial at lo.  Bisection moves lo only to
        # a midpoint of the same sign (or onto the root, which ends the
        # refinement), so the cached sign stays valid.
        self._lo_negative = at_lo < 0
        self.scale, self._reduce = _reduction_table(poly)
        # zero numerators after the constant term of a rational element
        self._pad = (0,) * (self.degree - 1)
        # (num, den) of an irrational value -> its inverse over this handle
        self._inverses = {}

    # -- basic data --

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def __repr__(self):
        terms = " + ".join(f"{c}*x^{i}" for i, c in enumerate(self.minpoly)
                           if c != 0)
        return f"RealAlgebraicField({terms} = 0 in [{self._lo}, {self._hi}])"

    def same_field(self, other: "RealAlgebraicField") -> bool:
        """Same minimal polynomial and same isolated root."""
        if self is other:
            return True
        if self.minpoly != other.minpoly:
            return False
        lo = max(self._lo, other._lo)
        hi = min(self._hi, other._hi)
        if lo >= hi:
            # Disjoint (or touching) cached intervals isolate distinct roots:
            # each interval contains its root strictly inside.
            return False
        return _root_count(self._sturm, lo, hi) == 1

    # -- interval refinement --

    def refine(self) -> tuple[Fraction, Fraction]:
        """One bisection step; keeps the root inside, never grows."""
        lo, hi = self._lo, self._hi
        if lo == hi:
            return lo, hi
        mid = (lo + hi) / 2
        vmid = _value_at(self._sturm[0], mid)
        if vmid == 0:
            # The isolated root is the rational midpoint itself.
            self._lo = self._hi = mid
        elif self._lo_negative != (vmid < 0):
            self._hi = mid
        else:
            self._lo = mid
        return self._lo, self._hi

    def refine_below(self, width: Fraction) -> tuple[Fraction, Fraction]:
        while self._hi - self._lo > width:
            self.refine()
        return self._lo, self._hi

    # -- element constructors --

    def element(self, value) -> "FieldElement":
        """Coerce an int, Fraction, "p/q" text, coefficient list, or
        element of an equivalent field into this field."""
        if isinstance(value, FieldElement):
            if value.field is self or self.same_field(value.field):
                return FieldElement(self, value.num, value.den)
            raise MixedFields("element belongs to a different field")
        if isinstance(value, (int, Fraction, str)):
            pairs = [_rational_pair(value)]
        else:
            pairs = [_rational_pair(c) for c in value]
        d = self.degree
        if len(pairs) > d:
            while pairs and not pairs[-1][0]:
                pairs.pop()
            if len(pairs) > d:
                raise ParseError(
                    f"coefficient list longer than field degree {d}")
        den = lcm(*[q for _, q in pairs])
        return _reduced(self, tuple([n * (den // q) for n, q in pairs])
                        + (0,) * (d - len(pairs)), den)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) + self._pad, 1)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + self._pad, 1)

    @property
    def alpha(self) -> "FieldElement":
        """The isolated root as an element."""
        if self.degree == 1:
            return self.element(-self.minpoly[0])
        return FieldElement(self, (0, 1) + self._pad[1:], 1)


def rational_field() -> RealAlgebraicField:
    """The degree-1 field Q (alpha = 0)."""
    return RealAlgebraicField(["0", "1"], ("-1", "1"))


class FieldElement:
    """Immutable power-basis element of a RealAlgebraicField.

    Coefficient i is num[i] / den, with den > 0 and gcd(den, *num) == 1, so
    every value has exactly one (num, den).  Build elements with
    RealAlgebraicField.element; the constructor takes the pair as given."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: RealAlgebraicField, num: tuple[int, ...],
                 den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.num, repeat(self.den)))

    # -- ring structure --

    def __add__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        return _reduced(self.field, tuple([
            x * b + y * a for x, y in zip(self.num, o.num)]), a * b)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        return _reduced(self.field, tuple([
            x * b - y * a for x, y in zip(self.num, o.num)]), a * b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        field = self.field
        a = self.num
        b = o.num
        d = len(b)
        if d == 1:
            # Q: the table is empty, and skipping its loops pays
            return _reduced(field, (a[0] * b[0],), self.den * o.den)
        # a rational factor scales the other's numerators: no table
        if not any(b[1:]):
            c = b[0]
            return _reduced(field, tuple([c * x for x in a]),
                            self.den * o.den)
        if not any(a[1:]):
            c = a[0]
            return _reduced(field, tuple([c * y for y in b]),
                            self.den * o.den)
        conv = [0] * (2 * d - 1)
        _accumulate(conv, a, b)
        return _reduced(field, _fold(field, conv),
                        self.den * o.den * field.scale)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """The inverse of a nonzero element: a rational value n/den has the
        inverse den/n, an irrational one is solved once per field handle
        (by _bareiss_inverse) and then read from the handle's cache."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        field = self.field
        num = self.num
        if not any(num[1:]):
            # den/n is already in lowest terms
            n = num[0]
            return FieldElement(field, (self.den if n > 0 else -self.den,)
                                + field._pad, abs(n))
        key = (num, self.den)
        inv = field._inverses.get(key)
        if inv is None:
            inv = field._inverses[key] = _bareiss_inverse(field, num,
                                                          self.den)
        return inv

    def __truediv__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- equality, ordering, sign --

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field \
                    and not self.field.same_field(other.field):
                return False
            o = other
        else:
            o = _coerce(self.field, other)
            if o is None:
                return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        # equal elements have equal (num, den), so these alone make a valid
        # hash; hashing the minimal polynomial too cost more than them
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def sign(self) -> int:
        """Exact sign of the real embedding: -1, 0, or +1."""
        if self.is_rational():
            head = self.num[0]
            return (head > 0) - (head < 0)
        return self._bisect(_interval_sign)

    def _bisect(self, decide):
        """The first value decide(alo, ahi, scale) that is not None, for
        the enclosure [alo / scale, ahi / scale] of the element on the
        field's interval, refined until it decides; an element that
        vanishes at alpha raises NotInvertible."""
        rounds = 0
        while True:
            lo, hi = self.field.interval
            decided = decide(*_interval_eval(self.num, self.den, lo, hi))
            if decided is not None:
                return decided
            if lo == hi:
                # alpha is the rational point lo and the element vanishes
                # there: only possible for a reducible modulus.
                raise NotInvertible(
                    "element with nonzero coefficients evaluates to zero; "
                    "the declared minimal polynomial is reducible")
            rounds += 1
            if rounds == _REDUCIBILITY_CHECK_AFTER:
                self._check_not_root(lo, hi)
            self.field.refine()

    def _check_not_root(self, lo: Fraction, hi: Fraction) -> None:
        """Raise NotInvertible if the element vanishes at a root of the
        minimal polynomial in [lo, hi]."""
        g = _sturm_sequence(self.field._sturm[0], _trim(self.num))[-1]
        if _deg(g) > 0 and _root_count(
                _sturm_sequence(g, _poly_derivative(g)), lo, hi) > 0:
            raise NotInvertible(
                "element vanishes at alpha; the declared minimal "
                "polynomial is reducible")

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- integer parts and decimal display --

    def floor(self) -> int:
        if self.is_rational():
            return self.num[0] // self.den
        return self._bisect(_interval_floor)

    def decimal(self, significant: int = 12) -> str:
        """Plain-decimal approximation at the given number of significant
        digits (display only; derived from exact comparisons)."""
        s = self.sign()
        if s == 0:
            return "0"
        mag = -self if s < 0 else self
        # leading-digit exponent e with 10^e <= mag < 10^(e+1)
        e = 0
        while mag >= Fraction(10) ** (e + 1):
            e += 1
        while mag < Fraction(10) ** e:
            e -= 1
        scale = Fraction(10) ** (significant - 1 - e)
        scaled = mag * scale
        if scaled.is_rational():
            n = _round_half_even(scaled.as_fraction())
        else:
            # irrational: never a tie, floor(x + 1/2) is the rounding
            n = (scaled + Fraction(1, 2)).floor()
        if n == 10 ** significant:
            n //= 10
            e += 1
        digits = str(n)
        if len(digits) != significant:
            raise InternalInvariantError(
                f"rounding gave {len(digits)} digits, not {significant}")
        if e >= significant:
            body = digits + "0" * (e - significant + 1)
        elif e >= 0:
            body = digits[:e + 1] + "." + digits[e + 1:]
        else:
            body = "0." + "0" * (-e - 1) + digits
        return ("-" if s < 0 else "") + body

    def __repr__(self):
        if self.is_rational():
            return f"FieldElement({format_rational(self.coeffs[0])})"
        terms = " + ".join(f"{c}*a^{i}" if i else str(c)
                           for i, c in enumerate(self.coeffs) if c != 0)
        return f"FieldElement({terms})"


def _reduced(field: RealAlgebraicField, num: tuple[int, ...],
             den: int) -> FieldElement:
    """The element num / den (den > 0) in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple([x // g for x in num])
        den //= g
    return FieldElement(field, num, den)


def _bareiss_inverse(field: RealAlgebraicField, num: tuple[int, ...],
                     den: int) -> FieldElement:
    """The inverse of the irrational element x = num / den: solve x * u = 1
    by fraction-free Gauss-Jordan elimination (Bareiss 1968) on the matrix
    of multiplication by x.  Raises NotInvertible when x shares a factor
    with a reducible modulus."""
    d = len(num)
    scale = field.scale
    # Column j is scale^j * den * (x * alpha^j): integers, each one
    # alpha times the previous, reduced through x^d = row 0 / scale.
    cols = [list(num)]
    for _ in range(d - 1):
        prev = cols[-1]
        top = prev[-1]
        cols.append([scale * c + top * r
                     for c, r in zip([0] + prev[:-1], field._reduce[0])])
    # rows of [cols | den * e_0]; the solution w gives u_j = scale^j w_j
    rows = [[*row, 0] for row in zip(*cols)]
    rows[0][-1] = den
    last = 1
    for k in range(d):
        p = next((i for i in range(k, d) if rows[i][k]), None)
        if p is None:
            raise NotInvertible(
                "element shares a factor with the modulus; "
                "the declared minimal polynomial is reducible")
        pivot = rows[p]
        rows[p] = rows[k]
        rows[k] = pivot
        pk = pivot[k]
        # Bareiss step: every entry stays a minor, so // is exact
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(pk * x - f * y) // last
                           for x, y in zip(row, pivot)]
        last = pk
    # every diagonal entry is now the last pivot; keep den positive
    sign = 1 if last > 0 else -1
    return _reduced(field, tuple([
        sign * scale ** j * row[-1] for j, row in enumerate(rows)]),
        sign * last)


def _coerce(field: RealAlgebraicField, other):
    """other as an element of field: elements of an equivalent field,
    ints and Fractions coerce, elements of another field raise
    MixedFields, and any other type gives None."""
    if isinstance(other, FieldElement):
        if other.field is field:
            return other
        if field.same_field(other.field):
            return FieldElement(field, other.num, other.den)
        raise MixedFields("operands belong to different fields")
    if isinstance(other, int):
        if isinstance(other, bool):
            raise ParseError(f"not a rational: {other!r}")
        return FieldElement(field, (other,) + field._pad, 1)
    if isinstance(other, Fraction):
        return FieldElement(field, (other.numerator,) + field._pad,
                            other.denominator)
    return None


def _accumulate(conv: list, a: Sequence[int], b: Sequence[int]) -> None:
    """conv += a * b as polynomials in alpha, unreduced."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                conv[j] += x * y


def _fold(field: RealAlgebraicField, conv: Sequence[int]) -> tuple:
    """scale * conv modulo the minimal polynomial, for conv of length
    2d - 1: each x^(d+k) folds back through row k of the reduction
    table, whose rows are integers over the denominator scale."""
    d = len(conv) // 2 + 1
    scale = field.scale
    out = [c * scale for c in conv[:d]]
    for c, row in zip(conv[d:], field._reduce):
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
    return tuple(out)


# ---------------------------------------------------------------------------
# vector kernels
# ---------------------------------------------------------------------------
# The scalar operators reduce every + and * by a gcd.  These kernels run
# a whole vector operation on the integer numerators and reduce each
# result once: linalg's Gauss-Jordan loop eliminates with sub_multiple,
# and the double description (Fukuda and Prodon, Double description
# method revisited, 1996) and lp's Fourier-Motzkin rounds keep their rays
# and rows fraction-free, in the spirit of Bareiss (Sylvester's identity
# and multistep integer-preserving Gaussian elimination, 1968).
#
# A numerator vector is the flat tuple of the integer numerators of a
# vector over one implicit positive denominator: coordinate i is
# nums[i*d:(i+1)*d] in the power basis of a field of degree d.  Positive
# multiples of a vector share every sign, so the double description
# keeps its rays in this form, and Fourier-Motzkin its rows [c | b].

def _members(field: RealAlgebraicField, xs: Sequence) -> Sequence:
    """xs as elements of field, coerced as by the scalar operators."""
    for x in xs:
        if x.__class__ is not FieldElement or x.field is not field:
            out = [_coerce(field, x) for x in xs]
            if None in out:
                raise TypeError("vector entries must be field elements, "
                                "ints or Fractions")
            return out
    return xs


def flat_numerators(field: RealAlgebraicField,
                    vector: Sequence) -> tuple[list, int]:
    """(nums, den): the numerator vector of den * vector, den the lcm of
    the entries' denominators, so vector is nums over den exactly."""
    vector = _members(field, vector)
    den = lcm(*[x.den for x in vector])
    if den == 1:
        return [a for x in vector for a in x.num], 1
    return [a * (den // x.den) for x in vector for a in x.num], den


def numerators(field: RealAlgebraicField, vector: Sequence) -> tuple:
    """The numerator vector of the positive multiple of vector whose
    integers have no common factor (content 1)."""
    nums, _ = flat_numerators(field, vector)
    return _primitive(nums)


def from_numerators(field: RealAlgebraicField, nums: Sequence[int],
                    den: int = 1) -> tuple:
    """The vector of elements with the given numerators over the positive
    integer den, each in lowest terms."""
    d = field.degree
    return tuple([_reduced(field, tuple(nums[k:k + d]), den)
                  for k in range(0, len(nums), d)])


def numerator_sign(field: RealAlgebraicField, nums: Sequence[int]) -> int:
    """Sign of the field element with the given numerators over 1.  A
    rational value, every value over Q among them, reads the sign of its
    integer with no element built, as FieldElement.sign would."""
    head = nums[0]
    if not any(nums[1:]):
        return (head > 0) - (head < 0)
    return FieldElement(field, tuple(nums), 1).sign()


def numerator_dot(field: RealAlgebraicField, u: Sequence[int],
                  v: Sequence[int]) -> tuple:
    """Numerators over 1 of scale * <u, v> for numerator vectors u and v,
    where scale is the positive denominator of the reduction table (1
    over Q): the products are convolved, summed and folded once."""
    d = field.degree
    if d == 1:
        return (sum(map(mul, u, v)),)
    conv = [0] * (2 * d - 1)
    for k in range(0, len(u), d):
        _accumulate(conv, u[k:k + d], v[k:k + d])
    return _fold(field, conv)


def numerator_difference(field: RealAlgebraicField, a: Sequence[int],
                         u: Sequence[int], b: Sequence[int],
                         v: Sequence[int]) -> list:
    """Numerators over 1 of scale * (a * u - b * v), unreduced, for
    numerators a and b of two field elements over 1, numerator vectors u
    and v, and scale as in numerator_dot."""
    d = len(a)
    if d == 1:
        a, b = a[0], b[0]
        return [a * x - b * y for x, y in zip(u, v)]
    if not any(a[1:]) and not any(b[1:]):
        # rational factors scale the numerators, as in FieldElement.__mul__
        scale = field.scale
        a, b = scale * a[0], scale * b[0]
        return [a * x - b * y for x, y in zip(u, v)]
    nb = tuple(map(neg, b))
    out = []
    for k in range(0, len(u), d):
        conv = [0] * (2 * d - 1)
        _accumulate(conv, a, u[k:k + d])
        _accumulate(conv, nb, v[k:k + d])
        out.extend(_fold(field, conv))
    return out


def ray_numerators(field: RealAlgebraicField, nums: Sequence[int]) -> tuple:
    """The canonical numerator vector of the ray through the nonzero
    numerator vector nums: its positive multiple of content 1 whose first
    nonzero coordinate is rational.

    Over Q that is nums over its content.  Over degree > 1 the first
    nonzero coordinate c is made rational by the factor |c|^-1, which
    takes the sign of c and one inverse.  So rays that agree up to a
    positive factor have one canonical form, a positive rational multiple
    of the ray scaled to a leading +-1, and interval evaluation, which
    scales linearly under a positive rational factor, decides every sign
    on it as on that ray."""
    d = field.degree
    if d == 1:
        return _primitive(nums)
    lead = next(nums[k:k + d] for k in range(0, len(nums), d)
                if any(nums[k:k + d]))
    if any(lead[1:]):
        lead = FieldElement(field, tuple(lead), 1)
        inv = (lead if lead.sign() > 0 else -lead).inverse().num
        out = []
        for i in range(0, len(nums), d):
            conv = [0] * (2 * d - 1)
            _accumulate(conv, inv, nums[i:i + d])
            out.extend(_fold(field, conv))
        nums = out
    return _primitive(nums)


def _primitive(nums: Sequence[int]) -> tuple:
    """nums divided by their content, the zero vector as it is."""
    g = gcd(*nums)
    if g < 2:
        return tuple(nums)
    return tuple([x // g for x in nums])


def dot(u: Sequence, v: Sequence) -> FieldElement:
    """sum u[i] * v[i] over the field of u[0], reduced once: the entries
    are brought to one denominator per vector and the integer dot
    product is taken by numerator_dot."""
    field = u[0].field
    a, p = flat_numerators(field, u)
    b, q = flat_numerators(field, v)
    return _reduced(field, numerator_dot(field, a, b), p * q * field.scale)


def sub_multiple(xs: Sequence, f: FieldElement, ys: Sequence) -> list:
    """[x - f * y for x, y in zip(xs, ys)] over the field of f, each entry
    reduced once: x - f y = (x * den(f y) - num(f y) * den(x)) over
    den(x) den(f y), with f y left unreduced.  Entries with y = 0 are x."""
    field = f.field
    xs = _members(field, xs)
    ys = _members(field, ys)
    c, r = f.num, f.den
    out = []
    if len(c) == 1:
        c = c[0]
        for x, y in zip(xs, ys):
            b = y.num[0]
            if not b:
                out.append(x)
                continue
            p = x.den
            q = r * y.den
            out.append(_reduced(field, (x.num[0] * q - c * b * p,), p * q))
        return out
    if not any(c[1:]):
        # a rational f scales the numerators of y, as in FieldElement.__mul__
        c = c[0]
        for x, y in zip(xs, ys):
            if not any(y.num):
                out.append(x)
                continue
            p = x.den
            q = r * y.den
            out.append(_reduced(field, tuple([
                a * q - c * b * p for a, b in zip(x.num, y.num)]), p * q))
        return out
    d = len(c)
    scale = field.scale
    for x, y in zip(xs, ys):
        if not any(y.num):
            out.append(x)
            continue
        conv = [0] * (2 * d - 1)
        _accumulate(conv, c, y.num)
        p = x.den
        q = r * y.den * scale
        out.append(_reduced(field, tuple([
            a * q - b * p for a, b in zip(x.num, _fold(field, conv))]),
            p * q))
    return out


def _round_half_even(x: Fraction) -> int:
    q, r = divmod(x.numerator, x.denominator)
    double = 2 * r
    if double > x.denominator:
        return q + 1
    if double < x.denominator:
        return q
    return q if q % 2 == 0 else q + 1
