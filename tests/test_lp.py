import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import fieldelement_sign
from quasitoric import lp as lp_module
from quasitoric.corpus import pentagon_field, sqrt2_field
from quasitoric.errors import (InternalInvariantError, MixedFields,
                               VariableBudgetExceeded)
from quasitoric.field import (FieldElement, RealAlgebraicField,
                              from_numerators, rational_field)
from quasitoric.linalg import dot, rref_rows, sub_multiple
from quasitoric.lp import strict_lp_feasible

Q = rational_field()


def qv(*xs):
    return tuple(Q.element(x) for x in xs)


def qc(coeffs, rhs, rel):
    return (qv(*coeffs), Q.element(rhs), rel)


class TestBasics:
    def test_open_unit_interval_midpoint(self):
        witness = strict_lp_feasible(
            [qc([1], 0, ">"), qc([-1], -1, ">")], 1)
        assert witness == qv("1/2")

    def test_contradiction(self):
        assert strict_lp_feasible(
            [qc([1], 0, ">"), qc([-1], 0, ">")], 1) is None

    def test_boundary_allowed_when_not_strict(self):
        witness = strict_lp_feasible(
            [qc([1], 1, ">="), qc([-1], -1, ">=")], 1)
        assert witness == qv(1)

    def test_boundary_rejected_when_strict(self):
        assert strict_lp_feasible(
            [qc([1], 1, ">"), qc([-1], -1, ">=")], 1) is None

    def test_equalities_substituted(self):
        # x + y = 2, x - y = 0, x > 0  ->  (1, 1)
        witness = strict_lp_feasible(
            [qc([1, 1], 2, "="), qc([1, -1], 0, "="), qc([1, 0], 0, ">")], 2)
        assert witness == qv(1, 1)

    def test_inconsistent_equalities(self):
        assert strict_lp_feasible(
            [qc([1, 1], 2, "="), qc([1, 1], 3, "=")], 2) is None

    def test_unconstrained_variable_defaults_to_zero(self):
        witness = strict_lp_feasible([qc([1, 0], 5, ">")], 2)
        assert witness[1] == Q.zero
        assert witness[0] > Q.element(5)

    def test_budget(self):
        with pytest.raises(VariableBudgetExceeded):
            strict_lp_feasible([qc([1] * 17, 0, ">")], 17)

    def test_budget_counts_free_variables(self):
        # 17 convex weights: sum w = 1 leaves 16 free variables
        cons = [qc([1] * 17, 1, "=")]
        cons += [qc([int(i == j) for j in range(17)], 0, ">")
                 for i in range(17)]
        witness = strict_lp_feasible(cons, 17)
        assert sum(witness, Q.zero) == Q.one
        assert all(w > Q.zero for w in witness)

    def test_two_dim_polytope_interior(self):
        # interior of the unit square
        cons = [qc([1, 0], 0, ">"), qc([0, 1], 0, ">"),
                qc([-1, 0], -1, ">"), qc([0, -1], -1, ">")]
        w = strict_lp_feasible(cons, 2)
        assert w == qv("1/2", "1/2")

    def test_algebraic_coefficients(self):
        k = RealAlgebraicField(["-2", "0", "1"], ("1", "2"))
        a = k.alpha
        # x > a, x < a + 1  ->  midpoint a + 1/2
        w = strict_lp_feasible(
            [((k.one,), a, ">"), ((-k.one,), -(a + 1), ">")], 1)
        assert w[0] == a + Fraction(1, 2)


class TestAbsenceAgainstGridSweep:
    """When reporting infeasible on systems with <= 3 variables, a rational
    grid sweep at resolution 1/64 must also find no witness."""

    def sweep(self, rational_cons, num_vars, lo=-2, hi=2):
        # the grid points k/64 scaled by 64 to the integers k, and each
        # constraint <c, x> (>, >=) r scaled by 64 to <c, k> (>, >=) 64 r:
        # the same test on the same points, in integer arithmetic
        scale = 64
        ks = range(lo * scale, hi * scale + 1)
        cons = []
        for coeffs, rhs, rel in rational_cons:
            bound = rhs * scale
            assert bound.denominator == 1
            cons.append((coeffs, int(bound), rel == ">"))

        def rec(i, point):
            if i == num_vars:
                for coeffs, bound, strict in cons:
                    val = sum(c * k for c, k in zip(coeffs, point))
                    if not (val > bound if strict else val >= bound):
                        return False
                return True
            return any(rec(i + 1, point + [k]) for k in ks)

        return rec(0, [])

    def test_random_infeasible_systems(self):
        rng = random.Random(20240610)
        confirmed = 0
        for _ in range(120):
            num_vars = rng.randint(1, 2)
            raw = []
            for _ in range(rng.randint(2, 4)):
                coeffs = [rng.randint(-3, 3) for _ in range(num_vars)]
                rhs = rng.randint(-2, 2)
                rel = rng.choice([">", ">="])
                raw.append((coeffs, Fraction(rhs), rel))
            cons = [qc(c, r, rel) for c, r, rel in raw]
            if strict_lp_feasible(cons, num_vars) is not None:
                continue
            confirmed += 1
            assert not self.sweep(raw, num_vars)
        assert confirmed > 5


class TestWitnessRecheck:
    def test_random_feasible_systems_recheck(self):
        rng = random.Random(20240611)
        for _ in range(300):
            num_vars = rng.randint(1, 3)
            cons = []
            for _ in range(rng.randint(1, 5)):
                coeffs = [rng.randint(-3, 3) for _ in range(num_vars)]
                rhs = rng.randint(-3, 3)
                rel = rng.choice([">", ">=", "="])
                cons.append(qc(coeffs, rhs, rel))
            w = strict_lp_feasible(cons, num_vars)
            if w is None:
                continue
            # the function already rechecks internally; double-check here
            for coeffs, rhs, rel in cons:
                val = sum((c * x for c, x in zip(coeffs, w)), Q.zero)
                d = (val - rhs).sign()
                assert d == 0 if rel == "=" else (d > 0 if rel == ">"
                                                  else d >= 0)


class TestZeroVariables:
    # a system in no variables states 0 rel b: its witness is the empty
    # vector when every such statement holds
    def test_true_inequality_gives_the_empty_witness(self):
        assert strict_lp_feasible([((), Q.element(-1), ">")], 0, Q) == ()

    def test_false_inequality_is_infeasible(self):
        assert strict_lp_feasible([((), Q.element(1), ">")], 0, Q) is None

    def test_equalities(self):
        assert strict_lp_feasible([((), Q.zero, "=")], 0, Q) == ()
        assert strict_lp_feasible([((), Q.one, "=")], 0, Q) is None

    def test_rhs_is_coerced_into_the_field(self):
        assert strict_lp_feasible([((), -1, ">")], 0, Q) == ()
        assert strict_lp_feasible([((Q.zero,), 1, ">")], 1, Q) is None
        sqrt2 = sqrt2_field()
        sqrt3 = RealAlgebraicField([-3, 0, 1], (1, 2))
        with pytest.raises(MixedFields):
            strict_lp_feasible([((), sqrt2.element([0, -1]), ">"),
                                ((), sqrt3.element([0, -1]), ">")], 0)


# ---------------------------------------------------------------------------
# reference engine: Fourier-Motzkin on FieldElement rows
# ---------------------------------------------------------------------------

def scalar_dedup(inequalities, zero):
    """Canonicalize rows to unit leading-coefficient magnitude and keep
    only the strongest constraint per normal direction, at one inverse
    and n + 1 products per row: the reference of lp._dedup on integer
    rows."""
    best = {}
    order = []
    for c, b, s in inequalities:
        lead = next((x for x in c if not x.is_zero()), None)
        if lead is not None:
            scale = abs(lead).inverse()
            c = [scale * x for x in c]
            b = scale * b
        key = tuple(c)
        if key not in best:
            best[key] = (b, s)
            order.append(key)
        else:
            ob, os = best[key]
            cmp = (b - ob).sign()
            if cmp > 0 or (cmp == 0 and s and not os):
                best[key] = (b, s)
    return [(list(key), best[key][0], best[key][1]) for key in order]


def scalar_rounds(inequalities, active, field, witness, sign_table=True):
    """Fourier-Motzkin on FieldElement rows (c, b, strict), canonicalised
    by scalar_dedup, then the back-substitution of the eliminated
    variables into witness.  False when a row with a vanished normal is
    false.  With sign_table False each round asks the sign of a
    coefficient c[v] up to three times (the positive count, the negative
    count and the split), not once per (row, active variable)."""
    zero, one = field.zero, field.one
    inequalities = scalar_dedup(inequalities, zero)
    eliminated = []
    active = set(active)

    def contradiction():
        for c, b, s in inequalities:
            if all(x.is_zero() for x in c):
                bs = b.sign()
                if bs > 0 or (bs == 0 and s):
                    return True
        return False

    while True:
        if sign_table:
            table = [{v: c[v].sign() for v in active}
                     for c, _, _ in inequalities]

            def sign(i, v):
                return table[i][v]
        else:
            def sign(i, v):
                return inequalities[i][0][v].sign()
        candidates = []
        for v in sorted(active):
            pos = sum(1 for i in range(len(inequalities)) if sign(i, v) > 0)
            neg = sum(1 for i in range(len(inequalities)) if sign(i, v) < 0)
            if pos or neg:
                candidates.append((pos * neg, v))
        if not candidates:
            break
        _, v = min(candidates)
        lowers, uppers, passthrough = [], [], []
        for i, row in enumerate(inequalities):
            sg = sign(i, v)
            (lowers if sg > 0 else uppers if sg < 0
             else passthrough).append(row)
        new = passthrough
        for cl, bl, sl in lowers:
            for cu, bu, su in uppers:
                # (-cu[v]) * lower + cl[v] * upper, variable v cancels
                ml, mu = -cu[v], cl[v]
                coeffs = [ml * a + mu * d for a, d in zip(cl, cu)]
                coeffs[v] = zero
                new.append((coeffs, ml * bl + mu * bu, sl or su))
        inequalities = scalar_dedup(new, zero)
        eliminated.append((v, lowers, uppers))
        active.discard(v)
        if contradiction():
            return False
    if contradiction():
        return False

    for v, lowers, uppers in reversed(eliminated):
        lo = hi = None
        lo_strict = hi_strict = False
        for c, b, s in lowers:
            val = (b - dot(c, witness)) / c[v]
            if lo is None or val > lo:
                lo, lo_strict = val, s
            elif val == lo:
                lo_strict = lo_strict or s
        for c, b, s in uppers:
            val = (b - dot(c, witness)) / c[v]
            if hi is None or val < hi:
                hi, hi_strict = val, s
            elif val == hi:
                hi_strict = hi_strict or s
        if hi is None:
            witness[v] = lo + one
        elif lo is None:
            witness[v] = hi - one
        else:
            cmp = (hi - lo).sign()
            assert cmp > 0 or (cmp == 0 and not (lo_strict or hi_strict))
            witness[v] = lo if cmp == 0 else (lo + hi) / 2
    return True


def recheck(constraints, witness, field):
    for coeffs, rhs, rel in constraints:
        val = dot(coeffs, witness) if witness else field.zero
        diff = (val - rhs).sign()
        assert diff == 0 if rel == "=" else (diff > 0 if rel == ">"
                                             else diff >= 0)


def split_constraints(constraints):
    equalities = [[*c, b] for c, b, rel in constraints if rel == "="]
    inequalities = [(list(c), b, rel == ">") for c, b, rel in constraints
                    if rel != "="]
    return equalities, inequalities


def scalar_lp_feasible(constraints, num_vars, field, sign_table=True):
    """strict_lp_feasible with its Fourier-Motzkin rounds on FieldElement
    rows: the reference of the integer rows."""
    equalities, inequalities = split_constraints(constraints)
    solved = [(next(j for j, x in enumerate(row) if not x.is_zero()), row)
              for row in rref_rows(equalities)]
    if solved and solved[-1][0] == num_vars:
        return None
    substituted = []
    for c, b, s in inequalities:
        row = [*c, b]
        for p, eq in solved:
            if not row[p].is_zero():
                row = sub_multiple(row, row[p], eq)
        substituted.append((row[:-1], row[-1], s))
    witness = [field.zero] * num_vars
    active = set(range(num_vars)).difference(p for p, _ in solved)
    if not scalar_rounds(substituted, active, field, witness, sign_table):
        return None
    for p, eq in solved:
        witness[p] = eq[-1] - dot(eq[:-1], witness)
    recheck(constraints, witness, field)
    return tuple(witness)


def triple_sign_lp_feasible(constraints, num_vars, field):
    """scalar_lp_feasible with the rounds that asked the sign of each
    coefficient up to three times: the reference of the sign table."""
    return scalar_lp_feasible(constraints, num_vars, field, sign_table=False)


def substitution_lp_feasible(constraints, num_vars, field):
    """scalar_lp_feasible with the equalities removed one at a time, each
    solved for its first variable and substituted into the rest, by
    scalar operators: the reference of the reduced row echelon form."""
    zero = field.zero
    equalities, inequalities = split_constraints(constraints)
    equalities = [(row[:-1], row[-1]) for row in equalities]

    # (var, coeffs over the other vars, const): x_var = const + <coeffs, x>
    substitutions = []
    while equalities:
        row, rhs = equalities.pop(0)
        pivot = next((j for j, c in enumerate(row) if not c.is_zero()), None)
        if pivot is None:
            if not rhs.is_zero():
                return None
            continue
        inv = row[pivot].inverse()
        expr = [-inv * c for c in row]
        expr[pivot] = zero
        const = inv * rhs
        substitutions.append((pivot, expr, const))

        def substitute(coeffs, b):
            f = coeffs[pivot]
            if f.is_zero():
                return coeffs, b
            out = [c + f * e for c, e in zip(coeffs, expr)]
            out[pivot] = zero
            return out, b - f * const

        equalities = [substitute(c, b) for c, b in equalities]
        inequalities = [(*substitute(c, b), s) for c, b, s in inequalities]

    witness = [zero] * num_vars
    active = {v for v in range(num_vars)
              if v not in {s[0] for s in substitutions}}
    if not scalar_rounds(inequalities, active, field, witness):
        return None
    for v, expr, const in reversed(substitutions):
        witness[v] = const + sum((e * witness[j]
                                  for j, e in enumerate(expr)
                                  if not e.is_zero()), zero)
    recheck(constraints, witness, field)
    return tuple(witness)


ORACLE_FIELDS = {
    "Q": rational_field,
    "sqrt2": sqrt2_field,
    "pentagon": pentagon_field,
}


@st.composite
def lp_systems(draw, max_vars=4, max_rows=6):
    """(field name, num_vars, rows): 0 to max_vars variables and up to
    max_rows rows, each (coefficients, offset, relation) with every
    scalar a power-basis coefficient tuple of small integers.  A row's
    right-hand side is <coefficients, anchor> - offset for one anchor
    point of the system, so equalities (offset 0) are often consistent."""
    name = draw(st.sampled_from(sorted(ORACLE_FIELDS)))
    degree = {"Q": 1, "sqrt2": 2, "pentagon": 4}[name]
    scalar = st.tuples(*[st.integers(-2, 2)] * degree)
    num_vars = draw(st.integers(0, max_vars))
    anchor = draw(st.tuples(*[scalar] * num_vars))
    rows = draw(st.lists(st.tuples(
        st.tuples(*[scalar] * num_vars),
        st.sampled_from([(0,) * degree, (1,) + (0,) * (degree - 1),
                         (-1,) + (0,) * (degree - 1)]) | scalar,
        st.sampled_from(["=", "=", ">=", ">"])), max_size=max_rows))
    return name, num_vars, anchor, rows


def lp_system(system, field):
    _, num_vars, anchor, rows = system
    x = [field.element(a) for a in anchor]
    constraints = []
    for coeffs, offset, rel in rows:
        coeffs = tuple(field.element(c) for c in coeffs)
        rhs = sum((c * a for c, a in zip(coeffs, x)), field.zero)
        constraints.append((coeffs, rhs - field.element(offset), rel))
    return constraints


def logged_solve(solve, system):
    """(witness as (num, den) pairs or None, the values passed to
    FieldElement.sign in order, the final isolating interval) of one
    solve of the system in a fresh field."""
    name, num_vars = system[0], system[1]
    field = ORACLE_FIELDS[name]()
    constraints = lp_system(system, field)
    asked = []
    sign = FieldElement.sign

    def logged(self):
        asked.append((self.num, self.den))
        return sign(self)

    FieldElement.sign = logged
    try:
        witness = solve(constraints, num_vars, field)
    finally:
        FieldElement.sign = sign
    if witness is not None:
        witness = [(x.num, x.den) for x in witness]
    return witness, asked, field.interval


def irrational_values(asked) -> set:
    """The irrational values among the (num, den) pairs asked, each
    scaled by a nonzero rational to numerators of content 1 with a
    positive first nonzero entry.  Interval evaluation scales with a
    rational factor, so a value decides its sign after as many
    bisections as any nonzero rational multiple of it; rational values
    take none."""
    out = set()
    for num, _ in asked:
        if any(num[1:]):
            g = gcd(*num)
            if next(x for x in num if x) < 0:
                g = -g
            out.add(tuple(x // g for x in num))
    return out


def assert_same_decisions(outcome, reference):
    """The same witness, the same irrational values asked up to rational
    factors, and so the same final isolating interval."""
    assert outcome[0] == reference[0]
    assert irrational_values(outcome[1]) == irrational_values(reference[1])
    assert outcome[2] == reference[2]


class TestSubstitutionOracle:
    """Equalities through the reduced row echelon form give the verdict
    and witness of sequential substitution, decide the signs of the same
    irrational values up to rational factors, and so leave the same final
    isolating interval.  The integer rows ask positive rational multiples
    of the values that FieldElement rows ask, and no rational leads."""

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lp_systems())
    @example(("Q", 2, ((1,), (1,)), [(((1,), (1,)), (0,), "="),
                                     (((1,), (-1,)), (0,), "="),
                                     (((1,), (0,)), (0,), ">")]))
    @example(("pentagon", 3, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0)),
              [(((0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 0, 0)), (0,) * 4, "="),
               (((1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)), (1, 0, 0, 0),
                ">"),
               (((0, 0, 0, 0), (1, 1, 0, 0), (-1, 0, 0, 0)), (0,) * 4,
                ">=")]))
    def test_agrees_with_sequential_substitution(self, system):
        assert_same_decisions(
            logged_solve(strict_lp_feasible, system),
            logged_solve(substitution_lp_feasible, system))


class TestSignTableOracle:
    """Fourier-Motzkin rounds that decide the sign of each coefficient
    once per (row, active variable) give the verdict and witness of the
    rounds that asked it up to three times, decide the signs of the same
    irrational values up to rational factors and so leave the same final
    isolating interval."""

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lp_systems())
    @example(("Q", 3, ((0,), (0,), (0,)),
              [(((1,), (1,), (0,)), (1,), ">"),
               (((-1,), (0,), (1,)), (1,), ">="),
               (((0,), (-1,), (-1,)), (1,), ">")]))
    @example(("pentagon", 2, ((1, 0, 0, 0), (0, 1, 0, 0)),
              [(((0, 1, 0, 0), (1, 0, -1, 0)), (1, 0, 0, 0), ">"),
               (((0, -1, 0, 0), (1, 1, 0, 0)), (1, 0, 0, 0), ">"),
               (((1, 0, 0, 1), (-1, 0, 0, 0)), (1, 0, 0, 0), ">=")]))
    def test_agrees_with_triple_sign_loop(self, system):
        assert_same_decisions(
            logged_solve(strict_lp_feasible, system),
            logged_solve(triple_sign_lp_feasible, system))


class TestIntegerRowOracle:
    """Fourier-Motzkin on integer numerator rows gives the verdict, the
    witness and the final isolating interval of the rounds on
    FieldElement rows: every row is a positive rational multiple of the
    row scaled to a leading +-1, and a row whose normal vanishes keeps
    that row's b, so each sign is decided on a positive rational multiple
    of the same value."""

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lp_systems(max_vars=5, max_rows=9))
    # rows with vanished normals merge by the sign of b - b' on b as
    # given: normalising b to +-1 too would leave the interval (1, 2)
    @example(("sqrt2", 0, (), [((), (-1, 0), ">"), ((), (1, 0), ">"),
                               ((), (0, 0), ">"), ((), (1, -2), ">=")]))
    def test_agrees_with_fieldelement_rows(self, system):
        assert_same_decisions(logged_solve(strict_lp_feasible, system),
                              logged_solve(scalar_lp_feasible, system))


# ---------------------------------------------------------------------------
# reference tail: back-substitution and recheck on FieldElements
# ---------------------------------------------------------------------------

def fieldelement_back_substitution(field, num_vars, solved, eliminated):
    """lp._back_substitution with each integer row rebuilt as elements by
    from_numerators and each bound (b - <c, x>) / c_v taken by dot over
    the whole witness, once per row: the reference of the bounds taken
    from the integer rows."""
    zero, one = field.zero, field.one
    witness = [zero] * num_vars
    for v, lowers, uppers in reversed(eliminated):
        lo = hi = None
        lo_strict = hi_strict = False
        for row, _, s in lowers:
            *c, b = from_numerators(field, row)
            val = (b - dot(c, witness)) / c[v]
            if lo is None or val > lo:
                lo, lo_strict = val, s
            elif val == lo:
                lo_strict = lo_strict or s
        for row, _, s in uppers:
            *c, b = from_numerators(field, row)
            val = (b - dot(c, witness)) / c[v]
            if hi is None or val < hi:
                hi, hi_strict = val, s
            elif val == hi:
                hi_strict = hi_strict or s
        if hi is None:
            witness[v] = lo + one
        elif lo is None:
            witness[v] = hi - one
        else:
            cmp = (hi - lo).sign()
            assert cmp > 0 or (cmp == 0 and not (lo_strict or hi_strict))
            witness[v] = lo if cmp == 0 else (lo + hi) / 2
    for p, eq in solved:
        witness[p] = eq[-1] - dot(eq[:-1], witness)
    return witness


def fieldelement_recheck(field, constraints, witness):
    """lp._recheck by dot and the sign of <coeffs, witness> - rhs in
    lowest terms."""
    for coeffs, rhs, rel in constraints:
        val = dot(coeffs, witness) if witness else field.zero
        diff = (val - rhs).sign()
        if not (diff == 0 if rel == "=" else (diff > 0 if rel == ">"
                                              else diff >= 0)):
            raise InternalInvariantError("witness failed the exact recheck")


def fieldelement_tail_lp_feasible(constraints, num_vars, field):
    """strict_lp_feasible closed as it was on FieldElements: the
    reference back-substitution and recheck, and every sign of the
    rounds asked of an element built over 1."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "numerator_sign", fieldelement_sign)
        patch.setattr(lp_module, "_back_substitution",
                      fieldelement_back_substitution)
        patch.setattr(lp_module, "_recheck", fieldelement_recheck)
        return strict_lp_feasible(constraints, num_vars, field)


def irrational_history(asked) -> list:
    """The irrational values among the (num, den) pairs asked, in order,
    each as its numerators over their positive content: positive
    multiples of one value read alike."""
    out = []
    for num, _ in asked:
        if any(num[1:]):
            g = gcd(*num)
            out.append(tuple(x // g for x in num))
    return out


class TestFieldElementTailOracle:
    """Bounds taken from the integer rows and the recheck on integer
    numerators give the witness (or None) of the FieldElement tail, ask
    the signs of the same irrational values in the same order, up to
    positive factors, and so leave twin field handles with the same
    interval."""

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lp_systems(max_vars=5, max_rows=9))
    @example(("Q", 2, ((0,), (0,)), [(((1,), (1,)), (1,), ">"),
                                     (((-1,), (-1,)), (0,), ">")]))
    @example(("sqrt2", 2, ((1, 1), (0, -1)),
              [(((1, 0), (0, 1)), (1, 0), ">"),
               (((0, -1), (1, 1)), (0, 0), ">="),
               (((-1, 1), (0, 0)), (-1, 0), ">")]))
    @example(("pentagon", 2, ((1, 0, 0, 0), (0, 1, 0, 0)),
              [(((0, 1, 0, 0), (1, 0, -1, 0)), (1, 0, 0, 0), ">"),
               (((0, -1, 0, 0), (1, 1, 0, 0)), (1, 0, 0, 0), ">"),
               (((1, 0, 0, 1), (-1, 0, 0, 0)), (1, 0, 0, 0), ">=")]))
    def test_agrees_with_fieldelement_tail(self, system):
        outcome = logged_solve(strict_lp_feasible, system)
        expected = logged_solve(fieldelement_tail_lp_feasible, system)
        assert outcome[0] == expected[0]
        assert irrational_history(outcome[1]) == \
            irrational_history(expected[1])
        assert outcome[2] == expected[2]


def test_recheck_refuses_a_moved_bound(monkeypatch):
    # every bound moved up by one: 0 < x < 1 gives x = 3/2, which the
    # exact recheck refuses, with or without python -O
    bound = lp_module._bound
    monkeypatch.setattr(lp_module, "_bound",
                        lambda *args: bound(*args) + 1)
    with pytest.raises(InternalInvariantError,
                       match="witness failed the exact recheck"):
        strict_lp_feasible([qc([1], 0, ">"), qc([-1], -1, ">")], 1)


def test_polygon_interior_lp_takes_few_inverses_and_products(monkeypatch):
    # the interior LP of a rational 24-gon with unit normals at circle
    # points: 2 variables and 24 strict rows.  Rows on FieldElements
    # took 184 inverses and 1366 products, one inverse and n + 1
    # products per row canonicalised
    ts = [Fraction(8 + 17 * j, 101) for j in range(6)]
    normals = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    for _ in range(3):
        normals += [(-y, x) for x, y in normals[-6:]]
    constraints = [(qv(x, y), Q.element(-1), ">") for x, y in normals]
    counts = {"inverse": 0, "__mul__": 0}
    for name in counts:
        method = getattr(FieldElement, name)

        def counted(*args, method=method, name=name):
            counts[name] += 1
            return method(*args)

        monkeypatch.setattr(FieldElement, name, counted)
    assert strict_lp_feasible(constraints, 2, Q) == qv(0, 0)
    assert counts["inverse"] <= 54 and counts["__mul__"] <= 80
