import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quasitoric.corpus import pentagon_field, sqrt2_field
from quasitoric.errors import InternalInvariantError, VariableBudgetExceeded
from quasitoric.field import FieldElement, RealAlgebraicField, rational_field
from quasitoric.linalg import dot, rref_rows, sub_multiple
from quasitoric.lp import _dedup, strict_lp_feasible

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


# ---------------------------------------------------------------------------
# oracle: equalities removed by sequential substitution
# ---------------------------------------------------------------------------

def substitution_lp_feasible(constraints, num_vars, field):
    """strict_lp_feasible with the equalities removed one at a time, each
    solved for its first variable and substituted into the rest, by
    scalar operators: the reference of the reduced row echelon form."""
    zero, one = field.zero, field.one
    equalities = []
    inequalities = []
    for coeffs, rhs, rel in constraints:
        row = list(coeffs)
        if rel == "=":
            equalities.append((row, rhs))
        else:
            inequalities.append((row, rhs, rel == ">"))

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

    inequalities = _dedup(inequalities, zero)
    eliminated = []
    active = {v for v in range(num_vars)
              if v not in {s[0] for s in substitutions}}
    while True:
        signs = [{v: c[v].sign() for v in active} for c, _, _ in inequalities]
        candidates = []
        for v in sorted(active):
            pos = sum(1 for row in signs if row[v] > 0)
            neg = sum(1 for row in signs if row[v] < 0)
            if pos or neg:
                candidates.append((pos * neg, v))
        if not candidates:
            break
        _, v = min(candidates)
        lowers, uppers, passthrough = [], [], []
        for (c, b, s), row in zip(inequalities, signs):
            sg = row[v]
            if sg > 0:
                lowers.append((c, b, s))
            elif sg < 0:
                uppers.append((c, b, s))
            else:
                passthrough.append((c, b, s))
        new = passthrough
        for cl, bl, sl in lowers:
            for cu, bu, su in uppers:
                ml, mu = -cu[v], cl[v]
                coeffs = [ml * a + mu * d for a, d in zip(cl, cu)]
                coeffs[v] = zero
                new.append((coeffs, ml * bl + mu * bu, sl or su))
        inequalities = _dedup(new, zero)
        eliminated.append((v, lowers, uppers))
        active.discard(v)
        for c, b, s in inequalities:
            if all(x.is_zero() for x in c):
                bs = b.sign()
                if bs > 0 or (bs == 0 and s):
                    return None

    for c, b, s in inequalities:
        if all(x.is_zero() for x in c):
            bs = b.sign()
            if bs > 0 or (bs == 0 and s):
                return None

    witness = [zero] * num_vars
    for v, lowers, uppers in reversed(eliminated):
        lo = hi = None
        lo_strict = hi_strict = False
        for c, b, s in lowers:
            val = (b - sum((c[j] * witness[j] for j in range(num_vars)
                            if j != v), zero)) / c[v]
            if lo is None or val > lo:
                lo, lo_strict = val, s
            elif val == lo:
                lo_strict = lo_strict or s
        for c, b, s in uppers:
            val = (b - sum((c[j] * witness[j] for j in range(num_vars)
                            if j != v), zero)) / c[v]
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
    for v, expr, const in reversed(substitutions):
        witness[v] = const + sum((e * witness[j]
                                  for j, e in enumerate(expr)
                                  if not e.is_zero()), zero)

    for coeffs, rhs, rel in constraints:
        val = sum((c * w for c, w in zip(coeffs, witness)), zero)
        diff = (val - rhs).sign()
        assert diff == 0 if rel == "=" else (diff > 0 if rel == ">"
                                             else diff >= 0)
    return tuple(witness)


def triple_sign_lp_feasible(constraints, num_vars, field):
    """strict_lp_feasible with the Fourier-Motzkin round that asked the
    sign of each coefficient c[v] up to three times (the positive count,
    the negative count and the split): the reference of the sign table."""
    zero, one = field.zero, field.one

    equalities = []   # rows [a | b]
    inequalities = []  # (coeffs list, rhs, strict)
    for coeffs, rhs, rel in constraints:
        row = list(coeffs)
        if rel == "=":
            equalities.append([*row, rhs])
        else:
            inequalities.append((row, rhs, rel == ">"))

    # --- equalities: reduced row echelon form of [A | b] ------------------
    # (pivot, row): x_pivot = row[-1] - <row[:-1], x> over the free
    # variables; a pivot in the b column is the row 0 = 1
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

    # --- Fourier-Motzkin on the remaining inequalities ------------------
    inequalities = _dedup(substituted, zero)
    eliminated = []  # (var, lowers, uppers) for back-substitution
    active = set(range(num_vars)).difference(p for p, _ in solved)
    while True:
        candidates = []
        for v in sorted(active):
            pos = sum(1 for c, _, _ in inequalities if c[v].sign() > 0)
            neg = sum(1 for c, _, _ in inequalities if c[v].sign() < 0)
            if pos or neg:
                candidates.append((pos * neg, v, pos, neg))
        if not candidates:
            break
        _, v, _, _ = min(candidates)
        lowers, uppers, passthrough = [], [], []
        for c, b, s in inequalities:
            sg = c[v].sign()
            if sg > 0:
                lowers.append((c, b, s))
            elif sg < 0:
                uppers.append((c, b, s))
            else:
                passthrough.append((c, b, s))
        new = passthrough
        for cl, bl, sl in lowers:
            for cu, bu, su in uppers:
                # (-cu[v]) * lower + cl[v] * upper, variable v cancels
                ml, mu = -cu[v], cl[v]
                coeffs = [ml * a + mu * d for a, d in zip(cl, cu)]
                coeffs[v] = zero
                new.append((coeffs, ml * bl + mu * bu, sl or su))
        inequalities = _dedup(new, zero)
        eliminated.append((v, lowers, uppers))
        active.discard(v)
        # quick contradiction scan
        for c, b, s in inequalities:
            if all(x.is_zero() for x in c):
                bs = b.sign()
                if bs > 0 or (bs == 0 and s):
                    return None

    for c, b, s in inequalities:
        if all(x.is_zero() for x in c):
            bs = b.sign()
            if bs > 0 or (bs == 0 and s):
                return None

    # --- back-substitution ----------------------------------------------
    # variables never eliminated stay zero; witness[v] is still zero when
    # v's bounds are taken, so the full dot product leaves it out
    witness = [zero] * num_vars
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
            if cmp < 0:
                raise InternalInvariantError(
                    "Fourier-Motzkin produced an empty interval")
            if cmp == 0:
                if lo_strict or hi_strict:
                    raise InternalInvariantError(
                        "Fourier-Motzkin produced an empty open interval")
                witness[v] = lo
            else:
                witness[v] = (lo + hi) / 2
    # a reduced row is zero on the other pivots, and witness[p] is zero
    for p, eq in solved:
        witness[p] = eq[-1] - dot(eq[:-1], witness)

    # --- exact recheck ----------------------------------------------------
    for coeffs, rhs, rel in constraints:
        val = dot(coeffs, witness) if num_vars else zero
        diff = (val - rhs).sign()
        ok = diff == 0 if rel == "=" else (diff > 0 if rel == ">"
                                           else diff >= 0)
        if not ok:
            raise InternalInvariantError("witness failed the exact recheck")
    return tuple(witness)


ORACLE_FIELDS = {
    "Q": rational_field,
    "sqrt2": sqrt2_field,
    "pentagon": pentagon_field,
}


@st.composite
def lp_systems(draw):
    """(field name, num_vars, rows): 0-4 variables and 0-6 rows, each
    (coefficients, offset, relation) with every scalar a power-basis
    coefficient tuple of small integers.  A row's right-hand side is
    <coefficients, anchor> - offset for one anchor point of the system,
    so equalities (offset 0) are often consistent."""
    name = draw(st.sampled_from(sorted(ORACLE_FIELDS)))
    degree = {"Q": 1, "sqrt2": 2, "pentagon": 4}[name]
    scalar = st.tuples(*[st.integers(-2, 2)] * degree)
    num_vars = draw(st.integers(0, 4))
    anchor = draw(st.tuples(*[scalar] * num_vars))
    rows = draw(st.lists(st.tuples(
        st.tuples(*[scalar] * num_vars),
        st.sampled_from([(0,) * degree, (1,) + (0,) * (degree - 1),
                         (-1,) + (0,) * (degree - 1)]) | scalar,
        st.sampled_from(["=", "=", ">=", ">"])), max_size=6))
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


class TestSubstitutionOracle:
    """Equalities through the reduced row echelon form give the verdict
    and witness of sequential substitution, with the same values passed
    to FieldElement.sign in the same order, and so the same final
    isolating interval."""

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
        outcomes = [logged_solve(solve, system) for solve in
                    (strict_lp_feasible, substitution_lp_feasible)]
        assert outcomes[0] == outcomes[1]


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


class TestSignTableOracle:
    """Fourier-Motzkin rounds that decide the sign of each coefficient
    once per (row, active variable) give the verdict and witness of the
    rounds that asked it up to three times, ask the same set of values
    and so leave the same final isolating interval."""

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
        table = logged_solve(strict_lp_feasible, system)
        triple = logged_solve(triple_sign_lp_feasible, system)
        assert table[0] == triple[0]
        assert set(table[1]) == set(triple[1])
        assert table[2] == triple[2]
