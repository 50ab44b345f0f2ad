import random
from fractions import Fraction

import pytest

from quasitoric.errors import VariableBudgetExceeded
from quasitoric.field import RealAlgebraicField, rational_field
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
