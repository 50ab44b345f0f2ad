import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_integer_solve, scalar_dot
from quasitoric.corpus import pentagon_field
from quasitoric.errors import MixedFields
from quasitoric.field import RealAlgebraicField, rational_field
from quasitoric.linalg import (
    IntegerSystem,
    _gauss_jordan,
    dot,
    hnf,
    integer_kernel,
    integer_solve,
    mat_rank,
    rank_kernel_solve,
    snf,
    solve_unique,
    xgcd,
)

Q = rational_field()


def qmat(rows):
    return [[Q.element(x) for x in row] for row in rows]


def qvec(entries):
    return tuple(Q.element(x) for x in entries)


# ---- independent oracles -------------------------------------------------

def det_oracle(M):
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(M)
    a = [list(map(int, row)) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def mat_mul_int(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def is_hnf_shape(H):
    pivots = []
    last = -1
    for row in H:
        nz = [j for j, v in enumerate(row) if v != 0]
        if not nz:
            pivots.append(None)
            continue
        j = nz[0]
        if pivots and pivots[-1] is None:
            return False  # nonzero row after a zero row
        if j <= last:
            return False
        if row[j] <= 0:
            return False
        pivots.append(j)
        last = j
    for i, j in enumerate(pivots):
        if j is None:
            continue
        for r in range(i):
            if not 0 <= H[r][j] < H[i][j]:
                return False
    return True


# ---- field elimination ----------------------------------------------------

class TestRankKernelSolve:
    def test_identity(self):
        A = qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        res = rank_kernel_solve(A)
        assert res.rank == 3
        assert res.kernel == []

    def test_single_balanced_row(self):
        A = qmat([[1, 1, 1]])
        res = rank_kernel_solve(A)
        assert res.rank == 1
        assert res.kernel == [qvec([-1, 1, 0]), qvec([-1, 0, 1])]

    def test_hirzebruch_matrix_rank(self):
        k = RealAlgebraicField(["-2", "0", "1"], ("1", "2"))
        a = k.alpha
        V = [[k.one, k.zero, k.zero, -k.one, k.zero],
             [k.zero, k.one, -k.one, a, -a]]
        res = rank_kernel_solve(V)
        assert res.rank == 2
        assert len(res.kernel) == 3
        for vec in res.kernel:
            for row in V:
                assert dot(row, vec).is_zero()

    def test_solve_unique(self):
        A = qmat([[2, 1], [1, 3]])
        assert solve_unique(A, [qvec([5, 10])]) == [qvec([1, 3])]
        assert solve_unique(A, [qvec([5, 10]), qvec([2, 1])]) == [
            qvec([1, 3]), qvec([1, 0])]
        # a singular system raises, inconsistent for (1, 3) or not
        A = qmat([[1, 1], [2, 2]])
        for b in (qvec([1, 3]), qvec([1, 2])):
            with pytest.raises(ValueError):
                solve_unique(A, [b])

    def test_rank_nullity(self):
        rng = random.Random(11)
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            A = qmat([[rng.randint(-5, 5) for _ in range(cols)]
                      for _ in range(rows)])
            res = rank_kernel_solve(A)
            assert res.rank + len(res.kernel) == cols


# ---- kernels against the scalar loops they replace -------------------------

KERNEL_FIELDS = (Q, RealAlgebraicField(["-2", "0", "1"], ("1", "2")),
                 pentagon_field())
FOREIGN_FIELD = RealAlgebraicField(["-3", "0", "1"], ("1", "2"))


def scalar_gauss_jordan(A):
    """_gauss_jordan with each elimination step a loop of scalar
    operators: the reference of the row kernel's use."""
    work = [list(row) for row in A]
    rows, cols = len(work), len(work[0])
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows)
                      if not work[i][c].is_zero()), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c].inverse()
        work[r] = [inv * x for x in work[r]]
        for i in range(rows):
            if i != r and not work[i][c].is_zero():
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return work, pivot_cols


def augmented(A, b):
    """A with b as its last column; A itself when b is None."""
    if b is None:
        return A
    return [[*row, x] for row, x in zip(A, b, strict=True)]


def same_entries(xs, ys):
    return len(xs) == len(ys) and all(
        x.field is y.field and (x.num, x.den) == (y.num, y.den)
        for x, y in zip(xs, ys))


def outcome(fn, *args):
    try:
        return fn(*args)
    except MixedFields:
        return MixedFields


def power_basis_coefficients(k):
    """Coefficient lists of elements of k: small integers and fractions,
    zero often."""
    return st.lists(st.one_of(st.just(0), st.integers(-3, 3),
                              st.builds(Fraction, st.integers(-3, 3),
                                        st.integers(1, 4))),
                    min_size=k.degree, max_size=k.degree)


@st.composite
def field_systems(draw, foreign=False):
    """(A, b): 1-4 rows and 1-4 columns over Q, Q(sqrt 2) or the pentagon
    field, with many zero entries; sometimes the last row is the sum of
    the others, and b is None half the time.  With foreign, one entry of
    A or b lies in another field."""
    k = draw(st.sampled_from(KERNEL_FIELDS))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeffs = power_basis_coefficients(k)
    A = [[k.element(draw(coeffs)) for _ in range(cols)]
         for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        A[-1] = [sum(col, k.zero) for col in zip(*A[:-1])]
    b = [k.element(draw(coeffs)) for _ in range(rows)] \
        if draw(st.booleans()) else None
    if foreign:
        entry = FOREIGN_FIELD.element(draw(st.integers(-2, 2)))
        i = draw(st.integers(0, rows - 1))
        if b is not None and draw(st.booleans()):
            b[i] = entry
        else:
            A[i][draw(st.integers(0, cols - 1))] = entry
    return A, b


@settings(max_examples=150, deadline=None, database=None)
@given(field_systems())
def test_gauss_jordan_matches_scalar_loop(system):
    A, b = system
    work, pivots = _gauss_jordan(augmented(A, b))
    ref_work, ref_pivots = scalar_gauss_jordan(augmented(A, b))
    assert pivots == ref_pivots
    assert all(same_entries(x, y) for x, y in zip(work, ref_work))
    assert len(work) == len(ref_work)
    for row in A:
        assert same_entries([dot(row, row)], [scalar_dot(row, row)])


@settings(max_examples=100, deadline=None, database=None)
@given(field_systems(foreign=True))
@example(([[Q.one]], [FOREIGN_FIELD.zero]))  # a foreign zero still raises
def test_foreign_entries_as_in_scalar_loop(system):
    # the kernels raise MixedFields exactly where the scalar loops do
    A, b = system
    got, expected = outcome(_gauss_jordan, augmented(A, b)), \
        outcome(scalar_gauss_jordan, augmented(A, b))
    if expected is MixedFields:
        assert got is MixedFields
    else:
        assert got[1] == expected[1]
        assert all(same_entries(x, y) for x, y in zip(got[0], expected[0]))
    for row in A:
        ones = [FOREIGN_FIELD.one] * len(row)
        got, expected = outcome(dot, row, ones), outcome(scalar_dot, row,
                                                         ones)
        if expected is MixedFields:
            assert got is MixedFields
        else:
            assert same_entries([got], [expected])


@st.composite
def square_systems(draw):
    """(A, columns): an n x n matrix, n = 1-4, over Q, Q(sqrt 2) or the
    pentagon field and 1-4 right-hand sides; A is singular when its last
    row is the sum of the others or a row is zero."""
    k = draw(st.sampled_from(KERNEL_FIELDS))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeffs = power_basis_coefficients(k)
    A = [[k.element(draw(coeffs)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        A[-1] = [sum(col, k.zero) for col in zip(*A[:-1])]
    columns = [tuple(k.element(draw(coeffs)) for _ in range(n))
               for _ in range(m)]
    return A, columns


@settings(max_examples=150, deadline=None, database=None)
@given(square_systems())
def test_solve_unique_matches_scalar_solutions(system):
    # column by column, as the scalar loop solves [A | b]; A is
    # invertible exactly when its pivots are its own n columns
    A, columns = system
    n = len(A)
    solved = [scalar_gauss_jordan(augmented(A, b)) for b in columns]
    if any(pivots[:n] != list(range(n)) for _, pivots in solved):
        with pytest.raises(ValueError):
            solve_unique(A, columns)
        return
    got = solve_unique(A, columns)
    assert len(got) == len(columns)
    for x, b, (work, _) in zip(got, columns, solved):
        assert same_entries(x, [row[n] for row in work])
        assert all((dot(row, x) - y).is_zero() for row, y in zip(A, b))


# ---- integer normal forms --------------------------------------------------

class TestHNF:
    def test_identity_fixed_point(self):
        H, U = hnf([[1, 0], [0, 1]])
        assert H == [[1, 0], [0, 1]]
        assert U == [[1, 0], [0, 1]]

    def test_worked_example(self):
        A = [[2, 4], [6, 8]]
        H, U = hnf(A)
        assert H == [[2, 0], [0, 4]]
        assert mat_mul_int(U, A) == H
        assert abs(det_oracle(U)) == 1
        assert is_hnf_shape(H)

    def test_zero_matrix(self):
        H, U = hnf([[0, 0]])
        assert H == [[0, 0]]
        assert U == [[1]]

    def test_contract_random(self):
        rng = random.Random(20240601)
        for _ in range(1000):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            A = [[rng.randint(-9, 9) for _ in range(cols)]
                 for _ in range(rows)]
            H, U = hnf(A)
            assert mat_mul_int(U, A) == H
            assert abs(det_oracle(U)) == 1
            assert is_hnf_shape(H)


class TestSNF:
    def test_worked_example(self):
        A = [[2, 4], [6, 8]]
        D, U, V = snf(A)
        assert D == [[2, 0], [0, 4]]

    def test_identity(self):
        D, U, V = snf([[1, 0], [0, 1]])
        assert D == [[1, 0], [0, 1]]

    def test_single_entry(self):
        for n in (-7, 0, 1, 12):
            D, U, V = snf([[n]])
            assert D == [[abs(n)]]

    def test_contract_random(self):
        rng = random.Random(20240602)
        for _ in range(1000):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            A = [[rng.randint(-9, 9) for _ in range(cols)]
                 for _ in range(rows)]
            D, U, V = snf(A)
            assert mat_mul_int(mat_mul_int(U, A), V) == D
            assert abs(det_oracle(U)) == 1
            assert abs(det_oracle(V)) == 1
            diag = [D[i][i] for i in range(min(rows, cols))]
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert D[i][j] == 0
            for d in diag:
                assert d >= 0
            for a, b in zip(diag, diag[1:]):
                if a == 0:
                    assert b == 0
                else:
                    assert b % a == 0


def reference_snf(A):
    """The Smith form by its own row and column clearing loops, as snf
    computed it before it was built on hnf: returns (D, U, V)."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(map(int, row)) for row in A]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_combine(M, i, j, a, b, c, d):
        ri, rj = M[i], M[j]
        M[i] = [a * x + b * y for x, y in zip(ri, rj)]
        M[j] = [c * x + d * y for x, y in zip(ri, rj)]

    def col_combine(M, i, j, a, b, c, d):
        for row in M:
            x, y = row[i], row[j]
            row[i] = a * x + b * y
            row[j] = c * x + d * y

    k = 0
    while k < min(rows, cols):
        # move a nonzero entry into the (k, k) position
        found = None
        for i in range(k, rows):
            for j in range(k, cols):
                if D[i][j] != 0:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        if i != k:
            D[k], D[i] = D[i], D[k]
            U[k], U[i] = U[i], U[k]
        if j != k:
            col_combine(D, k, j, 0, 1, 1, 0)
            col_combine(V, k, j, 0, 1, 1, 0)
        while True:
            # clear column k
            for i in range(k + 1, rows):
                if D[i][k] == 0:
                    continue
                a, b = D[k][k], D[i][k]
                g, x, y = xgcd(a, b)
                row_combine(D, k, i, x, y, -(b // g), a // g)
                row_combine(U, k, i, x, y, -(b // g), a // g)
            # clear row k
            row_clear = all(D[k][j] == 0 for j in range(k + 1, cols))
            if row_clear:
                if all(D[i][k] == 0 for i in range(k + 1, rows)):
                    break
                continue
            for j in range(k + 1, cols):
                if D[k][j] == 0:
                    continue
                a, b = D[k][k], D[k][j]
                g, x, y = xgcd(a, b)
                col_combine(D, k, j, x, y, -(b // g), a // g)
                col_combine(V, k, j, x, y, -(b // g), a // g)
        # divisibility: D[k][k] must divide the rest of the block
        bad = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if D[i][j] % D[k][k] != 0:
                    bad = i
                    break
            if bad:
                break
        if bad is not None:
            D[k] = [x + y for x, y in zip(D[k], D[bad])]
            U[k] = [x + y for x, y in zip(U[k], U[bad])]
            continue  # redo the clearing at the same k
        if D[k][k] < 0:
            D[k] = [-x for x in D[k]]
            U[k] = [-x for x in U[k]]
        k += 1
    return D, U, V


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 4 x 5 with zero rows, zero columns and
    negative entries among them."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    A = draw(st.lists(st.lists(st.integers(-12, 12), min_size=cols,
                               max_size=cols),
                      min_size=rows, max_size=rows))
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        A[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in A:
            row[j] = 0
    return A


@settings(max_examples=400, deadline=None, database=None)
@given(integer_matrices())
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 2, 0], [0, 0, 0], [0, 0, -3]])
@example([[4, 6, 0], [6, 9, 0], [0, 0, 0], [-8, 0, 0]])
@example([[4, 0], [0, -6]])  # diagonal already: only the 2x2 steps run
@example([[0, 6, 0, 0], [10, 0, 0, 0], [0, 0, 15, 0]])
def test_snf_matches_clearing_loop_reference(A):
    D, U, V = snf(A)
    assert D == reference_snf(A)[0]
    assert mat_mul_int(mat_mul_int(U, A), V) == D
    assert abs(det_oracle(U)) == 1
    assert abs(det_oracle(V)) == 1


class TestIntegerSolve:
    def test_even(self):
        assert integer_solve([[2]], [4]) == (2,)

    def test_parity_obstruction(self):
        assert integer_solve([[2]], [3]) is None

    def test_transposed_example_vs_box_search(self):
        A = [[1, 0], [2, 2]]
        for b in itertools.product(range(-6, 7), repeat=2):
            got = integer_solve(A, list(b))
            brute = None
            for x in itertools.product(range(-10, 11), repeat=2):
                if all(sum(A[i][j] * x[j] for j in range(2)) == b[i]
                       for i in range(2)):
                    brute = x
                    break
            if brute is None:
                assert got is None
            else:
                assert got is not None
                assert all(sum(A[i][j] * got[j] for j in range(2)) == b[i]
                           for i in range(2))

    def test_random_vs_box(self):
        rng = random.Random(20240603)
        for _ in range(1000):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            A = [[rng.randint(-4, 4) for _ in range(cols)]
                 for _ in range(rows)]
            xs = [rng.randint(-3, 3) for _ in range(cols)]
            b = [sum(A[i][j] * xs[j] for j in range(cols))
                 for i in range(rows)]
            got = integer_solve(A, b)
            # a solution exists (xs), so one must be found
            assert got is not None
            assert all(sum(A[i][j] * got[j] for j in range(cols)) == b[i]
                       for i in range(rows))

    def test_absent_confirmed_by_box(self):
        rng = random.Random(20240604)
        checked = 0
        for _ in range(400):
            rows = rng.randint(1, 2)
            cols = rng.randint(1, 2)
            A = [[rng.randint(-4, 4) for _ in range(cols)]
                 for _ in range(rows)]
            b = [rng.randint(-6, 6) for _ in range(rows)]
            if integer_solve(A, b) is not None:
                continue
            checked += 1
            for x in itertools.product(range(-10, 11), repeat=cols):
                assert any(sum(A[i][j] * x[j] for j in range(cols)) != b[i]
                           for i in range(rows))
        assert checked > 20

    def test_kernel_reduction_is_canonical(self):
        # x + y = 3 has kernel (1, -1); canonical witness has x in [0, 1)
        got = integer_solve([[1, 1]], [3])
        assert got == (0, 3)


small_ints = st.integers(-6, 6)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_batched_integer_solve_matches_per_column_solves(data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    A = data.draw(st.lists(st.lists(small_ints, min_size=cols,
                                    max_size=cols),
                           min_size=rows, max_size=rows))
    # images of integer vectors (solvable) and arbitrary right-hand sides
    xs = data.draw(st.lists(st.lists(small_ints, min_size=cols,
                                     max_size=cols), max_size=3))
    columns = [[sum(a * x for a, x in zip(row, xv)) for row in A]
               for xv in xs]
    columns += data.draw(st.lists(st.lists(small_ints, min_size=rows,
                                           max_size=rows), max_size=3))
    system = IntegerSystem(A)
    got = [system.solve(b) for b in columns]
    assert got == [reference_integer_solve(A, b) for b in columns]
    assert got == [integer_solve(A, b) for b in columns]
    # rows scaled by positive integers: the solution set and so the
    # witness stay; right-hand sides left unscaled are mostly no longer
    # solvable, and must agree with the reference too
    factors = data.draw(st.lists(st.integers(1, 5), min_size=rows,
                                 max_size=rows))
    scaled = [[f * a for a in row] for f, row in zip(factors, A)]
    scaled_system = IntegerSystem(scaled)
    for b, want in zip(columns, got):
        assert scaled_system.solve([f * y for f, y in zip(factors, b)]) \
            == want
        assert scaled_system.solve(b) == reference_integer_solve(scaled, b)


def test_integer_kernel():
    K = integer_kernel([[1, 1, 1]])
    assert len(K) == 2
    for row in K:
        assert sum(row) == 0
    assert integer_kernel([[1, 0], [0, 1]]) == []


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        g, x, y = xgcd(a, b)
        assert g == abs(__import__("math").gcd(a, b))
        assert x * a + y * b == g
