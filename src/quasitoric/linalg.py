"""Exact linear algebra: Gaussian elimination over a field, Hermite
normal forms over Z with the Smith form built on them, and integral
linear-system solving: one Hermite form per integer matrix serves every
right-hand side.

Field matrices are plain lists of rows of FieldElement; integer matrices
are lists of rows of int.  Everything is deterministic for a fixed input:
pivots are chosen first-nonzero in fixed column order.  A right-hand
side is one more column of the one field elimination, _gauss_jordan.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

# dot is the field's kernel, imported from here by the other modules
from .field import _members, dot, sub_multiple  # noqa: F401


# ---------------------------------------------------------------------------
# field-matrix elimination
# ---------------------------------------------------------------------------

class LinearSolveResult(NamedTuple):
    rank: int
    kernel: list  # kernel basis vectors, reduced-echelon parametrization


def _gauss_jordan(A):
    """Reduced row echelon form of A.

    Returns (rows, pivot_cols): all rows of the reduced matrix, the
    nonzero ones first, and the pivot column of each nonzero row.  Each
    elimination step is one sub_multiple kernel call; the loop stops at
    the last row, so columns right of the last pivot are only carried."""
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
        # coerced as the products would coerce it, so a foreign field
        # still raises MixedFields; a zero entry stays zero, no product
        work[r] = [inv * x if any(x.num) else x
                   for x in _members(inv.field, work[r])]
        for i in range(rows):
            if i != r and not work[i][c].is_zero():
                work[i] = sub_multiple(work[i], work[i][c], work[r])
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return work, pivot_cols


def rank_kernel_solve(A) -> LinearSolveResult:
    """Exact elimination on A: its rank and a deterministic
    reduced-echelon kernel basis."""
    if not A:
        raise ValueError("matrix must have at least one row")
    work, pivot_cols = _gauss_jordan(A)
    cols = len(A[0])
    field = A[0][0].field
    kernel = []
    for f in (c for c in range(cols) if c not in pivot_cols):
        vec = [field.zero] * cols
        vec[f] = field.one
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -work[i][f]
        kernel.append(tuple(vec))
    return LinearSolveResult(len(pivot_cols), kernel)


def solve_unique(A, columns) -> list:
    """The solution x of A x = b for each b in columns, for a square
    invertible A; raises ValueError otherwise.

    One elimination of [A | columns] serves every column: A is
    invertible exactly when its n pivots are the columns 0..n-1, and the
    reduced right-hand sides are then the solutions."""
    n = len(A)
    if not n or any(len(v) != n for v in (*A, *columns)):
        raise ValueError("system is not square")
    reduced = rref_rows([[*row, *(b[i] for b in columns)]
                         for i, row in enumerate(A)])
    if len(reduced) < n or reduced[n - 1][n - 1].is_zero():
        raise ValueError("system is not uniquely solvable")
    return list(zip(*(row[n:] for row in reduced)))


def rref_rows(rows):
    """Nonzero rows of the reduced row echelon form, deterministically."""
    if not rows:
        return []
    work, pivot_cols = _gauss_jordan(rows)
    return [tuple(row) for row in work[:len(pivot_cols)]]


def mat_rank(A) -> int:
    return len(rref_rows(A))


# ---------------------------------------------------------------------------
# integer normal forms
# ---------------------------------------------------------------------------

def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b = g = gcd(a, b) >= 0.

    When a divides b the answer is (|a|, sign(a), 0); the normal-form
    eliminations rely on y = 0 in that case so that already-cleared
    entries are not contaminated."""
    if a != 0 and b % a == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _combine_rows(M, i, j, a, b, c, d):
    """Rows i, j of M become (a*ri + b*rj, c*ri + d*rj)."""
    ri, rj = M[i], M[j]
    M[i] = [a * x + b * y for x, y in zip(ri, rj)]
    M[j] = [c * x + d * y for x, y in zip(ri, rj)]


def hnf(A: Sequence[Sequence[int]]):
    """Row Hermite normal form: returns (H, U) with U unimodular,
    U*A = H, H in echelon form with positive pivots and entries above
    each pivot reduced into [0, pivot)."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    H = [list(map(int, row)) for row in A]
    U = _identity(rows)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = None
        for i in range(r, rows):
            if H[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            H[r], H[pivot] = H[pivot], H[r]
            U[r], U[pivot] = U[pivot], U[r]
        for i in range(r + 1, rows):
            if H[i][c] == 0:
                continue
            a, b = H[r][c], H[i][c]
            g, x, y = xgcd(a, b)
            _combine_rows(H, r, i, x, y, -(b // g), a // g)
            _combine_rows(U, r, i, x, y, -(b // g), a // g)
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        p = H[r][c]
        for i in range(r):
            q = H[i][c] // p
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
    return H, U


def snf(A: Sequence[Sequence[int]]):
    """Smith normal form: returns (D, U, V) with U, V unimodular,
    U*A*V = D diagonal, entries nonnegative, d1 | d2 | ...

    Kannan and Bachem (SIAM J. Comput. 8, 1979): alternate a row Hermite
    form of D and one of its transpose until D is diagonal.  Each pass
    replaces the leading entry by a divisor of it, and once it divides
    its row and column they stay clear.  The passes leave the nonzero
    diagonal entries first and positive; one unimodular 2x2 step on rows
    and one on columns then turn each pair a, b into gcd(a, b),
    ab / gcd(a, b).  Vt is V transposed, so both steps are row steps."""
    U, Vt = _identity(len(A)), _identity(len(A[0]) if A else 0)
    D, flipped = A, False
    while True:
        D, W = hnf(D)
        U = [[sum(w * u for w, u in zip(row, col)) for col in zip(*U)]
             for row in W]
        if not any(x for i, row in enumerate(D)
                   for j, x in enumerate(row) if i != j):
            break
        # U A V = D is V^T A^T U^T = D^T: the next pass works on D^T
        D, U, Vt, flipped = [list(c) for c in zip(*D)], Vt, U, not flipped
    if flipped:
        D, U, Vt = [list(c) for c in zip(*D)], Vt, U
    diagonal = range(min(len(U), len(Vt)))
    for i in diagonal:
        for j in diagonal[i + 1:]:
            a, b = D[i][i], D[j][j]
            if a and b % a:
                g, x, y = xgcd(a, b)
                _combine_rows(U, i, j, x, y, -(b // g), a // g)
                _combine_rows(Vt, i, j, 1, 1, -(y * b // g), x * a // g)
                D[i][i], D[j][j] = g, a // g * b
    return D, U, [list(c) for c in zip(*Vt)]


def _kernel_rows(H, U):
    """Canonical (HNF) basis of {x : A x = 0} over Z from U*A^T = H: the
    rows of U whose H row is zero span it."""
    basis = [u for h, u in zip(H, U) if not any(h)]
    if not basis:
        return []
    K, _ = hnf(basis)
    return [row for row in K if any(row)]


def integer_kernel(A: Sequence[Sequence[int]]):
    """Canonical (HNF) basis of {x in Z^n : A x = 0}, as a list of rows."""
    if not A or not A[0]:
        return []
    return _kernel_rows(*hnf(list(zip(*A))))


class IntegerSystem:
    """A x = b over Z for one integer matrix A and any number of
    right-hand sides b.

    One Hermite form U A^T = H serves every b, by back-substitution
    through the rows of H (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4.3), and one Hermite form of the kernel rows of U,
    taken on the first solution, reduces every witness.  The witness is
    the unique solution whose kernel-pivot coordinates lie in [0, pivot),
    so it depends on the solution set only: scaling the rows of A and b
    by positive integers leaves it unchanged."""

    def __init__(self, A: Sequence[Sequence[int]]):
        self.cols = len(A[0]) if A else 0
        H, U = hnf(list(zip(*A))) if self.cols else ([], [])
        self._H, self._U = H, U
        # (pivot column, H row, U row) of each nonzero row of H
        self._steps = [(next(j for j, h in enumerate(row) if h), row, u)
                       for row, u in zip(H, U) if any(row)]
        self._kernel = None

    @property
    def rank(self) -> int:
        return len(self._steps)

    def solve(self, b: Sequence[int]):
        """The canonical integral x with A x = b, or None."""
        if not self.cols:
            return None if any(b) else ()
        residual = list(b)
        x = [0] * self.cols
        for pivot_col, row, u in self._steps:
            q, r = divmod(residual[pivot_col], row[pivot_col])
            if r:
                return None
            if q:
                residual = [y - q * h for y, h in zip(residual, row)]
                x = [y + q * c for y, c in zip(x, u)]
        if any(residual):
            return None
        if self._kernel is None:
            self._kernel = [(next(j for j, v in enumerate(k) if v), k)
                            for k in _kernel_rows(self._H, self._U)]
        for pivot_col, krow in self._kernel:
            q = x[pivot_col] // krow[pivot_col]
            if q:
                x = [y - q * k for y, k in zip(x, krow)]
        return tuple(x)


def integer_solve(A: Sequence[Sequence[int]], b: Sequence[int]):
    """Some integral x with A x = b, or None: the canonical witness of
    IntegerSystem(A).solve(b)."""
    return IntegerSystem(A).solve(b)
