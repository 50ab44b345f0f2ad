from fractions import Fraction

from quasitoric.field import FieldElement, rational_field

Q = rational_field()


def qel(x):
    return Q.element(x)


def qvec(*xs):
    return tuple(Q.element(x) for x in xs)


def fvec(field, *xs):
    return tuple(field.element(x) for x in xs)


def as_fractions(vec):
    return tuple(c.as_fraction() for c in vec)


def scalar_dot(u, v):
    """The dot product as a loop of scalar operators, each + and *
    reduced: the reference of the field's dot kernel."""
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def fieldelement_sign(field, nums):
    """The sign of the element with the given numerators over 1, asked
    of the element: the reference of field.numerator_sign."""
    return FieldElement(field, tuple(nums), 1).sign()


def reference_integer_solve(A, b):
    """The one-column integral solver that IntegerSystem batches: one
    Hermite form of A^T per right-hand side, back-substitution, and the
    witness reduced by the canonical kernel basis into [0, pivot) at each
    kernel pivot."""
    from quasitoric.linalg import hnf, integer_kernel

    cols = len(A[0]) if A else 0
    if cols == 0:
        return None if any(b) else ()
    H, U = hnf(list(zip(*A)))
    residual = list(b)
    t = [0] * cols
    for i in range(cols):
        pivot_col = next((j for j, h in enumerate(H[i]) if h), None)
        if pivot_col is None:
            continue
        if residual[pivot_col] % H[i][pivot_col]:
            return None
        t[i] = residual[pivot_col] // H[i][pivot_col]
        residual = [x - t[i] * y for x, y in zip(residual, H[i])]
    if any(residual):
        return None
    x = [sum(t[i] * U[i][j] for i in range(cols)) for j in range(cols)]
    for krow in integer_kernel(A):
        pivot_col = next(j for j, v in enumerate(krow) if v)
        q = x[pivot_col] // krow[pivot_col]
        x = [a - q * k for a, k in zip(x, krow)]
    return tuple(x)


def reference_membership(vectors, target):
    """Integral membership by flattening the vectors and the target
    together, each coordinate's rows cleared by the lcm of all their
    denominators, the target's included, and one reference solve."""
    from math import lcm

    rows = []
    for entries in zip(*vectors, target):
        scale = lcm(*(x.den for x in entries))
        for k in range(len(entries[0].num)):
            rows.append([x.num[k] * (scale // x.den) for x in entries])
    return reference_integer_solve([row[:-1] for row in rows],
                                   [row[-1] for row in rows])
