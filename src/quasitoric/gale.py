"""Gale duality for balanced odd spanning configurations.

The kernel of the n x p configuration matrix A has dimension p - n = 2m+1
and contains the all-ones vector (that is what balance means), so a
deterministic basis is fixed as: the all-ones vector first, then the
reduced row echelon form of the kernel vectors that vanish at index 0,
ker A & {x_0 = 0} = ker [A; e_0].  That echelon form comes from one
elimination of the (n+1) x p matrix [A; e_0] with its columns reversed.
The kernel basis read off an elimination is the identity on its free
columns; with the columns reversed, the free columns are the pivot
columns of the subspace's echelon form (the complement of the column
basis of [A; e_0] chosen from the right), so the reversed basis vectors,
in reverse order, are that echelon form, which is unique.  Pairing the
2m echelon rows consecutively as real/imaginary parts places the p dual
points in complex affine m-space.

The virtual chamber is realized as the complements of the maximal
simplices; the interior condition checked per member is a Siegel-type
test (0 strictly inside the convex hull of the chosen dual points) and
is reported, never enforced, because the defining condition lives in the
cited construction papers rather than here.  Each member's test works
in the n variables of A's row space, not in its p - n dual coordinates:
one solve when the member's complement fixes them, else one LP (see
chamber_check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .configuration import Triangulation, VectorConfiguration
from .errors import InternalInvariantError, NotBalanced, NotOdd, NotSpanning
from .linalg import dot, rank_kernel_solve, solve_unique
from .lp import strict_lp_feasible


@dataclass(frozen=True)
class GaleDualConfiguration:
    m: int
    points: tuple           # per index: (real vector, imaginary vector)
    virtual_chamber: tuple  # sorted index tuples, or () when no T given
    kernel_rows: tuple      # (ones, b_1, ..., b_2m), each of length p
    configuration_rows: tuple  # the n rows of A, each of length p

    @property
    def count(self) -> int:
        return len(self.points)


def gale_dual(config: VectorConfiguration,
              triangulation: Optional[Triangulation] = None
              ) -> GaleDualConfiguration:
    """Dual points and, when a triangulation accompanies the
    configuration, the virtual chamber of complements."""
    n = config.dimension
    p = config.count
    field = config.field
    total = config.vector_sum()
    if not all(x.is_zero() for x in total):
        raise NotBalanced("configuration vectors do not sum to zero")
    defect = p - n
    if defect <= 0 or defect % 2 == 0:
        raise NotOdd(f"p - n = {defect} is not of the form 2m + 1")
    matrix = tuple(zip(*config.vectors))
    ones = tuple(field.one for _ in range(p))
    for row in matrix:
        if not dot(row, ones).is_zero():
            raise InternalInvariantError("balanced kernel must contain ones")
    # ones lies in ker A and has x_0 = 1, so e_0 is outside the row space
    # of A: [A; e_0] has rank n + 1 exactly when A has rank n
    e0 = (field.one,) + (field.zero,) * (p - 1)
    result = rank_kernel_solve([row[::-1] for row in (*matrix, e0)])
    if result.rank != n + 1:
        raise NotSpanning("configuration vectors do not span R^n")
    echelon = [vec[::-1] for vec in reversed(result.kernel)]
    m = (defect - 1) // 2
    if len(echelon) != 2 * m:
        raise InternalInvariantError("ones-complement must have rank 2m")
    for b in echelon:
        if not b[0].is_zero() or any(not dot(row, b).is_zero()
                                     for row in matrix):
            raise InternalInvariantError(
                "Gale vectors must lie in the kernel of [A; e_0]")
    points = []
    for j in range(p):
        re = tuple(echelon[2 * i][j] for i in range(m))
        im = tuple(echelon[2 * i + 1][j] for i in range(m))
        points.append((re, im))
    chamber = ()
    if triangulation is not None:
        full = set(range(p))
        chamber = tuple(sorted(
            tuple(sorted(full - set(s))) for s in triangulation.maximal()))
    return GaleDualConfiguration(m, tuple(points), chamber,
                                 (ones,) + tuple(echelon), matrix)


@dataclass(frozen=True)
class ChamberMemberReport:
    member: tuple
    cardinality: int
    zero_in_interior: bool


@dataclass(frozen=True)
class ChamberReport:
    members: tuple
    all_interior: bool


def chamber_check(gale: GaleDualConfiguration,
                  chamber: Optional[tuple] = None) -> ChamberReport:
    """For each chamber member, whether 0 lies strictly inside the convex
    hull of the selected dual points: strict feasibility of convex
    weights w_i > 0 with sum w_i = 1 and sum w_i * Lambda_i = 0.

    The weights W in R^p (zero off the member) with those sums are the
    solutions of K W = e_1, K the kernel rows.  K has full row rank and
    spans ker A, so its null space is the row space of A; and K e_0 = e_1,
    because every echelon row vanishes at index 0.  So W = e_0 + yA for a
    unique y in R^n, and the LP asks for y with (e_0 + yA)_j = 0 off the
    member and > 0 on it.  y -> (e_0 + yA) restricted to the member is an
    affine bijection onto the weights above, so the verdict, and the
    number of variables left free by the equalities (what the LP's
    variable budget counts), are those of the LP in the weights.  When
    the complement has n indices with independent columns, its equalities
    fix y by one solve, and the member is interior iff every weight on it
    is positive; no LP is run.  Any other complement (dependent, or with
    fewer or more than n indices) goes to the LP.  A repeated index counts
    once: its weights could split any positive value.  Raises ValueError
    for an index outside range(p)."""
    members = chamber if chamber is not None else gale.virtual_chamber
    field = gale.kernel_rows[0][0].field
    one, zero = field.one, field.zero
    p = gale.count
    n = len(gale.configuration_rows)
    # (e_0 + yA)_j rel 0  <=>  <column j of A, y> rel -[j = 0]
    columns = [tuple(row[j] for row in gale.configuration_rows)
               for j in range(p)]
    shifts = [-one] + [zero] * (p - 1)
    reports = []
    all_ok = True
    for sigma in members:
        sigma = tuple(sigma)
        if any(not 0 <= j < p for j in sigma):
            raise ValueError(
                f"chamber member {sigma} has an index out of range "
                f"0..{p - 1}")
        chosen = set(sigma)
        member = sorted(chosen)
        rest = [j for j in range(p) if j not in chosen]
        y = _solve_equalities(columns, shifts, rest)
        if y is not None:
            # the equalities fix y, so the weights decide the member
            w = [dot(columns[j], y) - shifts[j] for j in member]
            ok = all(x.sign() > 0 for x in w)
        else:
            constraints = [(columns[j], shifts[j],
                            ">" if j in chosen else "=") for j in range(p)]
            y = strict_lp_feasible(constraints, n, field)
            ok = y is not None
            if ok:
                w = [dot(columns[j], y) - shifts[j] for j in member]
        if ok:
            _check_weights(gale, member, w)
        reports.append(ChamberMemberReport(sigma, len(sigma), ok))
        all_ok = all_ok and ok
    return ChamberReport(tuple(reports), all_ok)


def _solve_equalities(columns, shifts, rest):
    """The one y with <column j, y> = shift j for every j in rest when
    rest has n indices with independent columns, else None (solve_unique
    refuses every other system)."""
    try:
        (y,) = solve_unique([columns[j] for j in rest],
                            [[shifts[j] for j in rest]])
    except ValueError:
        return None
    return y


def _check_weights(gale, member, w) -> None:
    """The weights e_0 + yA on a feasible member, read in the dual terms:
    positive, and K w = e_1 over the member's columns of the kernel rows
    (the ones row gives sum w = 1, the echelon rows sum w * Lambda = 0)."""
    field = gale.kernel_rows[0][0].field
    # an empty member has no weights to sum to 1
    if not w or not all(x.sign() > 0 for x in w):
        raise InternalInvariantError("chamber weights must be positive")
    for i, row in enumerate(gale.kernel_rows):
        target = field.one if i == 0 else field.zero
        if dot(w, [row[j] for j in member]) != target:
            raise InternalInvariantError(
                "chamber weights must be convex and balance the dual points")
