"""Gale duality for balanced odd spanning configurations.

The kernel of the n x p configuration matrix has dimension p - n = 2m+1
and contains the all-ones vector (that is what balance means), so a
deterministic basis is fixed as: the all-ones vector first, then the
reduced row echelon form of the kernel projected off the ones direction.
Pairing the 2m echelon rows consecutively as real/imaginary parts places
the p dual points in complex affine m-space.

The virtual chamber is realized as the complements of the maximal
simplices; the interior condition checked per member is a Siegel-type
test (0 strictly inside the convex hull of the chosen dual points) and
is reported, never enforced, because the defining condition lives in the
cited construction papers rather than here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .configuration import Triangulation, VectorConfiguration
from .errors import InternalInvariantError, NotBalanced, NotOdd, NotSpanning
from .linalg import dot, rank_kernel_solve, rref_rows
from .lp import strict_lp_feasible


@dataclass(frozen=True)
class GaleDualConfiguration:
    m: int
    points: tuple           # per index: (real vector, imaginary vector)
    virtual_chamber: tuple  # sorted index tuples, or () when no T given
    kernel_rows: tuple      # (ones, b_1, ..., b_2m), each of length p

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
    matrix = [list(row) for row in zip(*config.vectors)]
    result = rank_kernel_solve(matrix)
    if result.rank != n:
        raise NotSpanning("configuration vectors do not span R^n")
    kernel = result.kernel
    if len(kernel) != defect:
        raise InternalInvariantError("kernel dimension must equal p - n")
    ones = tuple(field.one for _ in range(p))
    for row in matrix:
        if not dot(row, ones).is_zero():
            raise InternalInvariantError("balanced kernel must contain ones")
    projected = []
    for vec in kernel:
        first = vec[0]
        projected.append(tuple(x - first * o for x, o in zip(vec, ones)))
    echelon = rref_rows(projected)
    m = (defect - 1) // 2
    if len(echelon) != 2 * m:
        raise InternalInvariantError("ones-complement must have rank 2m")
    for b in echelon:
        for row in matrix:
            if not dot(row, b).is_zero():
                raise InternalInvariantError(
                    "Gale vectors must lie in the kernel")
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
                                 (ones,) + tuple(echelon))


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
    weights w_i > 0 with sum w_i = 1 and sum w_i * Lambda_i = 0."""
    members = chamber if chamber is not None else gale.virtual_chamber
    field = gale.kernel_rows[0][0].field
    one, zero = field.one, field.zero
    reports = []
    all_ok = True
    # one LP per member: an empty member leaves the row 0 = 1, and with
    # m = 0 only the convex weights remain (the hull of a nonempty set is
    # {0})
    for sigma in members:
        sigma = tuple(sigma)
        k = len(sigma)
        constraints = [(tuple(one for _ in sigma), one, "=")]
        for i in range(gale.m):
            constraints.append((tuple(gale.points[j][0][i]
                                      for j in sigma), zero, "="))
            constraints.append((tuple(gale.points[j][1][i]
                                      for j in sigma), zero, "="))
        for idx in range(k):
            unit = [zero] * k
            unit[idx] = one
            constraints.append((tuple(unit), zero, ">"))
        ok = strict_lp_feasible(constraints, k, field) is not None
        reports.append(ChamberMemberReport(sigma, k, ok))
        all_ok = all_ok and ok
    return ChamberReport(tuple(reports), all_ok)
