"""Quasilattices: finitely generated Z-submodules of K^n that span R^n.

The Z-module structure is worked with through a flattened rational
presentation: each field coordinate is expanded in the power basis of
alpha, giving an (n * degree) x p matrix over Q whose columns are the
generators.  Membership then reduces to an integral linear system and
discreteness to a rank computation: the quasilattice is a lattice exactly
when the abstract Z-rank of the module (the rank of the flattened matrix)
equals the real span dimension n.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .errors import InternalInvariantError, NotSpanning, ParseError
from .field import rational_field
from .linalg import (
    integer_kernel,
    integer_solve,
    mat_rank,
    rank_kernel_solve,
)
from .polytope import (
    HalfspaceRep,
    face_lattice,
    require_irredundant,
    vertices_from_halfspaces,
)

_Q = rational_field()


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _flatten_rows(vectors, degree):
    """Rational rows of the flattened presentation: one row per
    (coordinate, power-basis index) pair, one column per vector."""
    n = len(vectors[0])
    coeffs = [[x.coeffs for x in v] for v in vectors]
    rows = []
    for i in range(n):
        for k in range(degree):
            rows.append([c[i][k] for c in coeffs])
    return rows


def _clear_denominators(rows):
    """Per-row integerization; returns (integer rows, row denominators)."""
    cleared = []
    denoms = []
    for row in rows:
        d = 1
        for x in row:
            d = _lcm(d, x.denominator)
        cleared.append([int(x * d) for x in row])
        denoms.append(d)
    return cleared, denoms


def _rational_rank(rows) -> int:
    return mat_rank([[_Q.element(Fraction(x)) for x in row] for row in rows])


class Quasilattice:
    """Z-span of finitely many R-spanning vectors."""

    def __init__(self, generators: Sequence[tuple]):
        generators = tuple(tuple(g) for g in generators)
        if not generators:
            raise NotSpanning("no generators")
        self.dimension = len(generators[0])
        self.field = generators[0][0].field
        for g in generators:
            if len(g) != self.dimension:
                raise ParseError("generator length disagrees with dimension")
        if mat_rank([list(row) for row in zip(*generators)]) \
                != self.dimension:
            raise NotSpanning("generators do not span R^n")
        self.generators = generators
        rational_rows = _flatten_rows(generators, self.field.degree)
        self.flattened, self.row_denominators = \
            _clear_denominators(rational_rows)

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    def flattened_rank(self) -> int:
        """Abstract Z-rank of the module."""
        return _rational_rank(self.flattened)

    def is_lattice(self) -> bool:
        """Discrete iff the Z-rank equals the real span dimension."""
        return self.flattened_rank() == self.dimension

    def contains(self, vector) -> Optional[tuple]:
        """Integer coefficients expressing the vector, or None."""
        vector = tuple(vector)
        return integral_membership(self.generators, vector)

    def __eq__(self, other):
        if not isinstance(other, Quasilattice):
            return NotImplemented
        return (all(other.contains(g) is not None for g in self.generators)
                and all(self.contains(g) is not None
                        for g in other.generators))

    def __hash__(self):  # pragma: no cover - equality is set-like
        return hash((self.dimension, self.generator_count))


def ql_span(vectors) -> Quasilattice:
    return Quasilattice(vectors)


def integral_membership(vectors, target) -> Optional[tuple]:
    """Integer x with sum(x_j * vectors[j]) = target, or None.

    Flattens into the power basis and clears denominators row by row,
    including the target's entry, then solves over Z."""
    degree = vectors[0][0].field.degree
    rows = _flatten_rows(vectors, degree)
    target_flat = [c for x in target for c in x.coeffs]
    A = []
    b = []
    for row, t in zip(rows, target_flat):
        d = t.denominator
        for x in row:
            d = _lcm(d, x.denominator)
        A.append([int(x * d) for x in row])
        b.append(int(t * d))
    return integer_solve(A, b)


class RayWitness(NamedTuple):
    vector: tuple          # the quasilattice member on the ray
    coefficients: tuple    # integer coefficients over the generators
    non_canonical: bool    # no canonical choice exists; this is the
    #                        first row of the canonical HNF basis


def ray_generator(ql: Quasilattice, direction) -> Optional[RayWitness]:
    """Some w in the quasilattice with w = t * direction, t > 0, or None.

    The integer coefficient vectors x with G x parallel to the direction
    form a lattice (computed through a rational kernel and an integer
    kernel); the witness is the first canonical-basis row on which the
    scale functional is nonzero, sign-fixed to t > 0."""
    direction = tuple(direction)
    field = ql.field
    degree = field.degree
    n = ql.dimension
    p = ql.generator_count
    if all(x.is_zero() for x in direction):
        raise ValueError("direction must be nonzero")

    # columns: p generator coefficients, then degree coefficients of t
    rows = []
    alpha_powers = [field.one]
    for _ in range(degree - 1):
        alpha_powers.append(alpha_powers[-1] * field.alpha)
    for i in range(n):
        generated = [g[i].coeffs for g in ql.generators]
        scaled = [(a * direction[i]).coeffs for a in alpha_powers]
        for k in range(degree):
            row = [_Q.element(c[k]) for c in generated]
            for c in scaled:
                row.append(_Q.element(-c[k]))
            rows.append(row)
    kernel = rank_kernel_solve(rows).kernel
    basis_x = [vec[:p] for vec in kernel]
    if all(all(x.is_zero() for x in vec) for vec in basis_x):
        return None

    # integer points of the rational span W of basis_x: W is cut out by
    # its annihilator, and integer kernels of integer matrices are
    # saturated lattices
    annihilator = rank_kernel_solve([list(b) for b in basis_x]).kernel
    if annihilator:
        C = []
        for row in annihilator:
            d = 1
            for x in row:
                d = _lcm(d, x.as_fraction().denominator)
            C.append([int(x.as_fraction() * d) for x in row])
        lattice_rows = integer_kernel(C)
    else:
        lattice_rows = [[1 if i == j else 0 for j in range(p)]
                        for i in range(p)]

    pivot = next(i for i, x in enumerate(direction) if not x.is_zero())
    for row in lattice_rows:
        w = _combination(ql.generators, row, field, n)
        t = w[pivot] / direction[pivot]
        if t.is_zero():
            continue
        if not all((w[i] - t * direction[i]).is_zero() for i in range(n)):
            raise InternalInvariantError("lattice row left the ray span")
        if t.sign() < 0:
            row = [-x for x in row]
            w = tuple(-x for x in w)
        return RayWitness(w, tuple(row), True)
    return None


def _combination(generators, coefficients, field, n):
    acc = [field.zero] * n
    for c, g in zip(coefficients, generators):
        if c:
            for i in range(n):
                acc[i] = acc[i] + c * g[i]
    return tuple(acc)


def is_quasirational(body, ql: Quasilattice) -> bool:
    """Whether every generating ray of the body's fan meets the
    quasilattice (for polytopes, the rays of the normal fan: the facet
    normals)."""
    rays = body_rays(body)
    return all(ray_generator(ql, ray) is not None for ray in rays)


def body_rays(body):
    """Facet normals of a polytope or the rays of a fan, in index order;
    raises RedundantFacet for a polytope with a redundant facet."""
    if isinstance(body, HalfspaceRep):
        require_irredundant(body,
                            face_lattice(body, vertices_from_halfspaces(body)))
        return body.normals
    return body.rays
