"""Quasilattices: finitely generated Z-submodules of K^n that span R^n.

The Z-module structure is worked with through a flattened integer
presentation: each field coordinate is expanded in the power basis of
alpha and read straight off the elements' integer numerators, giving
(n * degree) integer rows with one column per generator.  Membership
then reduces to an integral linear system and discreteness to a rank
computation: the quasilattice is a lattice exactly when the abstract
Z-rank of the module (the rank of the flattened matrix) equals the real
span dimension n.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Optional, Sequence

from .errors import InternalInvariantError, NotSpanning, ParseError
from .linalg import hnf, integer_kernel, integer_solve, mat_rank
from .polytope import HalfspaceRep, require_irredundant


def _integer_rows(vectors):
    """Integer rows of the flattened presentation, one column per vector:
    one row per (coordinate, power-basis index) pair, the rows of each
    coordinate cleared by the lcm of that coordinate's denominators.

    Each row is a positive multiple of the rational row it flattens, so
    the integer relations among the columns are unchanged."""
    rows = []
    for entries in zip(*vectors):
        scale = lcm(*(x.den for x in entries))
        factors = [scale // x.den for x in entries]
        for k in range(len(entries[0].num)):
            rows.append([x.num[k] * f for x, f in zip(entries, factors)])
    return rows


class Quasilattice:
    """Z-span of finitely many R-spanning vectors."""

    def __init__(self, generators: Sequence[tuple]):
        generators = tuple(tuple(g) for g in generators)
        if not generators:
            raise NotSpanning("no generators")
        self.dimension = len(generators[0])
        if self.dimension < 1:
            raise ParseError("dimension must be >= 1")
        self.field = generators[0][0].field
        for g in generators:
            if len(g) != self.dimension:
                raise ParseError("generator length disagrees with dimension")
        if mat_rank([list(row) for row in zip(*generators)]) \
                != self.dimension:
            raise NotSpanning("generators do not span R^n")
        self.generators = generators
        self.flattened = _integer_rows(generators)

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    def flattened_rank(self) -> int:
        """Abstract Z-rank of the module."""
        H, _ = hnf(self.flattened)
        return sum(1 for row in H if any(row))

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

    Flattens the vectors and the target (the last column) into integer
    rows, then solves over Z."""
    rows = _integer_rows(list(vectors) + [target])
    return integer_solve([row[:-1] for row in rows],
                         [row[-1] for row in rows])


class RayWitness(NamedTuple):
    vector: tuple          # the quasilattice member on the ray
    coefficients: tuple    # integer coefficients over the generators
    non_canonical: bool    # no canonical choice exists; this is the
    #                        first row of the canonical HNF basis


def ray_generator(ql: Quasilattice, direction) -> Optional[RayWitness]:
    """Some w in the quasilattice with w = t * direction, t > 0, or None.

    The integer coefficient vectors x with G x parallel to the direction d
    form a lattice: the integer kernel of the rows
    (G x)_i * d_k - (G x)_k * d_i = 0 for i != k, where k (the pivot) is
    the first nonzero coordinate of d.  The witness is the first canonical-basis row
    on which the scale functional is nonzero, sign-fixed to t > 0."""
    direction = tuple(direction)
    field = ql.field
    n = ql.dimension
    p = ql.generator_count
    if all(x.is_zero() for x in direction):
        raise ValueError("direction must be nonzero")

    pivot = next(i for i, x in enumerate(direction) if not x.is_zero())
    dp = direction[pivot]
    if n == 1:
        lattice_rows = [[1 if i == j else 0 for j in range(p)]
                        for i in range(p)]
    else:
        columns = [[g[i] * dp - g[pivot] * direction[i]
                    for i in range(n) if i != pivot] for g in ql.generators]
        lattice_rows = integer_kernel(_integer_rows(columns))

    for row in lattice_rows:
        w = _combination(ql.generators, row, field, n)
        t = w[pivot] / dp
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
        require_irredundant(body)
        return body.normals
    return body.rays
