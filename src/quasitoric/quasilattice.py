"""Quasilattices: finitely generated Z-submodules of K^n that span R^n.

The Z-module structure is worked with through a flattened integer
presentation: each field coordinate is expanded in the power basis of
alpha and read straight off the elements' integer numerators, giving
(n * degree) integer rows with one column per generator.  Membership
then reduces to an integral linear system and discreteness to a rank
computation: the quasilattice is a lattice exactly when the abstract
Z-rank of the module (the rank of the flattened matrix) equals the real
span dimension n.

A Quasilattice keeps one Hermite form of its flattened presentation,
taken on first use, for its rank and for every membership it is asked;
integral_memberships serves a batch of targets against any vector list
from one Hermite form.  A target is flattened with the generators' own
row scales, and one that is not integral after that scaling is no
member.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .errors import InternalInvariantError, NotSpanning, ParseError
from .linalg import IntegerSystem, integer_kernel, mat_rank
from .polytope import HalfspaceRep, require_irredundant


def _flatten(vectors):
    """(scales, rows): the integer rows of the flattened presentation, one
    column per vector and one row per (coordinate, power-basis index)
    pair, the rows of coordinate i cleared by scales[i], the lcm of that
    coordinate's denominators.

    Each row is a positive multiple of the rational row it flattens, so
    the integer relations among the columns are unchanged."""
    scales = []
    rows = []
    for entries in zip(*vectors):
        scale = lcm(*(x.den for x in entries))
        scales.append(scale)
        factors = [scale // x.den for x in entries]
        for k in range(len(entries[0].num)):
            rows.append([x.num[k] * f for x, f in zip(entries, factors)])
    return scales, rows


class _Presentation:
    """The flattened presentation of a vector list and its IntegerSystem:
    one Hermite form for every target."""

    def __init__(self, vectors):
        self.scales, self.rows = _flatten(vectors)
        self.system = IntegerSystem(self.rows)

    def witnesses(self, targets) -> list:
        """Integer coefficients expressing each target, or None.

        Coordinate i of a target is a member's only if scales[i] clears
        its denominator: every power-basis coefficient of a member's
        coordinate i lies in Z / scales[i], and a coordinate's numerators
        have no factor in common with its denominator."""
        out = []
        for target in targets:
            column = []
            for x, scale in zip(target, self.scales):
                factor, rest = divmod(scale, x.den)
                if rest:
                    column = None
                    break
                column.extend([c * factor for c in x.num])
            out.append(None if column is None
                       else self.system.solve(column))
        return out


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

    @cached_property
    def _presentation(self) -> _Presentation:
        return _Presentation(self.generators)

    @property
    def flattened(self) -> list:
        """Integer rows of the flattened presentation."""
        return self._presentation.rows

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    def flattened_rank(self) -> int:
        """Abstract Z-rank of the module."""
        return self._presentation.system.rank

    def is_lattice(self) -> bool:
        """Discrete iff the Z-rank equals the real span dimension."""
        return self.flattened_rank() == self.dimension

    def contains(self, vector) -> Optional[tuple]:
        """Integer coefficients expressing the vector, or None."""
        return self.memberships([tuple(vector)])[0]

    def memberships(self, vectors) -> list:
        """contains for each vector, from the kept Hermite form."""
        return self._presentation.witnesses(vectors)

    def __eq__(self, other):
        if not isinstance(other, Quasilattice):
            return NotImplemented
        if self.dimension != other.dimension \
                or not self.field.same_field(other.field):
            return False
        return (None not in other.memberships(self.generators)
                and None not in self.memberships(other.generators))

    def __hash__(self):
        # equal quasilattices share a dimension and a field, and nothing
        # finer: equal ones may have different generators
        return hash((self.dimension, self.field.minpoly))


def ql_span(vectors) -> Quasilattice:
    return Quasilattice(vectors)


def integral_memberships(vectors, targets) -> list:
    """For each target, integer x with sum(x_j * vectors[j]) = target, or
    None: the vectors are flattened into integer rows once, and one
    Hermite form serves every target."""
    return _Presentation(vectors).witnesses(targets)


def integral_membership(vectors, target) -> Optional[tuple]:
    """Integer x with sum(x_j * vectors[j]) = target, or None."""
    return integral_memberships(vectors, [target])[0]


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
        lattice_rows = integer_kernel(_flatten(columns)[1])

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
