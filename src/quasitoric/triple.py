"""Fundamental triples (body, quasilattice, normals) and the per-vertex
chart structure groups.

The chart group at a vertex v with normal frame A_v is the subgroup of
the torus R^n/Z^n generated by the images A_v^{-1} q of the quasilattice
generators q, reduced mod Z^n.  All images integral gives the trivial
group (manifold point); all rational gives a finite group (orbifold
point) whose order is the index [L : Z^n] of the lattice L generated by
Z^n and the images, read off the diagonal of a Hermite form after
clearing denominators; any irrational coordinate gives an infinite group
(quasifold point).

The images at a vertex all come from one solve of its frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod
from typing import Optional, Union

from .errors import (
    CountMismatch,
    InternalInvariantError,
    InvalidFan,
    NormalNotInQuasilattice,
    NormalWrongDirection,
    SingularVertexFrame,
)
from .fan import (
    Fan,
    fan_is_simplicial,
    fan_is_valid,
    positively_proportional,
)
from .field import FieldElement
from .linalg import hnf, solve_unique
from .polytope import (
    HalfspaceRep,
    is_simple,
    require_irredundant,
    vertices_from_halfspaces,
)
from .quasilattice import Quasilattice, integral_memberships


@dataclass(frozen=True)
class FundamentalTriple:
    """A body, a polytope or a fan, with a quasilattice and one normal per
    facet or ray.  A fan body must be a fan: construction raises
    InvalidFan unless fan_is_valid, which a normal fan answers at once."""
    body: Union[HalfspaceRep, Fan]
    quasilattice: Quasilattice
    normals: tuple

    def __post_init__(self):
        object.__setattr__(self, "normals",
                           tuple(tuple(x) for x in self.normals))
        if isinstance(self.body, Fan) and not fan_is_valid(self.body):
            raise InvalidFan("triple needs a valid fan")


@dataclass(frozen=True)
class TripleReport:
    simple: bool
    warning: Optional[str]
    normal_coefficients: tuple   # membership witnesses, one per normal
    normals_span_quasilattice: bool


def triple_validate(triple: FundamentalTriple) -> TripleReport:
    """Checks normals against the body and the quasilattice; a fan body
    is a fan already (FundamentalTriple).

    Nonsimple bodies are accepted with a warning (the stratified case is
    out of the chart pipeline); a missing membership or a misdirected
    normal is an error, so a returned report is that of a valid triple.
    """
    body = triple.body
    if isinstance(body, HalfspaceRep):
        V = vertices_from_halfspaces(body)
        require_irredundant(body)
        rays = body.normals
    else:
        rays = body.rays
    if len(triple.normals) != len(rays):
        raise CountMismatch(
            f"{len(triple.normals)} normals for {len(rays)} facets/rays")
    for j, (normal, ray) in enumerate(zip(triple.normals, rays)):
        if not positively_proportional(normal, ray):
            raise NormalWrongDirection(
                f"normal {j} is not a positive multiple of its facet "
                "normal / ray generator")
    witnesses = triple.quasilattice.memberships(triple.normals)
    if None in witnesses:
        raise NormalNotInQuasilattice(
            f"normal {witnesses.index(None)} is not a member of the "
            "quasilattice")
    if isinstance(body, HalfspaceRep):
        simple = is_simple(body, V)
    else:
        simple = fan_is_simplicial(body)
    warning = None if simple else "stratified case, out of scope"
    spans = None not in integral_memberships(
        triple.normals, triple.quasilattice.generators)
    return TripleReport(simple, warning, tuple(witnesses), spans)


@dataclass(frozen=True)
class ChartGroupReport:
    vertex: tuple            # coordinates (polytope) or ray indices (fan)
    images: tuple            # quasilattice generator images mod Z^n
    classification: str      # "trivial" | "finite" | "infinite"
    order: Optional[int]     # set for trivial (1) and finite groups


def chart_groups(triple: FundamentalTriple) -> list:
    """One report per vertex (or maximal cone, for fan bodies)."""
    body = triple.body
    n = body.dimension
    if isinstance(body, HalfspaceRep):
        V = vertices_from_halfspaces(body)
        charts = [(tuple(v), sorted(act))
                  for v, act in zip(V.vertices, V.active)]
    else:
        charts = [(cone, list(cone)) for cone in body.maximal_cones() if cone]
    reports = []
    for vertex_id, (vertex, active) in enumerate(charts):
        if len(active) != n:
            raise SingularVertexFrame(
                f"vertex {vertex_id} meets {len(active)} facets, "
                f"expected {n} (nonsimple bodies are refused)")
        frame = [triple.normals[j] for j in active]
        try:
            solutions = solve_unique(frame, triple.quasilattice.generators)
        except ValueError:
            raise SingularVertexFrame(
                f"normals at vertex {vertex_id} are dependent") from None
        images = [tuple(_reduce_mod_one(y) for y in x) for x in solutions]
        classification, order = _classify(images, n)
        reports.append(ChartGroupReport(vertex, tuple(images),
                                        classification, order))
    return reports


def _reduce_mod_one(y: FieldElement) -> FieldElement:
    return y - y.floor()


def _classify(images, n):
    if all(x.is_zero() for img in images for x in img):
        return "trivial", 1
    if any(not x.is_rational() for img in images for x in img):
        return "infinite", None
    return "finite", _finite_order(images, n)


def _finite_order(images, n) -> int:
    """Order of the subgroup of (Q/Z)^n generated by rational images:
    the index [L : Z^n] of L = Z^n + sum(Z y_g).  With D the common
    denominator, D*L lies in Z^n and holds D*Z^n, so it has rank n: the
    n pivots of its Hermite form lie on the diagonal, and their product
    is [Z^n : D*L] = D^n / [L : Z^n]."""
    denom = lcm(*(x.den for img in images for x in img))
    rows = [[x.num[0] * (denom // x.den) for x in img] for img in images]
    rows += [[denom if i == j else 0 for j in range(n)] for i in range(n)]
    H, _ = hnf(rows)
    order, remainder = divmod(denom ** n, prod(H[i][i] for i in range(n)))
    if remainder != 0:
        raise InternalInvariantError("group order index must divide D^n")
    return order
