"""Convex polytopes in halfspace and vertex representation, exactly.

A HalfspaceRep is the bounded full-dimensional set
{mu : <mu, X_j> >= lambda_j}; both properties are certified at
construction (recession-direction LPs for boundedness, a strict interior
LP for full dimension).  Vertex enumeration solves every n-subset of the
facet system; hulls are implemented for n <= 3 only, which covers every
shipped example.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Sequence

from .errors import (
    DegenerateDimension,
    DimensionTooHigh,
    FacetBudgetExceeded,
    InvalidPolytope,
    NotFullDimensional,
    UnboundedPolytope,
)
from .field import FieldElement
from .linalg import dot, mat_rank, rank_kernel_solve, vec_sub
from .lp import strict_lp_feasible

FACET_BUDGET = 30


class HalfspaceRep:
    """Ordered facet list (normal, offset); the facet order is the index
    order used by every downstream structure."""

    def __init__(self, dimension: int, facets: Sequence[tuple]):
        if dimension < 1:
            raise InvalidPolytope("dimension must be >= 1")
        if not facets:
            raise DegenerateDimension("no facets")
        normals = []
        offsets = []
        for normal, offset in facets:
            vec = tuple(normal)
            if len(vec) != dimension:
                raise InvalidPolytope("normal length disagrees with dimension")
            if all(x.is_zero() for x in vec):
                raise InvalidPolytope("zero normal")
            normals.append(vec)
            offsets.append(offset)
        self.dimension = dimension
        self.normals = tuple(normals)
        self.offsets = tuple(offsets)
        self.field = normals[0][0].field
        self.interior_point = self._check_bounded_full_dimensional()

    def _check_bounded_full_dimensional(self):
        n = self.dimension
        field = self.field
        one = field.one
        recession = [(normal, field.zero, ">=") for normal in self.normals]
        for i in range(n):
            for s in (one, -one):
                unit = [field.zero] * n
                unit[i] = s
                probe = recession + [(tuple(unit), one, ">=")]
                if strict_lp_feasible(probe, n, field) is not None:
                    raise UnboundedPolytope(
                        "recession direction exists (coordinate "
                        f"{i}, sign {s.coeffs[0]})")
        interior = strict_lp_feasible(
            [(normal, offset, ">")
             for normal, offset in zip(self.normals, self.offsets)],
            n, field)
        if interior is None:
            raise DegenerateDimension(
                "halfspace intersection has empty interior")
        return interior

    @property
    def facet_count(self) -> int:
        return len(self.normals)

    def contains(self, point) -> bool:
        return all((dot(point, normal) - offset).sign() >= 0
                   for normal, offset in zip(self.normals, self.offsets))


@dataclass(frozen=True)
class VertexRep:
    vertices: tuple          # coordinate tuples
    active: tuple            # per vertex, frozenset of facet indices
    redundant_facets: tuple  # facet indices active at no vertex


@dataclass(frozen=True)
class FaceLattice:
    """Faces as (facet index set, dimension), ordered by decreasing
    dimension; the empty index set is the whole polytope.  The formal
    bottom element is omitted."""
    dimension: int
    faces: tuple  # of (frozenset, int)

    def of_dimension(self, d: int):
        return [f for f, dim in self.faces if dim == d]


def vertices_from_halfspaces(H: HalfspaceRep) -> VertexRep:
    """Enumerate all n-subsets of facets, keep feasible unique solutions.

    Active sets record every facet satisfied with equality, so vertices of
    nonsimple polytopes carry more than n indices."""
    n = H.dimension
    d = H.facet_count
    if d > FACET_BUDGET:
        raise FacetBudgetExceeded(f"{d} facets exceed budget {FACET_BUDGET}")
    seen = {}
    order = []
    for subset in itertools.combinations(range(d), n):
        A = [list(H.normals[j]) for j in subset]
        b = [H.offsets[j] for j in subset]
        res = rank_kernel_solve(A, b)
        if res.rank < n or res.solution is None:
            continue
        mu = res.solution
        values = [(dot(mu, H.normals[j]) - H.offsets[j]).sign()
                  for j in range(d)]
        if any(v < 0 for v in values):
            continue
        active = frozenset(j for j in range(d) if values[j] == 0)
        if mu not in seen:
            seen[mu] = active
            order.append(mu)
    vertices = tuple(order)
    active_sets = tuple(seen[v] for v in vertices)
    used = set().union(*active_sets) if active_sets else set()
    redundant = tuple(j for j in range(d) if j not in used)
    return VertexRep(vertices, active_sets, redundant)


def halfspaces_from_vertices(points: Sequence[tuple]) -> HalfspaceRep:
    """Exact irredundant hull for n <= 3, facets oriented inward and
    ordered canonically (sorted by scaled normal/offset)."""
    pts = []
    for p in points:
        t = tuple(p)
        if t not in pts:
            pts.append(t)
    if not pts:
        raise NotFullDimensional("no points")
    n = len(pts[0])
    if n > 3:
        raise DimensionTooHigh(f"hull not implemented for n = {n}")
    field = pts[0][0].field
    if len(pts) < n + 1 or _affine_rank(pts) < n:
        raise NotFullDimensional("points do not span the ambient space")
    if n == 1:
        lo = min(pts, key=cmp_to_key(_cmp_vec))[0]
        hi = max(pts, key=cmp_to_key(_cmp_vec))[0]
        facets = [((field.one,), lo), ((-field.one,), -hi)]
    elif n == 2:
        facets = _hull_2d(pts, field)
    else:
        facets = _hull_3d(pts, field)
    facets = _canonical_facets(facets)
    return HalfspaceRep(n, facets)


def face_lattice(H: HalfspaceRep, V: VertexRep) -> FaceLattice:
    """Faces generated from vertex active sets, closed under intersection;
    dimension is n minus the rank of the active normals."""
    n = H.dimension
    sets = {frozenset(a) for a in V.active}
    frontier = set(sets)
    while frontier:
        new = set()
        for a in frontier:
            for b in sets:
                c = a & b
                if c not in sets and c not in new:
                    new.add(c)
        sets |= new
        frontier = new
    sets.add(frozenset())
    faces = []
    for s in sets:
        if not s:
            dim = n
        else:
            dim = n - mat_rank([list(H.normals[j]) for j in sorted(s)])
        faces.append((s, dim))
    faces.sort(key=lambda t: (-t[1], sorted(t[0])))
    return FaceLattice(n, tuple(faces))


def is_simple(H: HalfspaceRep, V: VertexRep) -> bool:
    """Each vertex meets exactly n facets."""
    return all(len(a) == H.dimension for a in V.active)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _affine_rank(pts):
    if len(pts) < 2:
        return 0
    rows = [list(vec_sub(p, pts[0])) for p in pts[1:]]
    return mat_rank(rows)


def _cmp_elem(a: FieldElement, b: FieldElement) -> int:
    return (a - b).sign()


def _cmp_vec(u, v) -> int:
    for a, b in zip(u, v):
        s = (a - b).sign()
        if s:
            return s
    return 0


def _cross2(o, a, b):
    return ((a[0] - o[0]) * (b[1] - o[1])
            - (a[1] - o[1]) * (b[0] - o[0]))


def _hull_2d(pts, field):
    pts = sorted(pts, key=cmp_to_key(_cmp_vec))
    lower = []
    for p in pts:
        while len(lower) > 1 and _cross2(lower[-2], lower[-1], p).sign() <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) > 1 and _cross2(upper[-2], upper[-1], p).sign() <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]  # counterclockwise
    facets = []
    for p, q in zip(hull, hull[1:] + hull[:1]):
        dx, dy = q[0] - p[0], q[1] - p[1]
        normal = (-dy, dx)  # inward for a counterclockwise boundary
        facets.append((normal, dot(p, normal)))
    return facets


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _hull_3d(pts, field):
    facets = []
    seen = set()
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        normal = _cross3(vec_sub(pts[j], pts[i]), vec_sub(pts[k], pts[i]))
        if all(x.is_zero() for x in normal):
            continue
        offset = dot(pts[i], normal)
        signs = {(dot(p, normal) - offset).sign() for p in pts}
        if -1 in signs and 1 in signs:
            continue
        if -1 in signs:
            normal = tuple(-x for x in normal)
            offset = -offset
        key = _canonical_key(normal, offset)
        if key in seen:
            continue
        seen.add(key)
        facets.append((normal, offset))
    return facets


def _canonical_key(normal, offset):
    lead = next(x for x in normal if not x.is_zero())
    scale = abs(lead).inverse()
    return tuple(scale * x for x in normal) + (scale * offset,)


def _canonical_facets(facets):
    keyed = [(_canonical_key(n, o), (n, o)) for n, o in facets]
    keyed.sort(key=cmp_to_key(lambda a, b: _cmp_vec(a[0], b[0])))
    return [(n, o) for _, (n, o) in keyed]
