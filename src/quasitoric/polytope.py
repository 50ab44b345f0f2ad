"""Convex polytopes in halfspace and vertex representation, exactly.

A HalfspaceRep is the bounded full-dimensional set
{mu : <mu, X_j> >= lambda_j}; both properties are certified at
construction (recession-direction LPs for boundedness, a strict interior
LP for full dimension).  One exact double-description engine,
extreme_rays, serves every dimension: vertex enumeration is the extreme
rays of the homogenized cone of a HalfspaceRep, a hull the extreme rays
of the cone of inequalities valid on a point set, and fan.Fan.cone_faces
reads the facets of a cone off the extreme rays of its dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Sequence

from .errors import (
    DegenerateDimension,
    InternalInvariantError,
    InvalidPolytope,
    NotFullDimensional,
    RedundantFacet,
    UnboundedPolytope,
)
from .linalg import dot, mat_rank, rref_rows
from .lp import strict_lp_feasible


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


def extreme_rays(rows) -> list:
    """Extreme rays of the pointed cone {y : <h_j, y> >= 0}, one (ray,
    zero set) pair per ray: the ray scaled so that its first nonzero
    coordinate is +-1, and the frozenset of the j with <h_j, ray> = 0.
    The rows must span the space, which makes the cone pointed;
    NotFullDimensional otherwise.

    Incremental double description with the combinatorial adjacency test
    (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon, Double
    description method revisited, 1996).  The first linearly independent
    rows in index order cut out a simplicial cone, whose rays are the
    columns of their inverse; the other rows follow in index order.  Row
    h keeps the rays r with <h, r> >= 0 and adds, for each pair on
    opposite sides, the point of their segment on h, provided the two are
    adjacent: no third ray vanishes on every row both vanish on.  Each
    returned ray is then checked against every row exactly."""
    dim = len(rows[0])
    field = rows[0][0].field
    # [rows^T | identity] reduces to [R | E] with E the inverse of the
    # seed rows, transposed: the pivots of R pick the seed, and row i of
    # E is the ray off the i-th seed row
    reduced = rref_rows([column + tuple(field.one if k == i else field.zero
                                        for k in range(dim))
                         for i, column in enumerate(zip(*rows))])
    seed = [next(c for c, x in enumerate(row) if not x.is_zero())
            for row in reduced]
    if seed[-1] >= len(rows):
        raise NotFullDimensional("rows do not span the space: the cone "
                                 "is not pointed")
    seeded = sum(1 << j for j in seed)
    # (ray, zero set as a bit mask over the rows added so far)
    rays = [(_scaled(row[len(rows):]), seeded & ~(1 << j))
            for row, j in zip(reduced, seed)]
    for j, h in enumerate(rows):
        bit = 1 << j
        if seeded & bit:
            continue
        kept, above, below = [], [], []
        for ray, zero in rays:
            value = dot(h, ray)
            side = value.sign()
            if side > 0:
                kept.append((ray, zero))
                above.append((ray, zero, value))
            elif side < 0:
                below.append((ray, zero, value))
            else:
                kept.append((ray, zero | bit))
        zeros = [zero for _, zero in rays]
        for r_up, z_up, v_up in above:
            for r_down, z_down, v_down in below:
                common = z_up & z_down
                if common.bit_count() < dim - 2 or sum(
                        1 for z in zeros if common & z == common) > 2:
                    continue
                kept.append((_scaled([v_up * a - v_down * b
                                      for a, b in zip(r_down, r_up)]),
                             common | bit))
        rays = kept
    checked = []
    for ray, mask in rays:
        signs = [dot(h, ray).sign() for h in rows]
        zero = frozenset(j for j, s in enumerate(signs) if s == 0)
        if min(signs) < 0 or mask != sum(1 << j for j in zero):
            raise InternalInvariantError(
                "extreme ray fails its exact recheck")
        checked.append((ray, zero))
    return checked


def vertices_from_halfspaces(H: HalfspaceRep) -> VertexRep:
    """Vertices with their active sets, every facet through the vertex, so
    vertices of nonsimple polytopes carry more than n indices.

    The vertices v are the extreme rays (1, v) of the cone
    {(t, x) : <a_j, x> >= b_j t}, which has no other point with t <= 0
    than the origin because H is bounded; the active set is the zero set.

    Vertices are listed in the order in which a scan of the n-subsets of
    facets in index order first meets them, i.e. by the lexicographically
    smallest n-subset of the active set with independent normals.  That
    is the order of the sorted active sets: where those of v and w first
    differ, say at a in v's, the facets before a are active at both, and
    a is independent of them (else it would be active at w), so the
    subset of v takes a where that of w takes a larger index."""
    rows = [(-b,) + a for a, b in zip(H.normals, H.offsets)]
    found = []
    for ray, active in extreme_rays(rows):
        if ray[0] != H.field.one:
            raise InternalInvariantError("vertex ray off the chart t = 1")
        found.append((ray[1:], active))
    found.sort(key=lambda item: sorted(item[1]))
    active_sets = tuple(active for _, active in found)
    used = set().union(*active_sets)
    redundant = tuple(j for j in range(H.facet_count) if j not in used)
    return VertexRep(tuple(v for v, _ in found), active_sets, redundant)


def halfspaces_from_vertices(points: Sequence[tuple]) -> HalfspaceRep:
    """Exact irredundant hull, facets oriented inward and ordered
    canonically (normal scaled to a leading coordinate +-1, sorted by
    normal and offset).

    The facets <w, x> >= -c are the extreme rays (c, w) of the cone
    {(c, w) : c + <p, w> >= 0} of inequalities valid on the points, which
    is pointed iff the points span the ambient space affinely."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise NotFullDimensional("no points")
    rows = [(pts[0][0].field.one,) + p for p in pts]
    facets = [(ray[1:], -ray[0]) for ray, _ in extreme_rays(rows)]
    return HalfspaceRep(len(pts[0]), _canonical_facets(facets))


def face_lattice(H: HalfspaceRep, V: VertexRep) -> FaceLattice:
    """Faces generated from vertex active sets, closed under intersection;
    dimension is n minus the rank of the active normals."""
    n = H.dimension
    sets = intersection_closure({frozenset(a) for a in V.active})
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


def intersection_closure(generators) -> set:
    """Every intersection of one or more of the given frozensets."""
    closed = set(generators)
    frontier = closed
    while frontier:
        frontier = {a & b for a in frontier for b in generators} - closed
        closed |= frontier
    return closed


def is_simple(H: HalfspaceRep, V: VertexRep) -> bool:
    """Each vertex meets exactly n facets."""
    return all(len(a) == H.dimension for a in V.active)


def redundant_facets(H: HalfspaceRep, lattice: FaceLattice):
    """Facets whose removal does not change the polytope, read off its
    face lattice: facet j is irredundant iff some (n-1)-face has facet set
    exactly {j}.  Halfspaces defining the same facet share its facet set,
    so each reads redundant, as in fan.redundant_facets_lp."""
    irredundant = {j for face in lattice.of_dimension(H.dimension - 1)
                   if len(face) == 1 for j in face}
    return [j for j in range(H.facet_count) if j not in irredundant]


def require_irredundant(H: HalfspaceRep, lattice: FaceLattice) -> None:
    """Raise RedundantFacet unless every facet of H is irredundant;
    lattice is the face lattice of H."""
    bad = redundant_facets(H, lattice)
    if bad:
        raise RedundantFacet(f"facets {bad} are redundant; strip them first")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _scaled(ray) -> tuple:
    """The positive multiple of ray whose first nonzero coordinate is +-1."""
    lead = next(x for x in ray if not x.is_zero())
    scale = abs(lead).inverse()
    return tuple(scale * x for x in ray)


def _cmp_vec(u, v) -> int:
    for a, b in zip(u, v):
        s = (a - b).sign()
        if s:
            return s
    return 0


def _canonical_facets(facets):
    keys = sorted((_scaled(tuple(n) + (o,)) for n, o in facets),
                  key=cmp_to_key(_cmp_vec))
    return [(key[:-1], key[-1]) for key in keys]
