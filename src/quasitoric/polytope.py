"""Convex polytopes in halfspace and vertex representation, exactly.

A HalfspaceRep is the bounded full-dimensional set
{mu : <mu, X_j> >= lambda_j}; both properties are proved at construction,
in every field degree alike.  Boundedness is read off the
double-description run that enumerates its vertices, which the instance
keeps; full dimension is a strict interior LP, the module's only LP.  The
vertex incidences of that run decide facet irredundancy and give the
normal fan's cones.  One exact double-description engine, extreme_rays,
serves every dimension, pointed cones and cones with lines alike: the
certificate and vertex enumeration are the extreme rays of the
homogenized cone of a HalfspaceRep, a hull the extreme rays of the cone
of inequalities valid on a point set, and fan.Fan.cone_faces reads the
facets of a cone off the extreme rays of its dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from math import comb
from typing import Sequence

from .errors import (
    DegenerateDimension,
    InternalInvariantError,
    InvalidPolytope,
    NotFullDimensional,
    RedundantFacet,
    UnboundedPolytope,
)
from .field import (
    from_numerators,
    numerator_difference,
    numerator_dot,
    numerator_sign,
    numerators,
    ray_numerators,
)
from .linalg import dot, rref_rows
from .lp import strict_lp_feasible


class HalfspaceRep:
    """Ordered facet list (normal, offset); the facet order is the index
    order used by every downstream structure.

    Construction proves the set bounded and full-dimensional, raising
    UnboundedPolytope or DegenerateDimension otherwise, and keeps the
    VertexRep that the proof of boundedness enumerates
    (vertices_from_halfspaces)."""

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
        self._vertex_rep = self._check_bounded_full_dimensional()

    def _check_bounded_full_dimensional(self) -> VertexRep:
        """Certify H bounded and full-dimensional; return its VertexRep.

        Boundedness is read off one double-description run on the cone
        C = {(t, x) : <a_j, x> >= b_j t, t >= 0}.  Its lines (0, z), z in
        the kernel of the normals, and its extreme rays with t = 0 span
        the recession cone of H, so H is bounded iff there are neither.
        The direction named is the first (coordinate i, sign s) for which
        some z in the recession cone has s z_i > 0: (i, 1) if a line has
        z_i != 0, else (i, s) if a recession ray has s z_i > 0.  The rays
        with t = 1 are the vertices (1, v).  Full dimension is the strict
        interior LP."""
        n = self.dimension
        field = self.field
        rows = [(-b,) + a for a, b in zip(self.normals, self.offsets)]
        rows.append((field.one,) + (field.zero,) * n)
        rays, lines = extreme_rays(rows)
        recession = [ray[1:] for ray, _ in rays if ray[0].is_zero()]
        if lines or recession:
            raise _unbounded(*next(
                (i, s) for i in range(n) for s in (1, -1)
                if any(not z[1 + i].is_zero() for z in lines)
                or any(r[i].sign() == s for r in recession)))
        _interior_lp(n, self.normals, self.offsets)
        if any(ray[0] != field.one for ray, _ in rays):
            raise InternalInvariantError("vertex ray off the chart t = 1")
        found = sorted(((ray[1:], active) for ray, active in rays),
                       key=lambda item: sorted(item[1]))
        active_sets = tuple(active for _, active in found)
        used = set().union(*active_sets)
        redundant = tuple(j for j in range(len(rows) - 1) if j not in used)
        return VertexRep(tuple(v for v, _ in found), active_sets, redundant)

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


def extreme_rays(rows) -> tuple:
    """Extreme rays and lines of the cone {y : <h_j, y> >= 0}, as (rays,
    lines): one (ray, zero set) pair per extreme ray, the ray scaled so
    that its first nonzero coordinate is +-1 and the frozenset of the j
    with <h_j, ray> = 0; and a basis of the lineality space, the kernel
    of the rows, each line with a leading 1, empty iff the rows span the
    space and the cone is pointed.  The rays are those of the pointed
    quotient cone, each the representative that vanishes on the leading
    coordinates of the lines.

    Incremental double description with the combinatorial adjacency test
    (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon, Double
    description method revisited, 1996), on that quotient.  The first
    linearly independent rows in index order cut out a simplicial cone,
    whose rays are the columns of a right inverse of those rows; the
    other rows follow in index order.  Row h keeps the rays r with
    <h, r> >= 0 and adds, for each pair on opposite sides, the point of
    their segment on h, provided the two are adjacent: no third ray
    vanishes on every row both vanish on.

    Rows and rays run as integer numerator vectors: a row is a positive
    rational multiple of itself with its denominators cleared
    (field.numerators), and a ray is in the canonical form of
    field.ray_numerators, content 1 with a rational first nonzero
    coordinate.  A new ray <h, r_up> r_down - <h, r_down> r_up takes no
    inverse over Q, only the division by its content.  Every ray is a
    positive rational multiple of the ray scaled to a leading +-1, so
    each sign is decided as on that ray and the isolating interval of
    the field is refined as far; a rational value, every value over Q,
    reads its sign off the integer (field.numerator_sign).  Each returned
    ray is built from its canonical numerators by one division by the
    size of its rational first nonzero coordinate (_unit_lead), and then
    checked against every row exactly, on the numerators of the returned
    ray: a positive rational multiple of each <h, ray>."""
    dim = len(rows[0])
    field = rows[0][0].field
    # [rows^T | identity] reduces to [R | E]: a row with its pivot in R
    # picks a seed row, and its E part is the ray off that seed row; one
    # with its pivot in E has R part 0, so its E part is a line
    reduced = rref_rows([column + tuple(field.one if k == i else field.zero
                                        for k in range(dim))
                         for i, column in enumerate(zip(*rows))])
    pivots = [next(c for c, x in enumerate(row) if not x.is_zero())
              for row in reduced]
    lines = [row[len(rows):] for row, c in zip(reduced, pivots)
             if c >= len(rows)]
    seed = [c for c in pivots if c < len(rows)]
    rank = len(seed)
    seeded = sum(1 << j for j in seed)
    # (ray, zero set as a bit mask over the rows added so far)
    rays = [(ray_numerators(field, numerators(field, row[len(rows):])),
             seeded & ~(1 << j))
            for row, j in zip(reduced, seed)]
    row_nums = [numerators(field, h) for h in rows]
    for j, h in enumerate(row_nums):
        bit = 1 << j
        if seeded & bit:
            continue
        kept, above, below = [], [], []
        for ray, zero in rays:
            value = numerator_dot(field, h, ray)
            # a positive rational multiple of <h, ray>, over 1
            side = numerator_sign(field, value)
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
                if common.bit_count() < rank - 2 or sum(
                        1 for z in zeros if common & z == common) > 2:
                    continue
                kept.append((ray_numerators(field, numerator_difference(
                    field, v_up, r_down, v_down, r_up)), common | bit))
        rays = kept
    return _recheck(field, rays, row_nums), lines


def vertices_from_halfspaces(H: HalfspaceRep) -> VertexRep:
    """Vertices with their active sets, every facet through the vertex, so
    vertices of nonsimple polytopes carry more than n indices.

    The VertexRep is the one the certificate of H enumerated at
    construction: the vertices v are the extreme rays (1, v) of the cone
    {(t, x) : <a_j, x> >= b_j t, t >= 0}, and the active set is the zero
    set of the ray.

    Vertices are listed in the order in which a scan of the n-subsets of
    facets in index order first meets them, i.e. by the lexicographically
    smallest n-subset of the active set with independent normals.  That
    is the order of the sorted active sets: where those of v and w first
    differ, say at a in v's, the facets before a are active at both, and
    a is independent of them (else it would be active at w), so the
    subset of v takes a where that of w takes a larger index."""
    return H._vertex_rep


def halfspaces_from_vertices(points: Sequence[tuple]) -> HalfspaceRep:
    """Exact irredundant hull, facets oriented inward and ordered
    canonically (normal scaled to a leading coordinate +-1, sorted by
    normal and offset).

    The facets <w, x> >= -c are the extreme rays (c, w) of the cone
    {(c, w) : c + <p, w> >= 0} of inequalities valid on the points, which
    is pointed iff the points span the ambient space affinely;
    NotFullDimensional when the cone has lines."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise NotFullDimensional("no points")
    rows = [(pts[0][0].field.one,) + p for p in pts]
    rays, lines = extreme_rays(rows)
    if lines:
        raise NotFullDimensional("points do not span the space affinely")
    facets = [(ray[1:], -ray[0]) for ray, _ in rays]
    field = rows[0][0].field
    return HalfspaceRep(len(pts[0]), _canonical_facets(field, facets))


def face_lattice(H: HalfspaceRep, V: VertexRep) -> FaceLattice:
    """Faces generated from vertex active sets, closed under intersection.

    The face poset of a polytope is graded, so the dimension of a face is
    the length of the longest chain of faces from a vertex up to it: 0
    for a set in no other, else one more than the largest dimension of a
    set that strictly contains it, taken over the sets by decreasing
    size.  The whole polytope, the empty set, must come out as n, and the
    face numbers f_i, f_n = 1 for the polytope itself, must satisfy the
    Euler-Poincare relation sum_i (-1)^i f_i = 1 (Ziegler, Lectures on
    Polytopes, Ch. 8).

    A simple polytope must also satisfy the Dehn-Sommerville equations
    (Ziegler, Ch. 8): "the h-vector of a simple d-polytope is symmetric,
    h_k = h_{d-k} for 0 <= k <= d", where h_k counts the vertices of
    in-degree k for a generic linear function and f_i = sum_k C(k, i)
    h_k, so h_k = sum_i (-1)^(i-k) C(i, k) f_i.  The equation for k = 0
    is the Euler-Poincare relation, which every polytope is checked
    against after the equations for 0 < k < d."""
    n = H.dimension
    sets = intersection_closure({frozenset(a) for a in V.active})
    sets.add(frozenset())
    dims = {}
    for s in sorted(sets, key=len, reverse=True):
        dims[s] = max((dim + 1 for t, dim in dims.items() if s < t),
                      default=0)
    if dims[frozenset()] != n:
        raise InternalInvariantError("longest face chain misses dimension n")
    f = [0] * (n + 1)
    for dim in dims.values():
        f[dim] += 1
    if is_simple(H, V):
        h = [sum((-1) ** (i - k) * comb(i, k) * f[i]
                 for i in range(k, n + 1)) for k in range(n + 1)]
        if h[1:n] != h[n - 1:0:-1]:
            raise InternalInvariantError(
                "face numbers break the Dehn-Sommerville equations")
    if sum(-x if i % 2 else x for i, x in enumerate(f)) != 1:
        raise InternalInvariantError(
            "face numbers break the Euler-Poincare relation")
    faces = sorted(dims.items(), key=lambda t: (-t[1], sorted(t[0])))
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


def redundant_facets(H: HalfspaceRep):
    """Facets whose removal does not change the polytope, read off the
    vertex incidences of its certificate: facet j is irredundant iff some
    vertex lies on it and the active sets of the vertices on it meet in
    {j}.  That intersection is the facet set of the face the facet cuts
    out, so the rule is that some (n-1)-face has facet set exactly {j}.
    Halfspaces defining the same facet share its facet set, so each reads
    redundant, as in fan.redundant_facets_lp."""
    common = [None] * H.facet_count
    for active in H._vertex_rep.active:
        for j in active:
            common[j] = active if common[j] is None else common[j] & active
    return [j for j, facets in enumerate(common) if facets != {j}]


def require_irredundant(H: HalfspaceRep) -> None:
    """Raise RedundantFacet unless every facet of H is irredundant."""
    bad = redundant_facets(H)
    if bad:
        raise RedundantFacet(f"facets {bad} are redundant; strip them first")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _unbounded(i: int, s: int) -> UnboundedPolytope:
    return UnboundedPolytope(
        f"recession direction exists (coordinate {i}, sign {s})")


def _interior_lp(n: int, normals, offsets) -> None:
    """Raise DegenerateDimension unless the strict LP finds a point with
    <a_j, x> > b_j for all j."""
    if strict_lp_feasible([(a, b, ">") for a, b in zip(normals, offsets)],
                          n, normals[0][0].field) is None:
        raise DegenerateDimension("halfspace intersection has empty interior")


def _recheck(field, rays, row_nums) -> list:
    """The (ray, zero set) pairs of the double description's (numerator
    vector, zero mask) pairs, each ray built by _unit_lead and checked
    against every row exactly, on the numerators of that returned ray;
    InternalInvariantError unless every <h, ray> >= 0 and the zero set
    is the mask."""
    checked = []
    for ray, mask in rays:
        ray = _unit_lead(field, ray)
        nums = numerators(field, ray)
        signs = [numerator_sign(field, numerator_dot(field, h, nums))
                 for h in row_nums]
        zero = frozenset(j for j, s in enumerate(signs) if s == 0)
        if min(signs) < 0 or mask != sum(1 << j for j in zero):
            raise InternalInvariantError(
                "extreme ray fails its exact recheck")
        checked.append((ray, zero))
    return checked


def _unit_lead(field, nums) -> tuple:
    """The vector of the canonical numerator vector nums
    (field.ray_numerators) scaled to a leading +-1: its first nonzero
    coordinate is rational, so that is one division of every numerator
    by the size of that coordinate's integer: the positive multiple of the
    ray whose first nonzero coordinate is +-1."""
    lead = next(x for x in nums[::field.degree] if x)
    return from_numerators(field, nums, abs(lead))


def _cmp_vec(u, v) -> int:
    for a, b in zip(u, v):
        s = (a - b).sign()
        if s:
            return s
    return 0


def _canonical_facets(field, facets):
    keys = sorted((_unit_lead(field, ray_numerators(
        field, numerators(field, tuple(n) + (o,)))) for n, o in facets),
        key=cmp_to_key(_cmp_vec))
    return [(key[:-1], key[-1]) for key in keys]
