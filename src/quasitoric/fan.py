"""Fans of polyhedral cones: construction from polytopes, the fan axioms,
completeness, and polytopality.

Cones are stored as sorted tuples of indices into the fan's shared ray
list.  The normal fan of a certified polytope needs no LP: it is valid
and complete, and simplicial iff the polytope is simple (Ziegler,
Lectures on Polytopes, Ch. 7).  normal_fan reads the irredundancy of the
facets and the cones off the vertex incidences of the polytope's
certificate and marks the fan it builds, and the predicates answer for a
marked fan by that theorem.  The bookkeeping needs no pair loop either:
a marked fan's rays need no repeated-ray check, any other fan's rays
are grouped by the line they span in one dict pass, and maximal cones
are computed once per fan.  A complete simplicial fan needs no LP
either: complete_fan_certificate proves it a fan from its walls and one
point, by linear algebra alone, with one elimination per maximal cone.
The linear relation it finds among each wall's rays and its two apexes is
kept by the fan (Fan.wall_relations), and it serves validity,
completeness and the rows of the polytopality system alike.  On any
other fan the predicates read each cone off its dual cone, which
polytope.extreme_rays enumerates in any dimension by exact double
description, splitting off its lines when the cone is not
full-dimensional, and which is computed once per cone (cone_dual).  The
dual gives the faces of a cone, membership of a point in it, and, with
one more double description of the two duals together, whether two
cones meet in a common face.  Completeness of a valid fan the
certificate refuses is one wall-pairing test in every dimension: each
maximal cone is full-dimensional and each of its walls lies in exactly
two maximal cones.  Only polytopality and the redundancy of facets ask
an LP.

Validity uses the standard fan lemma (Ziegler, Lectures on Polytopes,
Ch. 7): a collection closed under faces in which every cone is a face of
a maximal cone is a fan as soon as every two maximal cones meet in a
common face.  "Maximal" is taken in the face order, not by index sets:
the cones checked pairwise are those that are no proper face of another
cone, and every cone is a face of one of them.
"""

from __future__ import annotations

import copy
import itertools
from typing import NamedTuple, Optional

from .errors import InternalInvariantError, InvalidFan
from .field import numerators
from .linalg import dot, mat_rank, solve_unique
from .lp import strict_lp_feasible
from .polytope import (
    HalfspaceRep,
    extreme_rays,
    intersection_closure,
    require_irredundant,
    vertices_from_halfspaces,
)


class Fan:
    """Shared ray list plus cones as sorted ray-index tuples.

    Construction rejects zero rays and repeated rays (equal up to positive
    scaling); the origin cone () is always included.  Face closure and the
    pairwise-intersection axiom are checked by fan_is_valid, not here.
    polytope, set by normal_fan only, is the certified polytope whose
    normal fan this is.  Its rays are the irredundant facet normals the
    certificate has just proved, and two of them are never positive
    multiples of each other, since one facet's halfspace would then
    contain the other's; so a marked fan skips the repeated-ray check.
    Every other fan checks its rays in one keyed pass: rays are grouped
    by the line they span, keyed in the field of the first ray, which
    asks no sign and raises MixedFields for a ray of another field; only
    rays on one line have the sign of their dot product asked, in the
    order of all pairs.
    """

    def __init__(self, dimension: int, rays, cones,
                 polytope: Optional[HalfspaceRep] = None):
        rays = tuple(tuple(r) for r in rays)
        if dimension < 1:
            raise InvalidFan("dimension must be >= 1")
        for r in rays:
            if len(r) != dimension:
                raise InvalidFan("ray length disagrees with dimension")
            if all(x.is_zero() for x in r):
                raise InvalidFan("zero ray")
        field = rays[0][0].field if rays else None
        if polytope is None:
            lines = {}
            for i, r in enumerate(rays):
                lines.setdefault(_line_key(field, r), []).append(i)
            for i, j in sorted(pair for group in lines.values()
                               for pair in itertools.combinations(group, 2)):
                if dot(rays[i], rays[j]).sign() > 0:
                    raise InvalidFan(f"rays {i} and {j} are positive "
                                     "multiples of each other")
        cone_set = set()
        for cone in cones:
            t = tuple(sorted(cone))
            if len(set(t)) != len(t):
                raise InvalidFan(f"cone {cone} repeats a ray index")
            if t and (t[0] < 0 or t[-1] >= len(rays)):
                raise InvalidFan(f"cone {cone} indexes a missing ray")
            cone_set.add(t)
        cone_set.add(())
        self.dimension = dimension
        self.rays = rays
        self.cones = tuple(sorted(cone_set))
        self.field = field
        self.polytope = polytope
        self._maximal = None
        self._relations = None
        self._dual_cache = {}
        self._face_cache = {}
        self._rank_cache = {}

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    def face_closure(self) -> "Fan":
        """The fan of these cones and all their faces: a copy of this fan,
        so it keeps the rays this one accepted and shares its caches,
        which depend on the rays alone.  The added faces are index subsets
        of the cones, so the maximal cones are this fan's too, and so are
        the wall relations once taken."""
        closed = set().union(*(self.cone_faces(c) for c in self.cones))
        fan = copy.copy(self)
        fan.cones = tuple(sorted(closed))
        fan._maximal = self.maximal_cones()
        return fan

    def maximal_cones(self):
        """Cones not properly contained (as index sets) in another cone,
        in the order of self.cones, computed once."""
        if self._maximal is None:
            self._maximal = maximal_index_sets(self.cones)
        return self._maximal

    def wall_relations(self) -> tuple:
        """The relations complete_fan_certificate finds on the maximal
        cones, computed once, or () when it refuses them."""
        if self._relations is None:
            self._relations = tuple(complete_fan_certificate(
                self.rays, self.maximal_cones(), self.dimension) or ())
        return self._relations

    # -- exact cone geometry ------------------------------------------------

    def cone_rank(self, cone) -> int:
        """Rank of the indexed rays, the dimension of their cone."""
        cone = tuple(sorted(cone))
        if cone not in self._rank_cache:
            self._rank_cache[cone] = (
                mat_rank([list(self.rays[i]) for i in cone]) if cone else 0)
        return self._rank_cache[cone]

    def cone_faces(self, cone):
        """All faces of a cone, as ray-index tuples.

        Simplicial cones: every index subset.  Otherwise the cone itself
        and every intersection of its facets, each facet the set of rays
        on it: the zero sets of the extreme rays of the dual cone
        {y : <r, y> >= 0 for every ray r}, whose lines span the
        orthogonal complement of the rays' span when the cone is not
        full-dimensional."""
        cone = tuple(sorted(cone))
        if cone in self._face_cache:
            return self._face_cache[cone]
        if not cone:
            faces = {()}
        elif self.cone_rank(cone) == len(cone):
            faces = {tuple(sub) for r in range(len(cone) + 1)
                     for sub in itertools.combinations(cone, r)}
            # a subset of independent rays is independent
            for face in faces:
                self._rank_cache[face] = len(face)
        else:
            rays, _ = cone_dual(self.rays, cone, self._dual_cache)
            facets = {frozenset(cone[p] for p in zero) for _, zero in rays}
            faces = {tuple(sorted(face))
                     for face in intersection_closure(facets)}
            faces.add(cone)
        self._face_cache[cone] = faces
        return faces


def maximal_index_sets(cones) -> tuple:
    """The index tuples in cones not properly contained in another one,
    in the order of cones.  A tuple properly inside another lies inside
    a longer maximal one, so each, longest first, is compared only with
    the maximal ones kept."""
    kept, maximal = [], set()
    for cone in sorted(cones, key=len, reverse=True):
        s = frozenset(cone)
        if not any(s < m for m in kept):
            kept.append(s)
            maximal.add(cone)
    return tuple(c for c in cones if c in maximal)


def _line_key(field, ray) -> tuple:
    """The numerator vector of the nonzero ray scaled to a first nonzero
    coordinate of 1: two rays have one key iff they span one line.  One
    inverse and no sign."""
    k = next(i for i, x in enumerate(ray) if not x.is_zero())
    inv = ray[k].inverse()
    return numerators(field, (*ray[:k], field.one,
                              *(x * inv for x in ray[k + 1:])))


def positively_proportional(u, v) -> bool:
    """u = c*v for some c > 0.

    With k the first nonzero coordinate of u, u and v are parallel iff
    u_k v_j = u_j v_k for every j: n - 1 cross products."""
    k = next((i for i, x in enumerate(u) if not x.is_zero()), None)
    if k is None:
        return False
    uk, vk = u[k], v[k]
    if any(not (uk * y - x * vk).is_zero()
           for j, (x, y) in enumerate(zip(u, v)) if j != k):
        return False
    return dot(u, v).sign() > 0


def cone_dual(vectors, cone, cache=None) -> tuple:
    """The dual {y : <v, y> >= 0 for every indexed v} of the cone on the
    indexed vectors, as extreme_rays returns it: (rays with their zero
    sets, as positions in cone, and lines), taken once per cone when a
    cache dict is given.  The zero cone's dual is the whole space, the
    dual of the zero vector."""
    cone = tuple(cone)
    if cache is not None and cone in cache:
        return cache[cone]
    zero = vectors[0][0].field.zero
    dual = extreme_rays([vectors[i] for i in cone]
                        or [(zero,) * len(vectors[0])])
    if cache is not None:
        cache[cone] = dual
    return dual


def in_cone(dual, point) -> bool:
    """Whether the point lies in the cone whose cone_dual is given: the
    cone is the dual of its dual, so the point is orthogonal to every
    line and nonnegative on every ray of it."""
    rays, lines = dual
    return (all(dot(line, point).is_zero() for line in lines)
            and all(dot(ray, point).sign() >= 0 for ray, _ in rays))


def _facets_on(dual_rays, face, size) -> Optional[list]:
    """The indices of the facets through face, a set of positions among
    a cone's size rays, given the cone's dual rays with their zero sets
    (its facets), if face is the set of rays on a face of the cone: the
    facets through it meet in face alone.  None otherwise.  No facet
    passes through the whole cone, and the empty meet is all of it."""
    on = [k for k, (_, zero) in enumerate(dual_rays) if face <= zero]
    meet = frozenset(range(size)).intersection(*(dual_rays[k][1]
                                                 for k in on))
    return on if meet == face else None


def cones_meet_in_common_face(vectors, S1, S2, cache=None) -> bool:
    """Whether cone(S1) and cone(S2) intersect in a common face, decided
    from the duals of the two cones (cone_dual, kept in cache) with no
    LP.

    F1 is the set of rays of S1 that lie in cone(S2), and F2 the set of
    rays of S2 that lie in cone(S1).  Unless each cone lies in the other,
    the cones meet in a common face iff F1 is the set of rays on a face
    of cone(S1), F2 one on a face of cone(S2), and the intersection lies
    in cone(F1) and in cone(F2).  Then cone(F1), which lies in both
    cones, is their whole intersection, and so is cone(F2).  Conversely,
    a common face G holds exactly the rays of F1 and of F2, and a face is
    the cone of the rays on it.

    The first condition reads off the facets: the zero sets of the dual's
    rays.  A face is the intersection of the facets through it, and so
    is cone(F1) when F1 is a face's ray set; a point of cone(S1) lies in
    it iff it vanishes on the dual rays of those facets.  The
    intersection is the cone whose dual the rays and lines of both duals
    span, so one extreme_rays on them, each line taken with both signs,
    gives its rays with their zero sets.  Its lines lie in every face of
    both cones, and each of its rays must vanish on the facets through
    F1 and through F2."""
    S1, S2 = tuple(S1), tuple(S2)
    dual1 = cone_dual(vectors, S1, cache)
    dual2 = cone_dual(vectors, S2, cache)
    F1 = frozenset(p for p, i in enumerate(S1)
                   if i in S2 or in_cone(dual2, vectors[i]))
    F2 = frozenset(p for p, j in enumerate(S2)
                   if j in S1 or in_cone(dual1, vectors[j]))
    if len(F1) == len(S1) and len(F2) == len(S2):
        return True  # mutual containment: the intersection is the cone itself
    (rays1, lines1), (rays2, lines2) = dual1, dual2
    on1 = _facets_on(rays1, F1, len(S1))
    on2 = _facets_on(rays2, F2, len(S2))
    if on1 is None or on2 is None:
        return False
    lines = lines1 + lines2
    meet, _ = extreme_rays([ray for ray, _ in rays1 + rays2] + lines
                           + [tuple(-x for x in line) for line in lines])
    on = {*on1, *(len(rays1) + k for k in on2)}
    return all(on <= zero for _, zero in meet)


def complete_fan_certificate(vectors, maximal, n) -> Optional[list]:
    """The wall relations proving that the simplicial cones on the index
    tuples in maximal form a complete fan in R^n, or None.

    One relation per wall (n-1 rays of a maximal cone; () when n = 1),
    in the order the walls first appear in maximal: for its owners s and
    t, in the order of maximal, with apexes a and k (the ray each adds to
    the wall), the coefficients c of ray k in the rays of s, so that
    ray k is the sum of c_j ray j over s.  It is returned as (s, c, k).

    The relations prove a complete fan when all three hold: every
    maximal cone has n rays; every wall lies in exactly two maximal
    cones, the rays of s are independent and c_a < 0; and the point p,
    the sum of the rays of the first cone, lies in no other maximal cone.
    The middle condition says that the wall has rank n-1 and the two
    apexes lie strictly on opposite sides of its hyperplane, since a
    normal N of the wall has <N, ray k> = c_a <N, ray a>.  This is the
    pseudomanifold characterization of triangulations (De Loera, Rambau
    and Santos, Triangulations, Ch. 4).  Proof sketch: a path between
    generic points crosses walls only in their relative interiors, and
    there one cone is left as its partner on the other side is entered,
    so the number of cones covering a generic point is the same
    everywhere.  Near p it is 1, so the interiors are disjoint and the
    cones cover R^n.  Walls are index sets shared by both cones, which
    rules out T-junctions: the cones around each face cover a
    neighbourhood of it exactly once, so no other cone touches it, and
    any two cones meet in a common face.

    The check only ever answers yes: None says nothing, and the caller
    decides by the pairwise path instead.

    Each maximal cone takes one elimination, when first needed: its
    right-hand sides are the apexes k of the walls it is the first owner
    of, then p unless it is the first cone.  An elimination asks no
    sign, so the signs asked, of each c_a in wall order and then of the
    coordinates of p in each cone, and the walls and cones reached
    before a refusal, do not depend on how the solves are grouped."""
    maximal = list(maximal)
    if any(len(cone) != n for cone in maximal):
        return None
    walls = {}  # wall -> [(position in maximal, apex)] for each cone on it
    for pos, cone in enumerate(maximal):
        for apex in cone:
            wall = tuple(i for i in cone if i != apex)
            walls.setdefault(wall, []).append((pos, apex))
    zero = vectors[maximal[0][0]][0].field.zero
    point = [sum((vectors[j][i] for j in maximal[0]), zero)
             for i in range(n)]
    columns = [[] for _ in maximal]  # right-hand sides of each cone
    slot = {}  # wall -> its column in its first owner's elimination
    for wall, owners in walls.items():
        if len(owners) == 2:
            (s, _), (_, k) = owners
            slot[wall] = len(columns[s])
            columns[s].append(vectors[k])
    for cols in columns[1:]:
        cols.append(point)
    solved = {}

    def solution(pos):
        """The solutions of cone pos for its columns; ValueError when its
        rays are dependent."""
        if pos not in solved:
            A_t = [[vectors[j][i] for j in maximal[pos]] for i in range(n)]
            solved[pos] = solve_unique(A_t, columns[pos])
        return solved[pos]

    relations = []
    for wall, owners in walls.items():
        if len(owners) != 2:
            return None
        (s, a), (_, k) = owners
        sigma = maximal[s]
        try:
            c = solution(s)[slot[wall]]
        except ValueError:  # the rays of sigma are dependent
            return None
        if c[sigma.index(a)].sign() >= 0:
            return None
        relations.append((sigma, c, k))
    for pos in range(1, len(maximal)):
        if all(x.sign() >= 0 for x in solution(pos)[-1]):
            return None
    return relations


# ---------------------------------------------------------------------------
# normal fan
# ---------------------------------------------------------------------------

def redundant_facets_lp(H: HalfspaceRep):
    """Facets whose removal does not change the polytope (exact LP test)."""
    redundant = []
    n = H.dimension
    for j in range(H.facet_count):
        constraints = [(H.normals[k], H.offsets[k], ">=")
                       for k in range(H.facet_count) if k != j]
        constraints.append((tuple(-x for x in H.normals[j]),
                            -H.offsets[j], ">"))
        if strict_lp_feasible(constraints, n, H.field) is None:
            redundant.append(j)
    return redundant


def normal_fan(H: HalfspaceRep) -> Fan:
    """Rays are the facet normals with input scaling preserved; cones are
    spanned by the normals of the facets containing each face.  The facet
    sets of the faces are the intersections of the vertex active sets,
    and that of the whole polytope, the origin cone, is in every Fan."""
    require_irredundant(H)
    faces = intersection_closure(vertices_from_halfspaces(H).active)
    cones = {tuple(sorted(face)) for face in faces}
    return Fan(H.dimension, H.normals, cones, polytope=H)


# ---------------------------------------------------------------------------
# fan predicates
# ---------------------------------------------------------------------------

class FanPredicates(NamedTuple):
    valid: bool
    simplicial: bool
    complete: bool


def fan_is_simplicial(fan: Fan) -> bool:
    """Every cone spanned by linearly independent rays.  A cone of a
    normal fan lists the facets containing a face, and the polytope is
    simple iff no face lies on more than n facets."""
    if fan.polytope is not None:
        return all(len(cone) <= fan.dimension for cone in fan.cones)
    return all(fan.cone_rank(cone) == len(cone) for cone in fan.cones)


def fan_is_valid(fan: Fan) -> bool:
    """Face closure plus the pairwise-intersection axiom.

    By the fan lemma (Ziegler, Lectures on Polytopes, Ch. 7) the axiom
    need only be checked on pairs of cones that are maximal in the face
    order, i.e. no proper face of another cone: proper faces have fewer
    rays and a face of a face is a face, so every cone is a face of such
    a cone.  Maximality by index sets would not do: with rays e1, (1,1),
    e2 and cones (0,1,2) and (1,), the cone (1,) is an index subset of
    (0,1,2) but not a face of it, and must be checked against it.

    A normal fan of a polytope is a fan by construction.  So is a
    face-closed collection with wall relations: its maximal cones pass
    complete_fan_certificate, so they are simplicial, every index subset
    of one is a face of it, and they are exactly the cones maximal in the
    face order.  Otherwise every pair of those is decided by
    cones_meet_in_common_face, on the duals cone_faces took."""
    if fan.polytope is not None:
        return True
    cone_set = set(fan.cones)
    # longest first: a simplicial cone's faces take their rank from it
    for cone in sorted(fan.cones, key=len, reverse=True):
        if not fan.cone_faces(cone) <= cone_set:
            return False
    if fan.wall_relations():
        return True
    proper = set().union(*(fan.cone_faces(c) - {c} for c in fan.cones))
    candidates = [c for c in fan.cones if c not in proper]
    for a, b in itertools.combinations(candidates, 2):
        if not cones_meet_in_common_face(fan.rays, a, b, fan._dual_cache):
            return False
    return True


def fan_is_complete(fan: Fan) -> bool:
    """Whether the support of a fan is all of R^n.

    Precondition: fan_is_valid(fan).  On a collection that is not a fan
    the test can answer True wrongly, e.g. for the three 2-cones on rays
    at 0, 27 and 63 degrees, which cover only a 63-degree sector.

    A normal fan of a polytope is complete by construction, and a fan
    with wall relations by complete_fan_certificate.  Any other fan is
    decided by walls_paired."""
    if fan.polytope is not None or fan.wall_relations():
        return True
    return walls_paired(fan)


def walls_paired(fan: Fan) -> bool:
    """Completeness of a fan by wall pairing (Ziegler, Lectures on
    Polytopes, Ch. 7), with the precondition of fan_is_complete: every
    maximal cone is full-dimensional and every wall of a maximal cone
    lies in exactly two maximal cones.  Two cones of a fan that meet
    in a wall lie on opposite sides of it, so the support has no boundary
    and is all of R^n.  The walls of a full-dimensional pointed cone are
    its inclusion-maximal proper faces.  A wall is keyed by its extreme
    rays, the rays i of the wall with (i,) a face of the cone, which name
    each geometric cone once even when a cone lists a ray inside one of
    its walls."""
    n = fan.dimension
    wall_owners = {}
    for cone in fan.maximal_cones():
        if len(cone) < n or fan.cone_rank(cone) != n:
            return False
        faces = fan.cone_faces(cone)
        proper = faces - {cone}
        for face in proper:
            if not any(set(face) < set(other) for other in proper):
                wall = frozenset(i for i in face if (i,) in faces)
                wall_owners[wall] = wall_owners.get(wall, 0) + 1
    return all(owners == 2 for owners in wall_owners.values())


def fan_predicates(fan: Fan) -> FanPredicates:
    """(valid, simplicial, complete); complete is decided only for a valid
    fan, the precondition of fan_is_complete, and is False otherwise."""
    valid = fan_is_valid(fan)
    simplicial = fan_is_simplicial(fan)
    complete = valid and fan_is_complete(fan)
    return FanPredicates(valid, simplicial, complete)


# ---------------------------------------------------------------------------
# polytopality
# ---------------------------------------------------------------------------

def is_polytopal(fan: Fan) -> Optional[tuple]:
    """Offsets making the fan a normal fan, or None.

    Feasibility of the wall-crossing strict-convexity system: for adjacent
    maximal cones s, t and the ray k of t not in s, the vertex of s must
    satisfy the k-th constraint strictly.  Its rows are the fan's wall
    relations, one per wall: c on the rays of s and -1 at k.  The row from
    t to s would be a positive multiple of it, since c_a < 0 at the apex a
    of s, and so adds nothing.  A found witness is verified by
    reconstructing the polytope and comparing normal fans."""
    preds = fan_predicates(fan)
    if not (preds.valid and preds.complete and preds.simplicial):
        raise InvalidFan(
            "polytopality requires a valid, complete, simplicial fan; got "
            f"valid={preds.valid} simplicial={preds.simplicial} "
            f"complete={preds.complete}")
    relations = fan.wall_relations()
    if not relations:
        raise InternalInvariantError("the fan failed its wall certificate")
    d, field = fan.ray_count, fan.field
    zero, minus_one = field.zero, -field.one
    rows = []
    for sigma, c, k in relations:
        f = dict(zip(sigma, c))
        f[k] = minus_one
        rows.append(tuple(f.get(j, zero) for j in range(d)))
    witness = strict_lp_feasible([(f, zero, ">") for f in rows], d, field)
    if witness is None:
        return None
    H = HalfspaceRep(fan.dimension, list(zip(fan.rays, witness)))
    rebuilt = normal_fan(H)
    if set(rebuilt.cones) != set(fan.cones):
        raise InternalInvariantError(
            "witness reconstruction changed the fan combinatorics")
    return witness


def fans_equivalent(f1: Fan, f2: Fan) -> bool:
    """Equality up to positive ray scaling and ray reordering.  Each ray
    of f1 is looked up among the rays of f2 on its line, whose keys are
    taken in the field of f1, and only those are tested for a positive
    factor: rays on one line are positive multiples iff their dot
    product is positive."""
    if f1.dimension != f2.dimension or f1.ray_count != f2.ray_count:
        return False
    lines = {}
    for j, s in enumerate(f2.rays):
        lines.setdefault(_line_key(f1.field, s), []).append(j)
    perm = []
    for r in f1.rays:
        matches = [j for j in lines.get(_line_key(f1.field, r), ())
                   if dot(r, f2.rays[j]).sign() > 0]
        if len(matches) != 1:
            return False
        perm.append(matches[0])
    if len(set(perm)) != len(perm):
        return False
    mapped = {tuple(sorted(perm[i] for i in cone)) for cone in f1.cones}
    return mapped == set(f2.cones)
