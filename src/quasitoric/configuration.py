"""Odd balanced triangulated vector configurations.

A configuration is an ordered vector list (repetitions allowed) with a
set of ghost indices; a triangulation is a subset-closed family of
simplices over the vector indices.  Documents may list only maximal
simplices; the constructor closes under faces by the rule a fan's cones
follow (fan.close_under_faces).  Validation reports every axiom exactly
and never repairs the input: in particular the vector sum is computed
and reported verbatim, so a configuration printed with unit-length
conventions that fails to balance stays unbalanced here.

Augmentation is the deterministic encoding of a fan triple: ray
generators first, then any quasilattice generators missing from their
Z-span, then a parity-dependent ghost batch restoring balance and odd
defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import (
    FanNotComplete,
    FanNotSimplicial,
    InternalInvariantError,
    InvalidConfiguration,
    ToolkitError,
)
from .fan import (
    Fan,
    close_under_faces,
    complete_fan_certificate,
    cone_dual,
    cones_meet_in_common_face,
    fan_is_complete,
    fan_is_simplicial,
    in_cone,
    walls_paired,
)
from .linalg import mat_rank
from .quasilattice import Quasilattice, integral_memberships
from .triple import FundamentalTriple


class Triangulation:
    """Subset-closed family of simplices (index tuples), given by the
    simplices it is generated from.

    A simplex that repeats an index is rejected.  Construction closes
    the given simplices under faces, every index subset, with
    fan.close_under_faces, which gives the maximal simplices of the
    closure in the same pass: those of the given simplices that are no
    subset of another, in sorted order."""

    def __init__(self, simplices):
        given = {tuple(sorted(simplex)) for simplex in simplices} | {()}
        for s in sorted(given):
            if len(set(s)) != len(s):
                raise InvalidConfiguration(
                    f"simplex {s} repeats a vector index")
        closed, self._maximal = close_under_faces(given, lambda s: {
            face for r in range(len(s) + 1) for face in combinations(s, r)})
        self.simplices = frozenset(closed)

    def maximal(self):
        return self._maximal

    def indexed(self):
        """All vector indices appearing in some simplex."""
        return sorted({i for s in self.simplices for i in s})

    def __eq__(self, other):
        if not isinstance(other, Triangulation):
            return NotImplemented
        return self.simplices == other.simplices

    def __hash__(self):
        return hash(self.simplices)


def _column_sum(vectors, n, zero):
    """The sum of the given n-vectors, coordinate by coordinate."""
    return tuple(sum((v[i] for v in vectors), zero) for i in range(n))


class VectorConfiguration:
    """Ordered vectors with ghost indices (0-based internally)."""

    def __init__(self, dimension: int, vectors, ghosts=()):
        vectors = tuple(tuple(v) for v in vectors)
        if dimension < 1:
            raise InvalidConfiguration("dimension must be >= 1")
        if len(vectors) < dimension:
            raise InvalidConfiguration(
                "fewer vectors than the ambient dimension")
        for v in vectors:
            if len(v) != dimension:
                raise InvalidConfiguration(
                    "vector length disagrees with dimension")
        ghosts = frozenset(int(g) for g in ghosts)
        if ghosts and (min(ghosts) < 0 or max(ghosts) >= len(vectors)):
            raise InvalidConfiguration("ghost index out of range")
        self.dimension = dimension
        self.vectors = vectors
        self.ghosts = ghosts
        self.field = vectors[0][0].field

    @property
    def count(self) -> int:
        return len(self.vectors)

    def vector_sum(self):
        return _column_sum(self.vectors, self.dimension, self.field.zero)


@dataclass(frozen=True)
class ConfigReport:
    p: int
    n: int
    vector_sum: tuple
    balanced: bool
    odd: bool
    m: Optional[int]
    spanning: bool
    simplex_independence: bool
    cone_compatibility: Optional[bool]
    covering: Optional[bool]
    ghosts_disjoint: bool
    complete: Optional[bool]
    completeness_matches_spanning: Optional[bool]

    def axioms_pass(self) -> bool:
        return (self.simplex_independence
                and self.cone_compatibility is not False
                and self.covering is not False
                and self.ghosts_disjoint)


def config_validate(config: VectorConfiguration,
                    triangulation: Triangulation) -> ConfigReport:
    """Exact report on the triangulation axioms, balance, parity,
    spanning, and the completeness/spanning equivalence.  Completeness is
    decided only when the simplices are independent and compatible, that
    is when they form a fan; otherwise it reads None.

    When the maximal simplices pass complete_fan_certificate they form a
    complete fan, which covers every vector, so compatibility, covering
    and completeness are all true without a Fan.  Otherwise the dual of
    each maximal simplex is taken once (cone_dual): compatibility is
    decided pairwise by cones_meet_in_common_face, covering by membership
    of each vector in the duals, as needed, and completeness of a
    compatible triangulation by walls_paired, since the certificate has
    already refused it."""
    n = config.dimension
    p = config.count
    vectors = config.vectors
    total = config.vector_sum()
    balanced = all(x.is_zero() for x in total)
    defect = p - n
    odd = defect > 0 and defect % 2 == 1
    m = (defect - 1) // 2 if odd else None
    spanning = mat_rank([list(row) for row in zip(*vectors)]) == n

    maximal = triangulation.maximal()
    # a subset of independent vectors is independent
    independence = all(
        not s or mat_rank([list(vectors[i]) for i in s]) == len(s)
        for s in maximal)
    indexed = set(triangulation.indexed())
    ghosts_disjoint = not (config.ghosts & indexed)

    compatibility = covering = complete = None
    if independence:
        # fan lemma: simplices are simplicial, so their faces are their
        # subsets and compatibility need only hold for maximal pairs
        if complete_fan_certificate(vectors, maximal, n):
            compatibility = covering = complete = True
        else:
            duals = {}
            compatibility = all(
                cones_meet_in_common_face(vectors, a, b, duals)
                for a, b in combinations(maximal, 2))
            covering = all(
                any(i in s or in_cone(cone_dual(vectors, s, duals),
                                      vectors[i])
                    for s in maximal)
                for i in range(p))
            if compatibility:
                try:
                    complete = walls_paired(
                        _fan_from(config, triangulation))
                except ToolkitError:
                    complete = None
    equivalence = None
    if balanced and complete is not None:
        equivalence = (complete == spanning)

    return ConfigReport(p, n, total, balanced, odd, m, spanning,
                        independence, compatibility, covering,
                        ghosts_disjoint, complete, equivalence)


def _fan_from(config: VectorConfiguration,
              triangulation: Triangulation) -> Fan:
    indexed = triangulation.indexed()
    position = {i: k for k, i in enumerate(indexed)}
    rays = [config.vectors[i] for i in indexed]
    cones = [tuple(position[i] for i in s) for s in triangulation.maximal()]
    return Fan(config.dimension, rays, cones)


def decode(config: VectorConfiguration,
           triangulation: Triangulation) -> FundamentalTriple:
    """The fan of the triangulation with the indexed vectors as ray
    generators, together with the quasilattice spanned by all of V."""
    report = config_validate(config, triangulation)
    failures = [name for name, value in (
        ("simplex_independence", report.simplex_independence),
        ("cone_compatibility", report.cone_compatibility),
        ("covering", report.covering),
        ("ghosts_disjoint", report.ghosts_disjoint),
    ) if value is False]
    if failures:
        raise InvalidConfiguration("validation failed: "
                                   + ", ".join(failures))
    fan = _fan_from(config, triangulation)
    quasilattice = Quasilattice(config.vectors)
    rays = tuple(config.vectors[i] for i in triangulation.indexed())
    return FundamentalTriple(fan, quasilattice, rays)


@dataclass(frozen=True)
class AugmentedTriple:
    """Configuration plus triangulation; the calibration is the index ->
    vector map (the vector list itself) together with the ghost set."""
    configuration: VectorConfiguration
    triangulation: Triangulation
    quasilattice: Quasilattice

    @property
    def ghost_indices(self):
        return self.configuration.ghosts


def _missing_generators(vectors, generators) -> list:
    """The generators, in order, that are not in the Z-span of the vectors
    and the generators taken before them.  The span grows only when a
    generator is taken, so one Hermite form of the running vectors
    answers every later generator until then."""
    span = list(vectors)
    missing = []
    rest = tuple(generators)
    while rest:
        found = integral_memberships(span, rest)
        if None not in found:
            break
        j = found.index(None)
        g = tuple(rest[j])
        span.append(g)
        missing.append(g)
        rest = rest[j + 1:]
    return missing


def augment(triple: FundamentalTriple) -> AugmentedTriple:
    """Deterministic ghost augmentation of a complete simplicial fan
    triple: (1) ray generators in fan order, (2) quasilattice generators
    not in the running Z-span, in generator order, (3) a parity batch
    making the configuration balanced and odd.  The triple's fan is
    valid (FundamentalTriple), the precondition of fan_is_complete."""
    body = triple.body
    if not isinstance(body, Fan):
        raise InvalidConfiguration("augment needs a triple over a fan")
    if not fan_is_simplicial(body):
        raise FanNotSimplicial("augmentation requires a simplicial fan")
    if not fan_is_complete(body):
        raise FanNotComplete("augmentation requires a complete fan")
    field = body.field
    n = body.dimension
    ql = triple.quasilattice
    vectors = [tuple(v) for v in triple.normals]
    missing = _missing_generators(vectors, ql.generators)
    ghosts = list(range(len(vectors), len(vectors) + len(missing)))
    vectors += missing

    def append_ghost(v):
        if all(x.is_zero() for x in v):
            raise InternalInvariantError("ghost must be nonzero")
        if ql.contains(v) is None:
            raise InternalInvariantError("ghost must lie in Q")
        ghosts.append(len(vectors))
        vectors.append(tuple(v))

    S = _column_sum(vectors, n, field.zero)
    sum_zero = all(x.is_zero() for x in S)
    defect_even = (len(vectors) - n) % 2 == 0
    minus_S = tuple(-x for x in S)
    if not sum_zero and defect_even:
        append_ghost(minus_S)
    elif not sum_zero and not defect_even:
        choice = None
        for g in ql.generators:
            if all(x.is_zero() for x in g):
                continue
            rest = tuple(a - b for a, b in zip(minus_S, g))
            if not all(x.is_zero() for x in rest):
                choice = (g, rest)
                break
        if choice is None:
            g = ql.generators[0]
            doubled = tuple(x + x for x in g)
            choice = (doubled,
                      tuple(a - b for a, b in zip(minus_S, doubled)))
        append_ghost(choice[0])
        append_ghost(choice[1])
    elif sum_zero and defect_even:
        g = ql.generators[0]
        append_ghost(g)
        append_ghost(g)
        append_ghost(tuple(-(x + x) for x in g))

    config = VectorConfiguration(n, vectors, ghosts)
    triangulation = Triangulation(body.cones)
    final = config.vector_sum()
    if not all(x.is_zero() for x in final):
        raise InternalInvariantError("augmented sum must vanish")
    if (config.count - n) % 2 != 1:
        raise InternalInvariantError("augmented defect must be odd")
    if None in integral_memberships(config.vectors, ql.generators):
        raise InternalInvariantError("vectors must Z-span Q")
    if None in ql.memberships(config.vectors):
        raise InternalInvariantError("every vector must lie in Q")
    return AugmentedTriple(config, triangulation, ql)
