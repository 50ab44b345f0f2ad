"""Exact convex-geometry toolkit for nonrational toric combinatorics.

Scalars live in real algebraic fields Q(alpha), so every predicate
(signs, memberships, fan axioms, LP feasibility) is decided exactly.
The pipeline: polytopes and fans over a quasilattice form fundamental
triples; triples are validated, classified vertex-by-vertex into chart
structure groups, and encoded into odd balanced triangulated vector
configurations with deterministic ghost vectors; configurations Gale-
dualize to point collections in complex affine space with a virtual
chamber.
"""

from .configuration import (
    AugmentedTriple,
    ConfigReport,
    Triangulation,
    VectorConfiguration,
    augment,
    config_validate,
    decode,
)
from .errors import InternalInvariantError, ToolkitError
from .fan import (
    Fan,
    FanPredicates,
    fan_is_complete,
    fan_is_simplicial,
    fan_is_valid,
    fan_predicates,
    fans_equivalent,
    is_polytopal,
    normal_fan,
)
from .field import FieldElement, RealAlgebraicField, rational_field
from .gale import GaleDualConfiguration, chamber_check, gale_dual
from .linalg import hnf, integer_kernel, integer_solve, snf
from .lp import strict_lp_feasible
from .polytope import (
    FaceLattice,
    HalfspaceRep,
    VertexRep,
    face_lattice,
    halfspaces_from_vertices,
    is_simple,
    vertices_from_halfspaces,
)
from .quasilattice import (
    Quasilattice,
    RayWitness,
    is_quasirational,
    ql_span,
    ray_generator,
)
from .render import RenderSpec, render_svg
from .triple import (
    ChartGroupReport,
    FundamentalTriple,
    TripleReport,
    chart_groups,
    triple_validate,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedTriple",
    "ChartGroupReport",
    "ConfigReport",
    "FaceLattice",
    "Fan",
    "FanPredicates",
    "FieldElement",
    "FundamentalTriple",
    "GaleDualConfiguration",
    "HalfspaceRep",
    "InternalInvariantError",
    "Quasilattice",
    "RayWitness",
    "RealAlgebraicField",
    "RenderSpec",
    "ToolkitError",
    "Triangulation",
    "TripleReport",
    "VectorConfiguration",
    "VertexRep",
    "augment",
    "chamber_check",
    "chart_groups",
    "config_validate",
    "decode",
    "face_lattice",
    "fan_is_complete",
    "fan_is_simplicial",
    "fan_is_valid",
    "fan_predicates",
    "fans_equivalent",
    "gale_dual",
    "halfspaces_from_vertices",
    "hnf",
    "integer_kernel",
    "integer_solve",
    "is_polytopal",
    "is_quasirational",
    "is_simple",
    "normal_fan",
    "ql_span",
    "rational_field",
    "ray_generator",
    "render_svg",
    "snf",
    "strict_lp_feasible",
    "triple_validate",
    "vertices_from_halfspaces",
]
