"""Exception taxonomy shared by all modules.

Every domain failure raises a subclass of ToolkitError so the CLI can map
it to a single diagnostic line and a nonzero exit status.
"""


class ToolkitError(Exception):
    """Base class for all domain errors."""


class InternalInvariantError(Exception):
    """An internal invariant failed: a bug in the toolkit, never a verdict
    on the input.  Not a ToolkitError, which callers may catch as a domain
    verdict, and not an AssertionError, so it is raised under python -O."""


# ---- real algebraic fields ----

class NotSquarefree(ToolkitError):
    """Minimal polynomial shares a factor with its derivative."""


class NoRootInInterval(ToolkitError):
    """No sign change of the minimal polynomial over the given interval."""


class MultipleRootsInInterval(ToolkitError):
    """More than one real root meets the given interval."""


class DivisionByZero(ToolkitError):
    """Inverse of the zero element requested."""


class MixedFields(ToolkitError):
    """Operands belong to different field handles."""


class NotInvertible(ToolkitError):
    """Nonzero element with no inverse: the modulus is reducible."""


# ---- linear algebra / LP ----

class VariableBudgetExceeded(ToolkitError):
    """Feasibility instance keeps more than 16 free variables after its
    equalities are eliminated (the desk-scale guard)."""


# ---- polytopes and fans ----

class InvalidPolytope(ToolkitError):
    """Facet data violates halfspace construction rules."""


class UnboundedPolytope(ToolkitError):
    """Halfspace intersection admits a recession direction."""


class DegenerateDimension(ToolkitError):
    """Halfspace intersection is not full-dimensional."""


class DimensionTooHigh(ToolkitError):
    """Operation only implemented in low ambient dimension: rendering,
    which draws planar bodies only."""


class NotFullDimensional(ToolkitError):
    """Point set does not span the ambient space."""


class RedundantFacet(ToolkitError):
    """Normal fan construction requires an irredundant halfspace list."""


class InvalidFan(ToolkitError):
    """Ray or cone data violates fan construction rules."""


# ---- quasilattices and triples ----

class NotSpanning(ToolkitError):
    """Generators do not span the ambient space over R."""


class NormalNotInQuasilattice(ToolkitError):
    """A declared normal is not a member of the quasilattice."""


class NormalWrongDirection(ToolkitError):
    """A declared normal is not a positive multiple of its facet normal."""


class CountMismatch(ToolkitError):
    """Number of normals differs from the facet/ray count."""


class SingularVertexFrame(ToolkitError):
    """Active normals at a vertex do not form an invertible frame."""


# ---- configurations ----

class FanNotComplete(ToolkitError):
    """Augmentation requires a complete fan."""


class FanNotSimplicial(ToolkitError):
    """Augmentation requires a simplicial fan."""


class NotBalanced(ToolkitError):
    """Configuration vectors do not sum to zero."""


class NotOdd(ToolkitError):
    """Configuration does not satisfy p - n = 2m + 1."""


class InvalidConfiguration(ToolkitError):
    """Vector/triangulation data violates construction rules."""


# ---- documents / CLI ----

class ParseError(ToolkitError):
    """Document is not valid JSON or violates its schema."""


class FieldMismatch(ToolkitError):
    """Two documents declare different scalar fields."""


class OutputError(ToolkitError):
    """An output file or directory cannot be written."""
