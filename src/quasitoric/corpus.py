"""Built-in example corpus: the worked examples that ship with the toolkit.

All pentagon-family coordinates live in the degree-4 field Q(s) with
s = sin(2*pi/5), minimal polynomial x^4 - 5/4 x^2 + 5/16 (isolated in
[9/10, 1]).  That field contains sqrt(5) = 8 s^2 - 5 and therefore both
cos(2*pi/5) = 2 s^2 - 3/2 and sin(4*pi/5) = 4 s^3 - 3 s, so one primitive
element covers all fifth-root-of-unity data.  The trapezoid family is
parametrized by a > 0, rational or sqrt(2).

Offsets for the pentagon, kite, and rhombi are all -1 (tangent to the
unit circle); the constructions fix only the normal directions, and any
offset choice yields the same normal fan.
"""

from __future__ import annotations

from fractions import Fraction

from . import documents as docs
from .configuration import Triangulation, VectorConfiguration
from .errors import ParseError
from .fan import Fan
from .field import RealAlgebraicField, parse_rational, rational_field
from .polytope import HalfspaceRep
from .quasilattice import Quasilattice
from .triple import FundamentalTriple

PENTAGON_FIELD_MINPOLY = ("5/16", "0", "-5/4", "0", "1")
PENTAGON_FIELD_INTERVAL = ("9/10", "1")

SQRT2_MINPOLY = ("-2", "0", "1")
SQRT2_INTERVAL = ("1", "2")


def pentagon_field() -> RealAlgebraicField:
    return RealAlgebraicField(PENTAGON_FIELD_MINPOLY,
                              PENTAGON_FIELD_INTERVAL)


def sqrt2_field() -> RealAlgebraicField:
    return RealAlgebraicField(SQRT2_MINPOLY, SQRT2_INTERVAL)


def fifth_roots_of_unity(field: RealAlgebraicField):
    """Y_0 .. Y_4 = (cos(2 pi j / 5), sin(2 pi j / 5)) in Q(s)."""
    s = field.alpha
    cos1 = 2 * s * s - Fraction(3, 2)          # cos 72
    sin1 = s                                   # sin 72
    cos2 = -2 * s * s + 1                      # cos 144
    sin2 = 4 * s * s * s - 3 * s               # sin 144
    return (
        (field.one, field.zero),
        (cos1, sin1),
        (cos2, sin2),
        (cos2, -sin2),
        (cos1, -sin1),
    )


def hirzebruch_parameter(field: RealAlgebraicField, text: str):
    """The parameter a > 0 as an element: "p/q" text or "sqrt2"."""
    if text == "sqrt2":
        if field.degree != 2:
            raise ParseError("sqrt2 parameter needs the x^2 - 2 field")
        return field.alpha
    value = parse_rational(text)
    if value <= 0:
        raise ParseError("the trapezoid parameter must be positive")
    return field.element(value)


def field_for_parameter(text: str) -> RealAlgebraicField:
    return sqrt2_field() if text == "sqrt2" else rational_field()


# ---------------------------------------------------------------------------
# raw geometric data (documents are assembled in documents.py)
# ---------------------------------------------------------------------------

def unit_interval_facets(field):
    one = field.one
    return [((one,), field.zero), ((-one,), -one)]


def orbifold_interval_facets(field):
    """Same interval, nonprimitive first normal (2 instead of 1)."""
    one = field.one
    two = field.element(2)
    return [((two,), field.zero), ((-one,), -one)]


def unit_square_facets(field):
    one, zero = field.one, field.zero
    return [((one, zero), zero), ((zero, one), zero),
            ((-one, zero), -one), ((zero, -one), -one)]


def pentagon_facets(field):
    """Inward normals -Y_0 .. -Y_4, apothem 1."""
    Y = fifth_roots_of_unity(field)
    minus_one = -field.one
    return [(tuple(-c for c in y), minus_one) for y in Y]


def kite_facets(field):
    """Inward normals -Y_1, Y_2, -Y_3, Y_4 with offsets -1."""
    Y = fifth_roots_of_unity(field)
    minus_one = -field.one
    normals = [tuple(-c for c in Y[1]), Y[2], tuple(-c for c in Y[3]), Y[4]]
    return [(n, minus_one) for n in normals]


def thick_rhombus_facets(field):
    """Inward normals Y_0, Y_4, -Y_0, -Y_4 with offsets -1."""
    Y = fifth_roots_of_unity(field)
    minus_one = -field.one
    normals = [Y[0], Y[4], tuple(-c for c in Y[0]), tuple(-c for c in Y[4])]
    return [(n, minus_one) for n in normals]


def thin_rhombus_facets(field):
    """Inward normals Y_1, Y_4, -Y_1, -Y_4 with offsets -1."""
    Y = fifth_roots_of_unity(field)
    minus_one = -field.one
    normals = [Y[1], Y[4], tuple(-c for c in Y[1]), tuple(-c for c in Y[4])]
    return [(n, minus_one) for n in normals]


def trapezoid_facets(field, a):
    """Normals (1,0), (0,1), (0,-1), (-1,a); offsets 0, 0, -1, -1."""
    one, zero = field.one, field.zero
    return [((one, zero), zero),
            ((zero, one), zero),
            ((zero, -one), -one),
            ((-one, a), -one)]


def trapezoid_quasilattice_generators(field, a):
    """(1,0), (0,1), (0,a) generate Z x (Z + aZ)."""
    one, zero = field.one, field.zero
    return [(one, zero), (zero, one), (zero, a)]


def pentagon_quasilattice_generators(field):
    return list(fifth_roots_of_unity(field))


def interval_za_generators(field, a):
    return [(field.one,), (a,)]


def kite_configuration_data(field):
    """V = (-Y1, Y2, -Y3, Y4, Y0) with the kite fan's triangulation and
    Y0 as the single ghost; the vectors are kept exactly as printed, so
    validation reports the exact (nonzero) sum instead of repairing it."""
    Y = fifth_roots_of_unity(field)
    vectors = (tuple(-c for c in Y[1]), Y[2], tuple(-c for c in Y[3]),
               Y[4], Y[0])
    maximal = ((0, 3), (3, 2), (2, 1), (1, 0))
    ghosts = (4,)
    return vectors, maximal, ghosts


def thick_rhombus_configuration_data(field):
    """V = (Y0, Y4, -Y0, -Y4, Y1, Y2, Y3+Y4+Y0), kite triangulation,
    ghosts at the last three indices."""
    Y = fifth_roots_of_unity(field)
    extra = tuple(Y[3][i] + Y[4][i] + Y[0][i] for i in range(2))
    vectors = (Y[0], Y[4], tuple(-c for c in Y[0]),
               tuple(-c for c in Y[4]), Y[1], Y[2], extra)
    maximal = ((0, 3), (3, 2), (2, 1), (1, 0))
    ghosts = (4, 5, 6)
    return vectors, maximal, ghosts


def hirzebruch_configuration_data(field, a):
    """V_a = ((1,0), (0,1), (0,-1), (-1,a), (0,-a)) with the trapezoid
    fan's triangulation and (0,-a) as the ghost."""
    one, zero = field.one, field.zero
    vectors = ((one, zero), (zero, one), (zero, -one), (-one, a),
               (zero, -a))
    maximal = ((0, 1), (1, 3), (2, 3), (0, 2))
    ghosts = (4,)
    return vectors, maximal, ghosts


def twisted_cube_fan_data(field):
    """A complete simplicial non-polytopal fan: rays at the eight cube
    vertices, each square face split by a diagonal so that opposite faces
    carry non-parallel diagonals (a pinwheel pattern).  No offset vector
    makes the support function strictly convex across every wall.

    Returns the rays and the 12 maximal cones, which generate the fan:
    Fan closes them under faces."""
    signs = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
             (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)]
    rays = [tuple(field.element(s) for s in triple) for triple in signs]
    maximal = [
        (0, 1, 3), (0, 2, 3),   # x = +1 face, diagonal 0-3
        (4, 5, 6), (5, 6, 7),   # x = -1 face, diagonal 5-6
        (0, 1, 4), (1, 4, 5),   # y = +1 face, diagonal 1-4
        (2, 3, 7), (2, 6, 7),   # y = -1 face, diagonal 2-7
        (0, 2, 4), (2, 4, 6),   # z = +1 face, diagonal 2-4
        (1, 3, 7), (1, 5, 7),   # z = -1 face, diagonal 1-7
    ]
    return rays, maximal


# ---------------------------------------------------------------------------
# full entries as document sets
# ---------------------------------------------------------------------------

ENTRY_NAMES = (
    "interval",
    "interval-za",
    "orbifold-interval",
    "square",
    "pentagon",
    "kite",
    "thick-rhombus",
    "thin-rhombus",
    "hirzebruch",
    "twisted-cube",
)


_PENTAGON_FAMILY = {
    # name: (facets, configuration data or None), over pentagon_field()
    "pentagon": (pentagon_facets, None),
    "kite": (kite_facets, kite_configuration_data),
    "thick-rhombus": (thick_rhombus_facets,
                      thick_rhombus_configuration_data),
    "thin-rhombus": (thin_rhombus_facets, None),
}


def corpus_entry(name: str, a_text: str = "sqrt2") -> dict:
    """Documents for a named entry, keyed by file name.

    The parameter a only applies to the parametric families and accepts
    "p/q" text or "sqrt2".  Each polytope entry names its field, facets,
    quasilattice generators and configuration data, if any; the
    documents are written in one tail after HalfspaceRep, the only step
    that asks signs, so that every document writes the same isolating
    interval of the field."""
    if name == "twisted-cube":
        rays, cones = twisted_cube_fan_data(rational_field())
        return {"fan.json": docs.fan_to_doc(Fan(3, rays, cones))}
    config = None
    if name in ("interval", "orbifold-interval"):
        field = rational_field()
        facets = (unit_interval_facets if name == "interval"
                  else orbifold_interval_facets)(field)
        n, generators = 1, [(field.one,)]
    elif name == "interval-za":
        field = field_for_parameter(a_text)
        a = hirzebruch_parameter(field, a_text)
        n, facets = 1, unit_interval_facets(field)
        generators = interval_za_generators(field, a)
    elif name == "square":
        field = rational_field()
        n, facets = 2, unit_square_facets(field)
        generators = [(field.one, field.zero), (field.zero, field.one)]
    elif name in _PENTAGON_FAMILY:
        field = pentagon_field()
        facets_of, config_of = _PENTAGON_FAMILY[name]
        n, facets = 2, facets_of(field)
        generators = pentagon_quasilattice_generators(field)
        config = config_of and config_of(field)
    elif name == "hirzebruch":
        field = field_for_parameter(a_text)
        a = hirzebruch_parameter(field, a_text)
        n, facets = 2, trapezoid_facets(field, a)
        generators = trapezoid_quasilattice_generators(field, a)
        config = hirzebruch_configuration_data(field, a)
    else:
        raise ParseError(f"unknown corpus entry {name!r}; "
                         f"choose one of {', '.join(ENTRY_NAMES)}")
    H = HalfspaceRep(n, facets)
    ql = Quasilattice(generators)
    triple = FundamentalTriple(H, ql, H.normals)
    out = {
        "polytope.json": docs.polytope_to_doc(H),
        "quasilattice.json": docs.quasilattice_to_doc(ql),
        "triple.json": docs.triple_to_doc(triple),
    }
    if config is not None:
        vectors, maximal, ghosts = config
        out["configuration.json"] = docs.configuration_to_doc(
            VectorConfiguration(n, vectors, ghosts), Triangulation(maximal))
    return out
