"""JSON document formats for polytopes, fans, quasilattices, triples, and
configurations.

Conventions: rationals serialize as integer text or "p/q" (read back
straight into integers; the reader also accepts any text Fraction
accepts); field elements as coefficient lists over the power basis,
written from their integer numerators; indices (facets, rays,
triangulation entries, ghosts) are 1-based in documents, matching the
printed notation of the examples, and 0-based in the API.  Triangulation
and fan documents may list only maximal simplices/cones; loading closes
them under faces.  Reports are written by dumps, which gives the bytes of
json.dumps(doc, indent=2) without the standard library's pure-Python
indenting encoder.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Optional

from .configuration import Triangulation, VectorConfiguration
from .errors import ParseError
from .fan import Fan
from .field import (
    FieldElement,
    RealAlgebraicField,
    format_rational,
)
from .polytope import HalfspaceRep
from .quasilattice import Quasilattice
from .triple import FundamentalTriple

RATIONAL_FIELD_DOC = {"minpoly": ["0", "1"], "interval": ["-1", "1"]}


def parse_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    return doc


def dumps(doc: dict) -> str:
    """json.dumps(doc, indent=2) + "\\n" for a tree of dicts, lists,
    tuples, strings, ints, booleans and None; any other value raises
    TypeError.  Before Python 3.13 indent sends json.dumps to its
    pure-Python encoder; this writer quotes strings with the C one and
    joins each list of only strings or only ints in one call."""
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


# the text of each item of a list whose items all have this exact class
_LEAF_TEXT = {str: encode_basestring_ascii, int: int.__repr__}


def _write(value, newline: str, out: list) -> None:
    """Append the JSON text of value, nested at the indentation that
    newline ends with."""
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        kind = value[0].__class__
        text = _LEAF_TEXT.get(kind)
        if text is not None:
            for item in value:
                if item.__class__ is not kind:
                    break
            else:
                out.append("[" + inner + separator.join(map(text, value))
                           + newline + "]")
                return
        out.append("[" + inner)
        _write(value[0], inner, out)
        for item in value[1:]:
            out.append(separator)
            _write(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if key.__class__ is not str:
                key = _key_text(key)
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        out.append(_scalar_text(value))


def _key_text(key) -> str:
    """A dict key as json.dumps writes it: int, bool and None keys become
    their JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, int):
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, bool or None, "
                    f"not {key.__class__.__name__}")


def _scalar_text(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable")


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{name} must be an object")
    return value


def _is_int(value) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---- field ----------------------------------------------------------------

def field_to_doc(field: RealAlgebraicField) -> dict:
    lo, hi = field.interval
    return {
        "minpoly": [format_rational(c) for c in field.minpoly],
        "interval": [format_rational(lo), format_rational(hi)],
    }


def field_from_doc(doc) -> RealAlgebraicField:
    if doc is None:
        return RealAlgebraicField(**RATIONAL_FIELD_DOC)
    if not isinstance(doc, dict) or "minpoly" not in doc \
            or "interval" not in doc:
        raise ParseError("field declaration needs minpoly and interval")
    if not isinstance(doc["minpoly"], list):
        raise ParseError("field minpoly must be a list of coefficients")
    interval = doc["interval"]
    if not isinstance(interval, list) or len(interval) != 2:
        raise ParseError("field interval must be a two-element list")
    return RealAlgebraicField(doc["minpoly"], (interval[0], interval[1]))


# ---- elements and vectors --------------------------------------------------

def element_to_doc(x: FieldElement) -> list:
    den = x.den
    if den == 1:
        return [str(n) for n in x.num]
    return [_ratio_text(n, den) for n in x.num]


def _ratio_text(n: int, den: int) -> str:
    """format_rational(Fraction(n, den)) for den > 0, without the
    Fraction."""
    g = gcd(n, den)
    if g == den:
        return str(n // g)
    return f"{n // g}/{den // g}"


def element_from_doc(field: RealAlgebraicField, doc) -> FieldElement:
    if isinstance(doc, list):
        return field.element(doc)
    raise ParseError(f"element must be a coefficient list, got {doc!r}")


def vector_to_doc(vec) -> list:
    return [element_to_doc(x) for x in vec]


def vector_from_doc(field, doc, dimension=None) -> tuple:
    if not isinstance(doc, list):
        raise ParseError("vector must be a list of elements")
    if dimension is not None and len(doc) != dimension:
        raise ParseError(f"vector has length {len(doc)}, "
                         f"expected {dimension}")
    return tuple(element_from_doc(field, e) for e in doc)


# ---- polytope ----------------------------------------------------------------

def polytope_to_doc(H: HalfspaceRep) -> dict:
    return {
        "field": field_to_doc(H.field),
        "n": H.dimension,
        "facets": [
            {"normal": vector_to_doc(n), "offset": element_to_doc(o)}
            for n, o in zip(H.normals, H.offsets)
        ],
    }


def polytope_from_doc(doc, field=None) -> HalfspaceRep:
    field = field if field is not None else field_from_doc(doc.get("field"))
    n = doc.get("n")
    facets_doc = doc.get("facets")
    if not _is_int(n) or not isinstance(facets_doc, list):
        raise ParseError("polytope document needs integer n and facets")
    facets = []
    for f in facets_doc:
        if not isinstance(f, dict) or "normal" not in f or "offset" not in f:
            raise ParseError("each facet needs a normal and an offset")
        facets.append((vector_from_doc(field, f["normal"], n),
                       element_from_doc(field, f["offset"])))
    return HalfspaceRep(n, facets)


# ---- fan -------------------------------------------------------------------

def fan_to_doc(fan: Fan) -> dict:
    return {
        "field": field_to_doc(fan.field),
        "n": fan.dimension,
        "rays": [vector_to_doc(r) for r in fan.rays],
        "cones": [[i + 1 for i in cone] for cone in fan.maximal_cones()],
    }


def fan_from_doc(doc, field=None) -> Fan:
    field = field if field is not None else field_from_doc(doc.get("field"))
    n = doc.get("n")
    rays_doc = doc.get("rays")
    cones_doc = doc.get("cones")
    if not _is_int(n) or not isinstance(rays_doc, list) \
            or not isinstance(cones_doc, list):
        raise ParseError("fan document needs integer n, rays, and cones")
    rays = [vector_from_doc(field, r, n) for r in rays_doc]
    cones = [_indices_from_doc(c, len(rays)) for c in cones_doc]
    return Fan(n, rays, cones).face_closure()


def _indices_from_doc(doc, count) -> tuple:
    if not isinstance(doc, list):
        raise ParseError("index set must be a list")
    out = []
    for i in doc:
        if not _is_int(i):
            raise ParseError(f"index {i!r} is not an integer")
        if not 1 <= i <= count:
            raise ParseError(f"index {i} out of range 1..{count}")
        out.append(i - 1)
    return tuple(out)


# ---- quasilattice ------------------------------------------------------------

def quasilattice_to_doc(ql: Quasilattice) -> dict:
    return {
        "field": field_to_doc(ql.field),
        "n": ql.dimension,
        "generators": [vector_to_doc(g) for g in ql.generators],
    }


def quasilattice_from_doc(doc, field=None) -> Quasilattice:
    field = field if field is not None else field_from_doc(doc.get("field"))
    gens_doc = doc.get("generators")
    if not isinstance(gens_doc, list) or not gens_doc:
        raise ParseError("quasilattice document needs generators")
    n = doc.get("n")
    if n is not None and not _is_int(n):
        raise ParseError("quasilattice dimension n must be an integer")
    return Quasilattice([vector_from_doc(field, g, n) for g in gens_doc])


# ---- fundamental triple -------------------------------------------------------

def triple_to_doc(triple: FundamentalTriple) -> dict:
    body = triple.body
    field = triple.quasilattice.field
    doc = {"field": field_to_doc(field),
           "n": triple.quasilattice.dimension}
    if isinstance(body, HalfspaceRep):
        body_doc = polytope_to_doc(body)
        del body_doc["field"]
        doc["polytope"] = body_doc
    else:
        body_doc = fan_to_doc(body)
        del body_doc["field"]
        doc["fan"] = body_doc
    doc["quasilattice"] = {
        "generators": [vector_to_doc(g)
                       for g in triple.quasilattice.generators]}
    doc["normals"] = [vector_to_doc(x) for x in triple.normals]
    return doc


def triple_from_doc(doc) -> FundamentalTriple:
    field = field_from_doc(doc.get("field"))
    n = doc.get("n")
    if n is not None and not _is_int(n):
        raise ParseError("triple dimension n must be an integer")
    if "polytope" in doc:
        body_doc = dict(_object(doc["polytope"], "triple polytope"))
        body_doc.setdefault("n", n)
        body = polytope_from_doc(body_doc, field)
    elif "fan" in doc:
        body_doc = dict(_object(doc["fan"], "triple fan"))
        body_doc.setdefault("n", n)
        body = fan_from_doc(body_doc, field)
    else:
        raise ParseError("triple document needs a polytope or a fan")
    if n is not None and n != body.dimension:
        raise ParseError(f"dimensions differ: triple {n}, "
                         f"body {body.dimension}")
    n = body.dimension
    ql_doc = doc.get("quasilattice")
    if not isinstance(ql_doc, dict):
        raise ParseError("triple document needs a quasilattice")
    ql = quasilattice_from_doc({"generators": ql_doc.get("generators"),
                                "n": n}, field)
    normals_doc = doc.get("normals")
    if not isinstance(normals_doc, list):
        raise ParseError("triple document needs normals")
    normals = [vector_from_doc(field, x, n) for x in normals_doc]
    return FundamentalTriple(body, ql, normals)


# ---- configuration -----------------------------------------------------------

def configuration_to_doc(config: VectorConfiguration,
                         triangulation: Optional[Triangulation]) -> dict:
    doc = {
        "field": field_to_doc(config.field),
        "n": config.dimension,
        "vectors": [vector_to_doc(v) for v in config.vectors],
    }
    if triangulation is not None:
        doc["triangulation"] = [[i + 1 for i in s]
                                for s in triangulation.maximal()]
    doc["ghosts"] = sorted(i + 1 for i in config.ghosts)
    return doc


def configuration_from_doc(doc):
    field = field_from_doc(doc.get("field"))
    n = doc.get("n")
    vectors_doc = doc.get("vectors")
    if not _is_int(n) or not isinstance(vectors_doc, list):
        raise ParseError("configuration document needs integer n and vectors")
    vectors = [vector_from_doc(field, v, n) for v in vectors_doc]
    ghosts_doc = doc.get("ghosts")
    ghosts = (_indices_from_doc(ghosts_doc, len(vectors))
              if ghosts_doc is not None else ())
    config = VectorConfiguration(n, vectors, ghosts)
    tri_doc = doc.get("triangulation")
    triangulation = None
    if tri_doc is not None:
        if not isinstance(tri_doc, list):
            raise ParseError("configuration triangulation must be a list "
                             "of index sets")
        simplices = [_indices_from_doc(s, len(vectors)) for s in tri_doc]
        triangulation = Triangulation(simplices)
    return config, triangulation


# ---- dispatch ---------------------------------------------------------------

def document_kind(doc: dict) -> str:
    if "facets" in doc:
        return "polytope"
    if "vectors" in doc and "triangulation" in doc:
        return "configuration"
    if "polytope" in doc or ("fan" in doc and isinstance(doc["fan"], dict)):
        return "triple"
    if "rays" in doc and "cones" in doc:
        return "fan"
    if "generators" in doc:
        return "quasilattice"
    if not doc:
        return "empty"
    raise ParseError("unrecognized document kind")
