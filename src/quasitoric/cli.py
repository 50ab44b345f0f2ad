"""Command-line front end.

Every command reads UTF-8 JSON documents, prints one machine-readable
JSON report to standard output, and exits 0; any domain error prints a
single `ErrorClass: message` line to standard error and exits 1 (usage
errors exit 2, as usual for argparse).  A failed internal invariant, a bug
rather than a verdict on the input, prints one
`InternalInvariantError: message` line and exits 3.  Indices in reports
are 1-based, matching the document convention.  When a file argument does
not exist and QUASITORIC_CORPUS is set, the path is retried below that
directory.  The argument parser is built once per process, on first use.
A file that cannot be read is a ParseError, and an output that cannot
be written an OutputError.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import documents as docs
from .configuration import augment, config_validate
from .corpus import ENTRY_NAMES, corpus_entry
from .errors import (
    FieldMismatch,
    InternalInvariantError,
    OutputError,
    ParseError,
    ToolkitError,
)
from .fan import fan_predicates, is_polytopal, normal_fan, redundant_facets_lp
from .field import parse_rational
from .gale import chamber_check, gale_dual
from .polytope import (
    HalfspaceRep,
    face_lattice,
    is_simple,
    vertices_from_halfspaces,
)
from .quasilattice import body_rays, ray_generator
from .render import RenderSpec, render_svg
from .triple import FundamentalTriple, chart_groups, triple_validate

CORPUS_ENV = "QUASITORIC_CORPUS"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except ToolkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"InternalInvariantError: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("MemoryError: out of memory", file=sys.stderr)
        return 1
    sys.stdout.write(docs.dumps(report))
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quasitoric",
        description="Exact toolkit for polytopes, fans, quasilattices, "
                    "vector configurations, and Gale duals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze",
                       help="polytope pipeline: vertices, faces, "
                            "simplicity, normal fan, fan predicates")
    p.add_argument("file")
    p.add_argument("--all", action="store_true",
                   help="treat FILE as a directory of polytope documents")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("check-triple", help="validate a fundamental triple")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check_triple)

    p = sub.add_parser("quasirational",
                       help="ray-by-ray quasirationality of a polytope "
                            "or fan against a quasilattice")
    p.add_argument("file")
    p.add_argument("--ql", required=True, metavar="QLFILE")
    p.set_defaults(handler=_cmd_quasirational)

    p = sub.add_parser("charts",
                       help="chart structure groups of a triple")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_charts)

    p = sub.add_parser("augment",
                       help="deterministic ghost augmentation of a triple")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_augment)

    p = sub.add_parser("gale",
                       help="Gale dual and virtual chamber of a "
                            "configuration")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_gale)

    p = sub.add_parser("validate-config",
                       help="exact report on a triangulated configuration")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate_config)

    p = sub.add_parser("polytopal",
                       help="offsets realizing a fan as a normal fan")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_polytopal)

    p = sub.add_parser("render", help="render a 2-d document to SVG")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--viewport", metavar="XMIN,YMIN,XMAX,YMAX")
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--stroke-width", default="1/50")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("examples",
                       help="write a corpus entry to a directory")
    p.add_argument("name", choices=ENTRY_NAMES)
    p.add_argument("--a", default="sqrt2",
                   help='family parameter: "p/q" or "sqrt2"')
    p.add_argument("--dir", default=None)
    p.set_defaults(handler=_cmd_examples)
    return parser


# ---------------------------------------------------------------------------
# document loading
# ---------------------------------------------------------------------------

def _resolve(path: str) -> Path:
    candidate = Path(path)
    if candidate.exists():
        return candidate
    base = os.environ.get(CORPUS_ENV)
    if base:
        fallback = Path(base) / path
        if fallback.exists():
            return fallback
    raise ParseError(f"file not found: {path}")


def _load(path) -> dict:
    """The document in the file at path; unreadable input is a
    ParseError, like malformed input."""
    path = _resolve(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    return docs.parse_json(text)


@contextlib.contextmanager
def _writing(path: Path):
    """Turns a failure to create or write path into an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None


def _indices(items) -> list:
    return [i + 1 for i in sorted(items)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_analyze(args):
    if args.all:
        directory = _resolve(args.file)
        if not directory.is_dir():
            raise ParseError(f"--all needs a directory: {args.file}")
        reports = []
        for name in sorted(directory.glob("*.json")):
            doc = _load(name)
            if docs.document_kind(doc) != "polytope":
                continue
            reports.append({"file": name.name,
                            **_analyze_one(docs.polytope_from_doc(doc))})
        return {"command": "analyze", "reports": reports}
    doc = _load(args.file)
    return {"command": "analyze",
            **_analyze_one(docs.polytope_from_doc(doc))}


def _analyze_one(H: HalfspaceRep) -> dict:
    V = vertices_from_halfspaces(H)
    counts = {}
    for _, dim in face_lattice(H, V).faces:
        counts[str(dim)] = counts.get(str(dim), 0) + 1
    fan = normal_fan(H)
    preds = fan_predicates(fan)
    return {
        "n": H.dimension,
        "facet_count": H.facet_count,
        "vertices": [docs.vector_to_doc(v) for v in V.vertices],
        "vertex_active_facets": [_indices(a) for a in V.active],
        # normal_fan below raises RedundantFacet on any redundant facet
        "redundant_facets": [],
        "face_counts": counts,
        "is_simple": is_simple(H, V),
        "normal_fan": {
            "rays": [docs.vector_to_doc(r) for r in fan.rays],
            "maximal_cones": [_indices(c) for c in fan.maximal_cones()],
        },
        "fan_predicates": {"valid": preds.valid,
                           "simplicial": preds.simplicial,
                           "complete": preds.complete},
    }


def _cmd_check_triple(args):
    triple = docs.triple_from_doc(_load(args.file))
    report = triple_validate(triple)
    return {
        "command": "check-triple",
        # FundamentalTriple and triple_validate raise on an invalid triple
        "valid": True,
        "simple": report.simple,
        "warning": report.warning,
        "normal_coefficients": [list(c)
                                for c in report.normal_coefficients],
        "normals_span_quasilattice": report.normals_span_quasilattice,
    }


def _cmd_quasirational(args):
    body_doc = _load(args.file)
    ql_doc = _load(args.ql)
    body_field = docs.field_from_doc(body_doc.get("field"))
    ql_field = docs.field_from_doc(ql_doc.get("field"))
    if not body_field.same_field(ql_field):
        raise FieldMismatch(
            "body and quasilattice declare different fields")
    kind = docs.document_kind(body_doc)
    if kind == "polytope":
        body = docs.polytope_from_doc(body_doc, body_field)
    elif kind == "fan":
        body = docs.fan_from_doc(body_doc, body_field)
    else:
        raise ParseError("quasirational needs a polytope or fan document")
    rays = body_rays(body)
    ql = docs.quasilattice_from_doc(ql_doc, body_field)
    if body.dimension != ql.dimension:
        raise ParseError(f"dimensions differ: body {body.dimension}, "
                         f"quasilattice {ql.dimension}")
    ray_reports = []
    overall = True
    for j, ray in enumerate(rays):
        witness = ray_generator(ql, ray)
        ok = witness is not None
        overall = overall and ok
        ray_reports.append({
            "ray": j + 1,
            "in_quasilattice": ok,
            "witness": docs.vector_to_doc(witness.vector) if ok else None,
            "coefficients": list(witness.coefficients) if ok else None,
            # the witness is the first row of the canonical HNF basis; no
            # canonical choice exists
            "non_canonical": True if ok else None,
        })
    return {"command": "quasirational", "quasirational": overall,
            "rays": ray_reports}


def _cmd_charts(args):
    triple = docs.triple_from_doc(_load(args.file))
    reports = chart_groups(triple)
    return {
        "command": "charts",
        "quasilattice_is_lattice": triple.quasilattice.is_lattice(),
        "charts": [
            {
                "vertex": (docs.vector_to_doc(r.vertex)
                           if r.vertex and not isinstance(r.vertex[0], int)
                           else _indices(r.vertex)),
                "classification": r.classification,
                "order": r.order,
                "images": [docs.vector_to_doc(img) for img in r.images],
            }
            for r in reports
        ],
    }


def _cmd_augment(args):
    triple = docs.triple_from_doc(_load(args.file))
    if isinstance(triple.body, HalfspaceRep):
        # pass through the normal fan, keeping the declared normals.  The
        # redundancy LP's sign decisions narrow the field's isolating
        # interval, which the configuration document writes (without them
        # the thin-rhombus triple writes ["9/10", "1"], not ["19/20",
        # "77/80"]); it goes once fields write their declared interval.
        # Over Q no sign refines an interval, so the LP is not run there.
        if triple.body.field.degree > 1:
            redundant_facets_lp(triple.body)
        fan = normal_fan(triple.body)
        triple = FundamentalTriple(fan, triple.quasilattice, triple.normals)
    triple_validate(triple)
    result = augment(triple)
    doc = docs.configuration_to_doc(result.configuration,
                                    result.triangulation)
    return {"command": "augment", **doc}


def _cmd_gale(args):
    config, triangulation = docs.configuration_from_doc(_load(args.file))
    gale = gale_dual(config, triangulation)
    chamber = chamber_check(gale)
    return {
        "command": "gale",
        "m": gale.m,
        "points": [
            {"re": [docs.element_to_doc(x) for x in re],
             "im": [docs.element_to_doc(x) for x in im]}
            for re, im in gale.points
        ],
        "virtual_chamber": [_indices(s) for s in gale.virtual_chamber],
        "kernel_rows": [docs.vector_to_doc(row)
                        for row in gale.kernel_rows],
        "chamber_check": [
            {"member": _indices(m.member),
             "cardinality": m.cardinality,
             "zero_in_interior": m.zero_in_interior}
            for m in chamber.members
        ],
        "all_interior": chamber.all_interior,
    }


def _cmd_validate_config(args):
    config, triangulation = docs.configuration_from_doc(_load(args.file))
    if triangulation is None:
        raise ParseError("configuration document lacks a triangulation")
    report = config_validate(config, triangulation)
    return {
        "command": "validate-config",
        "p": report.p,
        "n": report.n,
        "m": report.m,
        "vector_sum": docs.vector_to_doc(report.vector_sum),
        "balanced": report.balanced,
        "odd": report.odd,
        "spanning": report.spanning,
        "simplex_independence": report.simplex_independence,
        # Triangulation closes its simplices under faces on construction
        "face_closure": True,
        "cone_compatibility": report.cone_compatibility,
        "covering": report.covering,
        "ghosts_disjoint": report.ghosts_disjoint,
        "complete": report.complete,
        "completeness_matches_spanning":
            report.completeness_matches_spanning,
    }


def _cmd_polytopal(args):
    fan = docs.fan_from_doc(_load(args.file))
    witness = is_polytopal(fan)
    return {
        "command": "polytopal",
        "polytopal": witness is not None,
        "offsets": ([docs.element_to_doc(x) for x in witness]
                    if witness is not None else None),
    }


def _cmd_render(args):
    doc = _load(args.file)
    kind = docs.document_kind(doc)
    if kind == "polytope":
        target = docs.polytope_from_doc(doc)
    elif kind == "fan":
        target = docs.fan_from_doc(doc)
    elif kind == "configuration":
        target = docs.configuration_from_doc(doc)
    elif kind == "empty":
        target = None
    else:
        raise ParseError(f"cannot render a {kind} document")
    viewport = None
    if args.viewport:
        parts = args.viewport.split(",")
        if len(parts) != 4:
            raise ParseError("viewport needs four comma-separated bounds")
        viewport = tuple(Fraction(parse_rational(p)) for p in parts)
        if viewport[0] >= viewport[2] or viewport[1] >= viewport[3]:
            raise ParseError("viewport needs XMIN < XMAX and YMIN < YMAX")
    stroke_width = Fraction(parse_rational(args.stroke_width))
    if stroke_width < 0:
        raise ParseError("stroke width must not be negative")
    spec = RenderSpec(viewport=viewport, labels=not args.no_labels,
                      stroke_width=stroke_width)
    svg = render_svg(target, spec)
    out = Path(args.out)
    with _writing(out):
        out.write_text(svg, encoding="utf-8")
    return {"command": "render", "out": str(out), "target": kind,
            "bytes": len(svg.encode("utf-8"))}


def _cmd_examples(args):
    entry = corpus_entry(args.name, args.a)
    base = args.dir or os.environ.get(CORPUS_ENV) or "."
    directory = Path(base) / args.name
    written = []
    with _writing(directory):
        directory.mkdir(parents=True, exist_ok=True)
        for filename in sorted(entry):
            path = directory / filename
            path.write_text(docs.dumps(entry[filename]), encoding="utf-8")
            written.append(str(path))
    return {"command": "examples", "name": args.name,
            "directory": str(directory), "files": written}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
