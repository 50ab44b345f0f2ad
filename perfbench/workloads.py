"""Workload definitions: seeded input documents and the op list of a pass.

fan-scaling   every op decides fan validity: `analyze` on the shipped
              corpus polytopes and on rational truncated cubes and
              Pythagorean k-gons, `polytopal` on the twisted cube and on
              cube normal fans.
algebraic     no op decides fan validity: the remaining README commands on
              every shipped entry (examples, check-triple, charts,
              quasirational, augment -> validate-config -> gale, render),
              and the pentagon-field decagon, the sqrt2 trapezoid and
              integral k-gons through the triple -> charts ->
              configuration -> Gale chain.

Input documents are built through the library (HalfspaceRep
certification, normal fans) and written under the pass's work directory,
or by the workload's own `examples` ops; the program under test sees them
only through its CLI.  The seed chooses rational parameters only, never
the combinatorics, so the op list, face lattices and expected verdicts are
the same for every seed.

An op is a dict:
  id      stable name, used by the oracle and in per-op results
  argv    arguments for ``quasitoric.cli.main``; "{W}" is the work dir
  check   oracle key (see oracle.py) plus the data it needs
  save    optional work-relative file that receives the op's stdout, so a
          later op can read it (the ``augment > file`` pipe)
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path


# ---------------------------------------------------------------------------
# seeded parameters
# ---------------------------------------------------------------------------

CUBE_HALF_SIDE = 4          # the cube [-4, 4]^3
CUBE_CORNER_ORDER = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1)
                     for sz in (1, -1)]


def cube_depths(rng: random.Random, corners: int) -> list:
    """Rational cut depths strictly between 2 and 3, one per cut corner.

    With half side 4 an edge has length 8 > 3 + 3, so no two cuts meet
    and no cut reaches another vertex: the face lattice is fixed.  The
    denominator is always 16, so every seed costs about the same."""
    return [Fraction(2) + Fraction(rng.randrange(1, 16, 2), 16)
            for _ in range(corners)]


CIRCLE_DENOMINATOR = 101   # prime: every parameter stays in lowest terms


def circle_parameters(rng: random.Random, k: int) -> list:
    """k/4 rational t = p/101 in (0, 1), one per k/4-th of the interval.

    The point ((1-t^2)/(1+t^2), 2t/(1+t^2)) lies in the open first
    quadrant; rotating by 90 degrees fills the other three, so the k
    directions are distinct and no angular gap reaches pi."""
    q, D = k // 4, CIRCLE_DENOMINATOR
    return [Fraction(rng.randint(j * D // q + 2, (j + 1) * D // q - 2), D)
            for j in range(q)]


def family_parameter(rng: random.Random) -> Fraction:
    """A rational trapezoid parameter a = p/7 in (1/2, 5/2), not an
    integer."""
    return Fraction(rng.choice([p for p in range(4, 18) if p % 7]), 7)


def edge_lengths(rng: random.Random, half: int) -> list:
    """Rational edge lengths 1 + r/8 with odd r, for half the edges of a
    centrally symmetric polygon."""
    return [Fraction(1) + Fraction(rng.randrange(1, 8, 2), 8)
            for _ in range(half)]


# ---------------------------------------------------------------------------
# geometry in plain Fractions (shared by the generators and the oracle)
# ---------------------------------------------------------------------------

def truncated_cube_facets(depths) -> list:
    """(normal, offset) pairs, inward convention <x, normal> >= offset:
    six cube facets, then one cut per corner in CUBE_CORNER_ORDER."""
    h = CUBE_HALF_SIDE
    facets = []
    for i in range(3):
        for s in (1, -1):
            normal = [0, 0, 0]
            normal[i] = s
            facets.append((tuple(normal), Fraction(-h)))
    for corner, d in zip(CUBE_CORNER_ORDER, depths):
        # corner value <s, x> = 3h; the cut keeps <s, x> <= 3h - d
        facets.append((tuple(-s for s in corner), d - 3 * h))
    return facets


def truncated_cube_vertices(depths) -> set:
    h = CUBE_HALF_SIDE
    out = set()
    for index, corner in enumerate(CUBE_CORNER_ORDER):
        apex = tuple(Fraction(h * s) for s in corner)
        if index >= len(depths):
            out.add(apex)
            continue
        for i in range(3):
            v = list(apex)
            v[i] -= depths[index] * corner[i]
            out.add(tuple(v))
    return out


def rotate90(v):
    return (-v[1], v[0])


def pythagorean_normals(ts) -> list:
    """Unit normals at rational circle points, in counter-clockwise order."""
    first = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    normals = []
    quarter = first
    for _ in range(4):
        normals.extend(quarter)
        quarter = [rotate90(v) for v in quarter]
    return normals


def polygon_vertices(normals, offsets) -> list:
    """Vertices of a polygon given cyclically ordered facets: vertex j is
    the meet of facets j and j+1."""
    out = []
    k = len(normals)
    for j in range(k):
        (a, b), c = normals[j], offsets[j]
        (d, e), f = normals[(j + 1) % k], offsets[(j + 1) % k]
        det = a * e - b * d
        out.append(((c * e - b * f) / det, (a * f - c * d) / det))
    return out


def integral_normals(k: int) -> list:
    """k primitive integer normals in counter-clockwise order, invariant
    under rotation by 90 degrees (so they sum to zero)."""
    per_quarter = {2: [(1, 0), (1, 1)],
                   3: [(1, 0), (2, 1), (1, 2)],
                   4: [(1, 0), (2, 1), (1, 1), (1, 2)]}[k // 4]
    out = []
    quarter = per_quarter
    for _ in range(4):
        out.extend(quarter)
        quarter = [rotate90(v) for v in quarter]
    return out


def integral_polygon_offsets(normals, lengths) -> list:
    """Offsets of the centrally symmetric polygon whose edge j has inward
    normal normals[j] and length lengths[j mod k/2] times its direction."""
    k = len(normals)
    vertex = (Fraction(0), Fraction(0))
    offsets = []
    for j, (x, y) in enumerate(normals):
        offsets.append(vertex[0] * x + vertex[1] * y)
        step = lengths[j % (k // 2)]
        vertex = (vertex[0] + step * y, vertex[1] - step * x)
    assert vertex == (0, 0), "edge walk must close"
    return offsets


# ---------------------------------------------------------------------------
# document writing through the library
# ---------------------------------------------------------------------------

def _write(path: Path, doc: dict) -> None:
    from quasitoric import documents as docs

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(docs.dumps(doc), encoding="utf-8")


def _rational_polytope(facets):
    from quasitoric import HalfspaceRep, rational_field

    Q = rational_field()
    return HalfspaceRep(len(facets[0][0]), [
        (tuple(Q.element(Fraction(x)) for x in normal), Q.element(offset))
        for normal, offset in facets])


def _write_triple(path: Path, H, generators) -> None:
    from quasitoric import FundamentalTriple, Quasilattice
    from quasitoric import documents as docs

    triple = FundamentalTriple(H, Quasilattice(generators), H.normals)
    _write(path, docs.triple_to_doc(triple))


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

# Entries with polytope/quasilattice/triple documents, and the --a values
# written for the parametric ones (the shipped default sqrt2 and the
# README's 2/1).
POLYTOPE_ENTRIES = (
    ("interval", None), ("interval-za", "sqrt2"), ("interval-za", "2/1"),
    ("orbifold-interval", None), ("square", None), ("pentagon", None),
    ("kite", None), ("thick-rhombus", None), ("thin-rhombus", None),
    ("hirzebruch", "sqrt2"), ("hirzebruch", "2/1"),
)
CONFIG_ENTRIES = ("kite", "thick-rhombus", "hirzebruch")
PLANAR = ("square", "pentagon", "kite", "thick-rhombus", "thin-rhombus",
          "hirzebruch")


def _slug(name, a):
    return f"{name}-{a.replace('/', '_') if a else 'default'}"


def corpus_ops(seed: int) -> list:
    """README commands on every shipped entry, except those that decide fan
    validity (`analyze`, `polytopal`; see corpus_fan_ops).  The entries'
    documents are written by the list's own `examples` ops."""
    rng = random.Random(seed)
    a_seeded = family_parameter(rng)
    ops = []

    def ref(op_id, argv, save=None, svg=None):
        ops.append({"id": op_id, "argv": argv, "save": save,
                    "check": {"kind": "reference", "svg": svg}})

    for name, a in POLYTOPE_ENTRIES:
        argv = ["examples", name, "--dir", f"{{W}}/corpus/{_slug(name, a)}"]
        if a:
            argv += ["--a", a]
        ref(f"examples:{_slug(name, a)}", argv)
    for name, a in POLYTOPE_ENTRIES:
        slug = _slug(name, a)
        d = f"{{W}}/corpus/{slug}/{name}"
        aug = f"corpus/aug-{slug}.json"
        ref(f"check-triple:{slug}", ["check-triple", f"{d}/triple.json"])
        ref(f"charts:{slug}", ["charts", f"{d}/triple.json"])
        ref(f"quasirational:{slug}", ["quasirational", f"{d}/polytope.json",
                                      "--ql", f"{d}/quasilattice.json"])
        ref(f"augment:{slug}", ["augment", f"{d}/triple.json"], save=aug)
        ref(f"validate-config:aug-{slug}", ["validate-config", f"{{W}}/{aug}"])
        ref(f"gale:aug-{slug}", ["gale", f"{{W}}/{aug}"])
        if name in CONFIG_ENTRIES:
            ref(f"validate-config:{slug}",
                ["validate-config", f"{d}/configuration.json"])
            ref(f"gale:{slug}", ["gale", f"{d}/configuration.json"])
        if name in PLANAR:
            svg = f"corpus/{slug}.svg"
            ref(f"render:{slug}", ["render", f"{d}/polytope.json",
                                   "--out", f"{{W}}/{svg}"], svg=svg)

    # the seeded rational trapezoid: same commands, closed-form checks
    a_text = f"{a_seeded.numerator}/{a_seeded.denominator}"
    d = "{W}/corpus/hirzebruch-seeded/hirzebruch"
    aug = "corpus/aug-hirzebruch-seeded.json"
    check = {"kind": "trapezoid", "a": a_text}
    for step, argv, save in (
            ("examples", ["examples", "hirzebruch", "--dir",
                          "{W}/corpus/hirzebruch-seeded", "--a", a_text],
             None),
            ("charts", ["charts", f"{d}/triple.json"], None),
            ("augment", ["augment", f"{d}/triple.json"], aug),
            ("validate-config", ["validate-config", f"{{W}}/{aug}"], None),
            ("gale", ["gale", f"{{W}}/{aug}"], None)):
        ops.append({"id": f"{step}:hirzebruch-seeded", "argv": argv,
                    "save": save, "check": dict(check, step=step)})
    return ops


def corpus_fan_ops() -> list:
    """`analyze` on every shipped polytope and `polytopal` on the twisted
    cube, reading the documents write_corpus writes."""
    ops = []
    for name, a in POLYTOPE_ENTRIES:
        slug = _slug(name, a)
        ops.append({"id": f"analyze:{slug}", "save": None,
                    "argv": ["analyze",
                             f"{{W}}/corpus/{slug}/{name}/polytope.json"],
                    "check": {"kind": "reference", "svg": None}})
    ops.append({"id": "polytopal:twisted-cube-default", "save": None,
                "argv": ["polytopal", "{W}/corpus/twisted-cube-default/"
                         "twisted-cube/fan.json"],
                "check": {"kind": "reference", "svg": None}})
    return ops


def write_corpus(work: Path) -> None:
    """The shipped entries' documents, as `examples` writes them."""
    from quasitoric.corpus import corpus_entry

    for name, a in POLYTOPE_ENTRIES + (("twisted-cube", None),):
        entry = corpus_entry(name, a or "sqrt2")
        for filename, doc in entry.items():
            _write(work / "corpus" / _slug(name, a) / name / filename, doc)


# ---------------------------------------------------------------------------
# fan-scaling
# ---------------------------------------------------------------------------

CUBE_CUTS = (0, 4, 8)
PYTHAGOREAN_SIZES = (8, 16, 24)
POLYTOPAL_CUTS = (0, 4)


def fan_scaling_params(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "cubes": {c: cube_depths(rng, c) for c in CUBE_CUTS},
        "gons": {k: circle_parameters(rng, k) for k in PYTHAGOREAN_SIZES},
    }


def build_fan_scaling(work: Path, seed: int) -> list:
    from quasitoric import documents as docs
    from quasitoric import normal_fan

    write_corpus(work)
    ops = corpus_fan_ops()
    params = fan_scaling_params(seed)
    polytopes = {}
    for c, depths in params["cubes"].items():
        H = _rational_polytope(truncated_cube_facets(depths))
        polytopes[c] = H
        _write(work / f"fan/cube{c}.json", docs.polytope_to_doc(H))
        ops.append({"id": f"analyze:cube{c}", "save": None,
                    "argv": ["analyze", f"{{W}}/fan/cube{c}.json"],
                    "check": {"kind": "cube", "depths": _texts(depths)}})
    for k, ts in params["gons"].items():
        facets = [(n, Fraction(-1)) for n in pythagorean_normals(ts)]
        H = _rational_polytope(facets)
        _write(work / f"fan/gon{k}.json", docs.polytope_to_doc(H))
        ops.append({"id": f"analyze:gon{k}", "save": None,
                    "argv": ["analyze", f"{{W}}/fan/gon{k}.json"],
                    "check": {"kind": "pythagorean", "t": _texts(ts)}})
    for c in POLYTOPAL_CUTS:
        fan = normal_fan(polytopes[c])
        _write(work / f"fan/cube{c}-fan.json", docs.fan_to_doc(fan))
        ops.append({"id": f"polytopal:cube{c}", "save": None,
                    "argv": ["polytopal", f"{{W}}/fan/cube{c}-fan.json"],
                    "check": {"kind": "polytopal",
                              "fan": f"fan/cube{c}-fan.json"}})
    return ops


def _texts(values) -> list:
    return [str(v) for v in values]


# ---------------------------------------------------------------------------
# algebraic
# ---------------------------------------------------------------------------

INTEGRAL_SIZES = (8, 12, 16)


def build_algebraic(work: Path, seed: int) -> list:
    from quasitoric import HalfspaceRep, Quasilattice, rational_field
    from quasitoric import documents as docs
    from quasitoric.corpus import (
        corpus_entry,
        fifth_roots_of_unity,
        pentagon_field,
        pentagon_quasilattice_generators,
    )

    rng = random.Random(seed)
    ops = corpus_ops(seed)

    def chain(name, steps):
        d = "{W}/" + f"alg/{name}"
        aug = f"alg/{name}-aug.json"
        for step in steps:
            argv = {
                "check-triple": ["check-triple", f"{d}-triple.json"],
                "charts": ["charts", f"{d}-triple.json"],
                "quasirational": ["quasirational", f"{d}-polytope.json",
                                  "--ql", f"{d}-ql.json"],
                "augment": ["augment", f"{d}-triple.json"],
                "validate-config": ["validate-config", "{W}/" + aug],
                "gale": ["gale", "{W}/" + aug],
            }[step]
            ops.append({"id": f"{step}:{name}", "argv": argv,
                        "save": aug if step == "augment" else None,
                        "check": {"kind": "reference", "svg": None}})

    # the decagon: normals +-Y_j over the fifth-roots quasilattice
    field = pentagon_field()
    Y = fifth_roots_of_unity(field)
    normals = list(Y) + [tuple(-c for c in y) for y in Y]
    H = HalfspaceRep(2, [(n, -field.one) for n in normals])
    _write(work / "alg/decagon-polytope.json", docs.polytope_to_doc(H))
    ql_gens = pentagon_quasilattice_generators(field)
    _write(work / "alg/decagon-ql.json",
           docs.quasilattice_to_doc(Quasilattice(ql_gens)))
    _write_triple(work / "alg/decagon-triple.json", H, ql_gens)
    chain("decagon", ("check-triple", "charts", "quasirational", "augment",
                      "validate-config", "gale"))

    # the sqrt2 trapezoid, written through the shipped corpus entry
    for filename, doc in corpus_entry("hirzebruch", "sqrt2").items():
        stem = filename.split(".")[0].replace("quasilattice", "ql")
        _write(work / f"alg/trapezoid-{stem}.json", doc)
    chain("trapezoid", ("check-triple", "charts", "augment",
                        "validate-config", "gale"))

    # integral k-gons over Z^2 with seeded edge lengths
    Q = rational_field()
    lattice = [(Q.one, Q.zero), (Q.zero, Q.one)]
    for k in INTEGRAL_SIZES:
        normals = integral_normals(k)
        offsets = integral_polygon_offsets(normals,
                                           edge_lengths(rng, k // 2))
        H = _rational_polytope(list(zip(normals, offsets)))
        _write_triple(work / f"alg/int{k}-triple.json", H, lattice)
        chain(f"int{k}", ("augment", "validate-config", "gale", "charts"))
        ops[-1]["check"] = {"kind": "integral-charts",
                            "offsets": _texts(offsets)}
    # gale:int16 exits with VariableBudgetExceeded today (oracle.KNOWN_CAPS);
    # once it succeeds its report is checked in closed form
    next(op for op in ops if op["id"] == "gale:int16")["check"] = {
        "kind": "gale-capped"}
    return ops


BUILDERS = {"fan-scaling": build_fan_scaling, "algebraic": build_algebraic}
WORKLOADS = tuple(BUILDERS)
