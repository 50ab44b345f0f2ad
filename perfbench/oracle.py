"""Correctness oracle for benchmark ops.

`judge(op, code, out, err, work)` returns (outcome, reason):
  "correct"  the report is right;
  "capped"   the documented answer of a known, named limit of the program
             (KNOWN_CAPS); counted as attempted, not failed, not correct;
  "failed"   anything else: a crash, a traceback, an unexpected exit code,
             or a report that fails its check.

Fixed ops are compared with references taken from the program at the
benchmark's introduction (reference/<workload>.json: exit code, stderr,
sha256 of stdout with the work directory replaced by "{W}", and of any
SVG written); the ops that tests/golden/ also pins are compared with those
files byte for byte.  Seeded ops are checked against closed forms in plain
Fractions, independent of the library, so every seed can be checked.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE.parent / "tests" / "golden"

# op id -> tests/golden file holding its exact stdout
GOLDEN = {
    "analyze:pentagon-default": "pentagon-analyze.json",
    "charts:orbifold-interval-default": "orbifold-interval-charts.json",
    "validate-config:kite-default": "kite-validate-config.json",
    "validate-config:thick-rhombus-default":
        "thick-rhombus-validate-config.json",
    "gale:thick-rhombus-default": "thick-rhombus-gale.json",
    "gale:hirzebruch-sqrt2": "hirzebruch-sqrt2-gale.json",
}

# op id -> error class of a documented limit of the program.  The integral
# 16-gon's chamber check needs a 17-variable LP; lp.VARIABLE_BUDGET is 16.
KNOWN_CAPS = {"gale:int16": "VariableBudgetExceeded"}


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def normalized(out: str, work: Path) -> str:
    return out.replace(str(work), "{W}")


def reference_entry(op, code, out, err, work) -> dict:
    entry = {"code": code, "stdout_sha256": digest(normalized(out, work)),
             "stderr": err}
    svg = op["check"].get("svg") if op["check"]["kind"] == "reference" \
        else None
    if svg:
        entry["svg_sha256"] = digest((work / svg).read_text("utf-8"))
    return entry


def load_references(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text("utf-8")) if path.exists() else {}


def judge(op, code, out, err, work: Path, references: dict):
    """`code` is the exit code, or None when an exception escaped."""
    cap = KNOWN_CAPS.get(op["id"])
    if cap is not None and code == 1 and err.startswith(cap + ": ") \
            and err.count("\n") == 1 and err.endswith("\n"):
        return "capped", cap
    kind = op["check"]["kind"]
    try:
        expect(code is not None, f"exception escaped: {err.strip()[-200:]}")
        if kind != "reference":
            # references pin the exit code and stderr of domain errors too
            expect(code == 0, f"exit code {code}: {err.strip()[:200]}")
            expect(not err, f"unexpected stderr: {err.strip()[:200]}")
        CHECKS[kind](op, code, out, err, work, references)
    except CheckFailed as exc:
        return "failed", str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError,
            StopIteration, ZeroDivisionError) as exc:
        return "failed", f"malformed report: {type(exc).__name__}: {exc}"
    return "correct", ""


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

def check_reference(op, code, out, err, work, references):
    golden = GOLDEN.get(op["id"])
    if golden is not None:
        expect(code == 0, f"exit code {code}")
        expect(out == (GOLDEN_DIR / golden).read_text("utf-8"),
               f"stdout differs from tests/golden/{golden}")
    ref = references.get(op["id"])
    expect(ref is not None, "no reference recorded for this op")
    actual = reference_entry(op, code, out, err, work)
    for key, value in ref.items():
        expect(actual.get(key) == value, f"{key} differs from the reference")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def rational(doc) -> Fraction:
    """A field element document over Q (a one-coefficient list)."""
    expect(isinstance(doc, list) and len(doc) == 1,
           f"expected a rational element, got {doc!r}")
    return Fraction(doc[0])


def vector(doc) -> tuple:
    return tuple(rational(x) for x in doc)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def check_polytope_report(report, normals, offsets, vertices, face_counts):
    """An `analyze` report of a simple polytope with a simplicial normal
    fan, against its exact facets and vertex set."""
    d = len(normals)
    expect(report["command"] == "analyze", "not an analyze report")
    expect(report["facet_count"] == d, "facet count")
    got = [vector(v) for v in report["vertices"]]
    expect(len(got) == len(set(got)) and set(got) == set(vertices),
           "vertex set differs from the closed form")
    for v, active in zip(got, report["vertex_active_facets"]):
        tight = sorted(j + 1 for j in range(d)
                       if dot(v, normals[j]) == offsets[j])
        expect(active == tight, f"active facets of {v}")
    expect(report["redundant_facets"] == [], "redundant facets")
    expect(report["face_counts"] == face_counts,
           f"face counts {report['face_counts']} != {face_counts}")
    expect(report["is_simple"] is True, "not simple")
    fan = report["normal_fan"]
    expect([vector(r) for r in fan["rays"]] == [tuple(map(Fraction, n))
                                                  for n in normals],
           "normal fan rays differ from the facet normals")
    expect(sorted(map(sorted, fan["maximal_cones"]))
           == sorted(map(sorted, report["vertex_active_facets"])),
           "maximal cones differ from the vertex cones")
    expect(report["fan_predicates"] == {"valid": True, "simplicial": True,
                                        "complete": True},
           "fan predicates")


def check_cube(op, code, out, err, work, references):
    depths = [Fraction(x) for x in op["check"]["depths"]]
    c = len(depths)
    facets = wl.truncated_cube_facets(depths)
    check_polytope_report(
        json.loads(out), [f[0] for f in facets], [f[1] for f in facets],
        wl.truncated_cube_vertices(depths),
        {"0": 8 + 2 * c, "1": 12 + 3 * c, "2": 6 + c, "3": 1})


def check_pythagorean(op, code, out, err, work, references):
    normals = wl.pythagorean_normals([Fraction(t) for t in op["check"]["t"]])
    k = len(normals)
    offsets = [Fraction(-1)] * k
    check_polytope_report(json.loads(out), normals, offsets,
                          wl.polygon_vertices(normals, offsets),
                          {"0": k, "1": k, "2": 1})


def solve(rows, rhs):
    """Exact Gauss-Jordan solve of a square nonsingular system."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [r[-1] for r in m]


def check_polytopal(op, code, out, err, work, references):
    """Verdict true, and the offsets h rebuild the fan: the vertex of each
    maximal cone meets exactly that cone's facets and lies strictly inside
    every other halfspace.  The witness bytes themselves are free."""
    report = json.loads(out)
    fan = json.loads((work / op["check"]["fan"]).read_text("utf-8"))
    rays = [vector(r) for r in fan["rays"]]
    expect(report["polytopal"] is True, "polytopal verdict")
    h = [rational(x) for x in report["offsets"]]
    expect(len(h) == len(rays), "offset count")
    for cone in fan["cones"]:
        idx = [i - 1 for i in cone]
        expect(len(idx) == len(rays[0]), "fan must be simplicial")
        v = solve([rays[i] for i in idx], [h[i] for i in idx])
        for k, ray in enumerate(rays):
            if k not in idx:
                expect(dot(v, ray) > h[k], f"offsets break cone {cone}")


def subgroup_order(images) -> int:
    """Order of the subgroup of (Q/Z)^2 generated by the images."""
    seen = {(Fraction(0), Fraction(0))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in images:
                y = tuple((a + b) % 1 for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def polygon_charts(normals, offsets):
    """{vertex: sorted active facet indices} by brute force over pairs."""
    out = {}
    d = len(normals)
    for i in range(d):
        for j in range(i + 1, d):
            a, b = normals[i], normals[j]
            if a[0] * b[1] - a[1] * b[0] == 0:
                continue
            v = tuple(solve([a, b], [offsets[i], offsets[j]]))
            if all(dot(v, normals[k]) >= offsets[k] for k in range(d)):
                out[v] = [k for k in range(d)
                          if dot(v, normals[k]) == offsets[k]]
    return out


def check_chart_report(report, normals, offsets, generators):
    """A `charts` report of a simple polygon over a rational lattice: one
    chart per vertex with its generator images mod Z^2 (coordinates in the
    frame of the vertex's facet normals, in facet order) and the group they
    generate."""
    expect(report["command"] == "charts", "not a charts report")
    expect(report["quasilattice_is_lattice"] is True, "lattice flag")
    expected = polygon_charts(normals, offsets)
    charts = report["charts"]
    expect(sorted(vector(c["vertex"]) for c in charts) == sorted(expected),
           "chart vertices differ from the closed form")
    for chart in charts:
        v = vector(chart["vertex"])
        frame = [normals[i] for i in expected[v]]
        expect(len(frame) == 2, f"vertex {v} is not simple")
        images = [tuple(y % 1 for y in solve(frame, g)) for g in generators]
        expect([vector(img) for img in chart["images"]] == images,
               f"images at {v}")
        order = subgroup_order(images)
        expect(chart["order"] == order, f"group order at {v}")
        expect(chart["classification"]
               == ("trivial" if order == 1 else "finite"),
               f"classification at {v}")


def check_integral_charts(op, code, out, err, work, references):
    k = int(op["id"].split(":int")[1])
    normals = [tuple(map(Fraction, n)) for n in wl.integral_normals(k)]
    offsets = [Fraction(x) for x in op["check"]["offsets"]]
    check_chart_report(json.loads(out), normals, offsets,
                       [(Fraction(1), Fraction(0)),
                        (Fraction(0), Fraction(1))])


def trapezoid(a: Fraction):
    """Facets of T_a in document order: x >= 0, y >= 0, y <= 1,
    x <= 1 + a y."""
    normals = [(1, 0), (0, 1), (0, -1), (-1, a)]
    offsets = [Fraction(0), Fraction(0), Fraction(-1), Fraction(-1)]
    return [tuple(map(Fraction, n)) for n in normals], offsets


def check_gale_report(report, vectors, maximal):
    """Gale duality in closed form: the kernel rows are independent, start
    with all ones, and annihilate every coordinate row; the chamber is the
    complements of the maximal simplices."""
    p, n = len(vectors), len(vectors[0])
    m = (p - n - 1) // 2
    expect(report["m"] == m, "m")
    rows = [vector(r) for r in report["kernel_rows"]]
    expect(len(rows) == 2 * m + 1, "kernel row count")
    expect(rows[0] == (Fraction(1),) * p, "first kernel row is not all ones")
    for row in rows:
        for i in range(n):
            expect(dot(row, [v[i] for v in vectors]) == 0,
                   "kernel row not orthogonal to the configuration")
    expect(_rank(rows) == len(rows), "kernel rows are dependent")
    for j, point in enumerate(report["points"]):
        expect([rational(x) for x in point["re"]]
               == [rows[1 + 2 * i][j] for i in range(m)]
               and [rational(x) for x in point["im"]]
               == [rows[2 + 2 * i][j] for i in range(m)],
               f"dual point {j + 1}")
    chamber = sorted(sorted(set(range(1, p + 1)) - set(s)) for s in maximal)
    expect(report["virtual_chamber"] == chamber, "virtual chamber")
    members = report["chamber_check"]
    expect([c["member"] for c in members] == chamber, "chamber members")
    expect(all(c["cardinality"] == p - n for c in members), "cardinality")
    expect(report["all_interior"]
           == all(c["zero_in_interior"] for c in members), "all_interior")


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def check_trapezoid(op, code, out, err, work, references):
    """The seeded rational trapezoid T_a and its configuration V_a."""
    a = Fraction(op["check"]["a"])
    step = op["check"]["step"]
    normals, offsets = trapezoid(a)
    report = json.loads(out)
    v_a = [(1, 0), (0, 1), (0, -1), (-1, a), (0, -a)]
    v_a = [tuple(map(Fraction, v)) for v in v_a]
    maximal = [[1, 2], [2, 4], [3, 4], [1, 3]]
    if step == "examples":
        directory = Path(report["directory"])
        names = ["configuration.json", "polytope.json", "quasilattice.json",
                 "triple.json"]
        expect(report["files"] == [str(directory / f) for f in names],
               "files written")
        doc = json.loads((directory / "polytope.json").read_text("utf-8"))
        facets = [(vector(f["normal"]), rational(f["offset"]))
                  for f in doc["facets"]]
        expect(sorted(facets) == sorted(zip(normals, offsets)),
               "trapezoid facets")
    elif step == "charts":
        check_chart_report(report, normals, offsets,
                           [(Fraction(1), Fraction(0)),
                            (Fraction(0), Fraction(1)), (Fraction(0), a)])
    elif step == "augment":
        expect([vector(v) for v in report["vectors"]] == v_a, "V_a vectors")
        expect(sorted(map(sorted, report["triangulation"]))
               == sorted(maximal), "triangulation")
        expect(report["ghosts"] == [5], "ghosts")
    elif step == "validate-config":
        expect(report["p"] == 5 and report["n"] == 2 and report["m"] == 1,
               "p, n, m")
        expect([rational(x) for x in report["vector_sum"]] == [0, 0],
               "vector sum")
        for key in ("balanced", "odd", "spanning", "simplex_independence",
                    "face_closure", "cone_compatibility", "covering",
                    "ghosts_disjoint", "complete",
                    "completeness_matches_spanning"):
            expect(report[key] is True, key)
    else:
        aug = json.loads((work / "corpus/aug-hirzebruch-seeded.json")
                         .read_text("utf-8"))
        check_gale_report(report, v_a, aug["triangulation"])


def check_gale_capped(op, code, out, err, work, references):
    """The capped integral 16-gon gale, once it succeeds."""
    aug = json.loads((work / "alg/int16-aug.json").read_text("utf-8"))
    check_gale_report(json.loads(out), [vector(v) for v in aug["vectors"]],
                      aug["triangulation"])


CHECKS = {
    "reference": check_reference,
    "cube": check_cube,
    "pythagorean": check_pythagorean,
    "polytopal": check_polytopal,
    "integral-charts": check_integral_charts,
    "trapezoid": check_trapezoid,
    "gale-capped": check_gale_capped,
}
