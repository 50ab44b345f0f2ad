import argparse
import copy
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quasitoric import cli, lp, polytope
from quasitoric.cli import main
from quasitoric.corpus import corpus_entry
from quasitoric.documents import (configuration_from_doc, dumps,
                                  fan_from_doc, fan_to_doc,
                                  polytope_from_doc, polytope_to_doc,
                                  quasilattice_to_doc, triple_to_doc)
from quasitoric.errors import InvalidFan
from quasitoric.fan import normal_fan
from quasitoric.field import format_rational, rational_field
from quasitoric.quasilattice import Quasilattice
from quasitoric.render import render_svg
from quasitoric.triple import FundamentalTriple

GOLDEN = Path(__file__).parent / "golden"


def cube_facets():
    """The facets <+-e_i, x> >= -1 of the cube [-1, 1]^3 over Q."""
    Q = rational_field()
    facets = []
    for i in range(3):
        for s in (Q.one, -Q.one):
            normal = [Q.zero] * 3
            normal[i] = s
            facets.append((tuple(normal), -Q.one))
    return facets


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def count_calls(monkeypatch, function):
    """The argument tuples of every later call of function, wrapped in each
    quasitoric module that imported it by name."""
    calls = []

    def counting(*args):
        calls.append(args)
        return function(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("quasitoric") and getattr(
                module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def integral_octagon_triple():
    """The triple document of the integral 8-gon with the primitive normals
    (1, 0) and (1, 1) turned by quarter turns, unit edges and Z^2."""
    Q = rational_field()
    normals, quarter = [], [(1, 0), (1, 1)]
    for _ in range(4):
        normals += quarter
        quarter = [(-y, x) for x, y in quarter]
    vertex, facets = (0, 0), []
    for x, y in normals:
        facets.append(((Q.element(x), Q.element(y)),
                       Q.element(vertex[0] * x + vertex[1] * y)))
        vertex = (vertex[0] + y, vertex[1] - x)
    H = polytope.HalfspaceRep(2, facets)
    ql = Quasilattice([(Q.one, Q.zero), (Q.zero, Q.one)])
    return triple_to_doc(FundamentalTriple(H, ql, H.normals))


@pytest.fixture()
def corpus(tmp_path, capsys):
    def write(name, **kwargs):
        argv = ["examples", name, "--dir", str(tmp_path)]
        if "a" in kwargs:
            argv += ["--a", kwargs["a"]]
        report = run_json(capsys, *argv)
        return Path(report["directory"])
    return write


class TestExamples:
    def test_writes_documents(self, corpus, tmp_path):
        directory = corpus("pentagon")
        names = sorted(p.name for p in directory.iterdir())
        assert names == ["polytope.json", "quasilattice.json",
                         "triple.json"]
        for p in directory.iterdir():
            json.loads(p.read_text())

    @pytest.mark.parametrize("name, interval", [
        ("pentagon", ["19/20", "39/40"]),
        ("kite", ["19/20", "39/40"]),
        ("thick-rhombus", ["9/10", "1"]),
        ("thin-rhombus", ["9/10", "1"]),
        ("hirzebruch", ["1", "2"]),
    ])
    def test_field_interval_pins_the_sign_decisions(self, corpus, name,
                                                    interval):
        # the sign decisions of the construction narrow the isolating
        # interval that the documents write: a change that decides a sign
        # the construction did not decide, or skips one, can move it
        directory = corpus(name, a="sqrt2")
        for path in sorted(directory.iterdir()):
            doc = json.loads(path.read_text())
            assert doc["field"]["interval"] == interval, path.name

    def test_unknown_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["examples", "dodecahedron"])
        assert exc.value.code == 2


class TestWorkflows:
    def test_integer_hirzebruch_charts(self, corpus, capsys):
        directory = corpus("hirzebruch", a="2/1")
        report = run_json(capsys, "charts", str(directory / "triple.json"))
        assert report["quasilattice_is_lattice"] is True
        assert all(c["classification"] in ("trivial", "finite")
                   for c in report["charts"])

    def test_sqrt2_hirzebruch_charts(self, corpus, capsys):
        directory = corpus("hirzebruch", a="sqrt2")
        report = run_json(capsys, "charts", str(directory / "triple.json"))
        assert report["quasilattice_is_lattice"] is False
        assert any(c["classification"] == "infinite"
                   for c in report["charts"])

    def test_pentagon_quasirational(self, corpus, capsys):
        directory = corpus("pentagon")
        report = run_json(capsys, "quasirational",
                          str(directory / "polytope.json"),
                          "--ql", str(directory / "quasilattice.json"))
        assert report["quasirational"] is True
        assert all(r["non_canonical"] for r in report["rays"])

    def test_twisted_cube_fan_quasirational(self, corpus, capsys,
                                            tmp_path):
        # a fan body: its rays, the cube's vertices, are primitive in Z^3
        fan_path = corpus("twisted-cube") / "fan.json"
        Q = rational_field()
        ql = Quasilattice([tuple(Q.one if i == j else Q.zero
                                 for j in range(3)) for i in range(3)])
        ql_path = tmp_path / "z3.json"
        ql_path.write_text(dumps(quasilattice_to_doc(ql)))
        report = run_json(capsys, "quasirational", str(fan_path),
                          "--ql", str(ql_path))
        assert report["quasirational"] is True
        rays = json.loads(fan_path.read_text())["rays"]
        assert [r["ray"] for r in report["rays"]] == list(range(1, 9))
        assert [r["witness"] for r in report["rays"]] == rays

    def test_thick_rhombus_validate(self, corpus, capsys):
        directory = corpus("thick-rhombus")
        report = run_json(capsys, "validate-config",
                          str(directory / "configuration.json"))
        assert report["balanced"] is True
        assert report["odd"] is True
        assert report["p"] == 7 and report["n"] == 2

    def test_augment_pipes_into_gale(self, corpus, capsys, tmp_path):
        directory = corpus("thin-rhombus")
        code, out, err = run(capsys, "augment",
                             str(directory / "triple.json"))
        assert code == 0
        aug_path = tmp_path / "augmented.json"
        aug_path.write_text(out)
        gale = run_json(capsys, "gale", str(aug_path))
        assert gale["m"] == 2
        assert all(len(s) == 5 for s in gale["virtual_chamber"])

    @pytest.mark.parametrize("name, interval", [
        ("pentagon", ["19/20", "39/40"]),
        ("kite", ["19/20", "39/40"]),
        ("thick-rhombus", ["9/10", "1"]),
        ("thin-rhombus", ["19/20", "77/80"]),
        ("hirzebruch", ["1", "2"]),
    ])
    def test_augment_interval_pins_the_sign_decisions(self, corpus, capsys,
                                                      name, interval):
        # augment reloads the triple and writes the isolating interval its
        # own sign decisions leave, as examples does
        directory = corpus(name, a="sqrt2")
        report = run_json(capsys, "augment", str(directory / "triple.json"))
        assert report["field"]["interval"] == interval

    @pytest.mark.parametrize("name, digest", [
        ("square",
         "a36d0b5e22b151cd9d9f667b0ce2e0e2e950350d6830e41c9025c0ebf4581d78"),
        ("hirzebruch-2_1",
         "043216d0be415ebdf2023a89df15fab56302b1950a8947d02a1378792318c0ad"),
        ("octagon",
         "2bbab89c2e9cfe97f0bd23144d5fb2546843ae7eb26be0e86c2015ca302067ef"),
    ])
    def test_augment_over_q_runs_no_redundancy_lp(self, capsys, tmp_path,
                                                  monkeypatch, name, digest):
        # over Q no sign refines the interval the document writes, so the
        # only LP left is HalfspaceRep's interior LP; the bytes are pinned
        docs = {"square": corpus_entry("square")["triple.json"],
                "hirzebruch-2_1":
                    corpus_entry("hirzebruch", "2/1")["triple.json"],
                "octagon": integral_octagon_triple()}
        path = tmp_path / "triple.json"
        path.write_text(dumps(docs[name]))
        lps = count_calls(monkeypatch, lp.strict_lp_feasible)
        interior = count_calls(monkeypatch, polytope._interior_lp)
        code, out, err = run(capsys, "augment", str(path))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        # each interior LP makes one LP call
        assert len(lps) == len(interior) > 0

    def test_polytopal_verdicts(self, corpus, capsys):
        directory = corpus("twisted-cube")
        report = run_json(capsys, "polytopal",
                          str(directory / "fan.json"))
        assert report["polytopal"] is False
        assert report["offsets"] is None

    def test_check_triple(self, corpus, capsys):
        directory = corpus("square")
        report = run_json(capsys, "check-triple",
                          str(directory / "triple.json"))
        assert report["valid"] is True
        assert report["simple"] is True
        assert report["normals_span_quasilattice"] is True

    def test_check_triple_enumerates_vertices_once(self, corpus, capsys,
                                                   monkeypatch):
        # the normals' count and directions, the irredundancy check and
        # the simplicity verdict all read one vertex enumeration
        directory = corpus("pentagon")
        calls = count_calls(monkeypatch, polytope.vertices_from_halfspaces)
        run_json(capsys, "check-triple", str(directory / "triple.json"))
        assert len(calls) == 1

    def test_validate_augmented_config_runs_no_lp(self, corpus, capsys,
                                                  tmp_path, monkeypatch):
        # the triangulation is a complete simplicial fan, certified by
        # linear algebra: no pairwise separation or covering LP
        directory = corpus("thick-rhombus")
        code, out, err = run(capsys, "augment",
                             str(directory / "triple.json"))
        assert code == 0, err
        path = tmp_path / "augmented.json"
        path.write_text(out)
        calls = count_calls(monkeypatch, lp.strict_lp_feasible)
        report = run_json(capsys, "validate-config", str(path))
        assert report["cone_compatibility"] is True
        assert report["covering"] is True
        assert report["complete"] is True
        assert calls == []

    def test_polytopal_twisted_cube_runs_one_lp(self, corpus, capsys,
                                                monkeypatch):
        # validity and completeness come from the certificate; the one LP
        # is the wall-crossing system, over the 8 offsets
        directory = corpus("twisted-cube")
        calls = count_calls(monkeypatch, lp.strict_lp_feasible)
        report = run_json(capsys, "polytopal", str(directory / "fan.json"))
        assert report["polytopal"] is False
        assert len(calls) == 1
        assert calls[0][1] == 8

    def test_analyze_rational_polytope_runs_one_lp(self, corpus, capsys,
                                                   monkeypatch):
        # boundedness is read off the one double-description run that also
        # enumerates the vertices, over Q and over the degree-4 field of
        # the pentagon alike; the one LP is the interior LP
        for name, facets in (("square", 4), ("pentagon", 5)):
            directory = corpus(name)
            with monkeypatch.context() as patch:
                lp_calls = count_calls(patch, lp.strict_lp_feasible)
                dd_calls = count_calls(patch, polytope.extreme_rays)
                report = run_json(capsys, "analyze",
                                  str(directory / "polytope.json"))
            assert report["face_counts"] == {"0": facets, "1": facets,
                                             "2": 1}
            assert len(lp_calls) == 1
            assert [op for _, _, op in lp_calls[0][0]] == [">"] * facets
            assert len(dd_calls) == 1

    def test_polytopal_cube_fan_runs_two_lps(self, capsys, tmp_path,
                                             monkeypatch):
        # the wall-crossing LP, then the interior LP of the witness
        # polytope, which is certified bounded, and its normal fan rebuilt,
        # from one double-description run
        cube_fan = normal_fan(polytope.HalfspaceRep(3, cube_facets()))
        path = tmp_path / "fan.json"
        path.write_text(dumps(fan_to_doc(cube_fan)))
        lp_calls = count_calls(monkeypatch, lp.strict_lp_feasible)
        dd_calls = count_calls(monkeypatch, polytope.extreme_rays)
        report = run_json(capsys, "polytopal", str(path))
        assert report["polytopal"] is True
        assert [call[1] for call in lp_calls] == [6, 3]
        assert len(dd_calls) == 1

    def test_analyze_single(self, corpus, capsys):
        directory = corpus("square")
        report = run_json(capsys, "analyze",
                          str(directory / "polytope.json"))
        assert report["facet_count"] == 4
        assert report["is_simple"] is True
        assert report["fan_predicates"]["complete"] is True
        assert report["face_counts"] == {"0": 4, "1": 4, "2": 1}

    def test_analyze_all_directory(self, corpus, capsys):
        directory = corpus("square")
        report = run_json(capsys, "analyze", "--all", str(directory))
        assert len(report["reports"]) == 1
        assert report["reports"][0]["file"] == "polytope.json"

    def test_render_writes_svg(self, corpus, capsys, tmp_path):
        directory = corpus("pentagon")
        out = tmp_path / "pentagon.svg"
        report = run_json(capsys, "render",
                          str(directory / "polytope.json"),
                          "--out", str(out))
        assert report["target"] == "polytope"
        assert out.exists()
        assert out.read_text().startswith("<?xml")

    @pytest.mark.parametrize("kind", ["fan", "configuration", "empty"])
    def test_render_fan_configuration_and_empty(self, corpus, capsys,
                                                tmp_path, kind):
        # the report names the target and counts the bytes render_svg
        # writes for the object the same document loads to
        if kind == "fan":
            square = corpus_entry("square")["polytope.json"]
            doc = fan_to_doc(normal_fan(polytope_from_doc(square)))
            target = fan_from_doc(doc)
        elif kind == "configuration":
            doc = json.loads((corpus("kite") / "configuration.json")
                             .read_text())
            target = configuration_from_doc(doc)
        else:
            doc, target = {}, None
        path = tmp_path / f"{kind}.json"
        path.write_text(dumps(doc))
        out = tmp_path / f"{kind}.svg"
        report = run_json(capsys, "render", str(path), "--out", str(out))
        svg = render_svg(target)
        assert report["target"] == kind
        assert report["bytes"] == len(svg.encode("utf-8"))
        assert out.read_text(encoding="utf-8") == svg


class TestParserReuse:
    def test_two_calls_build_one_parser_tree(self, corpus, capsys,
                                             monkeypatch):
        directory = corpus("square")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        run_json(capsys, "analyze", str(directory / "polytope.json"))
        once = len(built)
        run_json(capsys, "analyze", str(directory / "polytope.json"))
        assert once > 0 and len(built) == once

    def test_flags_do_not_carry_over(self, corpus, capsys):
        directory = corpus("square")
        report = run_json(capsys, "analyze", "--all", str(directory))
        assert "reports" in report
        report = run_json(capsys, "analyze", str(directory / "polytope.json"))
        assert "reports" not in report
        assert report["facet_count"] == 4

    def test_usage_error_after_success_exits_2(self, corpus, capsys):
        directory = corpus("square")
        run_json(capsys, "analyze", str(directory / "polytope.json"))
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "charts", "no-such-file.json")
        assert code == 1
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ParseError:")

    def test_wrong_document_kind(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mystery": true}')
        code, _, err = run(capsys, "render", str(bad), "--out",
                           str(tmp_path / "x.svg"))
        assert code == 1
        assert err.startswith("ParseError:")

    def test_field_mismatch(self, capsys, tmp_path, corpus):
        pentagon = corpus("pentagon")
        square = corpus("square")
        code, _, err = run(capsys, "quasirational",
                           str(pentagon / "polytope.json"),
                           "--ql", str(square / "quasilattice.json"))
        assert code == 1
        assert err.startswith("FieldMismatch:")

    @pytest.mark.parametrize("body,ql,dimensions", [
        ("square", "interval", (2, 1)),
        ("interval", "square", (1, 2)),
    ])
    def test_dimension_mismatch_single_line(self, capsys, corpus, body, ql,
                                            dimensions):
        code, out, err = run(capsys, "quasirational",
                             str(corpus(body) / "polytope.json"),
                             "--ql", str(corpus(ql) / "quasilattice.json"))
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == [
            "ParseError: dimensions differ: body {}, quasilattice {}"
            .format(*dimensions)]

    @pytest.mark.parametrize("flags,message", [
        (["--viewport", "1,0,0,1"],
         "viewport needs XMIN < XMAX and YMIN < YMAX"),
        (["--viewport", "0,0,1,-1"],
         "viewport needs XMIN < XMAX and YMIN < YMAX"),
        (["--viewport", "0,0,0,0"],
         "viewport needs XMIN < XMAX and YMIN < YMAX"),
        (["--stroke-width=-1/50"], "stroke width must not be negative"),
    ], ids=["reversed-x", "reversed-y", "empty", "negative-stroke"])
    def test_render_flag_out_of_range(self, capsys, tmp_path, corpus, flags,
                                      message):
        out_path = tmp_path / "x.svg"
        code, out, err = run(capsys, "render",
                             str(corpus("square") / "polytope.json"),
                             "--out", str(out_path), *flags)
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == [f"ParseError: {message}"]
        assert not out_path.exists()

    def test_render_accepts_zero_stroke_width(self, capsys, tmp_path,
                                              corpus):
        out_path = tmp_path / "x.svg"
        report = run_json(capsys, "render",
                          str(corpus("square") / "polytope.json"),
                          "--out", str(out_path), "--stroke-width", "0")
        assert report["target"] == "polytope"
        assert 'stroke-width="0"' in out_path.read_text()

    def test_domain_error_single_line(self, capsys, tmp_path):
        doc = {
            "field": {"minpoly": ["4", "-4", "1"], "interval": ["1", "3"]},
            "n": 1,
            "facets": [{"normal": [["1", "0"]], "offset": ["0", "0"]}],
        }
        path = tmp_path / "badfield.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert err.strip().splitlines() == [
            "NotSquarefree: gcd with derivative has degree 1"]

    def test_zero_facet_normal_single_line(self, capsys, tmp_path, corpus):
        doc = json.loads((corpus("square") / "polytope.json").read_text())
        doc["facets"][0]["normal"] = [["0"], ["0"]]
        path = tmp_path / "zero-normal.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == ["InvalidPolytope: zero normal"]

    @pytest.mark.parametrize("ghosts,message", [
        ([True], "ParseError: index True is not an integer"),
        (["x"], "ParseError: index 'x' is not an integer"),
    ])
    def test_bad_ghost_entry_single_line(self, capsys, tmp_path, corpus,
                                         ghosts, message):
        directory = corpus("hirzebruch", a="2/1")
        doc = json.loads((directory / "configuration.json").read_text())
        doc["ghosts"] = ghosts
        path = tmp_path / "bad-ghosts.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate-config", str(path))
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == [message]

    def test_boolean_dimension_single_line(self, capsys, tmp_path, corpus):
        doc = json.loads((corpus("interval") / "polytope.json").read_text())
        doc["n"] = True
        path = tmp_path / "bool-n.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == [
            "ParseError: polytope document needs integer n and facets"]

    def test_ragged_quasilattice_single_line(self, capsys, tmp_path, corpus):
        square = corpus("square")
        doc = json.loads((square / "quasilattice.json").read_text())
        del doc["n"]
        doc["generators"][0] = [["1"]]
        path = tmp_path / "ragged-ql.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "quasirational",
                             str(square / "polytope.json"), "--ql", str(path))
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == [
            "ParseError: generator length disagrees with dimension"]

    @pytest.mark.parametrize("normal,offset,redundant", [
        ([["2"], ["0"]], ["0"], "[0, 4]"),    # x >= 0 again, scaled
        ([["-1"], ["-1"]], ["-2"], "[4]"),    # through the vertex (1, 1)
        ([["1"], ["1"]], ["-5"], "[4]"),      # below every vertex
    ], ids=["duplicate", "touching", "loose"])
    def test_redundant_facet_single_line(self, capsys, tmp_path, corpus,
                                         normal, offset, redundant):
        doc = json.loads((corpus("square") / "polytope.json").read_text())
        doc["facets"].append({"normal": normal, "offset": offset})
        path = tmp_path / "extra-facet.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == [
            f"RedundantFacet: facets {redundant} are redundant; "
            "strip them first"]

    @pytest.mark.parametrize("command", ["validate-config", "gale"])
    @pytest.mark.parametrize("n,vectors,triangulation,message", [
        (0, [], [], "InvalidConfiguration: dimension must be >= 1"),
        (0, [[]], [], "InvalidConfiguration: dimension must be >= 1"),
        (-1, [], [], "InvalidConfiguration: dimension must be >= 1"),
        (1, [[["1"]], [["-1"]]], [[1, 1], [2]],
         "InvalidConfiguration: simplex (0, 0) repeats a vector index"),
    ], ids=["n0-empty", "n0-empty-vector", "n-negative", "repeated-index"])
    def test_malformed_configuration_single_line(
            self, capsys, tmp_path, command, n, vectors, triangulation,
            message):
        doc = {"field": {"minpoly": ["0", "1"], "interval": ["-1", "1"]},
               "n": n, "vectors": vectors, "triangulation": triangulation}
        path = tmp_path / "configuration.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == [message]

    # three 2-cones on rays at 0, 27 and 63 degrees: every ray lies in two
    # cones, but the cones overlap and cover only one sector
    ZIG_ZAG_RAYS = [[["1"], ["0"]], [["2"], ["1"]], [["1"], ["2"]]]
    ZIG_ZAG = {
        "field": {"minpoly": ["0", "1"], "interval": ["-1", "1"]},
        "n": 2,
        "fan": {"rays": ZIG_ZAG_RAYS, "cones": [[1, 2], [2, 3], [1, 3]]},
        "quasilattice": {"generators": [[["1"], ["0"]], [["0"], ["1"]]]},
        "normals": ZIG_ZAG_RAYS,
    }

    @pytest.mark.parametrize("command", ["augment", "check-triple",
                                         "charts"])
    def test_triple_commands_refuse_a_non_fan(self, capsys, tmp_path,
                                              command):
        path = tmp_path / "zig-zag.json"
        path.write_text(json.dumps(self.ZIG_ZAG))
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == [
            "InvalidFan: triple needs a valid fan"]

    def test_library_triple_refuses_a_non_fan(self):
        fan = fan_from_doc(self.ZIG_ZAG["fan"] | {"n": 2})
        ql = Quasilattice(fan.rays)
        with pytest.raises(InvalidFan, match="triple needs a valid fan"):
            FundamentalTriple(fan, ql, fan.rays)

    def test_failed_invariant_exits_3(self, capsys, corpus, monkeypatch):
        directory = corpus("thin-rhombus")
        # a membership test that never finds a combination breaks the
        # postcondition that the augmented vectors Z-span the quasilattice
        monkeypatch.setattr("quasitoric.configuration.integral_memberships",
                            lambda vectors, targets: [None] * len(targets))
        code, out, err = run(capsys, "augment", str(directory / "triple.json"))
        assert code == 3
        assert out == ""
        assert err.strip().splitlines() == [
            "InternalInvariantError: vectors must Z-span Q"]

    def test_broken_euler_poincare_exits_3(self, capsys, corpus,
                                           monkeypatch):
        directory = corpus("square")
        closure = polytope.intersection_closure

        def without_a_vertex(generators):
            # a vertex of the square lies on two facets; without one,
            # f_0 - f_1 = 3 - 4, not 1 - (-1)^2 = 0
            faces = closure(generators)
            return faces - {min((f for f in faces if len(f) == 2),
                                key=sorted)}

        monkeypatch.setattr(polytope, "intersection_closure",
                            without_a_vertex)
        code, out, err = run(capsys, "analyze",
                             str(directory / "polytope.json"))
        assert code == 3
        assert out == ""
        assert err.strip().splitlines() == [
            "InternalInvariantError: face numbers break the "
            "Euler-Poincare relation"]

    def test_broken_dehn_sommerville_exits_3(self, capsys, tmp_path,
                                             monkeypatch):
        # the cube without an edge: h = (2, 2, 3, 1), so h_1 != h_2
        path = tmp_path / "cube.json"
        path.write_text(dumps(polytope_to_doc(
            polytope.HalfspaceRep(3, cube_facets()))))
        closure = polytope.intersection_closure

        def without_an_edge(generators):
            faces = closure(generators)
            return faces - {min((f for f in faces if len(f) == 2),
                                key=sorted)}

        monkeypatch.setattr(polytope, "intersection_closure",
                            without_an_edge)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 3
        assert out == ""
        assert err.strip().splitlines() == [
            "InternalInvariantError: face numbers break the "
            "Dehn-Sommerville equations"]

    def test_out_of_memory_is_one_line_and_exit_1(self, capsys, corpus,
                                                   monkeypatch):
        directory = corpus("twisted-cube")

        def exhausted(fan):
            raise MemoryError

        monkeypatch.setattr("quasitoric.cli.is_polytopal", exhausted)
        code, out, err = run(capsys, "polytopal", str(directory / "fan.json"))
        assert code == 1
        assert out == ""
        assert err.strip().splitlines() == ["MemoryError: out of memory"]



def single_error(code, out, err, prefix):
    """The run exited 1 with no report and one error line that begins
    with prefix; returns that line."""
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(prefix)
    return lines[0]


class TestGeneratorDimensions:
    @pytest.mark.parametrize("n", [None, 0], ids=["no-n", "n-0"])
    def test_empty_quasilattice_generators(self, capsys, tmp_path, corpus,
                                           n):
        square = corpus("square")
        doc = json.loads((square / "quasilattice.json").read_text())
        doc["generators"] = [[]]
        del doc["n"]
        if n is not None:
            doc["n"] = n
        path = tmp_path / "empty-ql.json"
        path.write_text(json.dumps(doc))
        result = run(capsys, "quasirational", str(square / "polytope.json"),
                     "--ql", str(path))
        assert single_error(*result, "ParseError:") == \
            "ParseError: dimension must be >= 1"

    @pytest.mark.parametrize("command", ["check-triple", "charts",
                                         "augment"])
    def test_empty_triple_generators(self, capsys, tmp_path, corpus,
                                     command):
        # the polytope declares n, the triple does not
        doc = json.loads((corpus("square") / "triple.json").read_text())
        del doc["n"]
        doc["quasilattice"]["generators"] = [[]]
        path = tmp_path / "empty-triple.json"
        path.write_text(json.dumps(doc))
        single_error(*run(capsys, command, str(path)), "ParseError:")

    @pytest.mark.parametrize("command", ["check-triple", "charts",
                                         "augment"])
    def test_triple_quasilattice_of_another_dimension(self, capsys,
                                                      tmp_path, corpus,
                                                      command):
        # with no n on the triple, its 1-d quasilattice was taken for a
        # 2-d square's: check-triple reported it valid
        doc = json.loads((corpus("square") / "triple.json").read_text())
        del doc["n"]
        doc["quasilattice"]["generators"] = [[["1"]]]
        path = tmp_path / "short-triple.json"
        path.write_text(json.dumps(doc))
        assert single_error(*run(capsys, command, str(path)),
                            "ParseError:") == \
            "ParseError: vector has length 1, expected 2"

    def test_triple_and_body_dimensions_differ(self, capsys, tmp_path,
                                               corpus):
        doc = json.loads((corpus("square") / "triple.json").read_text())
        doc["n"] = 3
        path = tmp_path / "n3-triple.json"
        path.write_text(json.dumps(doc))
        assert single_error(*run(capsys, "charts", str(path)),
                            "ParseError:") == \
            "ParseError: dimensions differ: triple 3, body 2"


class TestFileErrors:
    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": "\xe9"}')
        line = single_error(*run(capsys, "charts", str(path)),
                            "ParseError: cannot read")
        assert line.endswith("not UTF-8")

    def test_directory_as_file(self, capsys, tmp_path):
        single_error(*run(capsys, "charts", str(tmp_path)),
                     "ParseError: cannot read")

    def test_analyze_all_needs_a_directory(self, capsys, corpus):
        path = corpus("square") / "polytope.json"
        single_error(*run(capsys, "analyze", "--all", str(path)),
                     "ParseError: --all needs a directory")

    def test_analyze_all_with_an_unreadable_entry(self, capsys, corpus):
        directory = corpus("square")
        (directory / "stray.json").mkdir()
        single_error(*run(capsys, "analyze", "--all", str(directory)),
                     "ParseError: cannot read")

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_render_out_not_writable(self, capsys, tmp_path, corpus,
                                     target):
        out = tmp_path if target == "directory" else \
            tmp_path / "missing" / "x.svg"
        result = run(capsys, "render",
                     str(corpus("square") / "polytope.json"),
                     "--out", str(out))
        single_error(*result, "OutputError: cannot write")
        assert not (tmp_path / "missing").exists()

    def test_examples_dir_below_a_file(self, capsys, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("")
        result = run(capsys, "examples", "square", "--dir",
                     str(plain / "sub"))
        single_error(*result, "OutputError: cannot write")

def negated(vector):
    return [[format_rational(-Fraction(c)) for c in x] for x in vector]


def mutations(doc, vectors, cells):
    """Copies of doc with its list of index cells (cones or simplices)
    over its list of vectors damaged once each: a cell dropped or
    duplicated, an index out of range, a vector negated or moved onto the
    sum of the first two."""
    count = len(doc[vectors])

    def mutant(name, change):
        out = copy.deepcopy(doc)
        change(out)
        return name, out

    def set_index(value):
        def change(out):
            out[cells][0][0] = value
        return change

    def negate(k):
        def change(out):
            out[vectors][k] = negated(out[vectors][k])
        return change

    def add_second_to_first(out):
        first, second = out[vectors][:2]
        out[vectors][0] = [
            [format_rational(Fraction(a) + Fraction(b))
             for a, b in zip(x, y)] for x, y in zip(first, second)]

    return [
        mutant("drop first cell", lambda out: out[cells].pop(0)),
        mutant("drop last cell", lambda out: out[cells].pop()),
        mutant("duplicate cell",
               lambda out: out[cells].append(out[cells][0])),
        mutant("index 0", set_index(0)),
        mutant("index past the end", set_index(count + 1)),
        mutant("negate first vector", negate(0)),
        mutant("negate last vector", negate(count - 1)),
        mutant("first vector plus second", add_second_to_first),
    ]


class TestMutatedDocuments:
    """Damaged fan and configuration documents through cli.main: a
    verdict (exit 0) or one domain-error line (exit 1), never a traceback
    or a failed internal invariant (exit 3)."""

    def check(self, capsys, tmp_path, command, cases):
        problems = []
        for name, doc in cases:
            path = tmp_path / "mutant.json"
            path.write_text(json.dumps(doc))
            try:
                code, out, err = run(capsys, command, str(path))
            except Exception as exc:  # escaped cli.main: a bug
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            lines = err.strip().splitlines()
            if code not in (0, 1) or (code == 1 and len(lines) != 1):
                problems.append(f"{name}: exit {code}: {err!r}")
        assert not problems, problems

    def test_polytopal_on_a_damaged_fan(self, corpus, capsys, tmp_path):
        doc = json.loads((corpus("twisted-cube") / "fan.json").read_text())
        self.check(capsys, tmp_path, "polytopal",
                   mutations(doc, "rays", "cones"))

    @pytest.mark.parametrize("entry,a", [
        ("kite", None), ("thick-rhombus", None), ("hirzebruch", "sqrt2")])
    def test_validate_config_on_a_damaged_configuration(
            self, corpus, capsys, tmp_path, entry, a):
        directory = corpus(entry, **({"a": a} if a else {}))
        doc = json.loads((directory / "configuration.json").read_text())
        self.check(capsys, tmp_path, "validate-config",
                   mutations(doc, "vectors", "triangulation"))

    @pytest.mark.parametrize("entry", ["pentagon", "twisted-cube"])
    def test_augment_on_a_damaged_fan_triple(self, corpus, capsys,
                                             tmp_path, entry):
        # a triple over a fan: the pentagon's normal fan from its analyze
        # report, or the twisted cube over Z^3 with its rays as normals
        directory = corpus(entry)
        if entry == "pentagon":
            doc = json.loads((directory / "triple.json").read_text())
            fan = run_json(capsys, "analyze",
                           str(directory / "polytope.json"))["normal_fan"]
            del doc["polytope"]
            doc["fan"] = {"rays": fan["rays"], "cones": fan["maximal_cones"]}
        else:
            fan = json.loads((directory / "fan.json").read_text())
            doc = {"field": fan.pop("field"), "n": 3, "fan": fan,
                   "quasilattice": {"generators": [
                       [["1"] if i == j else ["0"] for j in range(3)]
                       for i in range(3)]},
                   "normals": fan["rays"]}
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(doc))
        run_json(capsys, "augment", str(path))
        # the normals follow the damaged rays
        self.check(capsys, tmp_path, "augment",
                   [(name, {**doc, "fan": fan, "normals": fan["rays"]})
                    for name, fan in mutations(doc["fan"], "rays", "cones")])


def container_paths(doc, path=()):
    """The key path of every object entry whose value is a list or an
    object, descending into the first item of each list."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                yield path + (key,)
                yield from container_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from container_paths(doc[0], path + (0,))


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def fan_triple():
    fan = copy.deepcopy(corpus_entry("twisted-cube")["fan.json"])
    return {"field": fan.pop("field"), "n": 3, "fan": fan,
            "quasilattice": {"generators": [
                [["1"] if i == j else ["0"] for j in range(3)]
                for i in range(3)]},
            "normals": fan["rays"]}


# (document kind, its document, the argv that reads it from FILE, and the
# files the argv reads besides it)
DOCUMENT_KINDS = [
    ("polytope", corpus_entry("square")["polytope.json"],
     ["analyze", "FILE"], {}),
    ("fan", corpus_entry("twisted-cube")["fan.json"],
     ["polytopal", "FILE"], {}),
    ("quasilattice", corpus_entry("square")["quasilattice.json"],
     ["quasirational", "BODY", "--ql", "FILE"],
     {"BODY": corpus_entry("square")["polytope.json"]}),
    ("polytope triple", corpus_entry("square")["triple.json"],
     ["check-triple", "FILE"], {}),
    ("fan triple", fan_triple(), ["check-triple", "FILE"], {}),
    ("configuration", corpus_entry("kite")["configuration.json"],
     ["validate-config", "FILE"], {}),
]


class TestMalformedContainers:
    """5, "ab", {} and [] in place of every list or object of every
    document kind: a value of the wrong type is one ParseError line and
    exit 1; an empty value of the right type is a verdict or one
    domain-error line.  Never a traceback."""

    @pytest.mark.parametrize("kind,doc,argv,others", DOCUMENT_KINDS,
                             ids=[k[0] for k in DOCUMENT_KINDS])
    def test_every_container_key(self, capsys, tmp_path, kind, doc, argv,
                                 others):
        names = {"FILE": tmp_path / "doc.json"}
        for name, other in others.items():
            names[name] = tmp_path / f"{name}.json"
            names[name].write_text(json.dumps(other))
        argv = [str(names.get(a, a)) for a in argv]
        paths = list(container_paths(doc))
        assert paths
        problems = []
        for path in paths:
            original = doc
            for key in path:
                original = original[key]
            for value in (5, "ab", {}, []):
                names["FILE"].write_text(
                    json.dumps(replaced(doc, path, value)))
                case = f"{'.'.join(map(str, path))} = {value!r}"
                try:
                    code, out, err = run(capsys, *argv)
                except Exception as exc:  # escaped cli.main: a bug
                    problems.append(f"{case}: {type(exc).__name__}: {exc}")
                    continue
                lines = err.strip().splitlines()
                if type(value) is not type(original):
                    if code != 1 or len(lines) != 1 \
                            or not lines[0].startswith("ParseError: "):
                        problems.append(f"{case}: exit {code}: {err!r}")
                elif code not in (0, 1) or (code == 1 and len(lines) != 1):
                    problems.append(f"{case}: exit {code}: {err!r}")
        assert not problems, problems


class TestEnvironmentResolution:
    def test_corpus_env_fallback(self, corpus, capsys, monkeypatch,
                                 tmp_path):
        corpus("square")
        monkeypatch.setenv("QUASITORIC_CORPUS", str(tmp_path))
        report = run_json(capsys, "check-triple", "square/triple.json")
        assert report["valid"] is True

    def test_examples_default_dir_from_env(self, capsys, monkeypatch,
                                           tmp_path):
        monkeypatch.setenv("QUASITORIC_CORPUS", str(tmp_path))
        report = run_json(capsys, "examples", "interval")
        assert report["directory"] == str(tmp_path / "interval")
        assert (tmp_path / "interval" / "triple.json").exists()


class TestDeterminismAndGoldens:
    def test_reports_identical_across_runs(self, corpus, capsys):
        directory = corpus("thick-rhombus")
        _, out1, _ = run(capsys, "gale",
                         str(directory / "configuration.json"))
        _, out2, _ = run(capsys, "gale",
                         str(directory / "configuration.json"))
        assert out1 == out2

    @pytest.mark.parametrize("entry,a,command,source,golden", [
        ("kite", None, "validate-config", "configuration.json",
         "kite-validate-config.json"),
        ("thick-rhombus", None, "validate-config", "configuration.json",
         "thick-rhombus-validate-config.json"),
        ("thick-rhombus", None, "gale", "configuration.json",
         "thick-rhombus-gale.json"),
        ("hirzebruch", "sqrt2", "gale", "configuration.json",
         "hirzebruch-sqrt2-gale.json"),
        ("orbifold-interval", None, "charts", "triple.json",
         "orbifold-interval-charts.json"),
        ("pentagon", None, "analyze", "polytope.json",
         "pentagon-analyze.json"),
    ])
    def test_golden_reports(self, corpus, capsys, entry, a, command,
                            source, golden):
        directory = corpus(entry, **({"a": a} if a else {}))
        code, out, err = run(capsys, command, str(directory / source))
        assert code == 0, err
        assert out == (GOLDEN / golden).read_text()


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "quasitoric.cli", "examples", "interval",
         "--dir", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert (tmp_path / "interval" / "polytope.json").exists()
