import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q, qvec
from quasitoric import documents as docs
from quasitoric.cli import main
from quasitoric.corpus import ENTRY_NAMES, corpus_entry, pentagon_field
from quasitoric.errors import ParseError
from quasitoric.fan import fans_equivalent
from quasitoric.field import RealAlgebraicField, format_rational


class TestFieldDocs:
    def test_roundtrip(self):
        k = pentagon_field()
        doc = docs.field_to_doc(k)
        k2 = docs.field_from_doc(doc)
        assert k.same_field(k2)

    def test_missing_field_means_q(self):
        k = docs.field_from_doc(None)
        assert k.degree == 1

    def test_bad_declaration(self):
        with pytest.raises(ParseError):
            docs.field_from_doc({"minpoly": ["1"]})


class TestElementDocs:
    def test_rationals_as_text(self):
        x = Q.element("3/4")
        assert docs.element_to_doc(x) == ["3/4"]
        assert docs.element_from_doc(Q, ["3/4"]) == x

    def test_power_basis_lists(self):
        k = pentagon_field()
        x = k.element(["1/2", "0", "-2", "1"])
        assert docs.element_to_doc(x) == ["1/2", "0", "-2", "1"]
        assert docs.element_from_doc(k, docs.element_to_doc(x)) == x

    def test_non_list_rejected(self):
        with pytest.raises(ParseError):
            docs.element_from_doc(Q, "1/2")


class TestCorpusRoundtrip:
    """parse -> serialize -> parse yields identical documents."""

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_entry_documents_stable(self, name):
        entry = corpus_entry(name)
        for filename, doc in entry.items():
            text = docs.dumps(doc)
            reparsed = docs.parse_json(text)
            assert reparsed == doc, f"{name}/{filename}"
            assert docs.dumps(reparsed) == text

    def test_polytope_object_roundtrip(self):
        entry = corpus_entry("pentagon")
        H = docs.polytope_from_doc(entry["polytope.json"])
        doc2 = docs.polytope_to_doc(H)
        assert doc2 == entry["polytope.json"]

    def test_triple_object_roundtrip(self):
        entry = corpus_entry("hirzebruch", "1/2")
        triple = docs.triple_from_doc(entry["triple.json"])
        assert docs.triple_to_doc(triple) == entry["triple.json"]

    def test_configuration_object_roundtrip(self):
        entry = corpus_entry("thick-rhombus")
        config, tri = docs.configuration_from_doc(
            entry["configuration.json"])
        assert docs.configuration_to_doc(config, tri) \
            == entry["configuration.json"]

    def test_fan_doc_closure(self):
        entry = corpus_entry("twisted-cube")
        fan = docs.fan_from_doc(entry["fan.json"])
        # 12 maximal cones, all faces present after closure
        assert len([c for c in fan.maximal_cones()]) == 12
        assert () in fan.cones
        assert all(len(c) <= 3 for c in fan.cones)
        fan2 = docs.fan_from_doc(docs.fan_to_doc(fan))
        assert fans_equivalent(fan, fan2)


class TestDocumentKind:
    def test_kinds(self):
        assert docs.document_kind({"facets": []}) == "polytope"
        assert docs.document_kind({"rays": [], "cones": []}) == "fan"
        assert docs.document_kind({"generators": []}) == "quasilattice"
        assert docs.document_kind(
            {"vectors": [], "triangulation": []}) == "configuration"
        assert docs.document_kind(
            {"polytope": {}, "quasilattice": {}}) == "triple"
        assert docs.document_kind({}) == "empty"
        with pytest.raises(ParseError):
            docs.document_kind({"mystery": 1})

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            docs.parse_json("{nope")
        with pytest.raises(ParseError):
            docs.parse_json("[1, 2]")


class TestIndexConvention:
    def test_one_based_indices_in_documents(self):
        entry = corpus_entry("hirzebruch", "sqrt2")
        doc = entry["configuration.json"]
        assert doc["ghosts"] == [5]
        assert sorted(map(tuple, doc["triangulation"])) == [
            (1, 2), (1, 3), (2, 4), (3, 4)]

    def test_out_of_range_index(self):
        entry = corpus_entry("hirzebruch", "sqrt2")
        doc = dict(entry["configuration.json"])
        doc["triangulation"] = [[0, 1]]
        with pytest.raises(ParseError):
            docs.configuration_from_doc(doc)


class TestExactSchema:
    """true and false are JSON booleans, never the integers 1 and 0."""

    @pytest.mark.parametrize("doc,load", [
        (corpus_entry("interval", "sqrt2")["polytope.json"],
         docs.polytope_from_doc),
        (corpus_entry("interval", "sqrt2")["quasilattice.json"],
         docs.quasilattice_from_doc),
        (corpus_entry("interval", "sqrt2")["triple.json"],
         docs.triple_from_doc),
        ({"n": 1, "rays": [[["1"]], [["-1"]]], "cones": [[1], [2]]},
         docs.fan_from_doc),
        ({"n": 1, "vectors": [[["1"]], [["-1"]], [["1"]]],
          "triangulation": [[1], [2]]},
         docs.configuration_from_doc),
    ])
    def test_boolean_dimension_rejected(self, doc, load):
        assert doc["n"] == 1
        load(doc)
        with pytest.raises(ParseError, match="integer"):
            load({**doc, "n": True})

    def test_boolean_index_rejected(self):
        doc = dict(corpus_entry("hirzebruch", "sqrt2")["configuration.json"])
        doc["triangulation"] = [[True, 2], [1, 3], [2, 4], [3, 4]]
        with pytest.raises(ParseError, match="not an integer"):
            docs.configuration_from_doc(doc)

    def test_boolean_ghost_rejected(self):
        doc = dict(corpus_entry("hirzebruch", "sqrt2")["configuration.json"])
        doc["ghosts"] = [True]
        with pytest.raises(ParseError, match="not an integer"):
            docs.configuration_from_doc(doc)

    def test_text_ghost_rejected(self):
        doc = dict(corpus_entry("hirzebruch", "sqrt2")["configuration.json"])
        doc["ghosts"] = ["x"]
        with pytest.raises(ParseError, match="not an integer"):
            docs.configuration_from_doc(doc)

    def test_out_of_range_ghost_rejected(self):
        doc = dict(corpus_entry("hirzebruch", "sqrt2")["configuration.json"])
        doc["ghosts"] = [6]
        with pytest.raises(ParseError, match="out of range"):
            docs.configuration_from_doc(doc)

    def test_boolean_rational_rejected(self):
        with pytest.raises(ParseError):
            docs.element_from_doc(Q, [True])


class TestMinpolyDeclaration:
    @pytest.mark.parametrize("minpoly", ["01", {"0": 1, "1": 2}, 5, None])
    def test_minpoly_must_be_a_list(self, minpoly):
        with pytest.raises(ParseError, match="minpoly must be a list"):
            docs.field_from_doc({"minpoly": minpoly,
                                 "interval": ["-1", "1"]})

    def test_analyze_rejects_a_text_minpoly(self, capsys, tmp_path):
        doc = {"field": {"minpoly": "01", "interval": ["-1", "1"]},
               "n": 1,
               "facets": [{"normal": [["1"]], "offset": ["1"]},
                          {"normal": [["-1"]], "offset": ["1"]}]}
        path = tmp_path / "segment.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith("ParseError: ")


# ---------------------------------------------------------------------------
# Oracles: the writer against json.dumps(indent=2), and element parsing
# against the Fraction implementation it replaced
# ---------------------------------------------------------------------------

json_scalars = (st.none() | st.booleans()
                | st.integers() | st.integers(-10 ** 80, 10 ** 80)
                | st.text())
json_trees = st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=40)


@settings(max_examples=400, deadline=None, database=None)
@given(json_trees)
def test_dumps_matches_indented_json_dumps(doc):
    assert docs.dumps(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {1: "a", True: [], None: {}, -7: ("x", 2)},
    {"k": [[], {}, (), [[]], ["é\x00 ", 3, False]]},
    ["only", "strings"], [1, 2, 3], [True, False], [1, "1", None],
    "top-level text", 12 ** 40, None])
def test_dumps_matches_json_dumps_on_edge_cases(doc):
    assert docs.dumps(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {"x": 1.5}, [Fraction(1, 2)], {"s": {1, 2}}, {1.5: "key"},
    {("t",): 1}])
def test_dumps_refuses_other_types(doc):
    with pytest.raises(TypeError):
        docs.dumps(doc)


def parent_parse_rational(text):
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {text!r}") from exc
    raise ParseError(f"not a rational: {text!r}")


def parent_element_from_doc(field, doc):
    """(num, den) of the element, as the Fraction implementation built it."""
    if not isinstance(doc, list):
        raise ParseError(f"element must be a coefficient list, got {doc!r}")
    coeffs = [parent_parse_rational(c) for c in doc]
    if len(coeffs) > field.degree:
        extra = list(coeffs)
        while extra and extra[-1] == 0:
            extra.pop()
        if len(extra) > field.degree:
            raise ParseError(
                f"coefficient list longer than field degree {field.degree}")
        coeffs = extra
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
    return num + (0,) * (field.degree - len(num)), den


ELEMENT_FIELDS = (Q, RealAlgebraicField(["-2", "0", "1"], ("1", "2")),
                  pentagon_field())

coefficients = st.one_of(
    st.integers(-12, 12).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-40, 40),
              st.integers(0, 40)),
    st.integers(-10 ** 30, 10 ** 30), st.booleans(),
    st.sampled_from(["0", "-0", "00", "0/7", "+3", " 3/4 ", "1.5", "1e3",
                     "1_000", "٣", "3/-4", "/", "", None, 1.5, [], ["1"]]))


@settings(max_examples=400, deadline=None, database=None)
@given(st.sampled_from(ELEMENT_FIELDS),
       st.lists(coefficients, max_size=6) | coefficients)
def test_element_from_doc_matches_the_fraction_route(field, doc):
    try:
        x = docs.element_from_doc(field, doc)
        new = x.num, x.den
    except ParseError as exc:
        new = ParseError, str(exc)
    try:
        ref = parent_element_from_doc(field, doc)
    except ParseError as exc:
        ref = ParseError, str(exc)
    assert new == ref


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(ELEMENT_FIELDS), st.data())
def test_element_to_doc_matches_format_rational(field, data):
    coeffs = data.draw(st.lists(st.fractions(max_denominator=10 ** 6),
                                min_size=field.degree,
                                max_size=field.degree))
    x = field.element(coeffs)
    assert docs.element_to_doc(x) == [format_rational(c) for c in coeffs]
