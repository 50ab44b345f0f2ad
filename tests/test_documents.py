import pytest

from conftest import Q, qvec
from quasitoric import documents as docs
from quasitoric.corpus import ENTRY_NAMES, corpus_entry, pentagon_field
from quasitoric.errors import ParseError
from quasitoric.fan import fans_equivalent


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
