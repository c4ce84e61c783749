"""JSON document round-trips and loader validation."""

import json

import pytest

import hyperlab as H
from hyperlab.cli import main

ROUND_TRIP = ["paper-2-4", "paper-3-3", "ring:Z4", "ring:Z6", "ring:Z2xZ3"]


def doc_for(name):
    return H.structure_to_document(H.fixture(name).structure)


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_document_round_trip(name):
    a = H.fixture(name).structure
    assert H.document_to_structure(H.structure_to_document(a)) == a
    assert H.deserialize(H.serialize(a)) == a
    # the label does not take part in ==, so compare it on its own
    assert H.document_to_structure(H.structure_to_document(a)).label == a.label


def test_serialization_is_deterministic(z6):
    assert H.serialize(z6) == H.serialize(z6)
    assert H.serialize(z6).endswith("\n")


def test_dump_and_load(tmp_path, z4):
    path = tmp_path / "z4.json"
    H.dump_structure(z4, path)
    assert H.load_structure(path) == z4
    assert H.load_structure(str(path)) == z4


def test_load_missing_file(tmp_path):
    with pytest.raises(H.LoadError):
        H.load_structure(tmp_path / "absent.json")


@pytest.mark.parametrize("command", [["validate"], ["ideals"],
                                     ["classify", "--ideal", "0", "--mult-set", "1"]],
                         ids=["validate", "ideals", "classify"])
def test_a_document_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    # a UTF-16 byte-order mark, then the document
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + H.serialize(H.fixture("ring:Z4").structure).encode())
    with pytest.raises(H.LoadError, match="cannot read"):
        H.load_structure(path)
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_permuted_keys_fold():
    doc = doc_for("ring:Z4")
    value = doc["f"].pop("1,3")
    doc["f"]["3,1"] = value
    assert H.document_to_structure(doc) == H.fixture("ring:Z4").structure


def test_conflicting_permutations_rejected():
    doc = doc_for("ring:Z4")
    doc["f"]["3,1"] = ["1"]
    with pytest.raises(H.LoadError, match="disagree"):
        H.document_to_structure(doc)


def test_missing_g_entry_rejected():
    doc = doc_for("ring:Z4")
    del doc["g"]["2,3"]
    with pytest.raises(H.LoadError):
        H.document_to_structure(doc)


def test_unknown_element_name_rejected():
    doc = doc_for("ring:Z4")
    doc["g"]["2,3"] = "7"
    with pytest.raises(H.LoadError, match="unknown element name '7'"):
        H.document_to_structure(doc)


@pytest.mark.parametrize("table, key, spelled, value, message", [
    ("f", "1,3", "7,9", None, "unknown element name '7' in f key '7,9'"),
    ("f", "1,3", "1,3", ["0", "x", "y"], "unknown element name 'x' in f value for '1,3'"),
    ("g", "2,3", "3,9", None, "unknown element name '9' in g key '3,9'"),
    ("g", "2,3", "2,3", "7", "unknown element name '7' in g value for '2,3'"),
    ("g", "2,3", "2,3", ["1"], "unknown element name ['1'] in g value for '2,3'"),
], ids=["f-key", "f-value", "g-key", "g-value", "g-value-list"])
def test_unknown_element_message_names_the_first_bad_part(table, key, spelled, value, message):
    doc = doc_for("ring:Z4")
    old = doc[table].pop(key)
    doc[table][spelled] = old if value is None else value
    with pytest.raises(H.LoadError) as raised:
        H.document_to_structure(doc)
    assert str(raised.value) == message


def test_empty_f_value_rejected():
    doc = doc_for("ring:Z4")
    doc["f"]["1,3"] = []
    with pytest.raises(H.LoadError):
        H.document_to_structure(doc)


def test_f_value_must_be_array():
    doc = doc_for("ring:Z4")
    doc["f"]["1,3"] = "0"
    with pytest.raises(H.LoadError, match="array"):
        H.document_to_structure(doc)


def test_duplicate_carrier_names_rejected():
    doc = doc_for("ring:Z4")
    doc["carrier"] = ["0", "1", "2", "2"]
    with pytest.raises(H.LoadError, match="duplicate"):
        H.document_to_structure(doc)


def test_malformed_headers_rejected():
    for breakage in (
        lambda d: d.pop("m"),
        lambda d: d.pop("zero"),
        lambda d: d.update(m="two"),
        lambda d: d.update(m="3"),
        lambda d: d.update(m=2.7),
        lambda d: d.update(n=2.0),
        lambda d: d.update(n=True),
        lambda d: d.update(m=None),
        lambda d: d.update(name=None),
        lambda d: d.update(name=json.loads("[" * 900 + "]" * 900)),
        lambda d: d.update(carrier="0123"),
        lambda d: d.pop("f"),
    ):
        doc = doc_for("ring:Z4")
        breakage(doc)
        with pytest.raises(H.LoadError):
            H.document_to_structure(doc)


def test_not_json_rejected():
    with pytest.raises(H.LoadError, match="not valid JSON"):
        H.deserialize("{truncated")


def test_a_5000_digit_integer_exits_2(tmp_path, capsys):
    # json refuses it past the interpreter's int-digit limit; without that
    # limit the header check refuses the arity
    text = H.serialize(H.fixture("ring:Z4").structure)
    path = tmp_path / "huge.json"
    path.write_text(text.replace('"m": 2', '"m": ' + "9" * 5000))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_non_object_document_rejected():
    with pytest.raises(H.LoadError, match="JSON object"):
        H.deserialize("[1, 2, 3]")


def test_identity_is_optional():
    doc = doc_for("ring:Z4")
    assert doc["one"] == "1"
    del doc["one"]
    assert H.document_to_structure(doc).one is None
    doc["one"] = None
    assert H.document_to_structure(doc).one is None


def test_document_text_is_plain_json(z4):
    doc = json.loads(H.serialize(z4))
    assert doc["carrier"] == ["0", "1", "2", "3"]
    assert doc["zero"] == "0"
    assert set(doc) == {"name", "m", "n", "carrier", "zero", "one", "f", "g"}


def test_comma_in_element_name_is_refused():
    # from_tables accepts any distinct names, but a document key joins the
    # names of a multiset with commas, so "a,b" could not be read back
    a = H.HyperStructure.from_tables(
        2, 2, ("0", "a,b"),
        {(0, 0): (0,), (0, 1): (1,), (1, 1): (0,)},
        {(0, 0): 0, (0, 1): 0, (1, 1): 1}, zero=0, one=1)
    with pytest.raises(H.TableError, match="'a,b'"):
        H.serialize(a)
    doc = doc_for("ring:Z2")
    doc["carrier"] = ["0", "a,b"]
    with pytest.raises(H.LoadError, match="carrier name 'a,b' contains ','"):
        H.document_to_structure(doc)
