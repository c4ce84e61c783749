"""JSON (de)serialization of structures.

Document shape: ``{"name", "m", "n", "carrier", "zero", "one"?, "f", "g"}``
where f maps comma-joined element names to arrays of names and g maps them
to a single name, so no element name may contain a comma.  Keys may be
written in any argument order; the loader folds them by commutativity and
rejects two permutations of the same multiset carrying different values.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import HyperStructure
from .errors import LoadError, TableError

# a table key joins its argument names with this; a name may not contain it
KEY_SEPARATOR = ","


def structure_to_document(a: HyperStructure) -> dict:
    for name in a.names:
        if KEY_SEPARATOR in name:
            raise TableError(f"element name {name!r} contains {KEY_SEPARATOR!r}, "
                             f"which separates the names of a table key")
    doc: dict = {
        "name": a.label,
        "m": a.m,
        "n": a.n,
        "carrier": list(a.names),
        "zero": a.names[a.zero],
    }
    if a.one is not None:
        doc["one"] = a.names[a.one]
    doc["f"] = {
        KEY_SEPARATOR.join(a.names[i] for i in ms): [a.names[v] for v in value]
        for ms, value in sorted(a.f_table.items())
    }
    doc["g"] = {
        KEY_SEPARATOR.join(a.names[i] for i in ms): a.names[value]
        for ms, value in sorted(a.g_table.items())
    }
    return doc


def document_to_structure(doc: object) -> HyperStructure:
    if not isinstance(doc, dict):
        raise LoadError("document must be a JSON object")
    try:
        m, n = doc["m"], doc["n"]
        carrier = doc["carrier"]
        zero_name = doc["zero"]
    except KeyError as exc:
        raise LoadError(f"malformed document header: missing {exc}") from exc
    for key, arity in (("m", m), ("n", n)):
        # bool is an int subclass, and 2.7 or "3" must not pass as 2 or 3
        if type(arity) is not int:
            raise LoadError(f"malformed document header: {key} must be an "
                            f"integer, got {type(arity).__name__}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise LoadError(f"malformed document header: name must be a "
                        f"string, got {type(name).__name__}")
    if (not isinstance(carrier, list)
            or not all(isinstance(x, str) for x in carrier)):
        raise LoadError("carrier must be a list of element names")
    for element in carrier:
        if KEY_SEPARATOR in element:
            raise LoadError(f"carrier name {element!r} contains {KEY_SEPARATOR!r}, "
                            f"which separates the names of a table key")
    index = {name: i for i, name in enumerate(carrier)}
    if len(index) != len(carrier):
        raise LoadError("carrier contains duplicate names")

    def unknown(*places) -> LoadError:
        # the error naming the first name, place by place, that is no carrier name
        return next(LoadError(f"unknown element name {x!r} in {where}")
                    for names, where in places for x in names
                    if not isinstance(x, str) or x not in index)

    # one dict lookup per name; the except clauses only word the error
    get = index.__getitem__
    one = doc.get("one")
    try:
        zero = get(zero_name)
        if one is not None:
            one = get(one)
    except (KeyError, TypeError):
        raise unknown(((zero_name,), "zero"), ((one,), "one")) from None

    f_doc, g_doc = doc.get("f"), doc.get("g")
    if not isinstance(f_doc, dict) or not isinstance(g_doc, dict):
        raise LoadError("document must carry f and g tables")
    f_entries, g_entries = {}, {}
    for key, value in f_doc.items():
        parts = key.split(KEY_SEPARATOR)
        try:
            args = tuple(map(get, parts))
            if not isinstance(value, list):
                raise LoadError(f"f value for {key!r} must be an array of names")
            f_entries[args] = tuple(map(get, value))
        except (KeyError, TypeError):
            raise unknown((parts, f"f key {key!r}"), (value, f"f value for {key!r}")) from None
    for key, value in g_doc.items():
        parts = key.split(KEY_SEPARATOR)
        try:
            g_entries[tuple(map(get, parts))] = get(value)
        except (KeyError, TypeError):
            raise unknown((parts, f"g key {key!r}"), ((value,), f"g value for {key!r}")) from None

    try:
        return HyperStructure.from_tables(
            m, n, tuple(carrier), f_entries, g_entries, zero, one,
            label=name)
    except ValueError as exc:
        raise LoadError(str(exc)) from exc


def serialize(a: HyperStructure) -> str:
    return json.dumps(structure_to_document(a), indent=2, sort_keys=True) + "\n"


def deserialize(text: str) -> HyperStructure:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise LoadError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise LoadError("document nests too deeply to parse") from exc
    return document_to_structure(doc)


def load_structure(path: str | Path) -> HyperStructure:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    return deserialize(text)


def dump_structure(a: HyperStructure, path: str | Path) -> None:
    Path(path).write_text(serialize(a), encoding="utf-8")

