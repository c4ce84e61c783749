"""No function in the package keeps state in a module-level name.

Derived data belongs to the object it is derived from (a structure's
inverse map and translation-row tables, a lattice's ideal-product table, a
suite context's factor contexts, product triple, verdict memo and rendered
subsets), so two calls in one process share nothing but read-only tables
such as ``STATEMENTS`` and ``PREDICATES``.  A structure sets its derived
fields in ``__post_init__``, not through ``cached_property``, which on
CPython 3.11 makes every later attribute read on the instance about 3x
slower.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperlab"

MUTATING_METHODS = frozenset({
    "add", "append", "clear", "difference_update", "discard", "extend",
    "insert", "intersection_update", "pop", "popitem", "remove", "reverse",
    "setdefault", "sort", "symmetric_difference_update", "update",
    "__delitem__", "__setitem__",
})

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def module_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level statements."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        else:
            names.update(node.id for node in ast.walk(stmt)
                         if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Store))
    return names


def base_name(node: ast.AST) -> str | None:
    """The name a chain of subscripts and attributes starts from."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_state_writes(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each write to a module-level name inside a function:
    a ``global`` declaration, a store into a subscript or attribute of it
    (plain, augmented or ``del``), or a call of a mutating method on it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    shared = module_names(tree)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        local = {arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}
        local |= {node.id for node in ast.walk(fn)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.update((node.lineno, name) for name in node.names)
                continue
            if (isinstance(node, (ast.Subscript, ast.Attribute))
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                name = base_name(node)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATING_METHODS):
                name = base_name(node.func.value)
            else:
                continue
            if name in shared and name not in local:
                found.add((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_keeps_no_state(path):
    assert module_state_writes(path) == []


def test_guard_sees_module_state(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json\n"
        "_cache = {}\n"
        "_seen = []\n"
        "_count = 0\n"
        "REGISTRY = {'a': 1}\n"
        "def hit(key):\n"
        "    global _count\n"
        "    _cache[key] = 1\n"
        "    _cache[key] += 1\n"
        "    _seen.append(key)\n"
        "    del _cache[key]\n"
        "    json.decoder = None\n"
        "    table = {}\n"
        "    table[key] = REGISTRY.get(key)\n"
        "    return REGISTRY[key]\n"
        "def shadow(_cache):\n"
        "    _cache[0] = 1\n"
        "remember = lambda key: _seen.extend(key)\n")
    assert module_state_writes(probe) == [
        (7, "_count"), (8, "_cache"), (9, "_cache"), (10, "_seen"),
        (11, "_cache"), (12, "json"), (18, "_seen")]


def test_structure_defines_no_cached_property():
    tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "HyperStructure"]
    decorators = [ast.unparse(d) for fn in cls.body
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for d in fn.decorator_list]
    assert decorators and not any("cached_property" in d for d in decorators)
