"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperlab"


def third_party_imports(path: Path) -> list[str]:
    """Top-level names of absolute imports that are not stdlib modules."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [name for name in names
                if name.split(".")[0] not in sys.stdlib_module_names]
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_stdlib(path):
    assert third_party_imports(path) == []


def test_guard_sees_third_party_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nimport numpy as np\n"
                     "from hypothesis import given\nfrom . import core\n")
    assert third_party_imports(probe) == ["numpy", "hypothesis"]
