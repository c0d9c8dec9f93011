"""No verdict may rest on `assert`, which `python -O` strips: the library
holds no assert statement at all."""

import ast
from pathlib import Path

import otwb

LIBRARY = Path(otwb.__file__).parent


def asserts_in(source, name):
    """`name:line` of every assert statement in source."""
    return [f"{name}:{node.lineno}" for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.Assert)]


def test_library_has_no_assert_statements():
    paths = sorted(LIBRARY.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in asserts_in(path.read_text(), path.name)]
    assert found == [], f"assert statements in the library: {', '.join(found)}"


def test_guard_names_file_and_line():
    source = "def f(x):\n    if x:\n        assert x, 'nested'\n    return x\n"
    assert asserts_in(source, "mod.py") == ["mod.py:3"]
