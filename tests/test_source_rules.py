"""The package's two standing rules, read off its source with `ast`: it
imports nothing outside the standard library and itself, and it has no
floating point (no float or complex literal, no call to `float`)."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "polyinv").glob("*.py")
)


def violations(tree):
    """(line, what) for each breach of the rules in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        for name in modules:
            if name.split(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, f"import of {name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            yield node.lineno, "call to float"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_keeps_the_rules(path):
    assert list(violations(ast.parse(path.read_text(), str(path)))) == []


def test_rules_are_seen():
    assert "linalg.py" in {path.name for path in SOURCES}
    source = "\n".join([
        "import numpy.linalg",
        "from sympy import Matrix",
        "from . import linalg",
        "from fractions import Fraction",
        "x = 0.5",
        "y = 2j",
        "z = float(1)",
    ])
    assert [line for line, _ in violations(ast.parse(source))] == [1, 2, 5, 6, 7]
