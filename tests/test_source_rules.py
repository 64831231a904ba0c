"""The package's standing rules, read off its source with `ast`: it
imports nothing outside the standard library and itself, it has no
floating point (no float or complex literal, no call to `float`), and
only `polytope.py` makes `Face` objects (no call to `Face` or to a method
that hands Faces out anywhere else)."""

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


# methods that make Faces; the rest of the package works on vertex masks
FACE_MAKERS = {"top_face", "faces", "face_lattice", "face_children", "_face"}


def face_calls(tree):
    """(line, what) for each call in a parsed module that makes a Face."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "Face":
            yield node.lineno, "call to Face"
        elif isinstance(func, ast.Attribute) and func.attr in FACE_MAKERS:
            yield node.lineno, f"call to .{func.attr}"


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


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "polytope.py"],
    ids=lambda path: path.name,
)
def test_faces_only_at_the_public_edge(path):
    assert list(face_calls(ast.parse(path.read_text(), str(path)))) == []


def test_face_rule_is_seen():
    assert "volumes.py" in {path.name for path in SOURCES}
    source = "\n".join([
        "Face(P, 1, 0, 0)",
        "P.top_face()",
        "P.faces(0)",
        "P.face_lattice()",
        "P.face_children(F)",
        "P._face(1)",
        "P._lattice().dims",
        "P._broken('x', 1)",
        "faces = Face",
    ])
    assert [line for line, _ in face_calls(ast.parse(source))] == [1, 2, 3, 4, 5, 6]
