"""The package's standing rules, read off its source with `ast`: it
imports nothing outside the standard library and itself, nor
`dataclasses` (its records are namedtuples), it has no
floating point (no float or complex literal, no call to `float`), no
`setdefault` builds its default by a call, which runs on every lookup, only
`polytope.py` makes `Face` objects (no call to `Face` or to a method
that hands Faces out anywhere else), and every identity check has a test
that makes it fire (its message is matched by some `pytest.raises`)."""

import ast
import re
import sys
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "polyinv").glob("*.py")
)
TESTS = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


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
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names or top == "dataclasses":
                yield node.lineno, f"import of {name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            yield node.lineno, "call to float"
        # setdefault evaluates its default before it looks up the key
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "setdefault"
            and len(node.args) > 1 and isinstance(node.args[1], ast.Call)
        ):
            yield node.lineno, "setdefault with a call as its default"


# methods that make Faces; the rest of the package works on vertex masks
FACE_MAKERS = {
    "top_face", "faces", "face_lattice", "face_children", "_face", "_make", "_replace",
}


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


def test_dataclasses_rule_is_seen():
    source = "\n".join([
        "from dataclasses import dataclass",
        "import dataclasses",
        "from collections import namedtuple",
    ])
    assert list(violations(ast.parse(source))) == [
        (1, "import of dataclasses"), (2, "import of dataclasses"),
    ]


def test_setdefault_rule_is_seen():
    source = "\n".join([
        'memo.setdefault("basis", list(zip(*rows)))',
        'memo.setdefault("nvol", {})',
        'memo.setdefault(key, [])',
        'memo.setdefault(key)',
        'memo.setdefault(key, build(x))',
        'memo.get("basis", list(rows))',
    ])
    assert list(violations(ast.parse(source))) == [
        (1, "setdefault with a call as its default"),
        (5, "setdefault with a call as its default"),
    ]


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
        "Face._make((P, 1, 0, 0))",
        "F._replace(mask=1)",
    ])
    assert [line for line, _ in face_calls(ast.parse(source))] == [1, 2, 3, 4, 5, 6, 10, 11]


# the callables whose first argument is the message of an identity check
CHECKS = {"_broken", "_broken_span", "InternalConsistencyError"}


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _bound_strings(tree):
    """name -> the string literals a parsed module binds to it: assigned to
    the name, or passed for the parameter of that name of a function the
    module defines."""
    bound, params = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                bound.setdefault(_name(target), []).append(node.value.value)
        elif isinstance(node, ast.FunctionDef):
            params[node.name] = [a.arg for a in node.args.args if a.arg != "self"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) in params:
            args = zip(params[_name(node.func)], node.args)
            for name, arg in [*args, *((k.arg, k.value) for k in node.keywords)]:
                if isinstance(arg, ast.Constant):
                    bound.setdefault(name, []).append(arg.value)
    return bound


def check_messages(tree):
    """(line, fixed text) for each identity check in a parsed module, in
    line order. The fixed text is the message up to its first placeholder,
    or its longest literal part when it opens with one; a message held in
    a name is each literal bound to it. The bodies of the check helpers,
    which format the message they are handed, are not sites."""
    helpers = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in CHECKS
        for inner in ast.walk(node)
    }
    bound, out = _bound_strings(tree), []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _name(node.func) in CHECKS):
            continue
        if id(node) in helpers or not node.args:
            continue
        message = node.args[0]
        if isinstance(message, ast.Name):
            texts = bound.get(message.id) or [""]
        elif isinstance(message, ast.JoinedStr):
            # the literal parts, with None for each placeholder
            parts = [
                v.value if isinstance(v, ast.Constant) else None for v in message.values
            ]
            head = "".join(parts[: (parts + [None]).index(None)]).strip()
            texts = [head or max(filter(None, parts), key=len, default="").strip()]
        else:
            texts = [message.value if isinstance(message, ast.Constant) else ""]
        out += [(node.lineno, text) for text in texts]
    return sorted(out)


def match_patterns(tree):
    """Each string that a `pytest.raises(..., match=...)` in a parsed module
    can receive: a literal, or a literal bound to the name it passes."""
    bound = _bound_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "raises":
            for k in node.keywords:
                if k.arg != "match":
                    continue
                if isinstance(k.value, ast.Constant):
                    yield k.value.value
                else:
                    yield from bound.get(_name(k.value), [])


def covered(text, patterns):
    """Some pattern finds the fixed text, as pytest searches a message, or
    names it literally; an empty text is never covered."""
    return bool(text) and any(re.search(p, text) or text in p for p in patterns)


def test_every_identity_check_is_made_to_fire():
    patterns = set()
    for path in TESTS:
        patterns.update(match_patterns(ast.parse(path.read_text(), str(path))))
    missing = [
        (path.name, line, text)
        for path in SOURCES
        for line, text in check_messages(ast.parse(path.read_text(), str(path)))
        if not covered(text, patterns)
    ]
    assert missing == []


def test_check_rule_is_seen():
    assert "test_polytope.py" in {path.name for path in TESTS}
    source = "\n".join([
        'raise P._broken("first identity")',
        'raise P._broken(f"facet {t} is constant on the face", s)',
        'raise InternalConsistencyError(f"{x} misses the count at {n}")',
        'what = "two levels"',
        'raise self._broken(what, c)',
        'raise P._broken(message)',
        'def _broken(self, identity):',
        '    return InternalConsistencyError(f"{identity} (polytope)")',
        'raise DomainError("not a check")',
    ])
    checks = check_messages(ast.parse(source))
    assert checks == [
        (1, "first identity"), (2, "facet"), (3, "misses the count at"),
        (5, "two levels"), (6, ""),
    ]
    tests = "\n".join([
        'with pytest.raises(E, match="first id"): pass',
        'span = "two levels"',
        'with pytest.raises(E, match=span): pass',
        'def check(call, match):',
        '    with pytest.raises(E, match=match): call()',
        'check(f, r"^facet 0 is constant")',
        'with pytest.raises(E, match=f"{x}$"): pass',
    ])
    patterns = set(match_patterns(ast.parse(tests)))
    assert patterns == {"first id", "two levels", r"^facet 0 is constant"}
    assert [covered(text, patterns) for _, text in checks] == [
        True, True, False, True, False,
    ]
