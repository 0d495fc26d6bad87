"""Checks on the package source itself."""

import ast
import pathlib
import sys

import wordcf

SOURCES = sorted(pathlib.Path(wordcf.__file__).parent.glob("*.py"))


def _nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_no_assert_statements():
    # ``python -O`` strips asserts, so invariants must raise real exceptions.
    found = [f"{path.name}:{node.lineno}" for path, node in _nodes() if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_no_floating_point():
    # Exact arithmetic only: no float or complex literal, and no call that
    # builds one.
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if (isinstance(node, ast.Constant) and type(node.value) in (float, complex))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        )
    ]
    assert SOURCES and not found, found


def test_runtime_imports_are_stdlib_only():
    found = []
    for path, node in _nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno}:{name}"
            for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names
        ]
    assert SOURCES and not found, found
