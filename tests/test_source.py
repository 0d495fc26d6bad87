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


def test_no_islice():
    # Inside a loop, islice(x, i, j) walks x from index 0 every time: it
    # made each long division quadratic in its quotient length.  A slice
    # x[i:j] costs j - i.
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if (isinstance(node, ast.alias) and node.name == "islice")
        or (isinstance(node, ast.Attribute) and node.attr == "islice")
    ]
    assert SOURCES and not found, found


def test_int_to_str_limit_is_never_changed():
    # Conversions above the limit go through _kernel.decimal_str and
    # decimal_int; the interpreter's limit stays as the process set it.
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Attribute) and node.attr == "set_int_max_str_digits"
    ]
    assert SOURCES and not found, found


def _imports():
    """(path, line, top-level module name) of every absolute import."""
    for path, node in _nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield path, node.lineno, name.partition(".")[0]


def test_runtime_imports_are_stdlib_only():
    found = [
        f"{path.name}:{line}:{name}"
        for path, line, name in _imports()
        if name not in sys.stdlib_module_names
    ]
    assert SOURCES and not found, found


def test_no_start_up_heavy_imports():
    # Every job is a fresh process that compiles what it imports:
    # dataclasses pulls in inspect, several milliseconds of each job, and
    # annotations need no typing (collections.abc has the abstract types).
    banned = {"dataclasses", "inspect", "typing"}
    found = [f"{path.name}:{line}:{name}" for path, line, name in _imports() if name in banned]
    assert SOURCES and not found, found
