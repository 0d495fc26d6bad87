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


def _defined(statement):
    """The names a top-level statement defines as a function, class or
    constant."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def _referenced(node):
    """Every name that node reads, imports or looks up as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_no_dead_definitions():
    # A top-level function, class or constant that nothing else in src/
    # reads and that is not public API is dead code: a helper left behind
    # when its caller went.  Reads inside a definition's own statement (a
    # recursive call) do not keep it alive.
    statements = [
        (path, node) for path in SOURCES for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [set(_referenced(node)) for _, node in statements]
    found = [
        f"{path.name}:{node.lineno}:{name}"
        for i, (path, node) in enumerate(statements)
        for name in _defined(node)
        if not name.startswith("__")
        and name not in wordcf._EXPORTS
        and not any(name in names for j, names in enumerate(reads) if j != i)
    ]
    assert SOURCES and not found, found
