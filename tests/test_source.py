"""Checks on the package source itself."""

import ast
import json
import os
import pathlib
import re
import shlex
import subprocess
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


# Every definition in src/ is run by a command or is library API.  The child
# runs every job of the benchmark pools, the README's CLI examples and a few
# error paths through cli.main, all in one process under sys.setprofile, and
# prints the (file, first line) of every code object it entered.  It is a
# child so that the caches those jobs fill stay out of the other tests.
_REACH_CHILD = """
import contextlib, json, os, sys
sys.path[:0] = sys.argv[1:3]
from workloads import WORKLOADS
from wordcf import cli
argvs = [list(job.argv) for w in WORKLOADS.values() for job in w.pool()] + json.loads(sys.argv[3])
reached = set()

def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)

with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    sys.setprofile(profile)
    for argv in argvs:
        cli.main(argv)
    sys.setprofile(None)
print(json.dumps(sorted({(code.co_filename, code.co_firstlineno) for code in reached})))
"""

# Definitions that no command reaches and no README table row names: the
# namedtuple ``_make`` guards, which ``_replace`` calls, and two helpers of
# library-only word functions that the README names
# (``length_closed_form_ok``, ``check_identities``).
_UNREACHED_LIBRARY = {
    "cf.ContinuedFraction._make",
    "report.CheckReport._make",
    "words._sqrt2_mul",
    "words.check_identities.record",
}


def _readme():
    return (pathlib.Path(wordcf.__file__).parents[2] / "README.md").read_text(encoding="utf-8")


def _readme_examples():
    """The argv of every ``wordcf`` line of the README's sh blocks; an
    optional ``[...]`` part gives one argv without it and one with it."""
    blocks = re.findall(r"```sh\n(.*?)```", _readme(), flags=re.S)
    # One example elides its fraction; any fraction will do.
    lines = [line for block in blocks for line in block.replace('"..."', '"T/(T^2-1)"').splitlines()]
    argvs = []
    for line in lines:
        if line.startswith("wordcf "):
            for variant in dict.fromkeys((re.sub(r"\[(.*?)\]", "", line), re.sub(r"\[(.*?)\]", r"\1", line))):
                argvs.append(shlex.split(variant, comments=True)[1:])
    return argvs


def _definitions():
    """(module.qualname, name, file, first line) of every def in src/."""

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield qualname, child.name, str(path), first
                yield from walk(child, qualname, path)
            else:
                yield from walk(child, prefix, path)

    for path in SOURCES:
        yield from walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)


def test_every_definition_is_reached_or_library_api(tmp_path):
    root = pathlib.Path(wordcf.__file__).parents[2]
    edge_cases = [
        ["verify", "no-such-check"],
        # Above the int-to-str limit of 4300 digits set below.
        ["alphabet", "--pair", "1," + "3" * 4301],
        ["cf", "--ratfunc", "-(T^2+1)*(T-2)^-3 - 1/(T+3) + T"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _REACH_CHILD, str(root / "src"), str(root / "perfbench"),
         json.dumps(_readme_examples() + edge_cases)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONINTMAXSTRDIGITS="4300"),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    reached = {tuple(entry) for entry in json.loads(proc.stdout)}
    table = "\n".join(line for line in _readme().splitlines() if line.startswith("| `wordcf."))
    named = {word for span in re.findall(r"`([^`]+)`", table) for word in re.findall(r"\w+", span)}
    unreached = [
        qualname
        for qualname, name, path, first in _definitions()
        if (path, first) not in reached
        and not (name.startswith("__") and name.endswith("__"))
        and name not in named
    ]
    assert sorted(unreached) == sorted(_UNREACHED_LIBRARY)
