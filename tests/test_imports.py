"""Start-up cost: what ``import wordcf`` and each subcommand load, and the
lazy package namespace."""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import wordcf

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wordcf.__file__)))

# Run in a fresh interpreter; the last stdout line lists the modules the
# statement loaded on top of what interpreter start-up had loaded.
_CHILD = """
import sys
before = set(sys.modules)
{statement}
print(sorted(set(sys.modules) - before))
"""


def loaded_by(statement):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(statement=statement)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def loaded_by_cli(*argv):
    return loaded_by(f"from wordcf import cli; cli.main({list(argv)!r})")


def test_bare_import_loads_no_submodule():
    # Nor any other module: a probe that times an import after it sees the
    # interpreter as it was.
    assert loaded_by("import wordcf") == {"wordcf"}


RATFUNC = "(T^3+2*T^2+T-1)/(T^4-T^2)"


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["cf", "--ratfunc", RATFUNC], {"wordcf.series", "wordcf.verify", "wordcf.words"}),
        (["convergents", "--ratfunc", RATFUNC], {"wordcf.series", "wordcf.verify", "wordcf.words"}),
        (["cf", "--prec", "20"], {"wordcf.verify"}),
        (["convergents", "--prec", "20", "--field", "3"], {"wordcf.verify"}),
        (["word", "--n", "3"], {"wordcf.verify", "wordcf.cf", "wordcf.poly", "wordcf.series"}),
        (["theta", "--prec", "5"], {"wordcf.verify", "wordcf.cf"}),
        # verify binds the quartic root only when the tracer asks for it.
        (["measure", "--max-n", "3"], {"wordcf.quartic"}),
        # The approximation lemmas run on packed integers alone.
        (["verify", "lemma1", "--max-n", "2"], {"wordcf.poly", "wordcf.series", "wordcf.cf", "wordcf.quartic"}),
        (["verify", "lemma2", "--max-n", "2"], {"wordcf.poly", "wordcf.series", "wordcf.cf", "wordcf.quartic"}),
        (["verify", "lemma3", "--max-n", "2"], {"wordcf.poly", "wordcf.series", "wordcf.cf", "wordcf.quartic"}),
        # The quartic family, the text parser and fractions stay out of
        # the GF(p) jobs; the word layer is read only by the p = 3 report.
        (["quartic", "--prec", "40", "--k", "5"], {"wordcf.verify", "wordcf.ratfunc", "fractions"}),
        (["quartic", "--p", "5", "--prec", "40"], {"wordcf.verify", "wordcf.words", "wordcf.ratfunc", "fractions"}),
        (["cf", "--prec", "20", "--field", "3"], {"wordcf.verify", "wordcf.ratfunc", "fractions"}),
        (["alphabet", "--pair", "1,-1"], set()),
        (["verify", "no-such-check"], {"wordcf.verify"}),
    ],
)
def test_text_commands_load_only_what_they_run(argv, absent):
    loaded = loaded_by_cli(*argv)
    assert not loaded & {"dataclasses", "inspect", "json", *absent}


@pytest.mark.parametrize("argv", [["word", "--n", "2"], ["cf", "--ratfunc", RATFUNC]])
def test_json_format_loads_json(argv):
    loaded = loaded_by_cli(*argv, "--format", "json")
    assert "json" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_every_export_is_its_submodule_object():
    for name in wordcf.__all__:
        module = importlib.import_module(f"wordcf.{wordcf._EXPORTS[name]}")
        assert getattr(wordcf, name) is getattr(module, name), name
    # Defined in fields, which every command loads; series re-exports it.
    assert wordcf.PrecisionError is importlib.import_module("wordcf.series").PrecisionError


def test_export_follows_a_rebound_submodule_name(monkeypatch):
    from wordcf import cf

    assert wordcf.cf_of_fraction is cf.cf_of_fraction
    monkeypatch.setattr(cf, "cf_of_fraction", len)
    assert wordcf.cf_of_fraction is len


def test_star_and_submodule_imports():
    namespace = {}
    exec("from wordcf import *", namespace)
    assert set(wordcf.__all__) <= set(namespace)
    from wordcf import cf, cli, verify

    assert (cf, cli, verify) == tuple(sys.modules[f"wordcf.{m}"] for m in ("cf", "cli", "verify"))
    assert wordcf.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wordcf.no_such_name
    with pytest.raises(ImportError):
        from wordcf import no_such_name  # noqa: F401


def test_every_export_is_named_in_the_readme():
    # The public surface is what a command runs, what the benchmark tracer
    # binds, or what the README documents: a name added to __all__ must be
    # named in a code span of the README too.
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        prose = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
    named = {word for span in re.findall(r"`([^`]+)`", prose) for word in re.findall(r"\w+", span)}
    assert [name for name in wordcf.__all__ if name not in named] == []
