"""Streamed output: the writer against the whole-string path it replaced,
the same bytes under any int-to-str limit, a budget failure before the first
byte, big coefficients against CPython's own conversion, and peak memory that
does not grow with the size of the output."""

import importlib.util
import io
import json
import os
import random
import subprocess
import sys

import pytest

import wordcf
from wordcf import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wordcf.__file__)))


# ------------------------------------------------------------------ oracle
# The handlers' output as it was built before streaming: the whole text as
# one string (one json.dumps for --format json), written with a newline.


def _legacy_json(payload) -> str:
    return json.dumps(payload, indent=2)


def _legacy_series_payload(series) -> dict:
    fmt = series.field.format_scalar
    return {
        "top": series.top,
        "known_down": series.known_down,
        "coefficients": [fmt(c) for c in series.coeffs],
    }


def _legacy_series_text(series) -> str:
    fmt = series.field.format_scalar
    terms = [f"{fmt(c)}*T^{series.top - i}" for i, c in enumerate(series.coeffs) if c]
    body = " + ".join(terms) if terms else "0"
    return f"{body} + O(T^{series.known_down - 1})"


def _legacy_report_lines(reports):
    return [
        f"{r.check} n={r.n}: {'PASS' if r.passed else 'FAIL'} "
        f"expected={r.expected} actual={r.actual}"
        for r in reports
    ]


def legacy_output(argv) -> str:
    from wordcf import quartic, verify
    from wordcf.cf import convergents
    from wordcf.poly import format_poly
    from wordcf.words import block, prefix, theta_series

    args = cli.build_parser().parse_args(argv)
    as_json = args.format == "json"
    if args.command == "word":
        w = block(args.n) if args.n is not None else prefix(args.prefix)
        text = _legacy_json({"word": w}) if as_json else w
    elif args.command == "theta":
        series = theta_series(args.prec, args.field)
        text = _legacy_json(_legacy_series_payload(series)) if as_json else _legacy_series_text(series)
    elif args.command == "cf":
        cf, expansion = cli._expansion_for(args)
        quotients = [format_poly(q) for q in cf.quotients]
        if as_json:
            payload = {"partial_quotients": quotients}
            if expansion is not None:
                payload.update(
                    emitted=expansion.emitted,
                    precision_consumed=expansion.precision_consumed,
                    terminated=expansion.terminated,
                )
            text = _legacy_json(payload)
        else:
            text = "\n".join(quotients)
    elif args.command == "convergents":
        cf, _ = cli._expansion_for(args)
        rows = [
            {"n": i, "x": format_poly(x), "y": format_poly(y), "degY": y.degree}
            for i, (x, y) in enumerate(convergents(cf).rows)
        ]
        if as_json:
            text = _legacy_json(rows)
        else:
            text = "\n".join(f"n={r['n']} degY={r['degY']} x={r['x']} y={r['y']}" for r in rows)
    elif args.command == "quartic":
        expansion = quartic.quartic_expansion(args.p, args.prec)
        reports = [quartic.quartic_lambda_report(expansion, args.k)] if args.p == 3 else []
        if as_json:
            text = _legacy_json({
                "p": args.p,
                "prec": args.prec,
                "root": _legacy_series_payload(expansion.root),
                "partial_quotients": [format_poly(q) for q in expansion.cf.quotients],
                "lambda": list(expansion.lambdas),
                "u": list(expansion.exponents),
                "monomial": expansion.monomial,
                "reports": [r.to_dict() for r in reports],
            })
        else:
            lines = [
                f"certified quotients: {len(expansion.cf.quotients) - 1}",
                f"monomial quotients: {'yes' if expansion.monomial else 'no'}",
                "lambda: " + "".join(str(c) for c in expansion.lambdas),
                "u: " + ",".join(str(u) for u in expansion.exponents),
            ]
            lines += _legacy_report_lines(reports)
            lines.append(f"PASS {sum(r.passed for r in reports)}/{len(reports)}")
            text = "\n".join(lines)
    elif args.command == "verify":
        reports, findings = verify.run_suite(args.selection, args.max_n)
        summary = f"PASS {sum(r.passed for r in reports)}/{len(reports)}"
        if as_json:
            text = _legacy_json([r.to_dict() for r in reports]) + "\n" + summary
        else:
            lines = _legacy_report_lines(reports)
            lines += [f"FINDING: {finding}" for finding in findings]
            lines.append(summary)
            text = "\n".join(lines)
    else:
        raise AssertionError(f"no oracle for {args.command}")
    return text + "\n"


RATFUNC = "(T^3+2*T^2+T-1)/(T^4-T^2)"

WRITER_CASES = [
    ["word", "--n", "0"],  # one empty line
    ["word", "--n", "6"],
    ["word", "--prefix", "100000"],
    ["theta", "--prec", "40"],
    ["theta", "--prec", "3000", "--field", "2"],
    ["theta", "--prec", "70000", "--field", "3"],  # more than one 4096-term piece and batch
    ["cf", "--ratfunc", RATFUNC],
    ["cf", "--ratfunc", "0"],  # the zero polynomial
    ["cf", "--ratfunc", "T^3 + 1/2"],
    ["cf", "--prec", "300"],
    ["cf", "--prec", "2000", "--field", "3"],
    ["convergents", "--ratfunc", RATFUNC],
    ["convergents", "--ratfunc", "0"],
    ["convergents", "--ratfunc", "T^2 + 3"],  # a single row
    ["convergents", "--prec", "400", "--field", "5"],
    ["quartic", "--prec", "300", "--k", "20"],
    ["quartic", "--p", "13", "--prec", "200"],  # "reports": [] in JSON
    ["verify", "lemma3", "--max-n", "6"],
    ["verify", "all", "--max-n", "2"],
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", WRITER_CASES, ids=" ".join)
def test_writer_matches_whole_string_output(argv, fmt, capsys, tmp_path):
    argv = [*argv, "--format", fmt]
    expected = legacy_output(argv)
    capsys.readouterr()

    code = cli.main(argv)
    out, _ = capsys.readouterr()
    assert code in (0, 2)
    assert out == expected

    path = tmp_path / "out.txt"
    code = cli.main([*argv, "--output", str(path)])
    out, _ = capsys.readouterr()
    assert code in (0, 2) and out == ""
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        {"a": [], "b": {}, "c": {"d": [1, 2]}},
        [{"n": 0, "x": "0", "nested": [[], {"k": [True, None, "q\"uo\nte", "é"]}]}],
        ("a", "b"),
        {"list": [{"n": i, "s": str(i) * i} for i in range(300)], "flag": False},
    ],
)
def test_json_pieces_match_one_dumps(value):
    assert "".join(cli._json_pieces(value, "")) == json.dumps(value, indent=2)
    # An iterator in place of a list reads the same.
    if isinstance(value, dict) and "list" in value:
        lazy = dict(value, list=iter(value["list"]))
        assert "".join(cli._json_pieces(lazy, "")) == json.dumps(value, indent=2)


class _Recorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_writer_sends_bounded_batches(monkeypatch):
    # Many short pieces go out in a few writes of about _BATCH characters;
    # a piece longer than a batch goes out alone.
    pieces = ["x" * 10] * 50_000 + ["y" * (3 * cli._BATCH)] + ["z"]
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    cli._write(cli.build_parser().parse_args(["word", "--n", "1"]), iter(pieces))
    assert out.getvalue() == "".join(pieces)
    assert len(out.sizes) < 2 + 10 * 50_000 // cli._BATCH + 2
    assert max(out.sizes) < cli._BATCH + 3 * cli._BATCH + 10
    assert all(size <= cli._BATCH + 10 for size in out.sizes[:-2])


# ------------------------------------------------ any int-to-str limit


def dense_fraction(degree: int, seed: int) -> str:
    """A dense random Q fraction: numerator of degree ``degree - 1`` over a
    denominator of degree ``degree``, coefficients in [-9, 9]."""
    rng = random.Random(f"test-output/{degree}/{seed}")

    def poly(d):
        coeffs = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]
        return " + ".join(f"{c}*T^{k}" for k, c in reversed(list(enumerate(coeffs))) if c)

    return f"({poly(degree - 1)})/({poly(degree)})"


def run_module(argv, **env):
    return subprocess.run(
        [sys.executable, "-m", "wordcf", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        timeout=300,
    )


@pytest.mark.parametrize(
    "argv, code, start",
    [
        (["cf", "--ratfunc", dense_fraction(60, 0)], 0, None),
        (["convergents", "--ratfunc", dense_fraction(60, 0)], 0, None),
        (["alphabet", "--pair", "1," + "3" * 700], 0, "alphabet: 1," + "3" * 700 + "\n"),
        (["theta", "--field", "3" * 700], 1, "usage error: modulus must be below 3317044064679887385961981"),
        (["theta", "--field", "-" + "3" * 700], 1, "usage error: modulus must be prime, got -" + "3" * 700 + "\n"),
        (["word", "--n", "3" * 700], 1, f"error: block {'3' * 700} is longer than the budget"),
        (["measure", "--max-n", "3" * 700], 1, f"error: block {'3' * 699}6 is longer than the budget"),
        (["verify", "lemma1", "--max-n", "3" * 700], 1, f"error: block {'3' * 699}6 is longer than the budget"),
        (["quartic", "--prec", "3" * 700], 1, f"error: precision {'3' * 700} is above the budget"),
        (["quartic", "--p", "-" + "3" * 700], 1, "error: modulus must be prime, got -" + "3" * 700 + "\n"),
        (["quartic", "--prec", "30", "--k", "3" * 700], 1, f"error: certified only 12 quotients; raise prec above 30 to certify {'3' * 700}\n"),
        (["theta", "--prec", "3" * 700], 1, "error: prefix is longer than the budget of 10000000 letters\n"),
    ],
    ids=[
        "cf", "convergents", "alphabet-pair", "theta-field", "theta-negative-field", "word-n",
        "measure-max-n", "verify-max-n", "quartic-prec", "quartic-p", "quartic-k", "theta-prec",
    ],
)
def test_output_does_not_depend_on_the_int_limit(argv, code, start):
    # At the smallest limit, the default one and none, the job prints the
    # same bytes.  Degree 60 reaches quotient coefficients of about 9000
    # digits, over CPython's default int-to-str limit of 4300; the options
    # take a 700-digit number, which is read exactly, and echoed exactly
    # wherever a message names it.
    outcomes = {
        (proc.returncode, proc.stdout, proc.stderr)
        for proc in (run_module(argv, PYTHONINTMAXSTRDIGITS=limit) for limit in ("640", "4300", "0"))
    }
    assert len(outcomes) == 1
    returncode, out, err = outcomes.pop()
    assert returncode == code
    if code == 0:
        assert err == b""
        assert out.decode("utf-8").startswith(start) if start else len(out) > 10**5
    else:
        assert err.decode("utf-8").startswith(start)


@pytest.mark.parametrize("command", ["cf", "convergents"])
def test_budget_failure_writes_nothing(command, monkeypatch, capsys, tmp_path):
    # Over the output-digit budget the job fails before the first byte:
    # stdout stays empty, and an --output file is neither written nor
    # created.
    from wordcf import _kernel

    monkeypatch.setattr(_kernel, "MAX_INT_DIGITS", 2000)
    argv = [command, "--ratfunc", dense_fraction(60, 0)]

    def fails_with_one_line(argv):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: output integer of ")
        assert err.endswith(" bits is above the budget of 2000 digits\n") and err.count("\n") == 1

    fails_with_one_line(argv)
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    missing = tmp_path / "missing.txt"
    for path in (kept, missing):
        fails_with_one_line([*argv, "--output", str(path)])
    assert kept.read_text() == "earlier output\n"
    assert not missing.exists()


# ------------------------------------------------- big coefficients: oracle
# perfbench's dense fractions of degree 45, 52 and 60 print coefficients of
# 4613, 6430 and 9020 digits; its golden files recorded them as failures.
# The reference is the same argv run by CPython's own conversion, with no
# int-to-str limit.


def _bench_dense_fraction():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.dense_fraction


bench_dense_fraction = _bench_dense_fraction()

ORACLE_CASES = [
    ("cf", degree, variant, fmt)
    for degree in (45, 52, 60)
    for variant in range(4)
    for fmt in ("text", "json")
] + [("convergents", 60, 0, "text")]


@pytest.mark.parametrize("command, degree, variant, fmt", ORACLE_CASES)
def test_big_coefficients_match_the_unlimited_builtin(command, degree, variant, fmt, capsys, int_max_str_digits):
    argv = [command, "--ratfunc", bench_dense_fraction(degree, variant), "--format", fmt]
    with int_max_str_digits(4300):
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    proc = run_module(argv, PYTHONINTMAXSTRDIGITS="0")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.encode("utf-8") == proc.stdout


# ------------------------------------------------------------- peak memory
# Each job is measured from a small launcher (``excess_rss``, conftest.py).

RSS_CASES = [
    # The convergent table is about 1.3 MB; its text is about 5 MB.
    (["convergents", "--ratfunc", dense_fraction(45, 1)], 5),
    (["convergents", "--ratfunc", dense_fraction(45, 1), "--format", "json"], 5),
    # About 14 MB of text, 9 MB of JSON, over an 8 MB coefficient tuple.
    (["theta", "--prec", "1000000"], 25),
    (["theta", "--prec", "1000000", "--format", "json"], 25),
]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("argv, bound", RSS_CASES, ids=["convergents-text", "convergents-json", "theta-text", "theta-json"])
def test_peak_memory_does_not_grow_with_output(argv, bound, excess_rss):
    assert excess_rss(argv) <= bound
