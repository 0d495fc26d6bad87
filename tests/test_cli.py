import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import wordcf
from wordcf import cli, quartic, verify
from wordcf.fields import GF, QQ


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv):
    """``python -m wordcf`` in a fresh process, on this checkout's sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordcf.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "wordcf", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_word_block(capsys):
    code, out, _ = run_cli(capsys, "word", "--n", "3")
    assert code == 0
    assert out.strip() == "12212121221"


def test_word_prefix_and_json(capsys):
    code, out, _ = run_cli(capsys, "word", "--prefix", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"word": "1221"}


def test_word_needs_exactly_one_selector(capsys):
    code, _, err = run_cli(capsys, "word")
    assert code == 1 and "usage error" in err
    code, _, err = run_cli(capsys, "word", "--n", "2", "--prefix", "3")
    assert code == 1


def test_cf_of_first_approximant(capsys):
    code, out, _ = run_cli(capsys, "cf", "--ratfunc", "(T^3+2*T^2+T-1)/(T^4-T^2)")
    assert code == 0
    assert out.splitlines() == [
        "0",
        "1*T^1 + -2*T^0",
        "1/2*T^1 + 1/4*T^0",
        "8/5*T^1 + 76/25*T^0",
        "-125/48*T^1 + 25/24*T^0",
    ]


def test_cf_default_series_mode(capsys):
    code, out, _ = run_cli(capsys, "cf", "--prec", "30", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["partial_quotients"][1] == "1*T^1 + -2*T^0"
    assert payload["terminated"] is False
    assert payload["precision_consumed"] <= 30


def test_verify_lemma3_json_ten_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma3", "--max-n", "10", "--format", "json")
    assert code == 0
    *body, summary = out.splitlines()
    assert summary == "PASS 10/10"
    rows = json.loads("\n".join(body))
    assert len(rows) == 10
    assert all(row["pass"] for row in rows)
    assert all(row["expected"] == row["actual"] for row in rows)


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "corollary", "--max-n", "3", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "corollary", "--max-n", "3", "--format", "json")
    assert first == second


def test_verify_all_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("PASS ")


def corrupt_first_packed_numerator(monkeypatch):
    """r + 1 in the packed tail pair at n = 1 (its value at T = 2^8 plus one)."""
    real = verify.packed_tail_pair

    def corrupted(n):
        pair = real(n)
        return pair._replace(r=pair.r + 1) if n == 1 else pair

    monkeypatch.setattr(verify, "packed_tail_pair", corrupted)


def test_forced_failure_gives_exit_two(capsys, monkeypatch):
    # Corrupt the first approximant numerator, in the packed form lemma 3
    # reads: the suite must notice and the process contract must report it
    # as a check failure.
    corrupt_first_packed_numerator(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "lemma3", "--max-n", "2")
    assert code == 2
    assert "FAIL" in out
    assert not out.splitlines()[-1].startswith("PASS 2/2")


def test_forced_pair_failure_gives_exit_two(capsys, monkeypatch):
    # The same corruption in the packed pair that the exponent laws measure.
    corrupt_first_packed_numerator(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "lemma1", "--max-n", "2")
    assert code == 2
    assert "FAIL" in out
    assert not out.splitlines()[-1].startswith("PASS 2/2")


# Deepest budgeted jobs: (argv, last line of stdout or None, MiB above a
# trivial job).  Every check there works on integers at T = 2^8, with no
# Polynomial pair or Euclid past the base row's.
DEEP_JOBS = [
    (["verify", "lemma3", "--max-n", "15"], "PASS 15/15", 130),
    (["verify", "lemma1", "--max-n", "15"], "PASS 15/15", 230),
    (["verify", "lemma2", "--max-n", "15"], "PASS 15/15", 230),
    (["verify", "theorem3", "--max-n", "15"], "PASS 16/16", 230),
    (["verify", "corollary", "--max-n", "15"], "PASS 15/15", 230),
    (["measure", "--max-n", "15"], None, 230),
]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_deep_lemma3_stays_small(excess_rss, tmp_path):
    out = tmp_path / "out.txt"
    for argv, last, bound in DEEP_JOBS:
        # excess_rss asserts exit 0.
        assert excess_rss(argv, stdout=str(out)) <= bound, argv
        assert last is None or out.read_text().splitlines()[-1] == last, argv


def test_quartic_command(capsys):
    code, out, _ = run_cli(capsys, "quartic", "--prec", "200", "--k", "11", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["monomial"] is True
    assert payload["lambda"][:11] == [1, 2, 2, 1, 2, 1, 2, 1, 2, 2, 1]
    assert payload["reports"][0]["pass"] is True


def test_quartic_precision_error_is_usage_exit(capsys):
    code, _, err = run_cli(capsys, "quartic", "--prec", "30", "--k", "100")
    assert code == 1
    assert "raise prec" in err


def test_quartic_negative_k_fails_before_the_root(capsys, monkeypatch):
    class RootReached(Exception):
        pass

    def no_root(p, prec):
        raise RootReached

    # The binding that quartic_expansion, and so the command, calls.
    monkeypatch.setattr(quartic, "quartic_root", no_root)
    code, out, err = run_cli(capsys, "quartic", "--prec", "100000", "--k", "-1")
    assert (code, out, err) == (1, "", "usage error: --k must be at least 0\n")
    # Control: with a valid --k the same command reaches the patched root.
    with pytest.raises(RootReached):
        cli.main(["quartic", "--prec", "100000", "--k", "0"])


def test_alphabet_command(capsys):
    code, out, _ = run_cli(capsys, "alphabet", "--pair", "1,-1")
    assert code == 0
    assert "gcd: 1*T^1 + -1*T^0" in out
    assert "coprime: no" in out


def test_alphabet_rejects_equal_letters(capsys):
    code, _, err = run_cli(capsys, "alphabet", "--pair", "2,2")
    assert code == 1


def test_theta_over_prime_field(capsys):
    code, out, _ = run_cli(capsys, "theta", "--prec", "5", "--field", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "2", "2", "1", "2"]
    assert payload["known_down"] == -5


@pytest.mark.parametrize("command", ["theta", "cf", "convergents", "quartic"])
def test_zero_precision_is_one_usage_error(capsys, command):
    assert run_cli(capsys, command, "--prec", "0") == (1, "", "usage error: --prec must be at least 1\n")


def test_field_must_be_prime(capsys):
    code, _, err = run_cli(capsys, "theta", "--prec", "5", "--field", "6")
    assert code == 1 and "prime" in err


@pytest.mark.parametrize(
    "text, pair",
    [("1,-1", (1, -1)), ("+1, 1/2", (1, Fraction(1, 2))), ("4/2,3", (2, 3)), (" -3/6 ,0", (Fraction(-1, 2), 0))],
)
def test_pair_reads_integers_and_fractions(text, pair):
    values = cli._parse_pair(text)
    assert values == pair and list(map(type, values)) == list(map(type, pair))


# Decimals, exponents, digit groups and non-ASCII digits, which Fraction
# reads, are not numbers of an option; nor are a signed or zero denominator.
@pytest.mark.parametrize("text", ["1.5,2", "1e3,2", "1_0,2", "\u0661,2", "1 /2,3", "1/-2,3", "1/0,2", "x,2"])
def test_pair_refuses_other_syntax(text):
    with pytest.raises(cli.UsageError, match="bad alphabet pair"):
        cli._parse_pair(text)


# Surrounding blanks are dropped from Q as from a prime.
@pytest.mark.parametrize("text, field", [("Q", QQ), ("q", QQ), (" Q", QQ), ("q ", QQ), (" 3", GF(3))])
def test_field_reads_q_or_a_prime(text, field):
    assert cli._parse_field(text) is field


@pytest.mark.parametrize("text", ["1.5", "7_0", "1/2", "\u0667", "", "Q Q", "QQ"])
def test_field_refuses_other_syntax(text):
    with pytest.raises(cli.UsageError, match="field must be Q or a prime number"):
        cli._parse_field(text)


@pytest.mark.parametrize("text, value", [("7", 7), (" +07 ", 7), ("-0", 0), ("-12", -12)])
def test_int_options_read_decimal_integers(text, value):
    assert cli._parse_int(text) == value


# int() also reads digit groups and non-ASCII digits; an option does not.
@pytest.mark.parametrize("text", ["1_0", "\u0661", "1.5", "1/2", "1e3", "--1", ""])
def test_int_options_refuse_other_syntax(text):
    with pytest.raises(argparse.ArgumentTypeError, match="invalid int value"):
        cli._parse_int(text)


def test_option_integers_have_a_digit_budget(monkeypatch):
    from wordcf import _kernel

    monkeypatch.setattr(_kernel, "MAX_INT_DIGITS", 5)
    assert cli._parse_pair("-12345,1/99999") == (-12345, Fraction(1, 99999))
    assert cli._parse_int("-12345") == -12345
    for parse, text in (
        (cli._parse_pair, "1,123456"),
        (cli._parse_pair, "1/123456,2"),
        (cli._parse_field, "+123456"),
        (cli._parse_int, "-123456"),
    ):
        with pytest.raises(cli.UsageError, match="integer above the budget of 5 digits in an option"):
            parse(text)


def test_output_file_and_csv(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "lemma1", "--max-n", "2", "--format", "json",
        "--output", str(out_path),
    )
    assert code == 0 and out == ""
    *body, summary = out_path.read_text().splitlines()
    assert summary == "PASS 2/2"
    assert len(json.loads("\n".join(body))) == 2

    csv_path = tmp_path / "measure.csv"
    code, _, _ = run_cli(capsys, "measure", "--max-n", "2", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,d,nu,running_max"
    assert lines[1] == "1,1,3,3"
    assert len(lines) == 1 + 12  # degrees from the n=3 approximant expansion


def test_convergents_json(capsys):
    code, out, _ = run_cli(
        capsys, "convergents", "--ratfunc", "(T^3+2*T^2+T-1)/(T^4-T^2)", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[1] == {"n": 1, "x": "1*T^0", "y": "1*T^1 + -2*T^0", "degY": 1}
    assert [r["degY"] for r in rows] == [0, 1, 2, 3, 4]


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage error" in err


def test_verify_choices_are_the_suite_order():
    # The parser spells the choices out so that it need not import the
    # suite; they must stay the suite's families, in its order, plus "all".
    # A subcommand gets its arguments when it first parses.
    parser = cli.build_parser()
    parser.parse_args(["verify", "all"])
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (selection,) = [a for a in sub.choices["verify"]._actions if a.dest == "selection"]
    assert tuple(selection.choices) == (*verify.SUITE_ORDER, "all")


@pytest.mark.parametrize(
    "argv",
    [
        ["word", "--n", "30"],
        ["word", "--n", str(10**9)],
        ["word", "--prefix", str(10**9)],
        ["theta", "--prec", str(10**9)],
        ["cf", "--ratfunc", "T^99999999"],
        ["convergents", "--ratfunc", "(T+1)/T^-99999999"],
        ["measure", "--max-n", "1000000000"],
        ["verify", "all", "--max-n", "1000000000"],
        ["verify", "lemma1", "--max-n", "30"],
        ["verify", "theorem3", "--max-n", "30"],
        ["cf", "--ratfunc", "(T+1)^999999"],
        ["quartic", "--p", "3", "--prec", "1000000000", "--k", "10"],
        # Longer than Linux lets one argument of a process be (128 KiB).
        ["cf", "--ratfunc", "7" * (10**6 + 1) + "*T"],
    ],
)
def test_oversized_input_fails_fast(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert "budget" in err or "degree above" in err


@pytest.mark.parametrize(
    "argv, code, out, err_start",
    [
        (["word", "--n", "3"], 0, "12212121221\n", ""),
        (["theta", "--prec", "5", "--field", "6"], 1, "", "usage error:"),
        (["frobnicate"], 1, "", "usage error:"),
    ],
)
def test_module_entry_point(argv, code, out, err_start):
    proc = run_module(argv)
    assert proc.returncode == code
    assert proc.stdout == out
    assert proc.stderr.startswith(err_start)
    assert (proc.stderr == "") == (code == 0)


HOSTILE_ARGV = [
    ["word", "--n", "3", "--output", "{missing}"],
    ["measure", "--max-n", "2", "--csv", "{missing}"],
    ["cf", "--ratfunc", "(" * 300 + "T" + ")" * 300],
    ["cf", "--ratfunc", "T^99999999"],
    # A coefficient of about 1.2 million digits: over the output budget.
    ["cf", "--ratfunc", "10^400000*10^400000*10^400000"],
    ["quartic", "--p", "4"],
    ["cf", "--field", "0"],
    # Far past the bound of certified primality: refused before any test.
    ["theta", "--field", "1" + "0" * 99999 + "1"],
    ["word", "--n", "30"],
    # Over the letter budget: refused before the block lengths are summed.
    ["theta", "--prec", "9" * 4000],
]


@pytest.mark.parametrize("argv", HOSTILE_ARGV)
def test_hostile_input_gives_one_line_error(tmp_path, argv):
    # Whatever the handler, bad input ends in exit 1 and one message line.
    proc = run_module([a.replace("{missing}", str(tmp_path / "missing" / "f")) for a in argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(("error: ", "usage error: "))
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr


def full_parser():
    """The parser as built before subcommands got their arguments lazily:
    every subcommand's arguments up front.  The oracle of the lazy one."""
    parser = cli._Parser(prog="wordcf", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None, help="write output to this path")
        p.set_defaults(run=run)

    p_word = sub.add_parser("word", help="emit a block or a prefix of the word")
    p_word.add_argument("--n", type=cli._parse_int, default=None, help="block index")
    p_word.add_argument("--prefix", type=cli._parse_int, default=None, help="prefix length")
    common(p_word, cli._word)

    p_theta = sub.add_parser("theta", help="emit the generating series")
    p_theta.add_argument("--prec", type=cli._parse_int, default=32)
    p_theta.add_argument("--field", type=cli._parse_field, default="Q")
    common(p_theta, cli._theta)

    p_cf = sub.add_parser("cf", help="expand the series or a rational function")
    p_cf.add_argument("--ratfunc", default=None, help="exact expansion of this fraction")
    p_cf.add_argument("--prec", type=cli._parse_int, default=200, help="series precision for the default expansion")
    p_cf.add_argument("--field", type=cli._parse_field, default="Q")
    common(p_cf, cli._cf)

    p_conv = sub.add_parser("convergents", help="convergent table of an expansion")
    p_conv.add_argument("--ratfunc", default=None)
    p_conv.add_argument("--prec", type=cli._parse_int, default=200)
    p_conv.add_argument("--field", type=cli._parse_field, default="Q")
    common(p_conv, cli._convergents)

    p_measure = sub.add_parser("measure", help="irrationality-measure estimates")
    p_measure.add_argument("--max-n", type=cli._parse_int, default=6)
    p_measure.add_argument("--csv", default=None, help="also write (n, d_n, nu_n) rows here")
    common(p_measure, cli._measure)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument(
        "selection",
        choices=("lemma1", "lemma2", "lemma3", "theorem3", "corollary", "conjecture", "all"),
    )
    p_verify.add_argument("--max-n", type=cli._parse_int, default=None)
    common(p_verify, cli._verify)

    p_quartic = sub.add_parser("quartic", help="root and expansion of x^4+x^2-Tx+1")
    p_quartic.add_argument("--p", type=cli._parse_int, default=3)
    p_quartic.add_argument("--prec", type=cli._parse_int, default=1000)
    p_quartic.add_argument("--k", type=cli._parse_int, default=100, help="coefficients compared against the word")
    common(p_quartic, cli._quartic)

    p_alpha = sub.add_parser("alphabet", help="rebuild the first approximant over (a, b)")
    p_alpha.add_argument("--pair", type=cli._parse_pair, default="1,-1")
    common(p_alpha, cli._alphabet)

    return parser


COMMANDS = ["word", "theta", "cf", "convergents", "measure", "verify", "quartic", "alphabet"]

PARSER_ARGV = [
    *HOSTILE_ARGV,
    [],
    ["--help"],
    ["-h", "cf"],
    ["frobnicate"],
    ["--format", "json", "cf"],
    ["--bogus", "word", "--n", "1"],
    ["cf", "--bogus"],
    ["cf", "--prec"],
    ["cf", "--prec", "x"],
    ["cf", "--field", "6"],
    ["cf", "cf"],
    ["verify"],
    ["verify", "nope"],
    ["verify", "all", "extra"],
    ["word", "--n", "2", "--prefix", "3"],
    ["word", "--n", "2", "--format", "xml"],
    ["alphabet", "--pair", "1"],
    ["alphabet", "--pair", "2,2"],
    ["quartic", "--p", "5", "--prec", "300", "--k", "7", "--format", "json", "--output", "o"],
    ["measure", "--max-n", "3", "--csv", "c.csv"],
    *[[command, "--help"] for command in COMMANDS],
    *[[command] for command in COMMANDS],
]


def parse_outcome(parser, argv, capsys):
    """What parsing argv gives: the namespace, the usage error, or the exit
    code and text of --help."""
    try:
        return "args", vars(parser.parse_args(argv))
    except cli.UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSER_ARGV)
def test_parser_matches_the_full_parser(argv, capsys):
    # Only the chosen subcommand gets its arguments; namespaces, usage
    # errors and every help text must be those of the full parser.
    assert parse_outcome(cli.build_parser(), argv, capsys) == parse_outcome(full_parser(), argv, capsys)


def test_only_the_chosen_subcommand_gets_arguments():
    parser = cli.build_parser()
    parser.parse_args(["word", "--n", "1"])
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # An unbuilt subparser has only its -h action.
    assert {name for name, p in sub.choices.items() if len(p._actions) > 1} == {"word"}
