"""Command-line front end: word construction, series emission, continued
fraction expansion, convergents, measure estimates, the verification suite,
the quartic root, and the alphabet variant.

All numeric output is exact (rationals as p/q strings); identical invocations
produce byte-identical output.  Exit codes: 0 all requested checks pass,
2 any check failure, 1 usage or precision error.
"""
# _verdict gives the exit codes 0 and 2; the docstring is the --help text.

from __future__ import annotations

import argparse
import re
import sys
from itertools import chain

from . import _kernel
from .fields import GF, QQ, PrecisionError

# Each handler imports the modules its subcommand uses, when it runs: a job
# pays start-up only for what it computes, and a function rebound in its
# module (as perfbench's tracer does) is the one called.


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# A number in an option: a signed integer, or p/q with q unsigned, in ASCII digits.
_NUMBER = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _number(num: str, den: str | None = None):
    """num, or num/den as a Fraction unless integral, read exactly whatever
    the int-to-str limit; each has at most _kernel.MAX_INT_DIGITS digits."""
    if max(len(num.lstrip("+-")), len(den or "")) > _kernel.MAX_INT_DIGITS:
        raise UsageError(f"integer above the budget of {_kernel.MAX_INT_DIGITS} digits in an option")
    value = _kernel.decimal_int(num.lstrip("+"))
    if den is None:
        return value
    from fractions import Fraction

    return QQ.coerce(Fraction(value, _kernel.decimal_int(den)))


# The ``type=`` callables raise UsageError, which argparse lets through
# unchanged (it rewrites only ValueError, TypeError and ArgumentTypeError).
def _parse_int(text: str) -> int:
    match = _NUMBER.fullmatch(text.strip())
    if match is None or match[2] is not None:
        # argparse adds the option, as it did for type=int:
        # "argument --n: invalid int value: 'x'".
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return _number(match[1])


def _parse_field(text: str):
    if text.strip() in ("Q", "q"):
        return QQ
    match = _NUMBER.fullmatch(text.strip())
    if match is None or match[2] is not None:
        raise UsageError(f"field must be Q or a prime number, got {text!r}")
    try:
        return GF(_number(match[1]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("alphabet must be two comma-separated rationals, e.g. 1,-1")
    matches = [_NUMBER.fullmatch(part.strip()) for part in parts]
    if None in matches:
        raise UsageError(f"bad alphabet pair {text!r}")
    try:
        a, b = (_number(*m.groups()) for m in matches)
    except ZeroDivisionError as exc:
        raise UsageError(f"bad alphabet pair {text!r}") from exc
    if a == b:
        raise UsageError("alphabet letters must be distinct")
    return (a, b)


class _Command(_Parser):
    """A subcommand's parser.  Its arguments, from its row of _COMMANDS, are
    added when it first parses, so a job builds only the subcommand it runs;
    the names and help strings that the top-level usage and help list are
    registered for all of them.
    """

    def __init__(self, *, arguments, **kwargs):
        super().__init__(**kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            for flag, spec in chain(self._arguments.items(), _SHARED.items()):
                self.add_argument(flag, **spec)
            self._arguments = None
        return super().parse_known_args(args, namespace)


def build_parser() -> _Parser:
    parser = _Parser(prog="wordcf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, run, help, arguments in _COMMANDS:
        sub.add_parser(name, help=help, arguments=arguments).set_defaults(run=run)
    return parser


# Output goes out in batches of about this many characters: one write per
# batch, however many pieces a handler yields.
_BATCH = 1 << 16


def _write(args, pieces, bits: int = 0) -> None:
    """Write the output, given as an iterable of string pieces, to
    ``--output`` or stdout in batches of about _BATCH characters.  The file
    is opened only when the first batch is ready.

    ``bits`` bounds the bit length of every int the pieces format.  When
    that allows more than _kernel.MAX_INT_DIGITS decimal digits, the job fails
    with a ValueError before anything is formatted or written: stdout stays
    empty, and the file is neither created nor touched.  Every int is
    formatted exactly at any size (``_kernel.decimal_str``), so no output
    depends on the interpreter's int-to-str limit.
    """
    if _kernel.digits_bound(bits) > _kernel.MAX_INT_DIGITS:
        raise ValueError(f"output integer of {bits} bits is above the budget of {_kernel.MAX_INT_DIGITS} digits")
    out = None
    try:
        for batch in _batches(pieces):
            if out is None:
                out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
            out.write(batch)
    finally:
        if args.output and out is not None:
            out.close()


def _batches(pieces):
    """The pieces joined into strings of about _BATCH characters; at least
    one, the last possibly empty."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            yield "".join(batch)
            batch, size = [], 0
    yield "".join(batch)


def _bits(polys) -> int:
    """The largest bit length of a numerator or denominator in polys."""
    return max(
        (max(max(map(int.bit_length, p.ints), default=0), p.den.bit_length()) for p in polys),
        default=0,
    )


def _json(payload):
    """``json.dumps(payload, indent=2)`` plus a newline, in pieces."""
    yield from _json_pieces(payload, "")
    yield "\n"


def _json_pieces(value, pad):
    """The pieces of ``json.dumps(value, indent=2)``, each line indented by
    ``pad`` after the first.  Dicts are written key by key; lists, tuples
    and iterators element by element, each element as its own indented
    dump, so a long list is never held as text.  Consecutive elements go
    out together, in runs of about _BATCH characters."""
    import json
    from json.encoder import encode_basestring_ascii as quote

    inner = pad + "  "
    if isinstance(value, dict):
        head = "{"
        for key, item in value.items():
            yield f"{head}\n{inner}{json.dumps(key)}: "
            yield from _json_pieces(item, inner)
            head = ","
        yield "{}" if head == "{" else f"\n{pad}}}"
    elif isinstance(value, (str, int, float)) or value is None:
        yield json.dumps(value)
    else:
        encode = json.JSONEncoder(indent=2).encode
        indent = "\n" + inner
        sep = "," + indent
        head = "[" + indent
        run, size = [], 0
        for element in value:
            # A string is dumped as json.dumps does it, by one C call.
            text = quote(element) if type(element) is str else encode(element).replace("\n", indent)
            run.append(text)
            size += len(text)
            if size >= _BATCH:
                yield head + sep.join(run)
                head, run, size = sep, [], 0
        if run:
            yield head + sep.join(run)
            head = sep
        yield "[]" if head[0] == "[" else f"\n{pad}]"


def _series_payload(series) -> dict:
    return {
        "top": series.top,
        "known_down": series.known_down,
        "coefficients": map(series.field.format_scalar, series.coeffs),
    }


def _expansion_for(args):
    """The requested expansion plus metadata (shared by cf/convergents)."""
    if args.ratfunc is not None:
        from .cf import cf_of_fraction
        from .ratfunc import parse_ratfunc

        f = parse_ratfunc(args.ratfunc, args.field)
        return cf_of_fraction(f.num, f.den), None
    if args.prec < 1:
        raise UsageError("--prec must be at least 1")
    from .cf import cf_of_series
    from .words import theta_series

    expansion = cf_of_series(theta_series(args.prec, args.field))
    return expansion.cf, expansion


def _word(args) -> int:
    from .words import block, prefix

    if (args.n is None) == (args.prefix is None):
        raise UsageError("word needs exactly one of --n or --prefix")
    w = block(args.n) if args.n is not None else prefix(args.prefix)
    _write(args, _json({"word": w}) if args.format == "json" else (w, "\n"))
    return 0


def _theta(args) -> int:
    if args.prec < 1:
        raise UsageError("--prec must be at least 1")
    from .words import theta_series

    series = theta_series(args.prec, args.field)
    if args.format == "json":
        _write(args, _json(_series_payload(series)))
    else:
        _write(args, chain(series.text_pieces(), ("\n",)))
    return 0


def _cf(args) -> int:
    from .poly import format_poly

    cf, expansion = _expansion_for(args)
    quotients = cf.quotients
    if args.format == "json":
        payload: dict = {"partial_quotients": map(format_poly, quotients)}
        if expansion is not None:
            payload.update(
                emitted=expansion.emitted,
                precision_consumed=expansion.precision_consumed,
                terminated=expansion.terminated,
            )
        pieces = _json(payload)
    else:
        pieces = (format_poly(q) + "\n" for q in quotients)
    _write(args, pieces, _bits(quotients))
    return 0


def _convergents(args) -> int:
    from .cf import convergents
    from .poly import format_poly

    cf, _ = _expansion_for(args)
    # The table is kept (it is far smaller than its text); the rows are
    # formatted one at a time as they are written.
    rows = convergents(cf).rows
    if args.format == "json":
        pieces = _json(
            {"n": i, "x": format_poly(x), "y": format_poly(y), "degY": y.degree}
            for i, (x, y) in enumerate(rows)
        )
    else:
        pieces = (
            f"n={i} degY={y.degree} x={format_poly(x)} y={format_poly(y)}\n"
            for i, (x, y) in enumerate(rows)
        )
    _write(args, pieces, _bits(p for row in rows for p in row))
    return 0


def _measure(args) -> int:
    from . import verify
    from .cf import measure_terms

    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    verify.check_depth_budget(args.max_n)
    degrees = verify.theta_degrees(args.max_n)
    terms = measure_terms(degrees)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("n,d,nu,running_max\n")
            for i, d in enumerate(degrees, start=1):
                if i <= len(terms):
                    term = terms[i - 1]
                    fh.write(f"{i},{d},{term.estimate},{term.running_max}\n")
                else:
                    fh.write(f"{i},{d},,\n")
    rows = [
        {"n": t.n, "nu": str(t.estimate), "running_max": str(t.running_max)}
        for t in terms
    ]
    if args.format == "json":
        _write(args, _json(rows))
    else:
        _write(args, ("\n".join(f"n={r['n']} nu={r['nu']} max={r['running_max']}" for r in rows), "\n"))
    return 0


def _verify(args) -> int:
    from . import verify

    if args.max_n is not None and args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    reports, findings = verify.run_suite(args.selection, args.max_n)
    summary, code = _verdict(reports)
    if args.format == "json":
        _write(args, chain(_json([r.to_dict() for r in reports]), (summary, "\n")))
        for finding in findings:
            print(f"FINDING: {finding}", file=sys.stderr)
    else:
        lines = [*_report_lines(reports), *(f"FINDING: {finding}" for finding in findings), summary]
        _write(args, ("\n".join(lines), "\n"))
    return code


def _quartic(args) -> int:
    from . import quartic
    from .poly import format_poly

    if args.prec < 1:
        raise UsageError("--prec must be at least 1")
    if args.p == 3 and args.k < 0:
        raise UsageError("--k must be at least 0")
    expansion = quartic.quartic_expansion(args.p, args.prec)
    reports = []
    if args.p == 3:
        reports.append(quartic.quartic_lambda_report(expansion, args.k))
    summary, code = _verdict(reports)
    if args.format == "json":
        payload = {
            "p": args.p,
            "prec": args.prec,
            "root": _series_payload(expansion.root),
            "partial_quotients": map(format_poly, expansion.cf.quotients),
            "lambda": expansion.lambdas,
            "u": expansion.exponents,
            "monomial": expansion.monomial,
            "reports": [r.to_dict() for r in reports],
        }
        # Every coefficient printed is a residue mod p.
        _write(args, _json(payload), args.p.bit_length())
    else:
        lines = [
            f"certified quotients: {len(expansion.cf.quotients) - 1}",
            f"monomial quotients: {'yes' if expansion.monomial else 'no'}",
            "lambda: " + "".join(str(c) for c in expansion.lambdas),
            "u: " + ",".join(str(u) for u in expansion.exponents),
        ]
        lines += [*_report_lines(reports), summary]
        _write(args, ("\n".join(lines), "\n"))
    return code


def _alphabet(args) -> int:
    from . import verify
    from .poly import format_poly

    variant = verify.alphabet_variant(*args.pair)
    summary, code = _verdict([variant.report])
    letters = [QQ.format_scalar(v) for v in variant.alphabet]
    if args.format == "json":
        payload = {
            "alphabet": letters,
            "num": format_poly(variant.r),
            "den": format_poly(variant.s),
            "gcd": format_poly(variant.gcd),
            "coprime": variant.coprime,
            "reports": [variant.report.to_dict()],
        }
        _write(args, _json(payload))
    else:
        lines = [
            f"alphabet: {letters[0]},{letters[1]}",
            f"num: {format_poly(variant.r)}",
            f"den: {format_poly(variant.s)}",
            f"gcd: {format_poly(variant.gcd)}",
            f"coprime: {'yes' if variant.coprime else 'no'}",
            summary,
        ]
        _write(args, ("\n".join(lines), "\n"))
    return code


def _report_lines(reports) -> list[str]:
    return [
        f"{r.check} n={r.n}: {'PASS' if r.passed else 'FAIL'} "
        f"expected={r.expected} actual={r.actual}"
        for r in reports
    ]


def _verdict(reports) -> tuple[str, int]:
    """The summary line ``PASS k/m`` of the reports and the exit code: 0 if
    every report passes, else 2."""
    passed = sum(r.passed for r in reports)
    return f"PASS {passed}/{len(reports)}", 0 if passed == len(reports) else 2


# The subcommands: name, handler, help line, and the arguments that each
# adds before the _SHARED ones, as {flag: add_argument keywords}.
_COMMANDS = (
    ("word", _word, "emit a block or a prefix of the word",
     {"--n": dict(type=_parse_int, help="block index"), "--prefix": dict(type=_parse_int, help="prefix length")}),
    ("theta", _theta, "emit the generating series",
     {"--prec": dict(type=_parse_int, default=32), "--field": dict(type=_parse_field, default="Q")}),
    ("cf", _cf, "expand the series or a rational function",
     {"--ratfunc": dict(help="exact expansion of this fraction"),
      "--prec": dict(type=_parse_int, default=200, help="series precision for the default expansion"),
      "--field": dict(type=_parse_field, default="Q")}),
    ("convergents", _convergents, "convergent table of an expansion",
     {"--ratfunc": {}, "--prec": dict(type=_parse_int, default=200), "--field": dict(type=_parse_field, default="Q")}),
    ("measure", _measure, "irrationality-measure estimates",
     {"--max-n": dict(type=_parse_int, default=6), "--csv": dict(help="also write (n, d_n, nu_n) rows here")}),
    # verify.SUITE_ORDER plus "all", spelled out so that parsing does not
    # import the suite; a test keeps the two in step.
    ("verify", _verify, "run the verification suite",
     {"selection": dict(choices=("lemma1", "lemma2", "lemma3", "theorem3", "corollary", "conjecture", "all")),
      "--max-n": dict(type=_parse_int)}),
    ("quartic", _quartic, "root and expansion of x^4+x^2-Tx+1",
     {"--p": dict(type=_parse_int, default=3), "--prec": dict(type=_parse_int, default=1000),
      "--k": dict(type=_parse_int, default=100, help="coefficients compared against the word")}),
    ("alphabet", _alphabet, "rebuild the first approximant over (a, b)",
     {"--pair": dict(type=_parse_pair, default="1,-1")}),
)
_SHARED = {"--format": dict(choices=("text", "json"), default="text"),
           "--output": dict(help="write output to this path")}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PrecisionError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
