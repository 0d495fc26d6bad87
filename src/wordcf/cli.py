"""Command-line front end: word construction, series emission, continued
fraction expansion, convergents, measure estimates, the verification suite,
the quartic root, and the alphabet variant.

All numeric output is exact (rationals as p/q strings); identical invocations
produce byte-identical output.  Exit codes: 0 all requested checks pass,
2 any check failure, 1 usage or precision error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .fields import GF, QQ
from .poly import ParseError
from .series import PrecisionError

# Each handler imports the modules its subcommand uses, when it runs: a job
# pays start-up only for what it computes, and a function rebound in its
# module (as perfbench's tracer does) is the one called.


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The ``type=`` callables raise UsageError, which argparse lets through
# unchanged (it rewrites only ValueError, TypeError and ArgumentTypeError).
def _parse_field(text: str):
    if text in ("Q", "q"):
        return QQ
    try:
        p = int(text, 10)
    except ValueError as exc:
        raise UsageError(f"field must be Q or a prime number, got {text!r}") from exc
    try:
        return GF(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("alphabet must be two comma-separated rationals, e.g. 1,-1")
    try:
        values = tuple(Fraction(part.strip()) for part in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad alphabet pair {text!r}") from exc
    a, b = (v.numerator if v.denominator == 1 else v for v in values)
    if a == b:
        raise UsageError("alphabet letters must be distinct")
    return (a, b)


def build_parser() -> _Parser:
    parser = _Parser(prog="wordcf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None, help="write output to this path")
        p.set_defaults(run=run)

    p_word = sub.add_parser("word", help="emit a block or a prefix of the word")
    p_word.add_argument("--n", type=int, default=None, help="block index")
    p_word.add_argument("--prefix", type=int, default=None, help="prefix length")
    common(p_word, _word)

    p_theta = sub.add_parser("theta", help="emit the generating series")
    p_theta.add_argument("--prec", type=int, default=32)
    p_theta.add_argument("--field", type=_parse_field, default="Q")
    common(p_theta, _theta)

    p_cf = sub.add_parser("cf", help="expand the series or a rational function")
    p_cf.add_argument("--ratfunc", default=None, help="exact expansion of this fraction")
    p_cf.add_argument("--prec", type=int, default=200, help="series precision for the default expansion")
    p_cf.add_argument("--field", type=_parse_field, default="Q")
    common(p_cf, _cf)

    p_conv = sub.add_parser("convergents", help="convergent table of an expansion")
    p_conv.add_argument("--ratfunc", default=None)
    p_conv.add_argument("--prec", type=int, default=200)
    p_conv.add_argument("--field", type=_parse_field, default="Q")
    common(p_conv, _convergents)

    p_measure = sub.add_parser("measure", help="irrationality-measure estimates")
    p_measure.add_argument("--max-n", type=int, default=6)
    p_measure.add_argument("--csv", default=None, help="also write (n, d_n, nu_n) rows here")
    common(p_measure, _measure)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    # verify.SUITE_ORDER plus "all", spelled out so that parsing does not
    # import the suite; a test keeps the two in step.
    p_verify.add_argument(
        "selection",
        choices=("lemma1", "lemma2", "lemma3", "theorem3", "corollary", "conjecture", "all"),
    )
    p_verify.add_argument("--max-n", type=int, default=None)
    common(p_verify, _verify)

    p_quartic = sub.add_parser("quartic", help="root and expansion of x^4+x^2-Tx+1")
    p_quartic.add_argument("--p", type=int, default=3)
    p_quartic.add_argument("--prec", type=int, default=1000)
    p_quartic.add_argument("--k", type=int, default=100, help="coefficients compared against the word")
    common(p_quartic, _quartic)

    p_alpha = sub.add_parser("alphabet", help="rebuild the first approximant over (a, b)")
    p_alpha.add_argument("--pair", type=_parse_pair, default="1,-1")
    common(p_alpha, _alphabet)

    return parser


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _json(payload) -> str:
    import json

    return json.dumps(payload, indent=2)


def _series_payload(series) -> dict:
    fmt = series.field.format_scalar
    return {
        "top": series.top,
        "known_down": series.known_down,
        "coefficients": [fmt(c) for c in series.coeffs],
    }


def _expansion_for(args):
    """The requested expansion plus metadata (shared by cf/convergents)."""
    if args.ratfunc is not None:
        from .cf import cf_of_fraction
        from .poly import parse_ratfunc

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
    _emit(args, _json({"word": w}) if args.format == "json" else w)
    return 0


def _theta(args) -> int:
    from .words import theta_series

    series = theta_series(args.prec, args.field)
    _emit(args, _json(_series_payload(series)) if args.format == "json" else str(series))
    return 0


def _cf(args) -> int:
    from .poly import format_poly

    cf, expansion = _expansion_for(args)
    quotients = [format_poly(q) for q in cf.quotients]
    if args.format == "json":
        payload: dict = {"partial_quotients": quotients}
        if expansion is not None:
            payload.update(
                emitted=expansion.emitted,
                precision_consumed=expansion.precision_consumed,
                terminated=expansion.terminated,
            )
        _emit(args, _json(payload))
    else:
        _emit(args, "\n".join(quotients))
    return 0


def _convergents(args) -> int:
    from .cf import convergents
    from .poly import format_poly

    cf, _ = _expansion_for(args)
    rows = [
        {"n": i, "x": format_poly(x), "y": format_poly(y), "degY": y.degree}
        for i, (x, y) in enumerate(convergents(cf).rows)
    ]
    if args.format == "json":
        _emit(args, _json(rows))
    else:
        _emit(args, "\n".join(f"n={r['n']} degY={r['degY']} x={r['x']} y={r['y']}" for r in rows))
    return 0


def _measure(args) -> int:
    from . import verify
    from .cf import measure_terms
    from .words import check_block_budget

    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    # theta_expansion(N + 1) reaches aux_words(N + 2), which builds u(N + 3).
    check_block_budget(args.max_n + 3)
    degrees = verify.theta_expansion(args.max_n + 1).degrees()
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
        _emit(args, _json(rows))
    else:
        _emit(args, "\n".join(f"n={r['n']} nu={r['nu']} max={r['running_max']}" for r in rows))
    return 0


def _verify(args) -> int:
    from . import verify

    if args.max_n is not None and args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    reports, findings = verify.run_suite(args.selection, args.max_n)
    return _emit_reports(args, reports, findings)


def _quartic(args) -> int:
    from . import verify
    from .poly import format_poly

    if args.prec < 1:
        raise UsageError("--prec must be at least 1")
    expansion = verify.quartic_expansion(args.p, args.prec)
    reports = []
    if args.p == 3:
        reports.append(verify.quartic_lambda_report(expansion, args.k))
    if args.format == "json":
        payload = {
            "p": args.p,
            "prec": args.prec,
            "root": _series_payload(expansion.root),
            "partial_quotients": [format_poly(q) for q in expansion.cf.quotients],
            "lambda": list(expansion.lambdas),
            "u": list(expansion.exponents),
            "monomial": expansion.monomial,
            "reports": [r.to_dict() for r in reports],
        }
        _emit(args, _json(payload))
    else:
        lines = [
            f"certified quotients: {len(expansion.cf.quotients) - 1}",
            f"monomial quotients: {'yes' if expansion.monomial else 'no'}",
            "lambda: " + "".join(str(c) for c in expansion.lambdas),
            "u: " + ",".join(str(u) for u in expansion.exponents),
        ]
        lines += _report_lines(reports)
        k = sum(r.passed for r in reports)
        lines.append(f"PASS {k}/{len(reports)}")
        _emit(args, "\n".join(lines))
    return 0 if all(r.passed for r in reports) else 2


def _alphabet(args) -> int:
    from . import verify
    from .poly import format_poly

    variant = verify.alphabet_variant(*args.pair)
    if args.format == "json":
        payload = {
            "alphabet": [str(v) for v in variant.alphabet],
            "num": format_poly(variant.r),
            "den": format_poly(variant.s),
            "gcd": format_poly(variant.gcd),
            "coprime": variant.coprime,
            "reports": [variant.report.to_dict()],
        }
        _emit(args, _json(payload))
    else:
        lines = [
            f"alphabet: {variant.alphabet[0]},{variant.alphabet[1]}",
            f"num: {format_poly(variant.r)}",
            f"den: {format_poly(variant.s)}",
            f"gcd: {format_poly(variant.gcd)}",
            f"coprime: {'yes' if variant.coprime else 'no'}",
            f"PASS {int(variant.report.passed)}/1",
        ]
        _emit(args, "\n".join(lines))
    return 0 if variant.report.passed else 2


def _report_lines(reports) -> list[str]:
    return [
        f"{r.check} n={r.n}: {'PASS' if r.passed else 'FAIL'} "
        f"expected={r.expected} actual={r.actual}"
        for r in reports
    ]


def _emit_reports(args, reports, findings) -> int:
    passed = sum(r.passed for r in reports)
    summary = f"PASS {passed}/{len(reports)}"
    if args.format == "json":
        body = _json([r.to_dict() for r in reports])
        _emit(args, body + "\n" + summary)
        for finding in findings:
            print(f"FINDING: {finding}", file=sys.stderr)
    else:
        lines = _report_lines(reports)
        lines += [f"FINDING: {finding}" for finding in findings]
        lines.append(summary)
        _emit(args, "\n".join(lines))
    return 0 if passed == len(reports) else 2


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PrecisionError, ParseError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
