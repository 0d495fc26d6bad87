"""Command-line front end: word construction, series emission, continued
fraction expansion, convergents, measure estimates, the verification suite,
the quartic root, and the alphabet variant.

All numeric output is exact (rationals as p/q strings); identical invocations
produce byte-identical output.  Exit codes: 0 all requested checks pass,
2 any check failure, 1 usage or precision error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .fields import GF, QQ
from .poly import ParseError, format_poly, parse_ratfunc
from .series import PrecisionError
from .cf import cf_of_fraction, cf_of_series, convergents, measure_terms
from .words import block, prefix, theta_series
from . import verify


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class CliConfig:
    """Validated invocation; one instance per run."""

    command: str
    field: object = QQ
    n: int | None = None
    prefix_len: int | None = None
    max_n: int | None = None
    prec: int | None = None
    count: int | None = None
    p: int | None = None
    alphabet: tuple | None = None
    ratfunc: str | None = None
    selection: str | None = None
    fmt: str = "text"
    output: str | None = None
    csv: str | None = None


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

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None, help="write output to this path")

    p_word = sub.add_parser("word", help="emit a block or a prefix of the word")
    p_word.add_argument("--n", type=int, default=None, help="block index")
    p_word.add_argument("--prefix", type=int, default=None, help="prefix length")
    common(p_word)

    p_theta = sub.add_parser("theta", help="emit the generating series")
    p_theta.add_argument("--prec", type=int, default=32)
    p_theta.add_argument("--field", default="Q")
    common(p_theta)

    p_cf = sub.add_parser("cf", help="expand the series or a rational function")
    p_cf.add_argument("--ratfunc", default=None, help="exact expansion of this fraction")
    p_cf.add_argument("--prec", type=int, default=200, help="series precision for the default expansion")
    p_cf.add_argument("--field", default="Q")
    common(p_cf)

    p_conv = sub.add_parser("convergents", help="convergent table of an expansion")
    p_conv.add_argument("--ratfunc", default=None)
    p_conv.add_argument("--prec", type=int, default=200)
    p_conv.add_argument("--field", default="Q")
    common(p_conv)

    p_measure = sub.add_parser("measure", help="irrationality-measure estimates")
    p_measure.add_argument("--max-n", type=int, default=6)
    p_measure.add_argument("--csv", default=None, help="also write (n, d_n, nu_n) rows here")
    common(p_measure)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument(
        "selection",
        choices=(*verify.SUITE_ORDER, "all"),
    )
    p_verify.add_argument("--max-n", type=int, default=None)
    common(p_verify)

    p_quartic = sub.add_parser("quartic", help="root and expansion of x^4+x^2-Tx+1")
    p_quartic.add_argument("--p", type=int, default=3)
    p_quartic.add_argument("--prec", type=int, default=1000)
    p_quartic.add_argument("--k", type=int, default=100, help="coefficients compared against the word")
    common(p_quartic)

    p_alpha = sub.add_parser("alphabet", help="rebuild the first approximant over (a, b)")
    p_alpha.add_argument("--pair", default="1,-1")
    common(p_alpha)

    return parser


def build_config(argv) -> CliConfig:
    args = build_parser().parse_args(argv)
    field = _parse_field(args.field) if hasattr(args, "field") else QQ
    return CliConfig(
        command=args.command,
        field=field,
        n=getattr(args, "n", None),
        prefix_len=getattr(args, "prefix", None),
        max_n=getattr(args, "max_n", None),
        prec=getattr(args, "prec", None),
        count=getattr(args, "k", None),
        p=getattr(args, "p", None),
        alphabet=_parse_pair(args.pair) if hasattr(args, "pair") else None,
        ratfunc=getattr(args, "ratfunc", None),
        selection=getattr(args, "selection", None),
        fmt=args.format,
        output=args.output,
        csv=getattr(args, "csv", None),
    )


def _emit(config: CliConfig, text: str) -> None:
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _json(payload) -> str:
    return json.dumps(payload, indent=2)


def _series_payload(series) -> dict:
    fmt = series.field.format_scalar
    return {
        "top": series.top,
        "known_down": series.known_down,
        "coefficients": [fmt(c) for c in series.coeffs],
    }


def _expansion_for(config: CliConfig):
    """The requested expansion plus metadata (shared by cf/convergents)."""
    if config.ratfunc is not None:
        f = parse_ratfunc(config.ratfunc, config.field)
        return cf_of_fraction(f.num, f.den), None
    if config.prec is None or config.prec < 1:
        raise UsageError("--prec must be at least 1")
    expansion = cf_of_series(theta_series(config.prec, config.field))
    return expansion.cf, expansion


def run(config: CliConfig) -> int:
    if config.command == "word":
        if (config.n is None) == (config.prefix_len is None):
            raise UsageError("word needs exactly one of --n or --prefix")
        w = block(config.n) if config.n is not None else prefix(config.prefix_len)
        _emit(config, _json({"word": str(w)}) if config.fmt == "json" else str(w))
        return 0

    if config.command == "theta":
        series = theta_series(config.prec, config.field)
        text = _json(_series_payload(series)) if config.fmt == "json" else str(series)
        _emit(config, text)
        return 0

    if config.command == "cf":
        cf, expansion = _expansion_for(config)
        quotients = [format_poly(q) for q in cf.quotients]
        if config.fmt == "json":
            payload: dict = {"partial_quotients": quotients}
            if expansion is not None:
                payload.update(
                    emitted=expansion.emitted,
                    precision_consumed=expansion.precision_consumed,
                    terminated=expansion.terminated,
                )
            _emit(config, _json(payload))
        else:
            _emit(config, "\n".join(quotients))
        return 0

    if config.command == "convergents":
        cf, _ = _expansion_for(config)
        table = convergents(cf)
        rows = [
            {"n": i, "x": format_poly(x), "y": format_poly(y), "degY": y.degree}
            for i, (x, y) in enumerate(table.rows)
        ]
        if config.fmt == "json":
            _emit(config, _json(rows))
        else:
            _emit(
                config,
                "\n".join(f"n={r['n']} degY={r['degY']} x={r['x']} y={r['y']}" for r in rows),
            )
        return 0

    if config.command == "measure":
        if config.max_n is None or config.max_n < 1:
            raise UsageError("--max-n must be at least 1")
        cf = verify.theta_expansion(config.max_n + 1)
        degrees = cf.degrees()
        terms = measure_terms(degrees)
        if config.csv:
            with open(config.csv, "w", encoding="utf-8") as fh:
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
        if config.fmt == "json":
            _emit(config, _json(rows))
        else:
            _emit(config, "\n".join(f"n={r['n']} nu={r['nu']} max={r['running_max']}" for r in rows))
        return 0

    if config.command == "verify":
        if config.max_n is not None and config.max_n < 1:
            raise UsageError("--max-n must be at least 1")
        reports, findings = verify.run_suite(config.selection, config.max_n)
        return _emit_reports(config, reports, findings)

    if config.command == "quartic":
        if config.prec is None or config.prec < 1:
            raise UsageError("--prec must be at least 1")
        expansion = verify.quartic_expansion(config.p, config.prec)
        reports = []
        if config.p == 3:
            reports.append(verify.quartic_lambda_report(expansion, config.count))
        if config.fmt == "json":
            payload = {
                "p": config.p,
                "prec": config.prec,
                "root": _series_payload(expansion.root),
                "partial_quotients": [format_poly(q) for q in expansion.cf.quotients],
                "lambda": list(expansion.lambdas),
                "u": list(expansion.exponents),
                "monomial": expansion.monomial,
                "reports": [r.to_dict() for r in reports],
            }
            _emit(config, _json(payload))
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
            _emit(config, "\n".join(lines))
        return 0 if all(r.passed for r in reports) else 2

    if config.command == "alphabet":
        variant = verify.alphabet_variant(*config.alphabet)
        if config.fmt == "json":
            payload = {
                "alphabet": [str(v) for v in variant.alphabet],
                "num": format_poly(variant.r),
                "den": format_poly(variant.s),
                "gcd": format_poly(variant.gcd),
                "coprime": variant.coprime,
                "reports": [variant.report.to_dict()],
            }
            _emit(config, _json(payload))
        else:
            _emit(
                config,
                "\n".join(
                    [
                        f"alphabet: {variant.alphabet[0]},{variant.alphabet[1]}",
                        f"num: {format_poly(variant.r)}",
                        f"den: {format_poly(variant.s)}",
                        f"gcd: {format_poly(variant.gcd)}",
                        f"coprime: {'yes' if variant.coprime else 'no'}",
                        f"PASS {int(variant.report.passed)}/1",
                    ]
                ),
            )
        return 0 if variant.report.passed else 2

    raise UsageError(f"unknown command {config.command!r}")


def _report_lines(reports) -> list[str]:
    return [
        f"{r.check} n={r.n}: {'PASS' if r.passed else 'FAIL'} "
        f"expected={r.expected} actual={r.actual}"
        for r in reports
    ]


def _emit_reports(config: CliConfig, reports, findings) -> int:
    passed = sum(r.passed for r in reports)
    summary = f"PASS {passed}/{len(reports)}"
    if config.fmt == "json":
        body = _json([r.to_dict() for r in reports])
        _emit(config, body + "\n" + summary)
        for finding in findings:
            print(f"FINDING: {finding}", file=sys.stderr)
    else:
        lines = _report_lines(reports)
        lines += [f"FINDING: {finding}" for finding in findings]
        lines.append(summary)
        _emit(config, "\n".join(lines))
    return 0 if passed == len(reports) else 2


def main(argv=None) -> int:
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PrecisionError, ParseError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
