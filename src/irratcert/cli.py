"""Command-line front end.

Subcommands: `cert` builds a certificate table for one of the named
families, `pigeonhole` runs the bin-collision construction for a single
index, `reduce` reduces an integer coefficient vector modulo a monic
polynomial, `classify` gives an exact rational-or-irrational verdict per
real root, and `fracpart` evaluates the fractional-part product criterion.

One table, `_COMMANDS`, holds each subcommand's handler, help and options.
A documented argv is read from it in one pass; argparse is built from it
only for any other argv, and owns every usage error, abbreviation and `--help`.

Exit codes: 0 for a nice certificate or any successful query, 2 for a
violated certificate, 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from .algebraic import classify_roots, reduce_power_form
from .certificate import _decimal, _digits, _frac_str, _from_rational_str, _quote, _rational_str
from .constants import canonical_text, parse_constant
from .errors import IrratCertError
from .intpoly import IntPolynomial
from .pigeonhole import fractional_residual, pigeonhole_approximant
from .verify import FAMILIES, certify


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so exit codes stay ours."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return _from_rational_str(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"{flag} must be a rational like 3/5, got {text!r}") from None


def _parse_poly(text: str, flag: str) -> IntPolynomial:
    try:
        return IntPolynomial.from_csv(text)
    except ValueError:
        raise _UsageError(f"{flag} must be comma-separated integers, got {text!r}") from None


# constant kind field -> the cert flag that gives it; __match_args__ names a
# kind's fields in constructor order, and a flag argparse left as text is rational
_FIELD_FLAGS = {"m": "--m", "a": "--a", "k": "--k", "r": "--r", "x": "--angle"}


def _constant_for(family: str, args):
    kind = FAMILIES[family].kind
    if not isinstance(kind, type):
        return kind
    values = []
    for flag in (_FIELD_FLAGS[name] for name in kind.__match_args__):
        value = getattr(args, flag[2:])
        if value is None:
            raise _UsageError(f"family {family!r} requires {flag}")
        values.append(_parse_fraction(value, flag) if isinstance(value, str) else value)
    return kind(*values)


def _emit(text: str, output) -> None:
    """Write text, then a newline as a second write if it lacks one, so that
    text is not copied to add it."""
    end = "" if text.endswith("\n") else "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write(end)
    else:
        sys.stdout.write(text)
        sys.stdout.write(end)


def _cmd_cert(args) -> int:
    if args.seed_doc:
        print(f"{args.family}: {FAMILIES[args.family].doc}")
        return 0
    c = _constant_for(args.family, args)
    width = _parse_fraction(args.width, "--width") if args.width is not None else None
    cert = certify(args.family, c, args.n_max, max_width=width)
    _emit(getattr(cert, f"to_{args.format}")(), args.output)
    return 0 if cert.is_nice else 2


def _cmd_pigeonhole(args) -> int:
    c = parse_constant(args.constant)
    result = pigeonhole_approximant(c, args.n)
    if args.format == "json":
        # json.dumps(indent=2) of these six fields, written in one pass
        text = (f'{{\n  "constant": {_quote(canonical_text(c))},\n  "n": {result.n},\n'
                f'  "p": "{_digits(result.p)}",\n  "q": "{_digits(result.q)}",\n'
                f'  "residual_lo": "{_frac_str(result.residual.lo)}",\n'
                f'  "residual_hi": "{_frac_str(result.residual.hi)}"\n}}')
    else:
        mid = (result.residual.lo + result.residual.hi) / 2
        text = "\n".join([
            f"constant: {canonical_text(c)}",
            f"n: {result.n}",
            f"q: {_digits(result.q)}",
            f"p: {_digits(result.p)}",
            f"residual: [{_frac_str(result.residual.lo)}, {_frac_str(result.residual.hi)}]",
            f"residual ~ {_decimal(mid)}  (|residual| < 1/{result.n})",
        ])
    _emit(text, None)
    return 0


def _cmd_reduce(args) -> int:
    modulus = _parse_poly(args.modulus, "--modulus")
    coeffs = _parse_poly(args.coeffs, "--coeffs")
    form = reduce_power_form(modulus, coeffs.coeffs)
    print(",".join(_digits(x) for x in form.coeffs))
    return 0


def _cmd_classify(args) -> int:
    poly = _parse_poly(args.poly, "--poly")
    for verdict in classify_roots(poly):
        lo, hi = (_rational_str(x) for x in (verdict.bracket.lo, verdict.bracket.hi))
        if verdict.is_irrational:
            print(f"bracket ({lo}, {hi}): irrational")
        else:
            print(f"bracket ({lo}, {hi}): rational {_rational_str(verdict.rational_value)}")
    return 0


def _cmd_fracpart(args) -> int:
    c = parse_constant(args.constant)
    if args.width is not None:
        enc = fractional_residual(args.q, c, _parse_fraction(args.width, "--width"))
    else:
        enc = fractional_residual(args.q, c)
    mid = (enc.lo + enc.hi) / 2
    print(f"{{q*x}}({{q*x}} - 1) in [{_frac_str(enc.lo)}, {_frac_str(enc.hi)}]")
    print(f"value ~ {_decimal(mid)}")
    return 0


# Each subcommand: its handler, its help and each option's add_argument
# keywords.  _one_pass reads a request straight from here; _build_parser
# builds argparse from it only for the argv _one_pass leaves.
_COMMANDS = {
    "cert": (_cmd_cert, "certificate table for one family", {
        "--family": dict(required=True, choices=sorted(FAMILIES), help="generator family"),
        "--n-max": dict(type=int, default=10, help="last row index (default 10)"),
        "--m": dict(type=int, help="radicand (sqrt), root degree (root), "
                                   "or argument denominator (sin-inv, cos-inv)"),
        "--a": dict(type=int, help="radicand for the root family"),
        "--k": dict(type=int, help="integer exponent for e-pow"),
        "--r": dict(help="rational exponent for e-rat, e.g. -1/2"),
        "--angle": dict(help="rational angle for trig-angle, e.g. 1/3"),
        "--format": dict(choices=("json", "csv", "table"), default="table",
                         help="report format (default table)"),
        "--output": dict(help="write the report to this path"),
        "--width": dict(help="per-row verification width override"),
        "--seed-doc": dict(action="store_true", default=False,
                           help="print the construction behind the family and exit"),
    }),
    "pigeonhole": (_cmd_pigeonhole, "bin-collision approximant for one n", {
        "--constant": dict(required=True, help="constant text, e.g. sqrt:2"),
        "--n": dict(type=int, required=True),
        "--format": dict(choices=("json", "table"), default="table"),
    }),
    "reduce": (_cmd_reduce, "reduce coefficients modulo a monic polynomial", {
        "--modulus": dict(required=True,
                          help="monic modulus, ascending comma-separated, e.g. -2,0,1"),
        "--coeffs": dict(required=True,
                         help="coefficient vector to reduce, ascending comma-separated"),
    }),
    "classify": (_cmd_classify, "rational-or-irrational verdict per real root", {
        "--poly": dict(required=True,
                       help="integer polynomial, ascending comma-separated, e.g. 1,1,-5,2"),
    }),
    "fracpart": (_cmd_fracpart, "fractional-part product {qx}({qx}-1)", {
        "--constant": dict(required=True),
        "--q": dict(type=int, required=True),
        "--width": dict(help="enclosure width (default 1/10^9)"),
    }),
}


@cache
def _build_parser() -> _Parser:
    """The parser, built from _COMMANDS on first use and shared by every later call."""
    parser = _Parser(prog="irratcert",
                     description="exact-arithmetic irrationality certificates")
    sub = parser.add_subparsers(metavar="command")
    for name, (handler, summary, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        command.set_defaults(handler=handler)
        for flag, keywords in options.items():
            command.add_argument(flag, **keywords)
    parser.commands = sub.choices       # each subcommand's name -> its parser
    return parser


def _one_pass_table(handler, options):
    """What _one_pass reads of a _COMMANDS entry: (dest, type, choices) of each
    single-value option by flag, the required dests, and the defaults."""
    dest = {flag: flag[2:].replace("-", "_") for flag in options}     # --n-max -> n_max
    return ({f: (dest[f], o.get("type"), o.get("choices")) for f, o in options.items()
             if "action" not in o}, {dest[f] for f, o in options.items() if o.get("required")},
            {"handler": handler} | {dest[f]: o.get("default") for f, o in options.items()})


_ONE_PASS = {name: _one_pass_table(h, options) for name, (h, _, options) in _COMMANDS.items()}


def _one_pass(options, required, defaults, args):
    """A subcommand's parse_args(args) built in one pass from its _ONE_PASS table,
    or None at the first argument that is not `--flag=value` or `--flag value`
    (value not starting with -) for one of its single-value options in full
    with a value of its type and choices, or if a required one is missing."""
    given, rest = {}, iter(args)
    for arg in rest:
        flag, eq, value = arg.partition("=")
        value = value if eq else next(rest, "-")    # so a missing value falls back
        dest, kind, choices = options.get(flag, (None, None, None))
        if dest is None or value in ("", "--") or not eq and value.startswith("-"):
            return None     # argparse would read a value "--" as none
        try:
            value = value if kind is None else kind(value)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    return argparse.Namespace(**defaults | given) if given.keys() >= required else None


def _parse(argv):
    """_build_parser().parse_args(argv); a subcommand's rest by _one_pass, else by
    its own parser, which is all that builds argparse for a subcommand's argv."""
    if argv and (table := _ONE_PASS.get(argv[0])) is not None:
        return (_one_pass(*table, argv[1:])
                or _build_parser().commands[argv[0]].parse_args(argv[1:]))
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if not hasattr(args, "handler"):
            raise _UsageError("pick a subcommand: cert, pigeonhole, reduce, classify, fracpart")
        # --flag=-- reaches here as [] on Python 3.10-3.12 and as "--" on 3.13;
        # argparse sets dests in option order, so the first such dest names the flag
        if [] in vars(args).values() or "--" in vars(args).values():
            dest = next(d for d, value in vars(args).items() if value in ([], "--"))
            raise _UsageError(f"argument --{dest.replace('_', '-')}: expected one argument")
        return args.handler(args)
    except _UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 1
    except (IrratCertError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error[MemoryError]: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
