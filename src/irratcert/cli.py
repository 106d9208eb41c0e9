"""Command-line front end.

Subcommands: `cert` builds a certificate table for one of the named
families, `pigeonhole` runs the bin-collision construction for a single
index, `reduce` reduces an integer coefficient vector modulo a monic
polynomial, `classify` gives an exact rational-or-irrational verdict per
real root, and `fracpart` evaluates the fractional-part product criterion.

Exit codes: 0 for a nice certificate or any successful query, 2 for a
violated certificate, 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from .algebraic import classify_roots, reduce_power_form
from .certificate import _decimal, _frac_str, _quote
from .constants import canonical_text, parse_constant
from .errors import IrratCertError
from .intpoly import IntPolynomial, _digits, _from_rational_str, _rational_str
from .pigeonhole import fractional_residual, pigeonhole_approximant
from .verify import FAMILIES, certify


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so exit codes stay ours."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        vars(self).setdefault("own_actions", []).append(action)     # for _one_pass
        return action


@cache
def _build_parser() -> _Parser:
    """The parser, built on first use and shared by every later call."""
    parser = _Parser(prog="irratcert",
                     description="exact-arithmetic irrationality certificates")
    sub = parser.add_subparsers(metavar="command")
    parser.commands = sub.choices       # each subcommand's name -> its parser

    cert = sub.add_parser("cert", help="certificate table for one family")
    cert.set_defaults(handler=_cmd_cert)
    cert.add_argument("--family", required=True, choices=sorted(FAMILIES),
                      help="generator family")
    cert.add_argument("--n-max", dest="n_max", type=int, default=10,
                      help="last row index (default 10)")
    cert.add_argument("--m", type=int, help="radicand (sqrt), root degree (root), "
                                            "or argument denominator (sin-inv, cos-inv)")
    cert.add_argument("--a", type=int, help="radicand for the root family")
    cert.add_argument("--k", type=int, help="integer exponent for e-pow")
    cert.add_argument("--r", help="rational exponent for e-rat, e.g. -1/2")
    cert.add_argument("--angle", help="rational angle for trig-angle, e.g. 1/3")
    cert.add_argument("--format", choices=("json", "csv", "table"),
                      default="table", help="report format (default table)")
    cert.add_argument("--output", help="write the report to this path")
    cert.add_argument("--width", help="per-row verification width override")
    cert.add_argument("--seed-doc", dest="seed_doc", action="store_true",
                      help="print the construction behind the family and exit")

    pig = sub.add_parser("pigeonhole", help="bin-collision approximant for one n")
    pig.set_defaults(handler=_cmd_pigeonhole)
    pig.add_argument("--constant", required=True, help="constant text, e.g. sqrt:2")
    pig.add_argument("--n", type=int, required=True)
    pig.add_argument("--format", choices=("json", "table"), default="table")

    red = sub.add_parser("reduce", help="reduce coefficients modulo a monic polynomial")
    red.set_defaults(handler=_cmd_reduce)
    red.add_argument("--modulus", required=True,
                     help="monic modulus, ascending comma-separated, e.g. -2,0,1")
    red.add_argument("--coeffs", required=True,
                     help="coefficient vector to reduce, ascending comma-separated")

    cls = sub.add_parser("classify", help="rational-or-irrational verdict per real root")
    cls.set_defaults(handler=_cmd_classify)
    cls.add_argument("--poly", required=True,
                     help="integer polynomial, ascending comma-separated, e.g. 1,1,-5,2")

    fp = sub.add_parser("fracpart", help="fractional-part product {qx}({qx}-1)")
    fp.set_defaults(handler=_cmd_fracpart)
    fp.add_argument("--constant", required=True)
    fp.add_argument("--q", type=int, required=True)
    fp.add_argument("--width", help="enclosure width (default 1/10^9)")
    for command in parser.commands.values():    # what _one_pass reads
        acts = command.own_actions
        command.one_pass = ({f: a for a in acts if a.nargs is None for f in a.option_strings},
                            {a.dest for a in acts if a.required},
                            {dest: command.get_default(dest) for dest in ["handler"]
                             + [a.dest for a in acts if a.default is not argparse.SUPPRESS]})
    return parser


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
    if not text.endswith("\n"):
        text += "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _one_pass(options, required, defaults, args):
    """A subcommand's parse_args(args) built in one pass from its one_pass
    table, or None at the first argument that is not `--flag=value` or
    `--flag value` (value not starting with -) for one of its options in
    full with a value of its type and choices, or if a required one is missing."""
    given, rest = {}, iter(args)
    for arg in rest:
        flag, eq, value = arg.partition("=")
        value = value if eq else next(rest, "-")    # so a missing value falls back
        action = options.get(flag)
        if action is None or value in ("", "--") or not eq and value.startswith("-"):
            return None     # argparse would read a value "--" as none
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    return argparse.Namespace(**defaults | given) if given.keys() >= required else None


def _parse(argv):
    """_build_parser().parse_args(argv); a subcommand's rest by _one_pass or its parser."""
    parser = _build_parser()
    if argv and (command := parser.commands.get(argv[0])) is not None:
        return _one_pass(*command.one_pass, argv[1:]) or command.parse_args(argv[1:])
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if not hasattr(args, "handler"):
            raise _UsageError("pick a subcommand: cert, pigeonhole, reduce, classify, fracpart")
        # --flag=-- reaches here as [] on Python 3.10-3.12 and as "--" on 3.13
        if [] in vars(args).values() or "--" in vars(args).values():
            options = next(c.one_pass[0] for c in _build_parser().commands.values()
                           if c.one_pass[2]["handler"] is args.handler)
            flag = next(f for f, a in options.items() if getattr(args, a.dest) in ([], "--"))
            raise _UsageError(f"argument {flag}: expected one argument")
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
