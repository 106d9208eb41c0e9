"""Supported constants and their certified rational enclosures.

Each constant is a small frozen spec object that validates its own
parameters.  `enclose` turns a spec into an interval of requested width
with dyadic endpoints, from integer fixed-point series with strict error
bounds, integer roots, or `intpoly.bisect_root` for algebraic roots; no
floating point is involved at any point.  One table, `_TEXT_FORMS`, gives
each kind's text form (`sqrt:2`, `root:2,3`, `e`, `e-rat:1/2`, `sin:22/7`,
`algroot:<coeffs>@<lo>,<hi>`, ...) to `canonical_text` and `parse_constant`."""

from __future__ import annotations

import math
from dataclasses import field
from fractions import Fraction
from typing import Optional

from .certificate import _digits, _from_digits, _from_rational_str, _rational_str
from .enclosure import Enclosure, _grid_bits, _record
from .errors import (BracketAmbiguousError, IrratCertError, PerfectPowerError,
                     ZeroExponentError)
from .intpoly import IntPolynomial, bisect_root, count_roots_between, rational_root, sign_at


def integer_nth_root(a: int, m: int) -> int:
    """floor(a ** (1/m)) by Newton iteration on integers, started past 768 bits
    just above the root, at (r + 1) 2^s for r the root of a >> (m s), s = bits / 2m."""
    if a < 0 or m < 1:
        raise ValueError("need a >= 0 and m >= 1")
    if a < 2 or m == 1:
        return a
    if a.bit_length() <= m:
        return 1
    if m == 2:
        return math.isqrt(a)
    s = a.bit_length() // (2 * m)
    x = (integer_nth_root(a >> m * s, m) + 1 << s if a.bit_length() >= 768
         else 1 << -(-a.bit_length() // m))
    while True:
        y = ((m - 1) * x + a // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


@_record
class Sqrt:
    """sqrt(m) for an integer m >= 2 that is not a perfect square."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"sqrt spec needs m >= 2, got {self.m}")
        z = math.isqrt(self.m)
        if z * z == self.m:
            raise PerfectPowerError(f"{self.m} is a perfect square ({z}**2)")


@_record
class Root:
    """a ** (1/m) for a >= 2 not an exact m-th power, m >= 2."""

    a: int
    m: int

    def __post_init__(self):
        if self.a < 2 or self.m < 2:
            raise ValueError(f"root spec needs a >= 2 and m >= 2, got a={self.a}, m={self.m}")
        z = integer_nth_root(self.a, self.m)
        if z ** self.m == self.a:
            raise PerfectPowerError(f"{self.a} is a perfect power ({z}**{self.m})")


@_record
class E:
    """The constant e."""


@_record
class InvE:
    """The constant 1/e."""


@_record
class EPow:
    """e**k for an integer k >= 1."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"e-pow spec needs k >= 1, got {self.k}")


@_record
class ERational:
    """e**r for a nonzero rational r."""

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.r == 0:
            raise ZeroExponentError("e**0 is rational; exponent must be nonzero")


@_record
class _InverseAngle:
    """A function of the angle 1/m for an integer m >= 1."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"{_WRITERS[type(self)][0]} spec needs m >= 1, got {self.m}")


class SinInv(_InverseAngle):
    """sin(1/m) for an integer m >= 1."""


class CosInv(_InverseAngle):
    """cos(1/m) for an integer m >= 1."""


@_record
class _Angle:
    """A function of a nonzero rational angle x."""

    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        if self.x == 0:
            raise ValueError(f"{_WRITERS[type(self)][0]}(0) is rational; angle must be nonzero")


class SinOf(_Angle):
    """sin(x) for a nonzero rational x."""


class CosOf(_Angle):
    """cos(x) for a nonzero rational x."""


@_record
class AlgebraicRoot:
    """The unique real root of an integer polynomial inside (lo, hi); rational
    holds its value when it is rational, decided once by `intpoly.rational_root`."""

    poly: IntPolynomial
    lo: Fraction
    hi: Fraction
    rational: Optional[Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.poly.degree < 1:
            raise ValueError("polynomial must have degree >= 1")
        if self.lo >= self.hi:
            raise ValueError("bracket must satisfy lo < hi")
        flo, fhi = (sign_at(self.poly.coeffs, *x.as_integer_ratio()) for x in (self.lo, self.hi))
        if flo == 0 or fhi == 0:
            raise BracketAmbiguousError("bracket endpoint is itself a root")
        if flo == fhi:
            raise BracketAmbiguousError("no sign change over the bracket")
        n = count_roots_between(self.poly, self.lo, self.hi)
        if n != 1:
            raise BracketAmbiguousError(f"bracket holds {n} roots, need exactly 1")
        object.__setattr__(self, "rational", rational_root(self.poly, self.lo, self.hi))


# a types.UnionType, which isinstance accepts; typing.Union[...] would sit in
# typing's subscription cache and keep these classes, and their modules, alive
# after the package is dropped from sys.modules
ConstantSpec = (Sqrt | Root | E | InvE | EPow | ERational | SinInv | CosInv
                | SinOf | CosOf | AlgebraicRoot)


# ---------------------------------------------------------------------------
# Fixed-point enclosures.  The exp, sin and cos series are summed as integers
# at scale 2^-prec: every term is floored, and an integer bound on its
# distance from the true scaled term travels with it.  The result is the
# midpoint-radius interval [S - r, S + r] / 2^prec, where r is the tail bound
# plus the accumulated rounding error; Fractions appear only at that boundary,
# built by shifts (`Enclosure._grid`), not by a gcd.
# A sum stops as soon as 2r fits the requested width.  If the tail bound alone
# fits a quarter of it and 2r still does not, the rounding error is what is
# too wide, and the sum is redone at a finer scale.
# The tail is formed only where it may end the sum.  It is at least
# |term| |a| / ((j + 1) b) for exp and |term| a^2 / d for sin and cos, and
# |term| |a| >= 2^(bits(term) + bits(a) - 2); so while bits(term) + bits(a) >
# bits(budget) + bits((j + 1) b) + 2 (a^2 and d), it is over 2 budget, neither
# exit can fire, and skipping it changes no result.

def _series_precision(x: Fraction, max_width: Fraction) -> int:
    """Starting scale for a series at x: the bits of max_width, plus guard bits
    for the rounding error, which grows like e^|x| times the number of terms."""
    k = _grid_bits(max_width.numerator, max_width.denominator)
    return k + 2 * (abs(x.numerator) // x.denominator) + k.bit_length() + 10


def _exp_enclosure(x: Fraction, max_width: Fraction) -> Enclosure:
    """Fixed-point Taylor sum of exp(x) with a geometric bound on the dropped tail.

    After the term x^j/j! the remaining tail is at most
    |x|^(j+1)/(j+1)! * 1/(1 - |x|/(j+2)), valid once |x| < j + 2.
    """
    a, b = x.numerator, x.denominator
    aa = abs(a)
    prec = _series_precision(x, max_width)
    while True:
        budget = (max_width.numerator << prec) // max_width.denominator
        room = budget.bit_length() + 2 - aa.bit_length()
        term = total = 1 << prec
        err = total_err = 0
        j = 0
        while True:
            j += 1
            d = j * b
            term = term * a // d
            err = -(-err * aa // d) + 1
            total += term
            total_err += err
            if aa < (j + 2) * b and term.bit_length() <= room + (d + b).bit_length():
                tail = -(-(abs(term) + err) * aa * (j + 2) // ((j + 1) * ((j + 2) * b - aa)))
                r = tail + total_err
                if 2 * r <= budget:
                    return Enclosure._grid(total - r, total + r, prec)
                if 4 * tail <= budget:
                    break
        prec += total_err.bit_length()


def _trig_enclosure(x: Fraction, max_width: Fraction, first_power: int) -> Enclosure:
    """Fixed-point Maclaurin sum of sin(x) (first_power 1) or cos(x)
    (first_power 0), clipped to [-1, 1].

    Once the term ratio x^2/((s+1)(s+2)) after the power-s term drops below 1
    the terms decrease, so the dropped tail is at most the first omitted term,
    which is bounded from the power-s term kept.
    """
    a, b = x.numerator, x.denominator
    a2, b2 = a * a, b * b
    prec = _series_precision(x, max_width)
    while True:
        one = 1 << prec
        budget = (max_width.numerator << prec) // max_width.denominator
        room = budget.bit_length() + 2 - a2.bit_length()
        if first_power:
            term, rem = divmod(a << prec, b)
            err = 1 if rem else 0
        else:
            term, err = one, 0
        total, total_err = term, err
        s = first_power
        while True:
            d = (s + 1) * (s + 2) * b2
            if a2 < d and term.bit_length() <= room + d.bit_length():
                tail = -(-(abs(term) + err) * a2 // d)
                r = tail + total_err
                if 2 * r <= budget:
                    return Enclosure._grid(max(total - r, -one), min(total + r, one), prec)
                if 4 * tail <= budget:
                    break
            term = -term * a2 // d
            err = -(-err * a2 // d) + 1
            total += term
            total_err += err
            s += 2
        prec += total_err.bit_length()


def _root_enclosure(a: int, m: int, max_width: Fraction) -> Enclosure:
    """[z, z + 1] / 2^k with z = floor(2^k * a^(1/m)) and k the fewest bits with
    2^-k <= max_width.  The root is irrational, so it lies strictly inside:
    this is exactly the interval that halving [floor(root), floor(root) + 1]
    reaches."""
    k = _grid_bits(max_width.numerator, max_width.denominator)
    z = integer_nth_root(a << (m * k), m)
    return Enclosure._grid(z, z + 1, k)


def enclose(spec: ConstantSpec, max_width) -> Enclosure:
    """Interval of width <= max_width certified to contain the constant.

    Any two results for one constant overlap, since both contain it.  They
    need not be nested: the series enclosures are centred on fixed-point
    sums, so a narrower request may poke out of a wider one.
    """
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    match spec:
        case Sqrt(m=m):
            return _root_enclosure(m, 2, max_width)
        case Root(a=a, m=m):
            return _root_enclosure(a, m, max_width)
        case E():
            return _exp_enclosure(Fraction(1), max_width)
        case InvE():
            return _exp_enclosure(Fraction(-1), max_width)
        case EPow(k=k):
            return _exp_enclosure(Fraction(k), max_width)
        case ERational(r=r):
            return _exp_enclosure(r, max_width)
        case SinInv(m=m):
            return _trig_enclosure(Fraction(1, m), max_width, first_power=1)
        case CosInv(m=m):
            return _trig_enclosure(Fraction(1, m), max_width, first_power=0)
        case SinOf(x=x):
            return _trig_enclosure(x, max_width, first_power=1)
        case CosOf(x=x):
            return _trig_enclosure(x, max_width, first_power=0)
        case AlgebraicRoot(rational=None):
            return bisect_root(spec.poly, spec.lo, spec.hi, max_width)
        case AlgebraicRoot(rational=r):
            return Enclosure(r, r)
    raise TypeError(f"not a constant spec: {spec!r}")


# ---------------------------------------------------------------------------
# Canonical text form: prefix:field,...,field with one codec per field, in
# field order; a kind with no fields is its bare prefix, algroot is coeffs@lo,hi.

_INT = (_from_digits, _digits)
_RAT = (_from_rational_str, _rational_str)
_TEXT_FORMS = {
    "sqrt": (Sqrt, _INT), "root": (Root, _INT, _INT), "e": (E,), "inv-e": (InvE,),
    "e-pow": (EPow, _INT), "e-rat": (ERational, _RAT), "sin-inv": (SinInv, _INT),
    "cos-inv": (CosInv, _INT), "sin": (SinOf, _RAT), "cos": (CosOf, _RAT),
    "algroot": (AlgebraicRoot, (IntPolynomial.from_csv, IntPolynomial.to_csv), _RAT, _RAT),
}
# kind -> (prefix, [(field name, writer)]); __match_args__ names the init fields in order
_WRITERS = {kind: (prefix, [(name, write) for name, (_, write)
                            in zip(kind.__match_args__, codecs, strict=True)])
            for prefix, (kind, *codecs) in _TEXT_FORMS.items()}


def canonical_text(spec: ConstantSpec) -> str:
    prefix, writers = _WRITERS.get(type(spec), (None, ()))
    if prefix is None:
        raise TypeError(f"not a constant spec: {spec!r}")
    parts = [write(getattr(spec, name)) for name, write in writers]
    if prefix == "algroot":
        return f"algroot:{parts[0]}@{parts[1]},{parts[2]}"
    return f"{prefix}:{','.join(parts)}" if parts else prefix


def parse_constant(text: str) -> ConstantSpec:
    """Inverse of canonical_text; raises ValueError on malformed input."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    kind, *codecs = _TEXT_FORMS.get(head, (None,))
    if kind is None or (sep and not codecs) or (codecs and not rest):
        raise ValueError(f"unrecognized constant spec {text!r}")
    try:
        parts = rest.split(",") if rest else []
        if kind is AlgebraicRoot:
            body, at, bracket = rest.partition("@")
            if not at:
                raise ValueError("algroot spec needs coeffs@lo,hi")
            parts = [body, *bracket.split(",")]
        if len(parts) != len(codecs):
            raise ValueError(f"{head} spec needs {len(codecs)} field(s), got {len(parts)}")
        return kind(*[read(part) for (read, _), part in zip(codecs, parts)])
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, IrratCertError):
            raise
        detail = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise ValueError(f"malformed constant spec {text!r}: {detail}") from exc
