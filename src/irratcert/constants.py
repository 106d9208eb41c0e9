"""Supported constants and their certified rational enclosures.

Each constant is a small frozen spec object that validates its own
parameters.  `enclose` turns a spec into an interval of requested width
using exact series tails or integer bisection; no floating point is
involved at any point.  Specs round-trip through a canonical text form
(`sqrt:2`, `root:2,3`, `e`, `inv-e`, `e-pow:3`, `e-rat:1/2`, `sin-inv:3`,
`cos-inv:3`, `sin:22/7`, `cos:1/2`, `algroot:<coeffs>@<lo>,<hi>`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .enclosure import Enclosure, refine
from .errors import (BracketAmbiguousError, PerfectPowerError,
                     PrecisionExhausted, Unresolvable, ZeroExponentError)
from .intpoly import IntPolynomial, count_roots_between


def integer_nth_root(a: int, m: int) -> int:
    """floor(a ** (1/m)) by Newton iteration on integers."""
    if a < 0 or m < 1:
        raise ValueError("need a >= 0 and m >= 1")
    if a < 2 or m == 1:
        return a
    x = 1 << -(-a.bit_length() // m)
    while True:
        y = ((m - 1) * x + a // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


@dataclass(frozen=True)
class Sqrt:
    """sqrt(m) for an integer m >= 2 that is not a perfect square."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"sqrt spec needs m >= 2, got {self.m}")
        z = math.isqrt(self.m)
        if z * z == self.m:
            raise PerfectPowerError(f"{self.m} is a perfect square ({z}**2)")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class E:
    """The constant e."""


@dataclass(frozen=True)
class InvE:
    """The constant 1/e."""


@dataclass(frozen=True)
class EPow:
    """e**k for an integer k >= 1."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"e-pow spec needs k >= 1, got {self.k}")


@dataclass(frozen=True)
class ERational:
    """e**r for a nonzero rational r."""

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.r == 0:
            raise ZeroExponentError("e**0 is rational; exponent must be nonzero")


@dataclass(frozen=True)
class SinInv:
    """sin(1/m) for an integer m >= 1."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"sin-inv spec needs m >= 1, got {self.m}")


@dataclass(frozen=True)
class CosInv:
    """cos(1/m) for an integer m >= 1."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"cos-inv spec needs m >= 1, got {self.m}")


@dataclass(frozen=True)
class SinOf:
    """sin(x) for a nonzero rational x."""

    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        if self.x == 0:
            raise ValueError("sin(0) is rational; angle must be nonzero")


@dataclass(frozen=True)
class CosOf:
    """cos(x) for a nonzero rational x."""

    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        if self.x == 0:
            raise ValueError("cos(0) is rational; angle must be nonzero")


@dataclass(frozen=True)
class AlgebraicRoot:
    """The unique real root of an integer polynomial inside (lo, hi)."""

    poly: IntPolynomial
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.poly.degree < 1:
            raise ValueError("polynomial must have degree >= 1")
        if self.lo >= self.hi:
            raise ValueError("bracket must satisfy lo < hi")
        flo, fhi = self.poly(self.lo), self.poly(self.hi)
        if flo == 0 or fhi == 0:
            raise BracketAmbiguousError("bracket endpoint is itself a root")
        if (flo > 0) == (fhi > 0):
            raise BracketAmbiguousError("no sign change over the bracket")
        n = count_roots_between(self.poly, self.lo, self.hi)
        if n != 1:
            raise BracketAmbiguousError(f"bracket holds {n} roots, need exactly 1")


ConstantSpec = Union[Sqrt, Root, E, InvE, EPow, ERational, SinInv, CosInv,
                     SinOf, CosOf, AlgebraicRoot]


# ---------------------------------------------------------------------------
# Series and bisection enclosures.

def _exp_enclosure(x: Fraction, max_width: Fraction) -> Enclosure:
    """Partial sum of exp(x) with a geometric bound on the dropped tail.

    After the term x^j/j! the remaining tail is at most
    |x|^(j+1)/(j+1)! * 1/(1 - |x|/(j+2)), valid once |x| < j + 2.
    """
    ax = abs(x)
    term = Fraction(1)
    total = Fraction(1)
    j = 0
    while True:
        j += 1
        term *= Fraction(x, j)
        total += term
        if ax < j + 2:
            head = abs(term) * ax / (j + 1)
            tail = head / (1 - Fraction(ax, j + 2))
            if 2 * tail <= max_width:
                return Enclosure(total - tail, total + tail)


def _sin_enclosure(x: Fraction, max_width: Fraction) -> Enclosure:
    """Alternating Maclaurin bracket for sin(x), clipped to [-1, 1].

    Once the term ratio x^2/((2k+2)(2k+3)) drops below 1 the partial sums
    bracket the limit, with error at most the first omitted term.
    """
    xx = x * x
    total = Fraction(0)
    term = Fraction(x)
    k = 0
    while True:
        if xx < (2 * k + 2) * (2 * k + 3) and abs(term) <= max_width:
            lo, hi = (total, total + term) if term >= 0 else (total + term, total)
            return Enclosure(max(lo, Fraction(-1)), min(hi, Fraction(1)))
        total += term
        k += 1
        term *= Fraction(-xx, (2 * k) * (2 * k + 1))


def _cos_enclosure(x: Fraction, max_width: Fraction) -> Enclosure:
    xx = x * x
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    while True:
        if xx < (2 * k + 1) * (2 * k + 2) and abs(term) <= max_width:
            lo, hi = (total, total + term) if term >= 0 else (total + term, total)
            return Enclosure(max(lo, Fraction(-1)), min(hi, Fraction(1)))
        total += term
        k += 1
        term *= Fraction(-xx, (2 * k - 1) * (2 * k))


def _power_sign(x: Fraction, m: int, a: int) -> int:
    """Sign of x**m - a without building large fractions."""
    v = x.numerator ** m - a * x.denominator ** m
    return (v > 0) - (v < 0)


def _root_bisection(a: int, m: int, max_width: Fraction) -> Enclosure:
    """Bisect x**m - a over [z, z+1]; endpoints stay rational, the root cannot
    be hit exactly because a is not a perfect power."""
    z = integer_nth_root(a, m)
    lo, hi = Fraction(z), Fraction(z + 1)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        if _power_sign(mid, m, a) < 0:
            lo = mid
        else:
            hi = mid
    return Enclosure(lo, hi)


def _poly_bisection(poly: IntPolynomial, lo: Fraction, hi: Fraction,
                    max_width: Fraction) -> Enclosure:
    s_lo = poly(lo)
    sign_lo = (s_lo > 0) - (s_lo < 0)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        v = poly(mid)
        if v == 0:
            return Enclosure(mid, mid)
        if ((v > 0) - (v < 0)) == sign_lo:
            lo = mid
        else:
            hi = mid
    return Enclosure(lo, hi)


def enclose(spec: ConstantSpec, max_width) -> Enclosure:
    """Interval of width <= max_width certified to contain the constant.

    Shrinking max_width yields nested intervals: series enclosures only ever
    gain terms and bisection only ever halves further.
    """
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    match spec:
        case Sqrt(m=m):
            return _root_bisection(m, 2, max_width)
        case Root(a=a, m=m):
            return _root_bisection(a, m, max_width)
        case E():
            return _exp_enclosure(Fraction(1), max_width)
        case InvE():
            return _exp_enclosure(Fraction(-1), max_width)
        case EPow(k=k):
            return _exp_enclosure(Fraction(k), max_width)
        case ERational(r=r):
            return _exp_enclosure(r, max_width)
        case SinInv(m=m):
            return _sin_enclosure(Fraction(1, m), max_width)
        case CosInv(m=m):
            return _cos_enclosure(Fraction(1, m), max_width)
        case SinOf(x=x):
            return _sin_enclosure(x, max_width)
        case CosOf(x=x):
            return _cos_enclosure(x, max_width)
        case AlgebraicRoot():
            return _poly_bisection(spec.poly, spec.lo, spec.hi, max_width)
    raise TypeError(f"not a constant spec: {spec!r}")


def floor_of(spec: ConstantSpec) -> int:
    """z with z <= value < z + 1, found by refining until no integer is straddled."""
    try:
        return refine(lambda w: enclose(spec, w).floor_if_settled(), Fraction(1, 4),
                      f"floor of {canonical_text(spec)}")
    except PrecisionExhausted as exc:
        raise Unresolvable(str(exc)) from None


# ---------------------------------------------------------------------------
# Canonical text form.

def canonical_text(spec: ConstantSpec) -> str:
    match spec:
        case Sqrt(m=m):
            return f"sqrt:{m}"
        case Root(a=a, m=m):
            return f"root:{a},{m}"
        case E():
            return "e"
        case InvE():
            return "inv-e"
        case EPow(k=k):
            return f"e-pow:{k}"
        case ERational(r=r):
            return f"e-rat:{r}"
        case SinInv(m=m):
            return f"sin-inv:{m}"
        case CosInv(m=m):
            return f"cos-inv:{m}"
        case SinOf(x=x):
            return f"sin:{x}"
        case CosOf(x=x):
            return f"cos:{x}"
        case AlgebraicRoot(poly=poly, lo=lo, hi=hi):
            return f"algroot:{poly.to_csv()}@{lo},{hi}"
    raise TypeError(f"not a constant spec: {spec!r}")


def parse_constant(text: str) -> ConstantSpec:
    """Inverse of canonical_text; raises ValueError on malformed input."""
    text = text.strip()
    if text == "e":
        return E()
    if text == "inv-e":
        return InvE()
    head, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"unrecognized constant spec {text!r}")
    try:
        if head == "sqrt":
            return Sqrt(int(rest))
        if head == "root":
            a, m = rest.split(",")
            return Root(int(a), int(m))
        if head == "e-pow":
            return EPow(int(rest))
        if head == "e-rat":
            return ERational(Fraction(rest))
        if head == "sin-inv":
            return SinInv(int(rest))
        if head == "cos-inv":
            return CosInv(int(rest))
        if head == "sin":
            return SinOf(Fraction(rest))
        if head == "cos":
            return CosOf(Fraction(rest))
        if head == "algroot":
            body, sep2, bracket = rest.partition("@")
            if not sep2:
                raise ValueError("algroot spec needs coeffs@lo,hi")
            lo, hi = bracket.split(",")
            return AlgebraicRoot(IntPolynomial.from_csv(body),
                                 Fraction(lo), Fraction(hi))
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, (PerfectPowerError, ZeroExponentError, BracketAmbiguousError)):
            raise
        raise ValueError(f"malformed constant spec {text!r}: {exc}") from exc
    raise ValueError(f"unrecognized constant spec {text!r}")
