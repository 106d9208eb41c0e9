"""Niven polynomials x^n (1-x)^n / n! and their derivative functionals.

Every derivative of f_n at 0 and 1 is an integer, f_n is tiny on [0, 1],
and suitable alternating combinations F of those derivatives satisfy an
exact integral identity: F(1) * e^k - F(0) equals a positive integral that
shrinks to zero.  A Gaussian-integer variant, whose F(1) is the conjugate
of F(0) as f_n(1-x) = f_n(x), produces an integer triple (a, c, d) with
c*cos(p/q) - d*sin(p/q) - a provably small but nonzero.  functional_rows
builds row n of each functional from the two rows before it by a
three-term recurrence, niven_rows pairs that row with its bound, and the
per-n functions return row n of those generators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, factorial, gcd

from .constants import ERational
from .enclosure import _COPRIME, _record
from .errors import (AngleNearPiError, AngleOutOfRangeError, ZeroExponentError,
                     check_index)
from .intpoly import _trimmed
from .sequences import _nth, _upper


@_record
class RationalPolynomial:
    """Ascending rational coefficients, trailing zeros trimmed."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_trimmed([Fraction(c) for c in self.coeffs])))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@_record
class FPair:
    """A derivative functional evaluated at the endpoints of [0, 1]."""

    at0: int
    at1: int


@_record
class GaussPair:
    """A Gaussian-integer functional at 0 and 1, each value as (re, im)."""

    at0: tuple[int, int]
    at1: tuple[int, int]


@_record
class TrigWitness:
    """Integer triple with |c*cos(angle) - d*sin(angle) - a| in (0, bound)."""

    a: int
    c: int
    d: int
    bound: Fraction


def niven_poly(n: int) -> RationalPolynomial:
    """x^n (1-x)^n / n!; degree 2n, coefficient of x^(n+i) is (-1)^i C(n,i)/n!."""
    check_index(n)
    nf = factorial(n)
    coeffs = [Fraction(0)] * n
    coeffs.extend(Fraction((-1) ** i * comb(n, i), nf) for i in range(n + 1))
    return RationalPolynomial(tuple(coeffs))


def functional_rows(p: int, q: int, gaussian: bool = False):
    """Row n = 1, 2, ... of the functional for x = p/q, or for x = ip/q if gaussian.

    F_n = sum((-1)^i (qx)^(2n-i) q^i f_n^(i)) is yielded at 0 and 1, as
    (F(0), F(1)), or as (Re F(0), Im F(0)) in the Gaussian case, where
    F(1) is the conjugate of F(0).  Up to sign and scaling these are the
    diagonal Pade approximants of e^x, so every entry follows one three-term
    recurrence from X_0 = (1, 1) and X_1 = (-q(p + 2q), q(p - 2q)), or (1, 0)
    and (-2q^2, -pq):
    X_(n+1) = -(4n + 2) q^2 X_n + (qx)^2 X_(n-1), with (qx)^2 = p^2, or -p^2.
    """
    qq = q * q
    step = (-p * p if gaussian else p * p) * qq
    if gaussian:
        b0, b1, x0, x1 = 1, 0, -2 * qq, -p * q
    else:
        b0, b1, x0, x1 = 1, 1, -q * (p + 2 * q), q * (p - 2 * q)
    for n in count(1):
        yield x0, x1
        scale = -(4 * n + 2) * qq
        b0, b1, x0, x1 = x0, x1, scale * x0 + step * b0, scale * x1 + step * b1


def check_angle(p: int, q: int) -> None:
    """Refuse an angle p/q outside (0, 3.14159]: up to 355/113 as too close to
    pi to resolve, above it as out of range."""
    if p < 1 or q < 1:
        raise ValueError(f"angle must be a ratio of positive integers, got {p}/{q}")
    if p * 100000 > 314159 * q:
        if 113 * p <= 355 * q:
            raise AngleNearPiError(
                f"angle {p}/{q} lies within the refusal window just below pi")
        raise AngleOutOfRangeError(f"angle {p}/{q} exceeds pi")


def niven_rows(p: int, q: int, gaussian: bool = False):
    """(ints, bound) for row n = 1, 2, ... of functional_rows(p, q, gaussian):
    ints is (F(0), F(1)), or for an angle p/q that check_angle accepts the
    trig triple (a, c, d) = (a, a, -b) of F(0) = a + bi; bound is
    top |p|^(2n+1) / (n! q), top the upper estimate of e^(p/q) for p > 0, else 1.

    The bound is a coprime pair (num, den) taken times p^2 / n per row by two
    gcds, each with one small operand, and made a Fraction by _COPRIME."""
    if gaussian:
        check_angle(p, q)
    top = _upper(ERational(Fraction(p, q))) if p > 0 and not gaussian else 1
    num, den = (top * Fraction(abs(p), q)).as_integer_ratio()
    pp = p * p
    for n, x in enumerate(functional_rows(p, q, gaussian), 1):
        g = gcd(num, n)     # a big side is divided only by a gcd above 1
        num, den = (num // g if g > 1 else num), den * (n // g)
        g = gcd(pp, den)
        num, den = num * (pp // g), (den // g if g > 1 else den)
        yield ((x[0], x[0], -x[1]) if gaussian else x), _COPRIME(num, den)


def exp_functional_int(n: int, k: int) -> FPair:
    """F = sum((-1)^i k^(2n-i) f^(i)) at 0 and 1, for integer k >= 1: row n of
    functional_rows(k, 1).

    The pair satisfies 0 < F(1) e^k - F(0) < e^k k^(2n+1) / n!, because the
    mismatch equals the integral of e^(kx) k^(2n+1) f_n over [0, 1].
    """
    if k < 1:
        raise ValueError(f"need an integer exponent k >= 1, got {k}")
    return exp_functional_rational(n, k)


def exp_functional_rational(n: int, r) -> FPair:
    """F = sum((-1)^i p^(2n-i) q^i f^(i)) at 0 and 1, for r = p/q nonzero: row n
    of functional_rows(p, q).

    F(1) e^r - F(0) equals (p^(2n+1)/q) times the integral of e^(rx) f_n,
    so it is nonzero with |.| <= |p|^(2n+1) max(1, e^r) / (n! q).
    """
    check_index(n)
    r = Fraction(r)
    if r == 0:
        raise ZeroExponentError("exponent must be nonzero")
    return FPair(*_nth(functional_rows(r.numerator, r.denominator), n))


def trig_functional(n: int, p: int, q: int) -> tuple[GaussPair, TrigWitness]:
    """Gaussian-integer functional for the angle p/q in (0, pi]: row n of
    niven_rows(p, q, gaussian=True).

    F = sum((-1)^i (ip)^(2n-i) q^i f^(i)); writing F(0) = a + bi and
    F(1) = c + di = a - bi, the combination c*cos(p/q) - d*sin(p/q) - a is
    nonzero with absolute value below p^(2n+1) / (n! q).
    """
    (a, c, d), bound = _nth(niven_rows(p, q, gaussian=True), n)
    return GaussPair((a, -d), (c, d)), TrigWitness(a=a, c=c, d=d, bound=bound)
