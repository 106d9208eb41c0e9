"""Niven polynomials x^n (1-x)^n / n! and their derivative functionals.

Every derivative of f_n at 0 and 1 is an integer, f_n is tiny on [0, 1],
and suitable alternating combinations F of those derivatives satisfy an
exact integral identity: F(1) * e^k - F(0) equals a positive integral that
shrinks to zero.  A Gaussian-integer variant produces an integer triple
(a, c, d) with c*cos(p/q) - d*sin(p/q) - a provably small but nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import (AngleNearPiError, AngleOutOfRangeError, ZeroExponentError,
                     check_index)
from .intpoly import _eval_frac, _trimmed


@dataclass(frozen=True)
class RationalPolynomial:
    """Ascending rational coefficients, trailing zeros trimmed."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_trimmed([Fraction(c) for c in self.coeffs])))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        return _eval_frac(self.coeffs, x)


@dataclass(frozen=True)
class FPair:
    """A derivative functional evaluated at the endpoints of [0, 1]."""

    at0: int
    at1: int


@dataclass(frozen=True)
class GaussPair:
    """A Gaussian-integer functional at 0 and 1, each value as (re, im)."""

    at0: tuple[int, int]
    at1: tuple[int, int]


@dataclass(frozen=True)
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


def _niven_table(n: int) -> list[int]:
    """t_i = C(n, i) (n+i)!/n! for i = 0 .. n, so f_n^(n+i)(0) = (-1)^i t_i.

    Built by the exact running product t_{i+1} = t_i (n-i)(n+i+1) / (i+1).
    With f_n^(j)(1) = (-1)^j f_n^(j)(0), these are every nonzero endpoint
    derivative of f_n.
    """
    table = [1]
    for i in range(n):
        table.append(table[-1] * (n - i) * (n + i + 1) // (i + 1))
    return table


def _scaled_sums(n: int, p: int, q: int) -> tuple[int, int]:
    """(sum t_i p^(n-i) q^i, sum (-1)^i t_i p^(n-i) q^i) over i = 0 .. n."""
    plain = alternating = 0
    qpow = 1
    for i, t in enumerate(_niven_table(n)):
        term = t * qpow
        plain = plain * p + term
        alternating = alternating * p + (-term if i % 2 else term)
        qpow *= q
    return plain, alternating


def exp_functional_int(n: int, k: int) -> FPair:
    """F = sum((-1)^i k^(2n-i) f^(i)) at 0 and 1, for integer k >= 1.

    The pair satisfies 0 < F(1) e^k - F(0) < e^k k^(2n+1) / n!, because the
    mismatch equals the integral of e^(kx) k^(2n+1) f_n over [0, 1].
    Only i = n + j for j = 0 .. n contributes: the term is
    (-1)^n k^(n-j) t_j at 0 and (-1)^j k^(n-j) t_j at 1.
    """
    check_index(n)
    if k < 1:
        raise ValueError(f"need an integer exponent k >= 1, got {k}")
    plain, alternating = _scaled_sums(n, k, 1)
    return FPair((-1) ** n * plain, alternating)


def exp_functional_rational(n: int, r) -> FPair:
    """F = sum((-1)^i p^(2n-i) q^i f^(i)) at 0 and 1, for r = p/q nonzero.

    F(1) e^r - F(0) equals (p^(2n+1)/q) times the integral of e^(rx) f_n,
    so it is nonzero with |.| <= |p|^(2n+1) max(1, e^r) / (n! q).
    Only i = n + j contributes, with p^(n-j) q^(n+j) t_j as in
    exp_functional_int.
    """
    check_index(n)
    r = Fraction(r)
    if r == 0:
        raise ZeroExponentError("exponent must be nonzero")
    p, q = r.numerator, r.denominator
    plain, alternating = _scaled_sums(n, p, q)
    qn = q ** n
    return FPair((-1) ** n * qn * plain, qn * alternating)


def trig_functional(n: int, p: int, q: int) -> tuple[GaussPair, TrigWitness]:
    """Gaussian-integer functional for the angle p/q in (0, pi].

    F = sum((-1)^i (ip)^(2n-i) q^i f^(i)); writing F(0) = a + bi and
    F(1) = c + di, the combination c*cos(p/q) - d*sin(p/q) - a is nonzero
    with absolute value below p^(2n+1) / (n! q).

    Only i = n + j contributes, with s_j = p^(n-j) q^(n+j) t_j times
    (-1)^n i^(n-j) at 0 and (-1)^j i^(n-j) at 1; the terms are summed in
    four buckets by (n-j) mod 4.

    The upper end of the angle range is policed rationally: angles at most
    3.14159 are accepted, angles in (3.14159, 355/113] are refused as too
    close to pi to resolve, anything larger is out of range.
    """
    check_index(n)
    if p < 1 or q < 1:
        raise ValueError(f"angle must be a ratio of positive integers, got {p}/{q}")
    if p * 100000 > 314159 * q:
        if 113 * p <= 355 * q:
            raise AngleNearPiError(
                f"angle {p}/{q} lies within the refusal window just below pi")
        raise AngleOutOfRangeError(f"angle {p}/{q} exceeds pi")
    # at0[r], at1[r]: terms with (n-j) % 4 == r, still to be multiplied by i^r
    # (and at0 by (-1)^n)
    at0, at1 = [0] * 4, [0] * 4
    ppow = [1]
    for _ in range(n):
        ppow.append(ppow[-1] * p)
    qpow = q ** n
    for j, t in enumerate(_niven_table(n)):
        s = ppow[n - j] * qpow * t
        at0[(n - j) % 4] += s
        at1[(n - j) % 4] += -s if j % 2 else s
        qpow *= q
    sign = (-1) ** n
    pair = GaussPair((sign * (at0[0] - at0[2]), sign * (at0[1] - at0[3])),
                     (at1[0] - at1[2], at1[1] - at1[3]))
    bound = Fraction(p ** (2 * n + 1), factorial(n) * q)
    witness = TrigWitness(a=pair.at0[0], c=pair.at1[0], d=pair.at1[1], bound=bound)
    return pair, witness
