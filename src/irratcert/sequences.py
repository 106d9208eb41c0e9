"""Closed-form approximant generators and the sequence transformation rules.

Each construction is one generator of its rows n = 1, 2, ...: plain
(ints, bound) tuples, the exact integers of the construction (p and q, or
the coefficients of a power form) and the explicit upper bound, a positive
Fraction, it guarantees for the linear form they make with the constant.
Row n is built from row n-1 by a fixed recurrence, a few multiplications of
big integers by small ones, so a run over n rows costs about n such steps.
The per-n functions return row n of the same generator as a validated
Approximant and BoundedBy; no generator builds one.  Pairs are used exactly
as built; nothing is reduced to lowest terms.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import count, islice
from math import factorial, gcd

from .algebraic import PowerForm, monic_certificate
from .constants import EPow, Root, Sqrt, enclose, integer_nth_root
from .enclosure import _COPRIME, _frozen, _record
from .errors import (BadIndexError, CapExceededError, ChainMismatchError,
                     DivisibilityViolationError, ZeroNumeratorError,
                     ZeroScaleError, check_index)
from .intpoly import IntPolynomial, _convolve

# Width of the helper enclosure used when a bound formula needs an upper
# rational estimate of the constant itself (`_upper`, here and in niven).
# Coarse by design: the bound stays valid for any positive width, and the
# slack keeps the certified residual comfortably below it.
_BOUND_WIDTH = Fraction(1, 1000)


@_record
class Approximant:
    """One term (p, q) of a rational approximation sequence."""

    n: int
    p: int
    q: int

    def __post_init__(self):
        check_index(self.n)
        if self.q == 0:
            raise ValueError("approximant denominator q must be nonzero")


@_record
class BoundedBy:
    """Upper bound for |q*value - p| at one index."""

    bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "bound", Fraction(self.bound))
        if self.bound <= 0:
            raise ValueError("bound must be positive")


def _upper(spec) -> Fraction:
    """The upper estimate of the constant that a bound reads, by `enclose`."""
    return enclose(spec, _BOUND_WIDTH).hi


def _nth(rows, n: int):
    """Row n (1-based) of a row generator."""
    check_index(n)
    if n > sys.maxsize:
        raise BadIndexError(f"index must be <= {sys.maxsize}")
    return next(islice(rows, n - 1, None))


def _approximant(rows, n: int) -> tuple[Approximant, BoundedBy]:
    """Row n of a pair generator, as its validated Approximant and BoundedBy."""
    (p, q), bound = _nth(rows, n)
    return Approximant(n, p, q), BoundedBy(bound)


def root_forms(a: int, m: int):
    """(d_0 .. d_{m-1}) with sum(d_l * a**(l/m)) = (a**(1/m) - z)**(mn-1), z the floor:
    (t - z)**(m-1) modulo t**m - a, then each row times the step (t - z)**m,
    big integers by small ones, folded from the top by t**m = a in one pass:
    no polynomial division, and a PowerForm made without its __init__."""
    Root(a, m)
    modulus = IntPolynomial((-a,) + (0,) * (m - 1) + (1,))
    z = integer_nth_root(a, m)
    step = monic_certificate(modulus, z, m).coeffs
    coeffs = monic_certificate(modulus, z, m - 1).coeffs
    while True:
        yield _frozen(PowerForm, coeffs=coeffs)
        c = _convolve(coeffs, step)
        for i in range(2 * m - 2, m - 1, -1):
            c[i - m] += a * c[i]
        coeffs = tuple(c[:m])


def root_rows(a: int, m: int):
    """The coefficients of root_forms(a, m) with the bound (hi - z)**(mn-1) on the
    positive power they equal, hi the upper estimate of a**(1/m).  hi - z is a
    reduced u/v, so the bound is the coprime pair (u, v)**(mn-1), advanced by
    (u**m, v**m) and made a Fraction by _COPRIME, with no gcd."""
    u, v = (_upper(Root(a, m)) - integer_nth_root(a, m)).as_integer_ratio()
    num, den, um, vm = u ** (m - 1), v ** (m - 1), u ** m, v ** m
    for form in root_forms(a, m):
        yield form.coeffs, _COPRIME(num, den)
        num, den = num * um, den * vm


def sqrt_rows(m: int):
    """root_rows(m, 2) read as p = -d_0, q = d_1, so that
    q*sqrt(m) - p = (sqrt(m) - z)**(2n-1) > 0 exactly."""
    Sqrt(m)
    for (d0, d1), bound in root_rows(m, 2):
        yield (-d0, d1), bound


def factorial_rows(s: int):
    """p = sum(s**i * n!/i!), q = n! as p_n = n p_(n-1) + s**n: for s = 1 the e sums,
    1/(n+1) < q*e - p < 1/n; for s = -1 the 1/e sums, 0 < |q/e - p| < 1/n."""
    p = q = 1
    for n in count(1):
        p, q = n * p + s ** n, n * q
        yield (p, q), _COPRIME(1, n)


def e_squared_rows():
    """The e chain composed with the reciprocal 1/e chain at k = 2n: (sum(k!/i!),
    k!) for e chained with (k!, sum((-1)^i k!/i!)) for e is the pair itself,
    p = sum(k!/i!), q = sum((-1)^i k!/i!), each sum advanced by k(k-1) per row.
    0 < q*e^2 - p < u/(v k), u/v = e^2 + 1 reduced, e^2 read as its upper
    estimate; the bound is made coprime by dividing out gcd(u, k)."""
    u, v = (_upper(EPow(2)) + 1).as_integer_ratio()
    p = q = 1
    for k in count(2, 2):
        p, q = k * (k - 1) * p + k + 1, k * (k - 1) * q - k + 1
        g = gcd(u, k)
        yield (p, q), _COPRIME(u // g, v * (k // g))


def trig_rows(m: int, first: int):
    """Sine (first = 3) or cosine (first = 2) series at 1/m: row n has N = first + 4(n-1),
    q = m^N N!, and p is q times the terms of order below N + 2, so the tail groups into
    positive pairs: 0 < q*value - p < 1/(m^2 (N+1)^2 - 1).  Row 1 has p = N(N-1) m^2 - 1;
    the next row is F = (N+1)(N+2)(N+3)(N+4) m^4 times it plus (N+3)(N+4) m^2 - 1 in p."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    mm, big_n = m * m, first
    p, q = big_n * (big_n - 1) * mm - 1, m ** big_n * factorial(big_n)
    while True:
        yield (p, q), _COPRIME(1, mm * (big_n + 1) ** 2 - 1)
        f = (big_n + 1) * (big_n + 2) * (big_n + 3) * (big_n + 4) * mm * mm
        p, q = f * p + (big_n + 3) * (big_n + 4) * mm - 1, f * q
        big_n += 4


def sqrt_approximant(m: int, n: int) -> tuple[Approximant, BoundedBy]:
    """Row n of sqrt_rows(m)."""
    return _approximant(sqrt_rows(m), n)


def mth_root_form(a: int, m: int, n: int) -> PowerForm:
    """Row n of root_forms(a, m): the power form of (a**(1/m) - z)**(mn-1)."""
    return _nth(root_forms(a, m), n)


def e_approximant(n: int) -> tuple[Approximant, BoundedBy]:
    """p = sum(n!/i!), q = n!; then 1/(n+1) < q*e - p < 1/n."""
    return _approximant(factorial_rows(1), n)


def inv_e_approximant(n: int) -> tuple[Approximant, BoundedBy]:
    """Alternating partial sum: p = sum((-1)^i n!/i!), q = n!."""
    return _approximant(factorial_rows(-1), n)


def e_squared_approximant(n: int) -> tuple[Approximant, BoundedBy]:
    """Row n of e_squared_rows()."""
    return _approximant(e_squared_rows(), n)


def sin_inv_m_approximant(m: int, n: int) -> tuple[Approximant, BoundedBy]:
    """Sine series at 1/m: q = m^(4n-1) (4n-1)!, bound 1/(m^2 (4n)^2 - 1)."""
    return _approximant(trig_rows(m, 3), n)


def cos_inv_m_approximant(m: int, n: int) -> tuple[Approximant, BoundedBy]:
    """Cosine series at 1/m: q = m^(4n-2) (4n-2)!, bound 1/(m^2 (4n-1)^2 - 1)."""
    return _approximant(trig_rows(m, 2), n)


# ---------------------------------------------------------------------------
# Transformation rules.  All operate term-wise on single approximants; apply
# them index by index to transform a whole sequence.

def reciprocal(a: Approximant) -> Approximant:
    """(p, q) for alpha becomes (q, p) for 1/alpha."""
    if a.p == 0:
        raise ZeroNumeratorError(f"numerator is zero at index {a.n}; 1/alpha has no term here")
    return Approximant(a.n, a.q, a.p)


def compose_chain(a: Approximant, b: Approximant) -> Approximant:
    """Chain (p, q) for alpha with (q, q') for beta into (p, q') for alpha*beta.

    Requires b.p == a.q at the same index: the inner denominator must be the
    outer numerator, so that |q' alpha beta - p| telescopes through
    |alpha| |q' beta - q| + |q alpha - p|.
    """
    if a.n != b.n:
        raise ChainMismatchError(f"indices differ: {a.n} vs {b.n}")
    if b.p != a.q:
        raise ChainMismatchError(
            f"chain broken at index {a.n}: inner numerator {b.p} != outer denominator {a.q}")
    return Approximant(a.n, a.p, b.q)


def scaled_compose(a: Approximant, b: Approximant, d: int, cap) -> Approximant:
    """Chain through a bounded integer divisor: a.q == b.p * d, |d| <= cap."""
    if a.n != b.n:
        raise ChainMismatchError(f"indices differ: {a.n} vs {b.n}")
    if abs(d) > Fraction(cap):
        raise CapExceededError(f"divisor |{d}| exceeds cap {cap} at index {a.n}")
    if a.q != b.p * d:
        raise DivisibilityViolationError(
            f"at index {a.n}: {a.q} != {b.p} * {d}")
    return Approximant(a.n, a.p, d * b.q)


def rescale(a: Approximant, scale: int) -> Approximant:
    """(p, q) for scale*alpha becomes (p, scale*q) for alpha."""
    if scale == 0:
        raise ZeroScaleError("cannot rescale by zero")
    return Approximant(a.n, a.p, scale * a.q)
