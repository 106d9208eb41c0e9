"""Closed-form approximant generators and the sequence transformation rules.

Each generator returns, for one 1-based index n, the exact integer pair
(p, q) of its construction together with the explicit upper bound that
construction guarantees for |q*value - p|.  Pairs are used exactly as
built; nothing is reduced to lowest terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt

from .algebraic import PowerForm, monic_certificate
from .constants import EPow, Root, Sqrt, enclose, integer_nth_root
from .errors import (CapExceededError, ChainMismatchError,
                     DivisibilityViolationError, ZeroNumeratorError,
                     ZeroScaleError, check_index)
from .intpoly import IntPolynomial

# Width of the helper enclosure used when a bound formula needs an upper
# rational estimate of the constant itself, here and in verify.certify.
# Coarse by design: the bound stays valid for any positive width, and the
# slack keeps the certified residual comfortably below it.
_BOUND_WIDTH = Fraction(1, 1000)


@dataclass(frozen=True)
class Approximant:
    """One term (p, q) of a rational approximation sequence."""

    n: int
    p: int
    q: int

    def __post_init__(self):
        check_index(self.n)
        if self.q == 0:
            raise ValueError("approximant denominator q must be nonzero")


@dataclass(frozen=True)
class BoundedBy:
    """Upper bound for |q*value - p| at one index."""

    bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "bound", Fraction(self.bound))
        if self.bound <= 0:
            raise ValueError("bound must be positive")


def _nested(ratios) -> int:
    """1 + r_K (1 + r_(K-1) (... (1 + r_1))) for ratios r_1 .. r_K in order.

    A sum T_0 + ... + T_K with T_(i-1) = r_i T_i is T_K times this: Horner's
    rule from the top term, one small multiplication per term.
    """
    acc = 1
    for r in ratios:
        acc = 1 + r * acc
    return acc


def sqrt_approximant(m: int, n: int, hi=None) -> tuple[Approximant, BoundedBy]:
    """The root form (d_0, d_1) of sqrt(m) read as a pair: p = -d_0, q = d_1.

    Then q*sqrt(m) - p equals (sqrt(m) - z)**(2n-1), z = floor(sqrt(m))
    exactly: a strictly positive quantity shrinking geometrically.  A caller
    holding hi = enclose(Sqrt(m), _BOUND_WIDTH).hi may pass it in.
    """
    check_index(n)
    spec = Sqrt(m)
    d0, d1 = mth_root_form(m, 2, n).coeffs
    hi = enclose(spec, _BOUND_WIDTH).hi if hi is None else hi
    bound = (hi - isqrt(m)) ** (2 * n - 1)
    return Approximant(n, -d0, d1), BoundedBy(bound)


def mth_root_form(a: int, m: int, n: int) -> PowerForm:
    """Coefficients (d_0 .. d_{m-1}) with sum(d_l * a**(l/m)) = (a**(1/m) - z)**(mn-1)."""
    check_index(n)
    Root(a, m)
    modulus = IntPolynomial((-a,) + (0,) * (m - 1) + (1,))
    return monic_certificate(modulus, integer_nth_root(a, m), m * n - 1)


def e_approximant(n: int) -> tuple[Approximant, BoundedBy]:
    """p = sum(n!/i!), q = n!; then 1/(n+1) < q*e - p < 1/n."""
    check_index(n)
    p = _nested(range(1, n + 1))
    return Approximant(n, p, factorial(n)), BoundedBy(Fraction(1, n))


def inv_e_approximant(n: int) -> tuple[Approximant, BoundedBy]:
    """Alternating partial sum: p = sum((-1)^i n!/i!), q = n!."""
    check_index(n)
    p = (-1) ** n * _nested(range(-1, -n - 1, -1))
    return Approximant(n, p, factorial(n)), BoundedBy(Fraction(1, n))


def e_squared_approximant(n: int, e2_hi=None) -> tuple[Approximant, BoundedBy]:
    """Composition of the e chain with the reciprocal 1/e chain at index 2n.

    p = sum((2n)!/i!), q = sum((-1)^i (2n)!/i!); the residual q*e^2 - p is
    strictly positive and below (e^2 + 1)/(2n).  e2_hi is as hi in sqrt_approximant.
    """
    check_index(n)
    chained = compose_chain(e_approximant(2 * n)[0], reciprocal(inv_e_approximant(2 * n)[0]))
    e2_hi = enclose(EPow(2), _BOUND_WIDTH).hi if e2_hi is None else e2_hi
    return (Approximant(n, chained.p, chained.q),
            BoundedBy((e2_hi + 1) / (2 * n)))


def sin_inv_m_approximant(m: int, n: int) -> tuple[Approximant, BoundedBy]:
    """Truncated sine series cleared of denominators at x = 1/m.

    q = m^(4n-1) (4n-1)!, p = sum over k < 2n of (4n-1)!/(2k+1)! (-1)^k m^(4n-2k-2);
    the tail groups into positive pairs, giving 0 < q*sin(1/m) - p and the
    geometric bound 1/(m^2 (4n)^2 - 1).
    """
    check_index(n)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    q = m ** (4 * n - 1) * factorial(4 * n - 1)
    # the top term (k = 2n-1) is -1; term k-1 is term k times -(2k)(2k+1) m^2
    p = -_nested(-(2 * k) * (2 * k + 1) * m * m for k in range(1, 2 * n))
    bound = Fraction(1, m * m * (4 * n) ** 2 - 1)
    return Approximant(n, p, q), BoundedBy(bound)


def cos_inv_m_approximant(m: int, n: int) -> tuple[Approximant, BoundedBy]:
    """Cosine analogue: q = m^(4n-2) (4n-2)!, even factorials in p.

    The grouped tail is positive exactly as in the sine case; the factor
    products now start at 4n-1, so the geometric bound is
    1/(m^2 (4n-1)^2 - 1).
    """
    check_index(n)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    q = m ** (4 * n - 2) * factorial(4 * n - 2)
    # the top term (k = 2n-1) is -1; term k-1 is term k times -(2k-1)(2k) m^2
    p = -_nested(-(2 * k - 1) * (2 * k) * m * m for k in range(1, 2 * n))
    bound = Fraction(1, m * m * (4 * n - 1) ** 2 - 1)
    return Approximant(n, p, q), BoundedBy(bound)


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
