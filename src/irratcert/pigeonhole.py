"""Constructive pigeonhole approximation and the fractional-part criterion.

The multiples 0, value, 2*value, ..., n*value have n+1 fractional parts
landing in the n bins [j/n, (j+1)/n); two must share a bin, and their
difference yields integers p, q with 0 < q <= n and |q*value - p| < 1/n.
Everything is resolved through enclosures, refined on demand.  Multiple k
sits in bin floor(k*n*value) mod n, and an enclosure [lo, hi] settles every
floor exactly when no m/k with k <= n lies in (n*lo, n*hi]: when n*hi and
the simplest rational inside (n*lo, n*hi) both have denominators above n.
All of [n*lo, n*hi] then shares those floors, so they are read off that
simplest p/q, whose terms are typically word-sized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .constants import ConstantSpec, canonical_text, enclose
from .enclosure import Enclosure, refine


@dataclass(frozen=True)
class PigeonholeResult:
    """Pair with 0 < q <= n and a certified residual enclosure inside (-1/n, 1/n)."""

    n: int
    p: int
    q: int
    residual: Enclosure


def simplest_between(xn: int, xd: int, yn: int, yd: int) -> tuple[int, int]:
    """(p, q) with the least q > 0 such that xn/xd < p/q < yn/yd.

    xd > 0, and yd = 0 stands for no upper end.  The continued-fraction walk:
    until an integer lies strictly inside, take off the lower end's integer
    part a and invert, t = a + 1/t'; the first integer inside ends it.
    """
    p0, q0, p1, q1 = 1, 0, 0, 1
    while True:
        a, r = divmod(xn, xd)
        if not yd or (a + 1) * yd < yn:
            return p0 * (a + 1) + p1, q0 * (a + 1) + q1
        p0, q0, p1, q1 = p0 * a + p1, q0 * a + q1, p0, q0
        xn, xd, yn, yd = yd, yn - a * yd, xd, r


def _floors(enc: Enclosure, n: int):
    """floor(k*n*value) for k = 0..n, or None if enc leaves any one open."""
    (a, da), (b, db) = enc.lo.as_integer_ratio(), enc.hi.as_integer_ratio()
    p, q = n * a, da
    if (a, da) != (b, db):
        # b is prime to db, so db // gcd(n, db) is the denominator of n*hi
        if db // gcd(n, db) <= n:
            return None
        p, q = simplest_between(p, q, n * b, db)
        if q <= n:
            return None
    return [k * p // q for k in range(n + 1)]


def pigeonhole_approximant(c: ConstantSpec, n: int) -> PigeonholeResult:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # Each multiple k*value, k <= n, must sit inside a single bin with margin;
    # start from a width that keeps k*width below a quarter bin and refine
    # whenever a floor or bin assignment stays ambiguous.
    def pin(width):
        enc = enclose(c, Fraction(*width))
        floors = _floors(enc, n)
        return None if floors is None else (enc, floors)

    enc, floors = refine(pin, (1, 4 * n * n * (n + 1)),
                         f"bins for {canonical_text(c)} at n={n}")

    # smallest bin holding two multiples, and the first two k in it
    bins = [f % n for f in floors]
    s = sorted(bins)
    j = next(a for a, b in zip(s, s[1:]) if a == b)
    k1 = bins.index(j)
    k2 = bins.index(j, k1 + 1)
    p, q = floors[k2] // n - floors[k1] // n, k2 - k1
    # [f2.lo - f1.hi, f2.hi - f1.lo] for the fractional parts f = k*enc - z
    residual = Enclosure(k2 * enc.lo - k1 * enc.hi - p, k2 * enc.hi - k1 * enc.lo - p)
    return PigeonholeResult(n=n, p=p, q=q, residual=residual)


def fractional_residual(q: int, c: ConstantSpec,
                        max_width=Fraction(1, 10**9)) -> Enclosure:
    """Enclosure of {q*value} ({q*value} - 1), always inside [-1/4, 0].

    The product tends to zero exactly when some integer sequence q makes
    {q*value} approach 0 or 1; for the q produced by a nice approximation
    sequence it certifies the fractional-part criterion.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    max_width = Fraction(max_width)
    range_enc = Enclosure(Fraction(-1, 4), Fraction(0))

    def attempt(width):
        enc = enclose(c, Fraction(*width)) * q
        z = enc.floor_if_settled()
        if z is None:
            return None
        frac = enc - z
        product = (frac * (frac - 1)).intersect(range_enc)
        return product if product.width <= max_width else None

    return refine(attempt, (max_width.numerator, max_width.denominator * 4 * abs(q)),
                  f"fractional part of {q} * {canonical_text(c)}")
