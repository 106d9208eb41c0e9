"""Constructive pigeonhole approximation and the fractional-part criterion.

The multiples 0, value, 2*value, ..., n*value have n+1 fractional parts
landing in the n bins [j/n, (j+1)/n); two must share a bin, and their
difference yields integers p, q with 0 < q <= n and |q*value - p| < 1/n.
Everything is resolved through enclosures, refined on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .constants import ConstantSpec, canonical_text, enclose
from .enclosure import Enclosure, refine


@dataclass(frozen=True)
class PigeonholeResult:
    """Pair with 0 < q <= n and a certified residual enclosure inside (-1/n, 1/n)."""

    n: int
    p: int
    q: int
    residual: Enclosure


def _place(enc_value: Enclosure, k: int, n: int):
    """Floor, fractional enclosure, and bin of k*value, or None if ambiguous."""
    enc = enc_value * k
    z = enc.floor_if_settled()
    if z is None:
        return None
    frac = enc - z
    j_lo, j_hi = floor(frac.lo * n), floor(frac.hi * n)
    if j_lo != j_hi:
        return None
    return z, frac, j_lo


def pigeonhole_approximant(c: ConstantSpec, n: int) -> PigeonholeResult:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # Each multiple k*value, k <= n, must sit inside a single bin with margin;
    # start from a width that keeps k*width below a quarter bin and refine
    # whenever a floor or bin assignment stays ambiguous.
    def pin(width):
        enc_value = enclose(c, width)
        placed = []
        for k in range(n + 1):
            slot = _place(enc_value, k, n)
            if slot is None:
                return None
            placed.append(slot)
        return placed

    placed = refine(pin, Fraction(1, 4 * n * n * (n + 1)),
                    f"bins for {canonical_text(c)} at n={n}")

    bins: dict[int, list[int]] = {}
    for k, (_, _, j) in enumerate(placed):
        bins.setdefault(j, []).append(k)
    for j in sorted(bins):
        ks = bins[j]
        if len(ks) >= 2:
            k1, k2 = ks[0], ks[1]
            z1, f1, _ = placed[k1]
            z2, f2, _ = placed[k2]
            residual = Enclosure(f2.lo - f1.hi, f2.hi - f1.lo)
            return PigeonholeResult(n=n, p=z2 - z1, q=k2 - k1, residual=residual)
    raise AssertionError("unreachable: n+1 values in n bins always collide")


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
        enc = enclose(c, width) * q
        z = enc.floor_if_settled()
        if z is None:
            return None
        frac = enc - z
        product = (frac * (frac - 1)).intersect(range_enc)
        return product if product.width <= max_width else None

    return refine(attempt, max_width / (4 * abs(q)),
                  f"fractional part of {q} * {canonical_text(c)}")
