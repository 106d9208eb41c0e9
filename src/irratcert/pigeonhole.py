"""Constructive pigeonhole approximation and the fractional-part criterion.

The multiples 0, value, 2*value, ..., n*value have n+1 fractional parts
landing in the n bins [j/n, (j+1)/n); two must share a bin, and their
difference yields integers p, q with 0 < q <= n and |q*value - p| < 1/n.
Everything is resolved through enclosures, refined on demand.  The bin scan
puts the enclosure over one common denominator D and reads every placement
off floor(n*k*A/D), one integer per multiple and endpoint, making the same
floor and bin decisions as interval arithmetic would.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .constants import ConstantSpec, canonical_text, enclose
from .enclosure import Enclosure, refine


@dataclass(frozen=True)
class PigeonholeResult:
    """Pair with 0 < q <= n and a certified residual enclosure inside (-1/n, 1/n)."""

    n: int
    p: int
    q: int
    residual: Enclosure


def bin_placements(enc: Enclosure, n: int):
    """(floor, bin) of k*value for k = 0..n, or None if any one is ambiguous.

    With enc = [A/D, B/D], n*k*value lies in [nkA/D, nkB/D].  For z the
    floor of kA/D and j the bin of its fractional part, floor(nkA/D) is
    nz + j, so the placement is divmod(floor(nkA/D), n), and it is settled
    exactly when floor(nkB/D) is the same integer: the decisions interval
    arithmetic makes on k*enc - z, from one list of floors per endpoint.
    """
    (a, da), (b, db) = enc.lo.as_integer_ratio(), enc.hi.as_integer_ratio()
    d = lcm(da, db)
    na, nb = n * a * (d // da), n * b * (d // db)
    floors = [k * na // d for k in range(n + 1)]
    if floors != [k * nb // d for k in range(n + 1)]:
        return None
    return [divmod(f, n) for f in floors]


def pigeonhole_approximant(c: ConstantSpec, n: int) -> PigeonholeResult:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # Each multiple k*value, k <= n, must sit inside a single bin with margin;
    # start from a width that keeps k*width below a quarter bin and refine
    # whenever a floor or bin assignment stays ambiguous.
    def pin(width):
        enc = enclose(c, width)
        placed = bin_placements(enc, n)
        return None if placed is None else (enc, placed)

    enc, placed = refine(pin, Fraction(1, 4 * n * n * (n + 1)),
                         f"bins for {canonical_text(c)} at n={n}")

    # smallest bin holding two multiples, first two k in it (the sort is stable)
    bins = [j for _, j in placed]
    order = sorted(range(n + 1), key=bins.__getitem__)
    k1, k2 = next((a, b) for a, b in zip(order, order[1:]) if bins[a] == bins[b])
    p, q = placed[k2][0] - placed[k1][0], k2 - k1
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
        enc = enclose(c, width) * q
        z = enc.floor_if_settled()
        if z is None:
            return None
        frac = enc - z
        product = (frac * (frac - 1)).intersect(range_enc)
        return product if product.width <= max_width else None

    return refine(attempt, max_width / (4 * abs(q)),
                  f"fractional part of {q} * {canonical_text(c)}")
