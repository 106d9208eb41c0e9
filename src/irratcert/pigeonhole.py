"""Constructive pigeonhole approximation and the fractional-part criterion.

The multiples 0, value, 2*value, ..., n*value have n+1 fractional parts
landing in the n bins [j/n, (j+1)/n); two must share a bin, and their
difference yields integers p, q with 0 < q <= n and |q*value - p| < 1/n.
Everything is resolved through enclosures, refined on demand.  Multiple k
sits in bin floor(k*n*value) mod n, and an enclosure [lo, hi] settles every
floor exactly when no m/k with k <= n lies in (n*lo, n*hi]: when n*hi and
the simplest rational inside (n*lo, n*hi) both have denominators above n.
All of [n*lo, n*hi] then shares those floors, so they are read off that
simplest P/Q, whose terms are typically word-sized: multiple k sits at
r_k = k*P mod nQ on a circle of length nQ, in bin r_k // Q.

The shared bin is found by walking those points upward from r_0 = 0 in
position order.  By the three-distance theorem (Sos, 1958) the point after
r_k is r_(k+a) if k + a <= n, else r_(k-b) if k >= b, else r_(k+a-b), where
a and b are the k in 1..n with the least and the greatest r_k: the
denominators of the neighbours of P/nQ in the Farey sequence of order n.
Each step repeats while its condition holds, so a run of one step is an
arithmetic progression: the walk crosses the part of a run that lies in
one bin, or whose points are each alone in a bin, in one move.  It stops
when it leaves the first bin it saw two points in, and keeps a few
integers, never a list of the n+1 multiples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .constants import ConstantSpec, canonical_text, enclose
from .enclosure import Enclosure, _COPRIME, _frozen, _record, refine


@_record
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


def _rotation(enc: Enclosure, n: int):
    """(P, Q) with floor(k*n*value) = floor(k*P/Q) for k = 0..n and every
    value in enc, or None if enc leaves any one open."""
    (a, da), (b, db) = enc.lo.as_integer_ratio(), enc.hi.as_integer_ratio()
    if (a, da) == (b, db):
        return n * a, da
    # b is prime to db, so db // gcd(n, db) is the denominator of n*hi
    if db // gcd(n, db) <= n:
        return None
    p, q = simplest_between(n * a, da, n * b, db)
    return None if q <= n else (p, q)


def _farey_neighbours(x: int, m: int, n: int) -> tuple[int, int]:
    """Denominators (a, b) of the neighbours u/a < x/m < v/b in the Farey
    sequence of order n, for 0 < x/m < 1 not in it: a Stern-Brocot descent
    that takes each run of moves to one side in one jump."""
    u, a, v, b = 0, 1, 1, 1
    while a + b <= n:
        below, above = x * a - u * m, v * m - x * b
        if (u + v) * m < x * (a + b):
            t = min((below - 1) // above, (n - a) // b)
            u, a = u + t * v, a + t * b
        else:
            t = min((above - 1) // below, (n - b) // a)
            v, b = v + t * u, b + t * a
    return a, b


def _shared_bin(P: int, Q: int, n: int) -> tuple[int, int]:
    """The two least k in 0..n in the lowest of the n bins of width Q that
    holds two of the points k*P mod nQ."""
    m = n * Q
    period = m // gcd(P, m)
    if period <= n:
        # the points repeat, and a point off 0 is at least m / period >= Q
        # from it: bin 0 holds just the multiples of the period
        return 0, period
    a, b = _farey_neighbours(P % m, m, n)
    ra, rb = a * P % m, m - b * P % m

    def run(k, d):
        """How many more steps d follow k: +a while k + a <= n, -b while
        k >= b, and a - b while neither holds."""
        if d == a:
            return (n - k) // a
        if d == -b:
            return k // b
        return (b - 1 - k) // d + 1 if d > 0 else (k - n + a - 1) // -d + 1

    k = r = k1 = 0
    k2, top = n + 1, Q       # k2 = n + 1 until the bin below top holds two
    while True:
        if k + a <= n:
            d, g = a, ra
        elif k >= b:
            d, g = -b, rb
        else:
            d, g = a - b, ra + rb
        k, r = k + d, r + g
        if r < top:
            # k and the next i points of its run share this bin, and the
            # least two of them are at one end
            i = min(run(k, d), (top - 1 - r) // g)
            lo = k if d > 0 else k + i * d
            hi = lo + abs(d) if i else n + 1
            k1, k2 = (lo, min(k1, hi)) if lo < k1 else (k1, min(k2, lo))
            k, r = k + i * d, r + i * g
        elif k2 <= n:
            return k1, k2
        else:
            if g >= Q:
                # each later point of the run is alone in its bin: go to the last
                t = run(k, d)
                k, r = k + t * d, r + t * g
            k1, top = k, (r // Q + 1) * Q


def pigeonhole_approximant(c: ConstantSpec, n: int) -> PigeonholeResult:
    """Dirichlet's pair for c at n: 0 < q <= n with |q*c - p| < 1/n.

    Of the multiples k*c, k = 0..n, the two least k in the lowest bin
    [j/n, (j+1)/n) that holds two fractional parts give q = k2 - k1 and p
    the difference of their integer parts; the residual q*c - p is enclosed
    from the enclosure that settled every bin, in one integer pass over the
    common denominator of its ends.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # Each multiple k*value, k <= n, must sit inside a single bin with margin;
    # start from a width that keeps k*width below a quarter bin and refine
    # whenever a floor or bin assignment stays ambiguous.
    for width in refine((1, 4 * n * n * (n + 1)), f"bins for {canonical_text(c)} at n={n}"):
        enc = enclose(c, Fraction(*width))
        rotation = _rotation(enc, n)
        if rotation is not None:
            break
    P, Q = rotation
    k1, k2 = _shared_bin(P, Q, n)
    p, q = k2 * P // (n * Q) - k1 * P // (n * Q), k2 - k1
    # [f2.lo - f1.hi, f2.hi - f1.lo] for the fractional parts f = k*enc - z,
    # on the ends' common denominator d; lo <= hi and k1 + k2 > 0 order them
    (a, da), (b, db) = enc.lo.as_integer_ratio(), enc.hi.as_integer_ratio()
    d = da // gcd(da, db) * db
    a, b, pd = a * (d // da), b * (d // db), p * d
    x, y = k2 * a - k1 * b - pd, k2 * b - k1 * a - pd
    g, h = gcd(x, d), gcd(y, d)
    residual = _frozen(Enclosure, lo=_COPRIME(x // g, d // g), hi=_COPRIME(y // h, d // h))
    return PigeonholeResult(n=n, p=p, q=q, residual=residual)


def fractional_residual(q: int, c: ConstantSpec,
                        max_width=Fraction(1, 10**9)) -> Enclosure:
    """Enclosure of {q*value} ({q*value} - 1), always inside [-1/4, 0].

    The product tends to zero exactly when some integer sequence q makes
    {q*value} approach 0 or 1; for the q produced by a nice approximation
    sequence it certifies the fractional-part criterion.  Each try is one
    integer pass over the common denominator of q*enc's ends.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    max_width = Fraction(max_width)
    for width in refine((max_width.numerator, max_width.denominator * 4 * abs(q)),
                        f"fractional part of {q} * {canonical_text(c)}"):
        enc = enclose(c, Fraction(*width))
        (a, da), (b, db) = enc.lo.as_integer_ratio(), enc.hi.as_integer_ratio()
        d = da // gcd(da, db) * db
        a, b = sorted((a * (d // da) * q, b * (d // db) * q))
        z = a // d
        if z == b // d:
            # f = {q*value} in [x, y] / d, 0 <= x <= y < d: f (f - 1) in [4y (x-d), 4x (y-d)] / s
            x, y, s = a - z * d, b - z * d, 4 * d * d
            lo, hi = max(4 * y * (x - d), -d * d), 4 * x * (y - d)
            if (hi - lo) * max_width.denominator <= max_width.numerator * s:
                return _frozen(Enclosure, lo=Fraction(lo, s), hi=Fraction(hi, s))
