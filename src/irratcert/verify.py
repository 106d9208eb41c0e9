"""Residual enclosures, per-family bounds, and certificates with verdicts.

A certificate is a table of rows, one per index n: the construction's
integers for that index, a certified enclosure of the residual, the
construction's explicit bound, and two checks (residual nonzero, residual
below bound).  The verdict is `nice` when every row passes and the final
residual magnitude sits below the first; otherwise `violated:<n>` names the
offending row.  Verdicts are data, not exceptions: a violated certificate
is a meaningful result about a sequence that fails to shrink.  Residuals
are formed on integers, the constant taken on a dyadic grid 2^-k, and both
checks decided on integers: by bit lengths, or failing that by
cross-multiplication with a power-of-two denominator taken as a shift.
`certify` builds the certificate; `certificate` holds its wire format.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import count, islice
from typing import Callable, NamedTuple

from .algebraic import PowerForm
from .certificate import FORM, PAIR, TRIG, Certificate, CertRow, Layout
from .constants import (CosInv, CosOf, E, EPow, ERational, InvE, Root, SinInv,
                        SinOf, Sqrt, _exp_enclosure, _grid_bits, canonical_text,
                        enclose)
from .enclosure import Enclosure, _COPRIME, _frozen, refine, refinement_budget
from .intpoly import _interval_horner
# the per-n functions (*_approximant, mth_root_form, *_functional) are unused
# here; they are imported only for perfbench/tracing.py to wrap
from .niven import (exp_functional_int, exp_functional_rational, niven_rows,
                    trig_functional)
from .sequences import (cos_inv_m_approximant, e_approximant, e_squared_approximant,
                        e_squared_rows, factorial_rows, inv_e_approximant, mth_root_form,
                        root_rows, sin_inv_m_approximant, sqrt_approximant, sqrt_rows, trig_rows)


# ---------------------------------------------------------------------------
# Residual evaluation.  Each evaluator takes its constant from a ConstantCache
# (a fresh one when given none) as integers (k, lo, hi) on a grid 2^-k and
# forms its residual there in its own body, in one integer pass: the pair and
# trig forms as a linear form sum(m * value) - a, its lower end one product of
# each m with lo or hi and its upper end that plus |m| (hi - lo), a few units
# each; the power form by one interval Horner with shifts.  A series residual
# is then rounded outward to 2^-j when round_to = j < k.  Each evaluator ends
# in `Enclosure._grid`, which builds one Fraction per end by shifts.  A width
# is an integer pair (num, den) standing for num/den, in lowest terms or not.

# The constants enclosed as exact dyadic floors: their grid answers equal fresh
# enclosures, and their residuals are not rounded.
_RADICALS = (Sqrt, Root)


class ConstantCache:
    """The narrowest enclosure of each constant computed so far, for one run.

    Each constant is kept as integers [K, L, H], its value in [L, H] / 2^K,
    read by one dict lookup per request.  A request for width u/v, given as
    the integers u and v, or as u, v0 and f for v = v0 f, is answered on the
    grid 2^-k by L >> (K - k) and -((-H) >> (K - k)): as floor(floor(x) /
    2^s) = floor(x / 2^s), that is the kernel's enclosure rounded outward to
    2^-k.  k comes from the bit lengths of the integers (`_grid_bits`), with
    no Fraction built.  For the series constants k is the smallest k0 with
    2^-k0 <= u/v, plus 2, so the answer is at most half as wide as asked.
    For Sqrt and Root k = k0, and the answer equals enclose(spec, u/v), since
    [z, z + 1] / 2^K truncates to floor(2^k * value) / 2^k.  A constant kept
    at K < k bits is enclosed again at max(k, 2K) bits; certify fills the
    cache once per constant before its first row, so only deeper narrowings
    call the kernel again.  Entries are kept per spec object, found by its
    id: hashing a spec that holds a Fraction, or the Fraction, costs
    microseconds.  The object is kept, so its id is not reused, and equal
    specs built apart do not share an entry.
    """

    def __init__(self):
        self._seen = {}     # id(obj) -> (obj, [K, L, H] or (cos, sin) specs)

    def trig_specs(self, angle: Fraction):
        """(CosOf(angle), SinOf(angle)), built once per angle object."""
        hit = self._seen.get(id(angle))
        if hit is None:
            hit = self._seen[id(angle)] = angle, (CosOf(angle), SinOf(angle))
        return hit[1]

    def grid(self, spec, u: int, v: int, f: int = 1) -> tuple[int, int, int]:
        """(k, lo, hi): the constant lies in [lo, hi] / 2^k, at most u/(v f) wide."""
        k = _grid_bits(u, v, f)
        if not isinstance(spec, _RADICALS):
            k += 2
        hit = self._seen.get(id(spec))
        if hit is None:
            hit = self._seen[id(spec)] = spec, [-1, 0, 0]
        entry = hit[1]
        bits, lo, hi = entry
        if bits < k:
            bits = max(k, 2 * bits)
            # through the module global, so rebinding `enclose` sees the call
            enc = enclose(spec, _COPRIME(1, 1 << bits))
            lo = (enc.lo.numerator << bits) // enc.lo.denominator
            hi = -((-enc.hi.numerator << bits) // enc.hi.denominator)
            entry[:] = bits, lo, hi
        return k, lo >> (bits - k), -((-hi) >> (bits - k))


def _width(max_width: tuple[int, int]) -> tuple[int, int]:
    """The width pair (num, den) as given, unreduced, once both are positive."""
    num, den = max_width
    if num <= 0 or den <= 0:
        raise ValueError("max_width must be positive")
    return num, den


def pair_residual(p: int, q: int, c, max_width, cache=None, *, round_to=None) -> Enclosure:
    """Enclosure of q*value - p, no wider than max_width before rounding: the
    grid answer [lo, hi] / 2^k at width num/(den |q|), den and |q| apart,
    taken times q.  round_to = j rounds its ends outward to [floor, ceil] on
    2^-j when j < k; certify takes j 12 bits past the width, so the rounded
    enclosure stays within it."""
    num, den = _width(max_width)
    if q == 0:
        return Enclosure(-p, -p)
    k, lo, hi = (cache or ConstantCache()).grid(c, num, den, abs(q))
    x = q * lo - (p << k) if q > 0 else q * hi - (p << k)
    y = x + abs(q) * (hi - lo)
    if round_to is not None and round_to < k:
        x, y, k = x >> (k - round_to), -((-y) >> (k - round_to)), round_to
    return Enclosure._grid(x, y, k)


def power_form_residual(form: PowerForm, c, max_width, cache=None) -> Enclosure:
    """Enclosure of sum(d_l * value^l), no wider than max_width: interval Horner
    on the grid answer [a, z] / 2^k at width num/den / (slope + 1), the slope
    bounded on the grid answer at 1/4.  It fits on that one try: as k >= 0,
    the answer at width u/v is at most min(u/v, 1) wide (2^-k for a radical,
    2 2^-k with k = k0 + 2 for a series), so every x in it has |x| <=
    |value| + 1 <= box / 2^b = M; as w(YX) <= |Y| w(X) + |X| w(Y), Horner over
    a box w wide is at most w sum(i |d_i| M^(i - 1)) = w (s/t - 1) wide (Moore,
    Kearfott and Cloud, Introduction to Interval Analysis, 2009), here at
    most num/den (1 - t/s)."""
    num, den = _width(max_width)
    if form.is_zero():
        return Enclosure(0, 0)
    cache = cache or ConstantCache()
    coeffs, deg = form.coeffs, len(form.coeffs) - 1
    b, lo, hi = cache.grid(c, 1, 4)
    box = max(-lo, hi) + (1 << b)
    # |value| + 1 <= box / 2^b, and slope + 1 = s / t over t = 2^(b (deg - 1))
    t = 1 << b * max(deg - 1, 0)
    s = t + sum(abs(d) * i * box ** (i - 1) << b * (deg - i)
                for i, d in enumerate(coeffs) if i)
    k, a, z = cache.grid(c, num * t, den, s)
    return Enclosure._grid(*_interval_horner(coeffs, a, z, k), k * deg)


def trig_residual(acd: tuple[int, int, int], angle: Fraction, max_width,
                  cache=None, *, round_to=None) -> Enclosure:
    """Enclosure of c*cos(angle) - d*sin(angle) - a for the triple (a, c, d):
    both series constants on one grid 2^-k at width max_width / 2(|c| + |d| + 1),
    the lower end c times the cos end and -d times the sin end that make it
    least.  round_to rounds the ends outward as in pair_residual.
    """
    num, den = _width(max_width)
    a, c, d = acd
    cache = cache or ConstantCache()
    cos, sin = cache.trig_specs(angle)
    den *= 2 * (abs(c) + abs(d) + 1)
    k, clo, chi = cache.grid(cos, num, den)
    _, slo, shi = cache.grid(sin, num, den)
    x = (c * clo if c > 0 else c * chi) - (d * shi if d > 0 else d * slo) - (a << k)
    y = x + abs(c) * (chi - clo) + abs(d) * (shi - slo)
    if round_to is not None and round_to < k:
        x, y, k = x >> (k - round_to), -((-y) >> (k - round_to)), round_to
    return Enclosure._grid(x, y, k)


def _less(x: int, b: int, u: int, v: int) -> bool:
    """x/b < u/v for x >= 0 and positive b and v, that is x v < u b.  The bit
    lengths of the two sides decide unless they lie within one bit of each
    other; only then are the sides formed, a power-of-two factor as a shift."""
    if u <= 0 or not x:
        return u > 0
    # x v has x.bit_length() + v.bit_length() bits or one fewer, and so has u b
    d = x.bit_length() + v.bit_length() - u.bit_length() - b.bit_length()
    if d > 1 or d < -1:
        return d < 0
    lhs = x << v.bit_length() - 1 if v & (v - 1) == 0 else x * v
    rhs = u << b.bit_length() - 1 if b & (b - 1) == 0 else u * b
    return lhs < rhs


def _checks(enc: Enclosure, bound: Fraction) -> tuple[bool, bool, bool]:
    """(nonzero_ok, bound_ok, decided) of enc against zero and the bound:
    zero is excluded; |x| < bound on enc; zero is excluded or enc is a point,
    and enc sits entirely below the bound or entirely at or above it.  Off
    zero, the end farthest from zero settles bound_ok and the nearest one
    whether enc is at or above the bound, each by one `_less`."""
    (a, b), (c, d) = enc.lo.as_integer_ratio(), enc.hi.as_integer_ratio()
    u, v = bound.as_integer_ratio()
    if a > 0 or c < 0:
        (far, far_den), (near, near_den) = ((c, d), (a, b)) if a > 0 else ((-a, b), (-c, d))
        below = _less(far, far_den, u, v)
        return True, below, below or not _less(near, near_den, u, v)
    # enc holds zero, so it is decided only as the point 0
    return False, _less(-a, b, u, v) and _less(c, d, u, v), a == c == 0


def _decided(n: int, layout: Layout, ints: tuple[int, ...], bound: Fraction, c, width,
             cache):
    """Row n with its residual at the width pair (num, den), once that settles
    both checks, else None.  The residual function of the layout is looked up
    at call time, so rebinding it on this module takes effect; root_rows
    yields a PowerForm's coefficients, so FORM skips their check.  A series
    residual is rounded outward to 12 bits past the width, which keeps it
    within the width.  The row is made here as `_frozen` makes one, without
    CertRow's __init__ and without the call."""
    if layout is FORM:
        enc = power_form_residual(_frozen(PowerForm, coeffs=ints), c, width, cache)
    else:
        j = None if isinstance(c, _RADICALS) else _grid_bits(*width) + 12
        enc = (trig_residual(ints, c.x, width, cache, round_to=j) if layout is TRIG
               else pair_residual(*ints, c, width, cache, round_to=j))
    nonzero_ok, bound_ok, decided = _checks(enc, bound)
    if not decided:
        return None
    row = object.__new__(CertRow)
    row.__dict__.update(n=n, ints=ints, residual=enc, bound=bound, nonzero_ok=nonzero_ok,
                        bound_ok=bound_ok)
    return row


# ---------------------------------------------------------------------------
# Families.  Each names the constant kind it certifies (a class, or the one
# constant it certifies), the layout of its rows, rows(c) -> an iterator of
# plain (ints, bound) tuples for n = 1, 2, ..., bound a positive Fraction,
# and the construction behind it.  sequences and niven build the rows; a
# Niven family only names the (p, q) it hands to niven_rows.

class Family(NamedTuple):
    kind: object
    layout: Layout
    rows: Callable
    doc: str
    # bits per index by which row n's residual sits below its bound: 2 for a
    # Niven family, whose residual carries max x^n (1-x)^n = 4^-n over [0, 1]
    sink: int = 0


FAMILIES = {
    "sqrt": Family(
        Sqrt, PAIR, lambda c: sqrt_rows(c.m),
        "p, q are the even/odd binomial parts of (sqrt(m) - z)^(2n-1) with "
        "z = floor(sqrt(m)); residual equals that power exactly, so it is "
        "positive and shrinks geometrically; bound is an upper enclosure of it."),
    "root": Family(
        Root, FORM, lambda c: root_rows(c.a, c.m),
        "coefficient vector of (a^(1/m) - z)^(mn-1) reduced below degree m; "
        "the combination sum(d_l a^(l/m)) equals that positive power; "
        "bound is an upper enclosure of it."),
    "e": Family(
        E, PAIR, lambda c: factorial_rows(1),
        "p = sum(n!/i!), q = n!; the residual q e - p is the factorial tail, "
        "strictly between 1/(n+1) and 1/n."),
    "inv-e": Family(
        InvE, PAIR, lambda c: factorial_rows(-1),
        "alternating partial sums: p = sum((-1)^i n!/i!), q = n!; the "
        "residual is the alternating tail, nonzero with |.| < 1/n."),
    "e-squared": Family(
        EPow(2), PAIR, lambda c: e_squared_rows(),
        "chains the e pair at index 2n with the reciprocal 1/e pair; "
        "q e^2 - p is positive and below (e^2 + 1)/(2n)."),
    "e-squared-naive": Family(
        EPow(2), PAIR,
        lambda c: (((p * p, q * q), bound) for (p, q), bound in factorial_rows(1)),
        "squares the e pair term by term; the residual "
        "q^2 e^2 - p^2 grows at least like n!/(n+1), so the "
        "certificate is expected to come back violated."),
    "e-pow": Family(
        EPow, PAIR, lambda c: niven_rows(c.k, 1),
        "alternating derivative functional of x^n (1-x)^n / n!; "
        "F(1) e^k - F(0) equals the integral of e^(kx) k^(2n+1) f_n, "
        "positive and below e^k k^(2n+1)/n!.", sink=2),
    "e-rat": Family(
        ERational, PAIR, lambda c: niven_rows(c.r.numerator, c.r.denominator),
        "same functional driven by p/q: F(1) e^(p/q) - F(0) equals "
        "(p^(2n+1)/q) times the integral of e^(px/q) f_n, nonzero and "
        "below |p|^(2n+1) max(1, e^(p/q)) / (n! q).", sink=2),
    "sin-inv": Family(
        SinInv, PAIR, lambda c: trig_rows(c.m, 3),
        "sine series at 1/m cleared of denominators: q = m^(4n-1)(4n-1)!; "
        "the grouped tail keeps q sin(1/m) - p positive, below "
        "1/(m^2 (4n)^2 - 1)."),
    "cos-inv": Family(
        CosInv, PAIR, lambda c: trig_rows(c.m, 2),
        "cosine analogue with q = m^(4n-2)(4n-2)!; positive residual "
        "below 1/(m^2 (4n-1)^2 - 1)."),
    "trig-angle": Family(
        CosOf, TRIG, lambda c: niven_rows(c.x.numerator, c.x.denominator, True),
        "Gaussian-integer functional at angle p/q in (0, pi]: the triple "
        "(a, c, d) satisfies 0 < |c cos(p/q) - d sin(p/q) - a| < "
        "p^(2n+1)/(n! q), certifying that cos and sin of the angle "
        "cannot both be rational.", sink=2),
}


def _decay(first: CertRow, last: CertRow, layout: Layout, c, first_width, last_width, cache,
           budget: int):
    """(first, last, shrinks): the first and last rows, re-enclosed until
    |last| < |first| is decided, and whether it holds.

    Both rows are narrowed together, by 16 from their own decided widths, and
    each must stay decided against zero and its bound.  The first try keeps
    the enclosures the rows were decided with.  Both exclude zero, so |first|
    spans [near, far], read off its ends' signs, and `_checks` of last against
    near decides that it shrinks, and against far that it does not.
    """
    a, b = first, last
    for _, s in refine((1, 1), f"decay of row {last.n} against row {first.n}", 16, budget):
        if s > 1:
            a, b = (_decided(row.n, layout, row.ints, row.bound, c, (num, den * s), cache)
                    for row, (num, den) in ((first, first_width), (last, last_width)))
            if a is None or b is None:
                continue
        lo, hi = a.residual.lo, a.residual.hi
        near, far = (lo, hi) if lo > 0 else (-hi, -lo)
        if _checks(b.residual, near)[1]:
            return a, b, True
        _, below, decided = _checks(b.residual, far)
        if decided and not below:
            return a, b, False


def certify(family: str, c, n_max: int, max_width=None) -> Certificate:
    """Certificate for rows n = 1 .. n_max: the first n_max of the family's rows(c).

    Per row n the residual enclosure is computed at width w/16^r, w =
    bound/1000/2^(sink n) or the override as given, then narrowed by 16
    until both checks are decided: zero is excluded (or the residual is
    exactly zero), and the enclosure sits entirely below or entirely
    at-or-above the bound.  Without the second condition an enclosure
    straddling the bound would fail a row the mathematics actually
    satisfies.  sink is the family's bits per index between residual and
    bound: 2 for the Niven families, whose residual carries the 4^-n
    maximum of x^n (1-x)^n, so their rows settle on the first try.  r is
    the number of narrowings the row before needed in all, 0 for the first
    row, as a row usually needs at least the depth of the one before.
    Every width tried is w/16^j for some j, so a row whose depth does not
    drop is decided at the width a fresh start would reach.  The first try
    is one `_decided` call here; only a row it leaves undecided iterates
    `refine`'s widths, the first skipped as tried but counted against the
    budget, and r grows by one per width taken.  Each row's CertRow is built
    once, without dataclass __init__.  The widths travel from here to the
    constant's grid as unreduced integer pairs (num, den), den shifted left
    4 bits per narrowing, so no try divides a Fraction.

    The verdict also requires the final residual magnitude to sit below the
    first when n_max >= 2 and every row passes.  That comparison is decided,
    not read off whatever enclosures settled the rows: the first and last
    rows are narrowed together, by 16 from their own decided widths, until
    |last| < |first| or |last| >= |first| is certain, and `_decay` returns
    which.  Those are the enclosures printed, so the verdict does not depend
    on where refinement started.

    The rows are built first; a bound that reads the constant makes its own
    coarse kernel call there.  Their residuals take the constant from one
    ConstantCache per call, filled once per constant (cos and sin for
    trig-angle) at what the last row's first try asks for: its start width
    narrowed by the bits of its largest integer and 8 more.  Only a deeper
    narrowing calls the kernel again, so a certificate makes a few kernel
    calls whatever its n_max.  The refinement budget is read once, here, for
    the call's two narrowing loops, a row's and `_decay`.  Radical answers
    equal fresh enclosures; series residual endpoints may change digits with
    the fill, while the flags and verdict, being decided, do not.  Every
    residual but a sqrt or root one is rounded outward to 2^-j, j 12 bits
    past the width tried, before the checks are read from it: its ends carry
    about log2(1/width) + 12 bits whatever the size of q, and it stays
    within the width.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > sys.maxsize:
        raise ValueError(f"n_max must be <= {sys.maxsize}")
    try:
        kind, layout, rows_of, _, sink = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family!r}; known families: {known}") from None
    if not isinstance(kind, type) and c != kind:
        raise ValueError(f"family {family!r} certifies {canonical_text(kind)}")
    if isinstance(kind, type) and not isinstance(c, kind):
        raise ValueError(f"family {family!r} needs a {kind.__name__} constant, "
                         f"got {canonical_text(c)}")
    if max_width is not None:
        max_width = Fraction(max_width)
        if max_width <= 0:
            raise ValueError("width override must be positive")
        max_width = max_width.as_integer_ratio()
    budget = refinement_budget()
    built = list(islice(rows_of(c), n_max))
    cache = ConstantCache()
    # one kernel call per constant, at about what the last row's first try asks:
    # a residual asks for its width over about its largest integer
    ints, bound = built[-1]
    u, v = max_width or (bound.numerator, bound.denominator * 1000 << sink * n_max)
    bits = max(x.bit_length() for x in ints) + 8
    for spec in cache.trig_specs(c.x) if layout is TRIG else (c,):
        cache.grid(spec, u, v << bits)
    rows, widths = [], []
    depth = 0
    for n, (ints, bound) in enumerate(built, 1):
        num, den = max_width or (bound.numerator, bound.denominator * 1000 << sink * n)
        width = num, den << 4 * depth
        row = _decided(n, layout, ints, bound, c, width, cache)
        if row is None:
            what = f"residual at n={n} against zero and the bound"
            for width in islice(refine(width, what, 16, budget), 1, None):
                depth += 1
                row = _decided(n, layout, ints, bound, c, width, cache)
                if row is not None:
                    break
        rows.append(row)
        widths.append(width)
    first_bad = next((r.n for r in rows if not (r.nonzero_ok and r.bound_ok)), None)
    if first_bad is not None:
        verdict = f"violated:{first_bad}"
    elif n_max >= 2:
        rows[0], rows[-1], shrinks = _decay(rows[0], rows[-1], layout, c, widths[0], widths[-1],
                                            cache, budget)
        verdict = "nice" if shrinks else f"violated:{n_max}"
    else:
        verdict = "nice"
    return Certificate(constant=canonical_text(c), family=family, layout=layout,
                       rows=tuple(rows), verdict=verdict)


# ---------------------------------------------------------------------------
# Independent integral enclosures.  These never touch the functional
# identities above; they integrate truncated series term by term, so tests
# can compare the two routes.

def _integral(poly, max_width, term, power, ratio, scale=1) -> Enclosure:
    """Enclosure of the integral over [0, 1] of poly(x) sum(t_j x^power(j)),
    t_0 = term and t_(j+1) = t_j ratio(j), integrated term by term until the
    tail's charge, the first term left out times scale and the integral of
    |poly|, is at most half of the width pair max_width."""
    max_width = Fraction(*_width(max_width))
    coeffs = [Fraction(c) for c in poly.coeffs]
    abs_integral = sum(abs(c) / (i + 1) for i, c in enumerate(coeffs))
    if abs_integral == 0:
        return Enclosure(0, 0)
    total = Fraction(0)
    for j in count():
        shift = power(j) + 1
        total += term * sum(c / (i + shift) for i, c in enumerate(coeffs))
        term *= ratio(j)
        rem = abs(term) * scale * abs_integral
        if 2 * rem <= max_width:
            return Enclosure(total - rem, total + rem)


def integral_exp_poly(rate, poly, max_width) -> Enclosure:
    """Enclosure of the integral over [0, 1] of e^(rate*x) * poly(x), at most
    the width pair max_width wide.

    poly brings rational coefficients (ascending); the exponential series is
    integrated term by term and the Lagrange remainder is charged against an
    upper estimate of e^|rate| times the integral of |poly|.
    """
    rate = Fraction(rate)
    return _integral(poly, max_width, Fraction(1), lambda j: j,
                     lambda j: Fraction(rate, j + 1),
                     _exp_enclosure(abs(rate), Fraction(1)).hi)


def integral_sin_poly(angle, poly, max_width) -> Enclosure:
    """Enclosure of the integral over [0, 1] of sin(angle*x) * poly(x), at most
    the width pair max_width wide."""
    angle = Fraction(angle)
    return _integral(poly, max_width, angle, lambda j: 2 * j + 1,
                     lambda j: Fraction(-angle * angle, (2 * j + 2) * (2 * j + 3)))
