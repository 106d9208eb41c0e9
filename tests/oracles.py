"""Hand-rolled second routes the tests trust instead of the library.

Everything here recomputes values along an independent path: quadratic and
higher ring expansion for radical powers, bottom-up modular powers for
reduction, term-calculus differentiation for the functional tables, plain
partial sums with Lagrange tails for the series constants, the kernels'
term loops with the tail bound formed after every term, which the kernels
skip while its bits rule out an exit, schoolbook bisection for square
roots, interval arithmetic (`Interval`, an `Enclosure` with the operators
the package leaves out) for certificate residuals and the fractional-part
product, `json.dumps` and `csv.writer` for certificate text, `Fraction`
Horner, bisection, division, gcds, Sturm chains and Sturm counts for
polynomial signs and roots, and an inline Descartes count for the Newton
jump's one-simple-root test.  Agreement between a library value and
its oracle twin is the point of most tests, so nothing in this file may
call back into the code paths it checks.  The two exceptions are not oracles
but readers of library internals that the tests check against oracles:
`bin_placements` and `is_squarefree`.  The pigeonhole bins have a second
oracle, `sorted_shared_bin`, the sort-and-scan the three-distance walk
replaced.
"""

import csv
import io
import json
from fractions import Fraction
from math import ceil, comb, factorial, floor, gcd, lcm

from irratcert.constants import Root, Sqrt, enclose
from irratcert.enclosure import Enclosure
from irratcert.intpoly import IntPolynomial, poly_gcd
from irratcert.pigeonhole import _rotation


def sqrt_ring_power(m: int, z: int, exponent: int) -> tuple[int, int]:
    """(sqrt(m) - z)^exponent expanded as (a, b) meaning a + b*sqrt(m)."""
    acc = (1, 0)
    for _ in range(exponent):
        acc = (-z * acc[0] + m * acc[1], acc[0] - z * acc[1])
    return acc


def root_ring_power(a: int, m: int, z: int, exponent: int) -> tuple[int, ...]:
    """(t - z)^exponent reduced in the basis 1, t, ..., t^(m-1) with t^m = a."""
    acc = [1] + [0] * (m - 1)
    for _ in range(exponent):
        nxt = [0] * m
        for i, coeff in enumerate(acc):
            nxt[i] -= z * coeff
            if i + 1 == m:
                nxt[0] += a * coeff
            else:
                nxt[i + 1] += coeff
        acc = nxt
    return tuple(acc)


def modular_powers_remainder(modulus, coeffs) -> tuple[int, ...]:
    """Remainder of sum(coeffs[k] x^k) modulo a monic modulus, both ascending.

    Built bottom-up: x^k mod modulus is advanced one multiplication at a
    time and weighted by coeffs[k], which is a different shape from any
    top-down elimination.
    """
    deg = len(modulus) - 1
    assert modulus[-1] == 1 and deg >= 1
    out = [0] * deg
    power = [0] * deg
    power[0] = 1
    for c in coeffs:
        for i in range(deg):
            out[i] += c * power[i]
        carry = power[deg - 1]
        power = [0] + power[: deg - 1]
        if carry:
            for i in range(deg):
                power[i] -= carry * modulus[i]
    return tuple(out)


def gauss_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Product of two Gaussian integers via remainder arithmetic mod t^2 + 1."""
    a, b = x
    c, d = y
    product = [a * c, a * d + b * c, b * d]
    reduced = modular_powers_remainder([1, 0, 1], product)
    return (reduced[0], reduced[1])


def bridge_poly(n: int) -> list[int]:
    """Integer coefficients of x^n (1 - x)^n, ascending degree."""
    coeffs = [0] * (2 * n + 1)
    for i in range(n + 1):
        coeffs[n + i] = comb(n, i) * (-1) ** i
    return coeffs


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def bridge_derivative_at(n: int, j: int, point: int) -> int:
    """j-th derivative of x^n (1 - x)^n at an integer point, term calculus."""
    coeffs = bridge_poly(n)
    for _ in range(j):
        coeffs = poly_derivative(coeffs)
    return sum(c * point ** i for i, c in enumerate(coeffs))


def bridge_derivative_table(n: int, point: int) -> list[int]:
    """Derivatives 0 .. 2n of x^n (1 - x)^n at an integer point, term calculus."""
    coeffs = bridge_poly(n)
    table = []
    for _ in range(2 * n + 1):
        table.append(sum(c * point ** i for i, c in enumerate(coeffs)))
        coeffs = poly_derivative(coeffs)
    return table


def e_bracket(terms: int) -> tuple[Fraction, Fraction]:
    """Rational bracket around e from the plain partial sum."""
    s = sum(Fraction(1, factorial(i)) for i in range(terms + 1))
    return s, s + Fraction(2, factorial(terms + 1))


def exp_bracket(x, terms: int) -> tuple[Fraction, Fraction]:
    """Rational bracket around e^x; terms must dominate 4(|x| + 1)."""
    x = Fraction(x)
    assert terms >= 4 * (abs(x) + 1)
    s = Fraction(0)
    t = Fraction(1)
    for i in range(terms + 1):
        s += t
        t *= Fraction(x, i + 1)
    tail = 2 * abs(t)
    return s - tail, s + tail


def sin_bracket(x, terms: int) -> tuple[Fraction, Fraction]:
    """Bracket around sin(x) with the |derivative| <= 1 remainder bound."""
    x = Fraction(x)
    s = Fraction(0)
    for j in range(terms + 1):
        s += Fraction((-1) ** j) * x ** (2 * j + 1) / factorial(2 * j + 1)
    rem = abs(x) ** (2 * terms + 3) / factorial(2 * terms + 3)
    return s - rem, s + rem


def cos_bracket(x, terms: int) -> tuple[Fraction, Fraction]:
    x = Fraction(x)
    s = Fraction(0)
    for j in range(terms + 1):
        s += Fraction((-1) ** j) * x ** (2 * j) / factorial(2 * j)
    rem = abs(x) ** (2 * terms + 2) / factorial(2 * terms + 2)
    return s - rem, s + rem


def _fewest_bits(max_width: Fraction) -> int:
    """The fewest k >= 0 with 2^-k <= max_width."""
    num, den = max_width.numerator, max_width.denominator
    k = max(0, den.bit_length() - num.bit_length() - 1)
    while num << k < den:
        k += 1
    return k


def series_start(x: Fraction, max_width: Fraction, starved: bool = False) -> int:
    """The series kernels' first scale: the bits of max_width plus guard bits,
    or only 4 guard bits when starved, so that the rounding error forces a redo."""
    k = _fewest_bits(max_width)
    return k + 4 if starved else k + 2 * (abs(x.numerator) // x.denominator) + k.bit_length() + 10


def exp_term_loop(x: Fraction, max_width: Fraction, starved: bool = False):
    """(lo, hi, sums) of the exp kernel as a term loop that forms its tail
    bound after every term once |x| < j + 2, sums being how often it summed."""
    a, b = x.numerator, x.denominator
    aa = abs(a)
    prec = series_start(x, max_width, starved)
    sums = 0
    while True:
        sums += 1
        budget = (max_width.numerator << prec) // max_width.denominator
        term = total = 1 << prec
        err = total_err = 0
        j = 0
        while True:
            j += 1
            d = j * b
            term = term * a // d
            err = -(-err * aa // d) + 1
            total += term
            total_err += err
            if aa < (j + 2) * b:
                tail = -(-(abs(term) + err) * aa * (j + 2) // ((j + 1) * ((j + 2) * b - aa)))
                r = tail + total_err
                if 2 * r <= budget:
                    return Fraction(total - r, 1 << prec), Fraction(total + r, 1 << prec), sums
                if 4 * tail <= budget:
                    break
        prec += total_err.bit_length()


def trig_term_loop(x: Fraction, max_width: Fraction, first_power: int, starved: bool = False):
    """(lo, hi, sums) of the sin (first_power 1) or cos (0) kernel as a term
    loop that forms its tail bound after every term once the terms decrease."""
    a, b = x.numerator, x.denominator
    a2, b2 = a * a, b * b
    prec = series_start(x, max_width, starved)
    sums = 0
    while True:
        sums += 1
        one = 1 << prec
        budget = (max_width.numerator << prec) // max_width.denominator
        if first_power:
            term, rem = divmod(a << prec, b)
            err = 1 if rem else 0
        else:
            term, err = one, 0
        total, total_err = term, err
        s = first_power
        while True:
            d = (s + 1) * (s + 2) * b2
            if a2 < d:
                tail = -(-(abs(term) + err) * a2 // d)
                r = tail + total_err
                if 2 * r <= budget:
                    return (Fraction(max(total - r, -one), one),
                            Fraction(min(total + r, one), one), sums)
                if 4 * tail <= budget:
                    break
            term = -term * a2 // d
            err = -(-err * a2 // d) + 1
            total += term
            total_err += err
            s += 2
        prec += total_err.bit_length()


def sqrt_bracket(m: int, steps: int) -> tuple[Fraction, Fraction]:
    """Bracket around sqrt(m) from schoolbook bisection of t^2 - m."""
    lo, hi = Fraction(0), Fraction(m + 1)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid * mid <= m:
            lo = mid
        else:
            hi = mid
    return lo, hi


def assert_overlaps(enc, lo, hi):
    """Two intervals that both contain the same real value must intersect."""
    assert enc.lo <= hi and lo <= enc.hi, (
        f"enclosure [{enc.lo}, {enc.hi}] misses oracle bracket [{lo}, {hi}]")


def root_form_binomials(a: int, m: int, z: int, n: int) -> tuple[int, ...]:
    """(t - z)^(mn-1) in the basis 1, t, ..., t^(m-1) with t^m = a, from the
    binomial theorem: d_l = sum over k of C(mn-1, mk+l) a^k (-z)^(mn-1-mk-l)."""
    e = m * n - 1
    return tuple(sum(comb(e, m * k + l) * a ** k * (-z) ** (e - m * k - l)
                     for k in range(n) if m * k + l <= e)
                 for l in range(m))


def bin_placements(enc: Enclosure, n: int):
    """(floor, bin) of k*value for k = 0..n, or None if any one is ambiguous:
    the rotation (P, Q) of `pigeonhole._rotation` read as
    divmod(floor(k*P/Q), n), settled exactly when every value in enc gives
    that floor."""
    rotation = _rotation(enc, n)
    if rotation is None:
        return None
    P, Q = rotation
    return [divmod(k * P // Q, n) for k in range(n + 1)]


def sorted_shared_bin(P: int, Q: int, n: int) -> tuple[int, int]:
    """The two least k in 0..n in the lowest bin holding two of the floors
    floor(k*P/Q) mod n: all n+1 bins listed, sorted, scanned for the first
    repeat, and the repeated bin looked up twice in the list."""
    bins = [k * P // Q % n for k in range(n + 1)]
    s = sorted(bins)
    j = next(x for x, y in zip(s, s[1:]) if x == y)
    k1 = bins.index(j)
    return k1, bins.index(j, k1 + 1)


def is_squarefree(f: IntPolynomial) -> bool:
    """gcd(f, f') is a constant, by the library's `poly_gcd`."""
    return not f.is_zero and poly_gcd(f, f.derivative()).degree == 0


def fraction_bin_placements(lo: Fraction, hi: Fraction, n: int):
    """(floor, bin) of k*x for k = 0..n, x in [lo, hi], or None if any is ambiguous.

    One Fraction interval step per k, as the pigeonhole scan was first
    written: [k*lo, k*hi] must have one floor z, and its fractional part
    [k*lo - z, k*hi - z] times n one floor j.
    """
    placed = []
    for k in range(n + 1):
        a, b = k * lo, k * hi
        z = floor(a)
        if floor(b) != z or floor((a - z) * n) != floor((b - z) * n):
            return None
        placed.append((z, floor((a - z) * n)))
    return placed


# Certificate residuals by interval arithmetic, as verify first formed them.
# `enclose_at(width)` is the constant's enclosure at that width, an
# `Interval`; the library forms the same linear forms on integers on a dyadic
# grid.  Each oracle returns a plain `Enclosure`, which == compares with the
# library's, as records of one class only compare equal.

class Interval(Enclosure):
    """An `Enclosure` with plain interval arithmetic; since the endpoints are
    exact rationals there is no rounding step, so containment is preserved
    exactly.  Operators take an `Enclosure` or a rational and give an
    `Interval`."""

    @classmethod
    def point(cls, value) -> "Interval":
        v = Fraction(value)
        return cls(v, v)

    @classmethod
    def of(cls, enc: Enclosure) -> "Interval":
        return cls(enc.lo, enc.hi)

    def plain(self) -> Enclosure:
        return Enclosure(self.lo, self.hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def max_abs(self) -> Fraction:
        """Largest |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def min_abs(self) -> Fraction:
        """Smallest |x| over the interval; zero when 0 is inside."""
        if self.lo <= 0 <= self.hi:
            return Fraction(0)
        return min(abs(self.lo), abs(self.hi))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        if isinstance(other, Enclosure):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        if isinstance(other, Enclosure):
            return Interval(self.lo - other.hi, self.hi - other.lo)
        return Interval(self.lo - other, self.hi - other)

    def __rsub__(self, other) -> "Interval":
        return (-self) + other

    def __mul__(self, other) -> "Interval":
        if isinstance(other, Enclosure):
            products = (self.lo * other.lo, self.lo * other.hi,
                        self.hi * other.lo, self.hi * other.hi)
            return Interval(min(products), max(products))
        other = Fraction(other)
        if other >= 0:
            return Interval(self.lo * other, self.hi * other)
        return Interval(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def intersect(self, other: Enclosure) -> "Interval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("enclosures are disjoint")
        return Interval(lo, hi)

    def floor_if_settled(self):
        """Common floor of both endpoints, or None while an integer is straddled."""
        a, b = floor(self.lo), floor(self.hi)
        return a if a == b else None


class FractionConstantCache:
    """Per-run constant enclosures as Fractions: the kernel's enclosure at K
    bits, rounded outward to the grid 2^-k by `floor` and `ceil`, with K
    raised to max(k, 2K) on a miss.  k is the fewest bits with 2^-k <= the
    width, plus two for every constant but a radical."""

    def __init__(self):
        self._best = {}

    def enclose(self, spec, max_width) -> Interval:
        max_width = Fraction(max_width)
        k = max(0, max_width.denominator.bit_length() - max_width.numerator.bit_length() - 1)
        while Fraction(1, 2 ** k) > max_width:
            k += 1
        if not isinstance(spec, (Sqrt, Root)):
            k += 2
        bits, enc = self._best.get(spec, (-1, None))
        if bits < k:
            bits = max(k, 2 * bits)
            enc = enclose(spec, Fraction(1, 2 ** bits))
            self._best[spec] = bits, enc
        return Interval(Fraction(floor(enc.lo * 2 ** k), 2 ** k),
                        Fraction(ceil(enc.hi * 2 ** k), 2 ** k))


def enclosure_horner(coeffs, enc: Enclosure) -> Enclosure:
    """Interval Horner evaluation of sum(coeffs[i] x^i) over enc."""
    acc = Interval.point(0)
    for c in reversed(coeffs):
        acc = acc * enc + c
    return acc.plain()


def enclosure_pair_residual(p: int, q: int, enclose_at, max_width) -> Enclosure:
    if q == 0:
        return Enclosure(-p, -p)
    return (enclose_at(Fraction(max_width) / abs(q)) * q - p).plain()


def enclosure_trig_residual(acd, cos_at, sin_at, max_width) -> Enclosure:
    a, c, d = acd
    w = Fraction(max_width) / (2 * (abs(c) + abs(d) + 1))
    return (cos_at(w) * c - sin_at(w) * d - a).plain()


def enclosure_power_form_residual(coeffs, enclose_at, max_width) -> Enclosure:
    """Horner at width max_width / (slope + 1), halved until the result fits."""
    max_width = Fraction(max_width)
    if not any(coeffs):
        return Enclosure(0, 0)
    box = enclose_at(Fraction(1, 4)).max_abs() + 1
    slope = sum(abs(c) * i * box ** (i - 1) for i, c in enumerate(coeffs) if i)
    width = max_width / (slope + 1)
    while True:
        acc = enclosure_horner(coeffs, enclose_at(width))
        if acc.hi - acc.lo <= max_width:
            return acc
        width /= 2


def enclosure_fractional_residual(q: int, c, max_width) -> Enclosure:
    """{q*value}({q*value} - 1) as `fractional_residual` formed it before its
    integer pass: q times the enclosure from the same start width, halved
    until its floor settles and the product, clamped to [-1/4, 0], is
    max_width wide."""
    max_width = Fraction(max_width)
    width = max_width / (4 * abs(q))
    for _ in range(400):
        enc = Interval.of(enclose(c, width)) * q
        z = enc.floor_if_settled()
        if z is not None:
            frac = enc - z
            product = (frac * (frac - 1)).intersect(Enclosure(Fraction(-1, 4), Fraction(0)))
            if product.width <= max_width:
                return product.plain()
        width /= 2
    raise AssertionError(f"fractional part of {q} * {c} not settled")


# Certificate JSON and CSV as verify first wrote them: a dict of the
# documented shape through json.dumps(indent=2), and the cells through
# csv.writer; the library writes the same text by hand.

def decimal_text(x: int) -> str:
    """x in decimal by 18-digit chunks, also past the interpreter's limit on
    converting one integer."""
    sign, x, chunks = "-" * (x < 0), abs(x), []
    while x >= 10 ** 18:
        x, low = divmod(x, 10 ** 18)
        chunks.append(f"{low:018d}")
    return sign + str(x) + "".join(reversed(chunks))


def _ratio_text(x: Fraction) -> str:
    return f"{decimal_text(x.numerator)}/{decimal_text(x.denominator)}"


def certificate_json(cert) -> str:
    """json.dumps(indent=2) of cert: integers and rationals as strings, a
    vector layout's integers as one list."""
    rows = []
    for row in cert.rows:
        layout, ints = cert.layout, row.ints
        fields = ({layout.fields[0]: [decimal_text(x) for x in ints]} if layout.vector
                  else {name: decimal_text(x) for name, x in zip(layout.fields, ints)})
        rows.append({"n": row.n, **fields, "residual_lo": _ratio_text(row.residual.lo),
                     "residual_hi": _ratio_text(row.residual.hi),
                     "bound": _ratio_text(row.bound),
                     "nonzero_ok": row.nonzero_ok, "bound_ok": row.bound_ok})
    return json.dumps({"constant": cert.constant, "family": cert.family, "rows": rows,
                       "verdict": cert.verdict}, indent=2)


def certificate_csv(cert) -> str:
    """csv.writer's rendering of cert's header and rows, a vector layout's
    integers ';'-joined in one cell, then the `# verdict:` line."""
    layout = cert.layout
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", *layout.fields, "residual_lo", "residual_hi", "bound",
                     "nonzero_ok", "bound_ok"])
    for row in cert.rows:
        ints = [decimal_text(x) for x in row.ints]
        writer.writerow([row.n, *([";".join(ints)] if layout.vector else ints),
                         _ratio_text(row.residual.lo), _ratio_text(row.residual.hi),
                         _ratio_text(row.bound), str(row.nonzero_ok).lower(),
                         str(row.bound_ok).lower()])
    return out.getvalue() + f"# verdict: {cert.verdict}\n"


# Polynomial signs and roots on Fractions, as intpoly and algebraic first
# computed them; the library computes the same on integers.

def fraction_horner(coeffs, x: Fraction) -> Fraction:
    """sum(coeffs[i] x^i) by Horner's rule on Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def fraction_bisect_root(coeffs, lo, hi, max_width) -> tuple[Fraction, Fraction]:
    """Halve [lo, hi] until it is at most max_width wide, keeping the right
    half when the midpoint's sign is that of lo; a midpoint that is a root
    comes back as (mid, mid)."""
    lo, hi = Fraction(lo), Fraction(hi)
    sign_lo = _sign(fraction_horner(coeffs, lo))
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        v = _sign(fraction_horner(coeffs, mid))
        if v == 0:
            return mid, mid
        if v == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _fraction_divmod(num, den):
    """(quotient, remainder) of polynomial division with rational coefficients."""
    num = [Fraction(c) for c in num]
    dd = len(den) - 1
    quot = [Fraction(0)] * max(len(num) - dd, 0)
    while num and len(num) - 1 >= dd:
        factor = num[-1] / den[-1]
        shift = len(num) - 1 - dd
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        while num and num[-1] == 0:
            num.pop()
    return quot, num


def _fraction_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def fraction_sturm_chain(coeffs) -> list[list[Fraction]]:
    """Sturm chain of the polynomial with ascending coefficients coeffs (trimmed),
    by division over the rationals: f, f', then each negated remainder."""
    chain = [[Fraction(c) for c in coeffs],
             [Fraction(c) for c in _fraction_derivative(coeffs)]]
    while chain[-1]:
        rem = _fraction_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _fraction_primitive(coeffs) -> tuple[int, ...]:
    """Denominators and content cleared, leading coefficient made positive."""
    if not coeffs:
        return ()
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    content = 0
    for c in ints:
        content = gcd(content, c)
    sign = -1 if ints[-1] < 0 else 1
    return tuple(sign * c // content for c in ints)


def fraction_poly_gcd(f, g) -> tuple[int, ...]:
    """Primitive gcd, positive leading coefficient, by Euclid over the rationals."""
    a, b = [Fraction(c) for c in f], [Fraction(c) for c in g]
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    return _fraction_primitive(a)


def fraction_squarefree_part(coeffs) -> tuple[int, ...]:
    """coeffs divided by gcd(f, f') over the rationals, made primitive;
    coeffs itself when the gcd is a constant."""
    g = fraction_poly_gcd(coeffs, _fraction_derivative(coeffs))
    if len(g) == 1:
        return tuple(coeffs)
    quot, rem = _fraction_divmod(coeffs, g)
    assert not rem
    return _fraction_primitive(quot)


def fraction_sturm_count(chain, lo: Fraction, hi: Fraction) -> int:
    """Sign variations of the Fraction Sturm chain at lo minus those at hi."""
    def variations(x):
        signs = [s for s in (_sign(fraction_horner(row, x)) for row in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return variations(lo) - variations(hi)


def fraction_isolate(coeffs, chain, bound: int) -> list[tuple[Fraction, Fraction]]:
    """Brackets (lo, hi) of the real roots of the squarefree polynomial with
    the given Sturm chain inside (-bound, bound), ascending: split at the
    midpoint, or at the first of i/(2i+1) of the way across that is not a
    root, until each interval holds one root and is at most 1/4 wide."""
    def nonroot(a, b):
        for i in range(len(coeffs) + 2):
            x = a + (b - a) * (Fraction(i, 2 * i + 1) if i else Fraction(1, 2))
            if fraction_horner(coeffs, x) != 0:
                return x
        raise AssertionError("more roots than the degree allows")

    found = []
    stack = [(Fraction(-bound), Fraction(bound))]
    while stack:
        a, b = stack.pop()
        count = fraction_sturm_count(chain, a, b)
        if count == 0:
            continue
        if count == 1 and b - a <= Fraction(1, 4):
            found.append((a, b))
            continue
        x = nonroot(a, b)
        stack += [(a, x), (x, b)]
    return sorted(found)


def descartes_one_simple_root(g) -> bool:
    """Whether g has exactly one root in (0, 1), and it simple: one sign
    variation in (1 + y)^d g(1 / (1 + y)), g reversed and Taylor-shifted by
    one in place, its signs counted inline."""
    h = g[::-1]
    d = len(h) - 1
    for i in range(d):
        for k in range(d - 1, i - 1, -1):
            h[k] += h[k + 1]
    signs = [c > 0 for c in h if c]
    return sum(x != y for x, y in zip(signs, signs[1:])) == 1
