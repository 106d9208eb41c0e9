"""Dense univariate polynomials with integer coefficients, ascending order.

Coefficient index equals the exponent, trailing zeros are trimmed, and the
zero polynomial has an empty coefficient tuple (degree -1).  Sturm-chain
helpers at module level count distinct real roots in an interval exactly;
they are the backbone of root isolation and bracket validation.

Everything is exact and on integers, with no Fraction arithmetic: Sturm
chains, gcds and squarefree parts come from one integer pseudo-remainder
sequence, `sign_at` gives the sign of q^d f(p/q) by homogeneous Horner,
`_interval_horner` encloses f over a dyadic interval [a, b] / 2^k by
interval Horner with shifts, and `bisect_root` halves integer numerators
over one common denominator, past JUMP_LEVELS halvings skipping ahead by a
Newton jump confirmed by signs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .enclosure import Enclosure, _grid_bits, _record

_DECIMAL = re.compile(r"[+-]?[0-9]+")
_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# the decimal exponent that ends text Fraction reads, and its largest magnitude
# read: CPython's default limit on the digits int() takes from text
_EXPONENT = re.compile(r"[eE][+-]?(\d+(?:_\d+)*)\s*\Z")
_MAX_EXPONENT = 4300


def _digits(x: int) -> str:
    """str(x), also where x has more digits than the interpreter converts at
    once (sys.get_int_max_str_digits): there x is split by a power of 10."""
    try:
        return str(x)
    except ValueError:
        half = x.bit_length() * 3 // 20     # about half of x's decimal digits
        high, low = divmod(abs(x), 10 ** half)
        return "-" * (x < 0) + _digits(high) + _digits(low).zfill(half)


def _from_digits(text: str) -> int:
    """int(text), also past that limit where text is [+-]?[0-9]+ (stripped):
    there it is split as in _digits.  Other text keeps int()'s error."""
    try:
        return int(text)
    except ValueError:
        text = text.strip()
        if not _DECIMAL.fullmatch(text):
            raise
        half = len(text) // 2
        low = _from_digits(text[-half:])
        return _from_digits(text[:-half]) * 10 ** half + (-low if text[0] == "-" else low)


def _rational_str(x: Fraction) -> str:
    """str(x), also past the digit limit, as _digits."""
    return _digits(x.numerator) + ("/" + _digits(x.denominator)) * (x.denominator != 1)


def _from_rational_str(text: str) -> Fraction:
    """Fraction(text), also past the digit limit where text is an integer or
    num/den (stripped), as _from_digits.  Other text keeps Fraction's errors,
    and one whose exponent exceeds _MAX_EXPONENT is refused before Fraction
    expands it to a power of 10 of that many digits."""
    ratio = _RATIO.fullmatch(text.strip())
    if ratio:
        return Fraction(_from_digits(ratio[1]), _from_digits(ratio[2] or "1"))
    # int() of an exponent past the digit limit raises its own ValueError
    exponent = _EXPONENT.search(text)
    if exponent and int(exponent[1]) > _MAX_EXPONENT:
        raise ValueError(f"the exponent of {text!r} exceeds {_MAX_EXPONENT} in magnitude")
    return Fraction(text)


def _trimmed(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def _convolve(a, b) -> list[int]:
    """Ascending coefficients of the product of those of a and b, zeros kept."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@_record
class IntPolynomial:
    """An integer polynomial by its ascending coefficients, trailing zeros
    trimmed; the zero polynomial has none."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_trimmed([int(c) for c in self.coeffs])))

    @classmethod
    def from_csv(cls, text: str) -> "IntPolynomial":
        """Parse the wire format: ascending decimal coefficients, comma-separated."""
        return cls(_from_digits(part.strip()) for part in text.split(","))

    def to_csv(self) -> str:
        return ",".join(_digits(c) for c in (self.coeffs or (0,)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __neg__(self):
        return IntPolynomial(-c for c in self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other) if isinstance(other, IntPolynomial) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0 if isinstance(x, int) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)


# ---------------------------------------------------------------------------
# Sturm chains, gcds and squarefree parts from one primitive remainder
# sequence on integers (Collins 1967; Brown 1971): each row is the negated
# pseudo-remainder of the two before it divided by its positive content, a
# positive multiple of the row that division over the rationals gives.

def _primitive(coeffs) -> list[int]:
    """coeffs divided by their positive content; the zero list stays empty."""
    content = gcd(*coeffs) or 1
    return [c // content for c in coeffs]


def _pdivmod(num, den):
    """(quot, rem) with c num = quot den + rem, deg rem < deg den, for integer
    lists and a factor c > 0: each step multiplies by |lead(den)|, never by
    lead(den), so rem is a positive multiple of the rational remainder.  When
    lead(den) = +-1, c = 1, nothing is rescaled and each step is linear in
    deg den: plain division, as for a monic modulus."""
    num, dd, scale, low = list(num), len(den) - 1, abs(den[-1]), den[:-1]
    quot = [0] * max(len(num) - dd, 0)
    while len(num) > dd:
        top = num.pop() if den[-1] > 0 else -num.pop()
        shift = len(num) - dd
        if scale != 1:
            quot = [c * scale for c in quot]
            num = [c * scale for c in num]
        quot[shift] = top
        for i, c in enumerate(low):
            num[shift + i] -= top * c
        while num and not num[-1]:
            num.pop()
    return quot, num


def _remainder_sequence(f, g) -> list[list[int]]:
    """The nonzero rows f, g, -prem(f, g), ..., each made primitive, up to
    the first zero remainder; the last row is gcd(f, g) up to a factor."""
    rows = [_primitive(f), _primitive(g)]
    while rows[-1]:
        rows.append(_primitive([-c for c in _pdivmod(rows[-2], rows[-1])[1]]))
    return [row for row in rows if row]


def sturm_chain(f: IntPolynomial) -> list[list[int]]:
    """Sturm chain of f: primitive integer rows, each a positive multiple of
    the row over the rationals, so every sign and count is the same."""
    return _remainder_sequence(f.coeffs, f.derivative().coeffs)


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _signs_at_infinity(chain) -> tuple[list[int], list[int]]:
    """The signs of the chain's rows at -inf and at +inf: each row's leading
    coefficient, negated at -inf where the row's degree is odd.  Sturm
    variations change only at roots of f, so at -B and B, for B =
    `cauchy_root_bound(f)`, they are these."""
    at_hi = [1 if row[-1] > 0 else -1 for row in chain]
    return [v if len(row) % 2 else -v for v, row in zip(at_hi, chain)], at_hi


def _positive(coeffs) -> IntPolynomial:
    """The nonzero list coeffs, made primitive with a positive leading coefficient."""
    return IntPolynomial(c * _sign(coeffs[-1]) for c in _primitive(coeffs))


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient: the last row of the
    remainder sequence, whose signs do not matter for a gcd."""
    rows = _remainder_sequence(f.coeffs, g.coeffs)
    return _positive(rows[-1]) if rows else IntPolynomial()


def squarefree_part(f: IntPolynomial) -> IntPolynomial:
    """f divided exactly by gcd(f, f'), made primitive."""
    return _over_gcd(f, poly_gcd(f, f.derivative()).coeffs)


def _over_gcd(f: IntPolynomial, g) -> IntPolynomial:
    """f divided exactly by the integer list g, gcd(f, f') times any nonzero
    factor, made primitive; f itself when g is a constant."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no squarefree part")
    if len(g) == 1:
        return f
    quot, rem = _pdivmod(f.coeffs, g)
    if rem:
        raise ValueError("gcd does not divide the polynomial; coefficients corrupt")
    return _positive(quot)


def cauchy_root_bound(f: IntPolynomial) -> int:
    """Integer B with every real root of f strictly inside (-B, B)."""
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    lead = abs(f.leading)
    worst = max(abs(c) for c in f.coeffs[:-1])
    return 2 + worst // lead


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def sign_at(coeffs, p: int, q: int) -> int:
    """Sign of q^d * f(p/q), d = len(coeffs) - 1, for the polynomial f with
    ascending coefficients coeffs and q > 0: the sign of f at p/q, by
    homogeneous integer Horner, sum c_i p^i q^(d-i)."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * scale
        scale *= q
    return _sign(acc)


def _dyadic_value(coeffs, p: int, k: int) -> int:
    """2^(kd) * f(p / 2^k), the homogeneous Horner of sign_at with shifts."""
    acc, shift = 0, 0
    for c in reversed(coeffs):
        acc = acc * p + (c << shift)
        shift += k
    return acc


def _interval_horner(coeffs, a: int, b: int, k: int) -> tuple[int, int]:
    """(x, y) with [x, y] / 2^(kd) the exact interval Horner enclosure over
    [a, b] / 2^k, a <= b, of the polynomial with ascending coefficients
    coeffs, d = len(coeffs) - 1 >= 0: the accumulator after j multiplications
    is [x, y] / 2^(kj), and each step adds the next coefficient << kj.
    Over a box with a >= 0 each step takes two products, not four: x t is
    least at t = a when x >= 0, else at t = b, and y t greatest at t = b
    when y >= 0, else at t = a."""
    x = y = coeffs[-1]
    if a >= 0:
        for j in range(1, len(coeffs)):
            c = coeffs[-1 - j] << k * j
            x, y = x * (a if x >= 0 else b) + c, y * (b if y >= 0 else a) + c
        return x, y
    for j in range(1, len(coeffs)):
        c = coeffs[-1 - j] << k * j
        products = x * a, x * b, y * a, y * b
        x, y = min(products) + c, max(products) + c
    return x, y


def count_roots_between(f: IntPolynomial, lo, hi) -> int:
    """Number of distinct real roots of f in the open interval (lo, hi), two
    rationals that must not be roots.  sturm_chain(f) is built and used when
    its last row, gcd(f, f') up to a factor, is a constant; only where that
    row shows a repeated root is f divided by it, and the quotient's chain
    built instead.
    """
    (p, q), (r, s) = Fraction(lo).as_integer_ratio(), Fraction(hi).as_integer_ratio()
    if p * s >= r * q:
        raise ValueError("need lo < hi")
    chain = sturm_chain(f)
    if not chain or len(chain[-1]) > 1:
        chain = sturm_chain(_over_gcd(f, chain[-1] if chain else ()))
    at_lo, at_hi = [sign_at(row, p, q) for row in chain], [sign_at(row, r, s) for row in chain]
    if at_lo[0] == 0 or at_hi[0] == 0:
        raise ValueError("interval endpoint is a root")
    return _sign_variations(at_lo) - _sign_variations(at_hi)


# ---------------------------------------------------------------------------
# Bisection on integers.  A cell [a, b] / s is halved into [a, a + b] / 2s
# or [a + b, b] / 2s, so after j halvings of [a, b] / s every cell is
# [x, x + b - a] / (s 2^j), and f's sign at x / (s 2^j) is the sign of
# sum c_i s^(d-i) x^i 2^(j(d-i)): the coefficients times powers of s once,
# then shifts.  Every JUMP_LEVELS halvings a Newton jump tries to skip the
# rest: the cell, as t in [0, 1], gives an integer polynomial g (`_shifted`);
# when g has exactly one root there, and it simple (`_one_simple_root`),
# Newton's method guesses the cell the remaining halvings reach
# (`_newton_guess`) and exact signs confirm it (`_confirm`).  Unconfirmed,
# the halving goes on, so the result never depends on Newton converging.

JUMP_LEVELS = 64


def _shifted(cs, a: int, w: int, j: int) -> list[int]:
    """Coefficients of g(t) = sum cs_i (a + w t)^i 2^(j(d-i)), which is f at
    (a + w t) / (s 2^j) times (s 2^j)^d: the cell [a, a + w] / (s 2^j) as
    t in [0, 1]."""
    d = len(cs) - 1
    g = [cs[d]]
    for i in range(d - 1, -1, -1):
        g = [a * x + w * y for x, y in zip(g + [0], [0] + g)]
        g[0] += cs[i] << (j * (d - i))
    return g


def _one_simple_root(g) -> bool:
    """Whether g has exactly one root in (0, 1), and it simple, by Descartes'
    rule of signs on (1 + y)^d g(1 / (1 + y)): g reversed, shifted by one."""
    h = g[::-1]
    d = len(h) - 1
    for i in range(d):
        for k in range(d - 1, i - 1, -1):
            h[k] += h[k + 1]
    return _sign_variations(h) == 1


def _newton_guess(g, levels: int):
    """About 2^levels times the one root of g in (0, 1), as an integer in
    [0, 2^levels), by Newton's method on integers with the precision
    doubling each step (Brent and Zimmermann, Modern Computer Arithmetic,
    ch. 4); None if g' vanishes on the way.  Only a guess: `_confirm`
    checks it."""
    dg = [i * c for i, c in enumerate(g)][1:]
    precisions = [levels + 8]
    while precisions[-1] > 48:
        precisions.append(precisions[-1] // 2 + 1)
    precisions.reverse()
    p = precisions[0]
    u = 1 << (p - 1)
    for target in [p] * 5 + precisions[1:]:
        u <<= target - p
        p = target
        # t = u / 2^p; u - 2^p g(t) / g'(t) is u - G // G1 for these G, G1
        G1 = _dyadic_value(dg, u, p)
        if not G1:
            return None
        u = min(max(u - _dyadic_value(g, u, p) // G1, 0), 1 << p)
    return min(u >> (p - levels), (1 << levels) - 1)


def _confirm(g, levels: int, i: int, sign0: int):
    """(i', hit) for the one root r of g in (0, 1), g(0) of sign sign0, from
    the guess i: r = i' / 2^levels if hit, else i' / 2^levels < r <
    (i' + 1) / 2^levels, both read off exact signs.  The guess may move by
    one a few times; None if that does not reach r."""
    def sign(x):
        return _sign(_dyadic_value(g, x, levels))
    lo, hi = sign(i), sign(i + 1)
    for _ in range(4):
        if lo == 0 or hi == 0:
            return i + (lo != 0), True
        if lo == sign0 != hi:
            return i, False
        if lo != sign0:
            i -= 1
            lo, hi = sign(i), lo
        else:
            i += 1
            lo, hi = hi, sign(i + 1)
    return None


def _narrow(coeffs, a: int, b: int, s: int, levels: int, sign_a: int):
    """(a', b', s', hit): halve [a, b] / s up to `levels` times, keeping the
    right half when f at the midpoint has sign sign_a (f's sign at a / s)
    and the left half otherwise.  hit is False when all `levels` halvings
    were made, and [a', b'] / s' is the cell reached; it is True when a
    midpoint is a root, and [a', b'] / s' is the cell it is the midpoint of.

    A Newton jump leaves the result as it is: it is tried only on a cell
    where g of `_shifted` has exactly one root, simple, which every later
    halving then follows, and its cell is confirmed by exact signs.
    """
    d = len(coeffs) - 1
    w = b - a
    cs = [c * s ** (d - i) for i, c in enumerate(coeffs)]
    jumps = sign_a != 0
    j = 0
    while j < levels:
        if jumps and j and j % JUMP_LEVELS == 0:
            g = _shifted(cs, a, w, j)
            if _one_simple_root(g):
                guess = _newton_guess(g, levels - j)
                found = None if guess is None else _confirm(g, levels - j, guess, sign_a)
                if found is not None:
                    i, hit = found
                    if not hit:
                        a = (a << (levels - j)) + w * i
                        return a, a + w, s << levels, False
                    # i / 2^(levels - j) is first a grid point after
                    # levels - j - z halvings, z its trailing zero bits
                    z = (i & -i).bit_length() - 1
                    up = levels - j - z - 1
                    a = (a << up) + w * (i >> (z + 1))
                    return a, a + w, s << (j + up), True
                jumps = False
        m = a + b
        v = _sign(_dyadic_value(cs, m, j + 1))
        if v == 0:
            return a, b, s << j, True
        if v == sign_a:
            a, b = m, b << 1
        else:
            a, b = a << 1, m
        j += 1
    return a, b, s << j, False


def _cell(f: IntPolynomial, lo, hi, u: int, v: int):
    """`_narrow` of [lo, hi], whose ends f gives opposite nonzero signs, to
    width at most u/v: the ends go over one common denominator S, and the
    cells are integers over S 2^j."""
    (p, q), (r, t) = lo.as_integer_ratio(), hi.as_integer_ratio()
    s = lcm(q, t)
    a, b = p * (s // q), r * (s // t)
    # the fewest halvings k with (b - a) / (s 2^k) <= u / v
    return _narrow(f.coeffs, a, b, s, _grid_bits(u * s, (b - a) * v), sign_at(f.coeffs, a, s))


def bisect_root(f: IntPolynomial, lo: Fraction, hi: Fraction,
                max_width: Fraction) -> Enclosure:
    """Halve [lo, hi], whose ends f gives opposite nonzero signs, until it is at
    most max_width wide; a midpoint that is the root comes back as a point.

    The cells are halved or skipped ahead by a confirmed Newton jump
    (`_cell`), and Fractions are built only for the result.
    """
    a, b, s, hit = _cell(f, lo, hi, *Fraction(max_width).as_integer_ratio())
    if hit:
        x = Fraction(a + b, s << 1)
        return Enclosure(x, x)
    return Enclosure(Fraction(a, s), Fraction(b, s))


def rational_root(f: IntPolynomial, lo: Fraction, hi: Fraction):
    """The one root of f in (lo, hi), whose ends f gives opposite nonzero
    signs, if it is rational, else None.  A rational root is z/a for a =
    |lead(f)|; narrowed by `_cell` to width at most 1/a, the bracket holds
    one candidate, the first multiple of 1/a at or above its left end, and
    f's sign there decides, with no numeric tolerance at all."""
    a = abs(f.leading)
    x, y, s, hit = _cell(f, lo, hi, 1, a)
    if hit:
        return Fraction(x + y, s << 1)
    z = -(-x * a // s)      # ceil(x / s * a): the candidate is z / a
    return Fraction(z, a) if z * s <= y * a and sign_at(f.coeffs, z, a) == 0 else None
