"""Dense univariate polynomials with integer coefficients, ascending order.

Coefficient index equals the exponent, trailing zeros are trimmed, and the
zero polynomial has an empty coefficient tuple (degree -1).  Sturm-chain
helpers at module level count distinct real roots in an interval exactly;
they are the backbone of root isolation and bracket validation.
`bisect_root` narrows an interval around one root by sign bisection.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .enclosure import Enclosure

_DECIMAL = re.compile(r"[+-]?[0-9]+")


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


def _trimmed(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", tuple(_trimmed([int(c) for c in coeffs])))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

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

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __neg__(self):
        return IntPolynomial(-c for c in self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0 if isinstance(x, int) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, enc: Enclosure) -> Enclosure:
        """Interval Horner evaluation, exact: enc is [a, b] / D over the common
        denominator D of its endpoints, the accumulator after j steps is
        [x, y] / D^j, and one Fraction per endpoint is built at the end."""
        lo, hi = enc.lo, enc.hi
        d = lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        x, y, scale = 0, 0, 1
        for c in reversed(self.coeffs):
            products = (x * a, x * b, y * a, y * b)
            scale *= d
            x, y = min(products) + c * scale, max(products) + c * scale
        return Enclosure(Fraction(x, scale), Fraction(y, scale))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)


# ---------------------------------------------------------------------------
# Sturm chains over the rationals.

def _frac_list(p: IntPolynomial) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _frac_divmod(num: list[Fraction], den: list[Fraction]):
    """(quotient, remainder) of polynomial division with rational coefficients."""
    num = list(num)
    dd = len(den) - 1
    quot = [Fraction(0)] * max(len(num) - dd, 0)
    while num and len(num) - 1 >= dd:
        factor = num[-1] / den[-1]
        shift = len(num) - 1 - dd
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num = _trimmed(num)
    return quot, num


def _eval_frac(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def sturm_chain(f: IntPolynomial) -> list[list[Fraction]]:
    """Sturm chain of f, coefficient lists over the rationals."""
    chain = [_frac_list(f), _frac_list(f.derivative())]
    while chain[-1]:
        rem = _frac_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _primitive(coeffs: list[Fraction]) -> IntPolynomial:
    """Clear denominators and the content, normalize the leading sign."""
    if not coeffs:
        return IntPolynomial()
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    content = 0
    for c in ints:
        content = gcd(content, c)
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPolynomial(ints)


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient."""
    a, b = _frac_list(f), _frac_list(g)
    while b:
        a, b = b, _frac_divmod(a, b)[1]
    return _primitive(a)


def is_squarefree(f: IntPolynomial) -> bool:
    if f.degree < 2:
        return not f.is_zero
    return poly_gcd(f, f.derivative()).degree == 0


def squarefree_part(f: IntPolynomial) -> IntPolynomial:
    """f divided exactly by gcd(f, f'), made primitive."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no squarefree part")
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return f
    quot, rem = _frac_divmod(_frac_list(f), _frac_list(g))
    if rem:
        raise ValueError("gcd does not divide the polynomial; coefficients corrupt")
    return _primitive(quot)


def cauchy_root_bound(f: IntPolynomial) -> int:
    """Integer B with every real root of f strictly inside (-B, B)."""
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    lead = abs(f.leading)
    worst = max(abs(c) for c in f.coeffs[:-1])
    return 2 + worst // lead


def count_roots_between(f: IntPolynomial, lo: Fraction, hi: Fraction, chain=None) -> int:
    """Number of distinct real roots of f in the open interval (lo, hi).

    Endpoints must not be roots.  chain, if given, is sturm_chain(squarefree_part(f)).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if chain is None:
        chain = sturm_chain(squarefree_part(f))
    at_lo = [_eval_frac(c, lo) for c in chain]
    at_hi = [_eval_frac(c, hi) for c in chain]
    if at_lo[0] == 0 or at_hi[0] == 0:
        raise ValueError("interval endpoint is a root")
    return _sign_variations(at_lo) - _sign_variations(at_hi)


def bisect_root(f: IntPolynomial, lo: Fraction, hi: Fraction,
                max_width: Fraction) -> Enclosure:
    """Halve [lo, hi], whose ends f gives opposite nonzero signs, until it is at
    most max_width wide; a midpoint that is the root comes back as a point."""
    s_lo = f(lo)
    sign_lo = (s_lo > 0) - (s_lo < 0)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        v = f(mid)
        if v == 0:
            return Enclosure(mid, mid)
        if ((v > 0) - (v < 0)) == sign_lo:
            lo = mid
        else:
            hi = mid
    return Enclosure(lo, hi)
