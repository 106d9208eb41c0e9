"""Power-form reduction, monic transforms, and exact root classification.

A power form is the coefficient vector of an integer combination
sum(d_l * alpha^l), 0 <= l < deg(modulus), for alpha a root of a monic
integer modulus.  Reduction rewrites any higher-degree combination into
that canonical window: its remainder by the monic modulus, from intpoly's
pseudo-division.

Real roots are isolated by counts on an integer Sturm chain, and
`classify_roots` decides each one's rationality exactly by
`intpoly.rational_root`.  Every sign on the way is read on integers by
`intpoly.sign_at`: isolation carries each interval as integers (a, b, s) for
[a, b] / s with the chain's sign variations at a / s, reads each point's
signs once, and builds Fractions only for the brackets and roots returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import NotMonicError, NotSquarefreeError
from .enclosure import _frozen, _grid_bits, _record
from .intpoly import (IntPolynomial, _convolve, _narrow, _pdivmod, _sign_variations,
                      _signs_at_infinity, cauchy_root_bound, rational_root, sign_at,
                      squarefree_part, sturm_chain)
# unused here, where isolation counts on its own chain; imported only for
# perfbench/tracing.py to wrap
from .intpoly import count_roots_between


@_record
class PowerForm:
    """Coefficients (d_0, ..., d_{m-1}) of an integer power combination."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def reduce_power_form(modulus: IntPolynomial, c: Sequence[int]) -> PowerForm:
    """Rewrite sum(c_k alpha^k) below deg(modulus): the remainder of c by the
    monic modulus, from intpoly's pseudo-division, padded to deg(modulus)
    entries; integer arithmetic throughout."""
    if not modulus.is_monic:
        raise NotMonicError(f"modulus must be monic, leading coefficient is {modulus.leading}")
    m = modulus.degree
    if m < 1:
        raise ValueError("modulus must have degree >= 1")
    rem = _pdivmod([int(x) for x in c], modulus.coeffs)[1]
    return PowerForm(rem + [0] * (m - len(rem)))


def monic_certificate(modulus: IntPolynomial, z: int, n: int) -> PowerForm:
    """Power form of (alpha - z)**n reduced by the modulus, by repeated squaring."""
    if n < 0:
        raise ValueError("exponent must be >= 0")
    acc = reduce_power_form(modulus, (1,)).coeffs
    for bit in bin(n)[2:]:
        other = acc if bit == "0" else _convolve(acc, (-z, 1))
        acc = reduce_power_form(modulus, _convolve(acc, other)).coeffs
    return PowerForm(acc)


def monic_transform(f: IntPolynomial) -> IntPolynomial:
    """Monic g with g(a*x) = a**(m-1) * f(x), a the leading coefficient of f.

    Roots of f correspond to roots of g scaled by a, so rational-root
    questions about f reduce to integer-root questions about g.
    """
    m = f.degree
    if m < 1:
        raise ValueError("polynomial must have degree >= 1")
    a = f.leading
    coeffs = [f.coeffs[k] * a ** (m - k - 1) for k in range(m)]
    coeffs.append(1)
    return IntPolynomial(coeffs)


def integer_root_test(g: IntPolynomial) -> list[int]:
    """All integer roots of a monic g, ascending: the rational roots that
    `classify_roots` finds on its squarefree part."""
    if not g.is_monic:
        raise NotMonicError(f"integer root test needs a monic input, leading is {g.leading}")
    if g.degree < 1:
        return []
    return [int(v.rational_value) for v in classify_roots(squarefree_part(g))
            if v.rational_value is not None and v.rational_value.denominator == 1]


@_record
class RootBracket:
    """Open rational interval with a sign change isolating one real root."""

    lo: Fraction
    hi: Fraction
    poly: IntPolynomial

    def __post_init__(self):
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo >= self.hi:
            raise ValueError("bracket needs lo < hi")
        flo, fhi = (sign_at(self.poly.coeffs, *x.as_integer_ratio()) for x in (self.lo, self.hi))
        if flo * fhi >= 0:
            raise ValueError("bracket endpoints must straddle a sign change")


def _interior_nonroot(coeffs, a: int, b: int, s: int) -> tuple[int, int, int]:
    """(t, x, sign): x / (s t) is a point inside [a, b] / s that is not a root,
    and f has that sign there; the midpoint is tried first, then the points
    i / (2i + 1) of the way across.

    f has at most deg(f) roots, so scanning deg(f) + 2 distinct interior
    points always finds one.
    """
    for i in range(len(coeffs) + 2):
        num, t = (i, 2 * i + 1) if i else (1, 2)
        x = a * (t - num) + b * num
        sign = sign_at(coeffs, x, s * t)
        if sign:
            return t, x, sign
    raise AssertionError("unreachable: more roots than the degree allows")


def isolate_real_roots(f: IntPolynomial) -> list[RootBracket]:
    """Disjoint brackets, one per distinct real root, each of width <= 1/4.

    Sturm-chain sign variations drive the splitting, so the count in every
    interval is exact.  f must be squarefree: the chain, built once, ends in
    gcd(f, f') up to a factor, which must be a constant.  Endpoints are never
    roots, so a one-root interval's root lies in the half where f changes
    sign; such an interval is halved by `intpoly._narrow` down to 1/4 wide,
    and split at another interior point where a midpoint is the root.  Each
    interval is integers (a, b, s) for [a, b] / s; Fractions are built only
    for the brackets returned.

    Each count is a difference of the chain's sign variations, and each
    point's are read once.  At -B and B, B = `cauchy_root_bound(f)`, they
    are those at -inf and +inf, read off the rows' leading coefficients.  A
    split point x of an interval with two or more roots gets the chain's
    values by `sign_at`, row 0's being f's sign there, and its left part
    holds var(a) - var(x) roots.
    """
    if f.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    chain = sturm_chain(f)
    if len(chain[-1]) > 1:
        raise NotSquarefreeError("repeated roots; divide out gcd(f, f') first")
    coeffs = f.coeffs
    bound = cauchy_root_bound(f)
    found: list[RootBracket] = []
    at_lo, at_hi = _signs_at_infinity(chain)
    var_lo = _sign_variations(at_lo)
    # (a, b, s, f's sign at a / s, the chain's variations there, roots
    # strictly between a / s and b / s)
    stack = [(-bound, bound, 1, at_lo[0], var_lo, var_lo - _sign_variations(at_hi))]
    while stack:
        a, b, s, sign_a, var_a, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            # the fewest halvings k with (b - a) / (s 2^k) <= 1/4
            a, b, s, hit = _narrow(coeffs, a, b, s, _grid_bits(s, 4 * (b - a)), sign_a)
            if not hit:
                # no end is a root (each is -B, B, a split point or a midpoint
                # `_narrow` found f nonzero at), and `_narrow` kept the half
                # where f changes sign: RootBracket.__post_init__'s check holds
                found.append(_frozen(RootBracket, lo=Fraction(a, s), hi=Fraction(b, s), poly=f))
                continue
        t, x, sign_x = _interior_nonroot(coeffs, a, b, s)
        a, b, s = a * t, b * t, s * t
        if count == 1:
            left = int(sign_x != sign_a)
        else:
            left = var_a - _sign_variations([sign_x] + [sign_at(row, x, s) for row in chain[1:]])
        stack.append((a, x, s, sign_a, var_a, left))
        stack.append((x, b, s, sign_x, var_a - left, count - left))
    found.sort(key=lambda br: br.lo)
    return found


@_record
class RootClassification:
    """Verdict for one isolated root: its exact rational value, or irrational."""

    bracket: RootBracket
    rational_value: Optional[Fraction]

    @property
    def is_irrational(self) -> bool:
        return self.rational_value is None


def classify_roots(f: IntPolynomial) -> list[RootClassification]:
    """Exact rational-or-irrational verdict for every real root of f, each
    decided by `intpoly.rational_root` on its isolating bracket."""
    return [RootClassification(br, rational_root(f, br.lo, br.hi))
            for br in isolate_real_roots(f)]
