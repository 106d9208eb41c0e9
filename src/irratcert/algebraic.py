"""Power-form reduction, monic transforms, and exact root classification.

A power form is the coefficient vector of an integer combination
sum(d_l * alpha^l), 0 <= l < deg(modulus), for alpha a root of a monic
integer modulus.  Reduction rewrites any higher-degree combination into
that canonical window by eliminating the top power repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import NotMonicError, NotSquarefreeError
from .intpoly import (IntPolynomial, cauchy_root_bound, count_roots_between,
                      sturm_chain)


@dataclass(frozen=True)
class PowerForm:
    """Coefficients (d_0, ..., d_{m-1}) of an integer power combination."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def reduce_power_form(modulus: IntPolynomial, c: Sequence[int]) -> PowerForm:
    """Rewrite sum(c_k alpha^k) below deg(modulus) using the monic relation.

    The top coefficient is folded down one step at a time via
    alpha^m = -sum(b_k alpha^k); integer arithmetic throughout.
    """
    if not modulus.is_monic:
        raise NotMonicError(f"modulus must be monic, leading coefficient is {modulus.leading}")
    m = modulus.degree
    if m < 1:
        raise ValueError("modulus must have degree >= 1")
    b = modulus.coeffs[:m]
    work = [int(x) for x in c]
    while len(work) > m:
        top = work.pop()
        if top == 0:
            continue
        shift = len(work) - m
        for k in range(m):
            work[shift + k] -= b[k] * top
    work.extend([0] * (m - len(work)))
    return PowerForm(tuple(work))


def monic_certificate(modulus: IntPolynomial, z: int, n: int) -> PowerForm:
    """Power form of (alpha - z)**n reduced by the modulus, by repeated squaring."""
    if n < 0:
        raise ValueError("exponent must be >= 0")
    acc = reduce_power_form(modulus, (1,)).coeffs
    for bit in bin(n)[2:]:
        work = [0] * (2 * len(acc) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(acc):
                work[i + j] += a * b
        if bit == "1":
            # times (alpha - z): shift up one power, subtract z times the unshifted
            work = [0] + work
            for i in range(len(work) - 1):
                work[i] -= z * work[i + 1]
        acc = reduce_power_form(modulus, work).coeffs
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


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n|, ascending; none for n = 0.

    |n| is factored by trial division over a shrinking cofactor, so the
    search ends near the square root of what is left once the small primes
    are divided out, not of |n|; the divisors are built from the prime powers.
    """
    n = abs(n)
    if n == 0:
        return []
    divisors = [1]
    p = 2
    while p * p <= n:
        if n % p == 0:
            powers = [1]
            while n % p == 0:
                n //= p
                powers.append(powers[-1] * p)
            divisors = [d * pk for d in divisors for pk in powers]
        p += 1 if p == 2 else 2
    if n > 1:
        divisors += [d * n for d in divisors]
    return sorted(divisors)


def integer_root_test(g: IntPolynomial) -> list[int]:
    """All integer roots of a monic g, by trying divisors of the constant term.

    Candidates are tested in order of absolute value, positive first; a zero
    constant term contributes the root 0.
    """
    if not g.is_monic:
        raise NotMonicError(f"integer root test needs a monic input, leading is {g.leading}")
    roots = []
    coeffs = list(g.coeffs)
    shift = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.append(0)
    h = IntPolynomial(coeffs)
    if h.degree < 1:
        return roots
    for d in _divisors(h.coeffs[0]):
        if h(d) == 0:
            roots.append(d)
        if h(-d) == 0:
            roots.append(-d)
    return roots


@dataclass(frozen=True)
class RootBracket:
    """Open rational interval with a sign change isolating one real root."""

    lo: Fraction
    hi: Fraction
    poly: IntPolynomial

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo >= self.hi:
            raise ValueError("bracket needs lo < hi")
        flo, fhi = self.poly(self.lo), self.poly(self.hi)
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            raise ValueError("bracket endpoints must straddle a sign change")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self, max_width: Fraction) -> "RootBracket":
        """Shrink by repeated splitting until width <= max_width.

        Split points that happen to be roots are stepped around, so the
        endpoint sign-change invariant survives refinement.
        """
        max_width = Fraction(max_width)
        lo, hi = self.lo, self.hi
        sign_lo = 1 if self.poly(lo) > 0 else -1
        while hi - lo > max_width:
            mid = _interior_nonroot(self.poly, lo, hi)
            if (self.poly(mid) > 0) == (sign_lo > 0):
                lo = mid
            else:
                hi = mid
        return RootBracket(lo, hi, self.poly)


def _interior_nonroot(f: IntPolynomial, lo: Fraction, hi: Fraction) -> Fraction:
    """An interior point that is not a root; tries the midpoint first.

    f has at most deg(f) roots, so scanning deg(f) + 2 distinct interior
    points always finds one.
    """
    span = hi - lo
    mid = lo + span / 2
    if f(mid) != 0:
        return mid
    for i in range(1, f.degree + 3):
        x = lo + span * Fraction(i, 2 * i + 1)
        if f(x) != 0:
            return x
    raise AssertionError("unreachable: more roots than the degree allows")


def isolate_real_roots(f: IntPolynomial) -> list[RootBracket]:
    """Disjoint brackets, one per distinct real root, each of width <= 1/4.

    Sturm-chain sign variations drive the splitting, so the count in every
    interval is exact.  f must be squarefree: the chain, built once, ends in
    gcd(f, f') up to a factor, which must be a constant.
    """
    if f.degree < 1:
        raise ValueError("polynomial must have degree >= 1")
    chain = sturm_chain(f)
    if len(chain[-1]) > 1:
        raise NotSquarefreeError("repeated roots; divide out gcd(f, f') first")
    bound = cauchy_root_bound(f)
    lo, hi = Fraction(-bound), Fraction(bound)
    found: list[RootBracket] = []
    stack = [(lo, hi, count_roots_between(f, lo, hi, chain))]
    while stack:
        a, b, count = stack.pop()
        if count == 0:
            continue
        if count == 1 and f(a) * f(b) < 0:
            found.append(RootBracket(a, b, f))
            continue
        mid = _interior_nonroot(f, a, b)
        left = count_roots_between(f, a, mid, chain)
        stack.append((a, mid, left))
        stack.append((mid, b, count - left))
    found.sort(key=lambda br: br.lo)
    return [br.refine(Fraction(1, 4)) for br in found]


@dataclass(frozen=True)
class RootClassification:
    """Verdict for one isolated root: its exact rational value, or irrational."""

    bracket: RootBracket
    rational_value: Optional[Fraction]

    @property
    def is_irrational(self) -> bool:
        return self.rational_value is None


def classify_roots(f: IntPolynomial) -> list[RootClassification]:
    """Exact rational-or-irrational verdict for every real root of f.

    The monic transform g has integer roots exactly where f has rational
    ones (scaled by the leading coefficient), and the integer root test is
    exhaustive, so the verdict involves no numeric tolerance at all.
    """
    brackets = isolate_real_roots(f)
    a = f.leading
    g = monic_transform(f)
    int_roots = integer_root_test(g)
    out = []
    for br in brackets:
        s_lo, s_hi = sorted((a * br.lo, a * br.hi))
        value = None
        for z in int_roots:
            if s_lo < z < s_hi:
                value = Fraction(z, a)
                break
        out.append(RootClassification(br, value))
    return out
