"""Tests for integer polynomials and the Sturm machinery."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irratcert import intpoly
from irratcert.algebraic import isolate_real_roots
from irratcert.enclosure import Enclosure
from irratcert.errors import NotSquarefreeError
from irratcert.intpoly import (IntPolynomial, bisect_root, cauchy_root_bound,
                               count_roots_between, poly_gcd, sign_at,
                               squarefree_part, sturm_chain)

from oracles import (descartes_one_simple_root, fraction_bisect_root, fraction_horner,
                     fraction_poly_gcd, fraction_squarefree_part, fraction_sturm_chain,
                     fraction_sturm_count, is_squarefree)


def test_csv_round_trip_and_trimming():
    p = IntPolynomial.from_csv("1,1,-5,2")
    assert p.coeffs == (1, 1, -5, 2)
    assert p.to_csv() == "1,1,-5,2"
    assert IntPolynomial.from_csv("3,0,0").coeffs == (3,)
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    with pytest.raises(ValueError):
        IntPolynomial.from_csv("1,,2")
    with pytest.raises(ValueError):
        IntPolynomial.from_csv("1,two")


def test_degree_leading_monic_zero():
    z = IntPolynomial(())
    assert z.is_zero and z.degree == -1
    assert IntPolynomial((0,)).is_zero
    p = IntPolynomial((2, 0, 1))
    assert p.degree == 2 and p.leading == 1 and p.is_monic
    assert not IntPolynomial((1, 2)).is_monic


def test_evaluation():
    f = IntPolynomial((1, 1, -5, 2))
    assert f(0) == 1
    assert f(1) == -1
    assert f(Fraction(1, 2)) == Fraction(1 * 8 + 4 - 10 + 2, 8)
    assert isinstance(f(Fraction(1, 2)), Fraction)


def test_arithmetic_via_evaluation():
    rng = random.Random(77)
    points = [-3, -1, 0, 1, 2, 5]
    for _ in range(300):
        f = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        g = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        for t in points:
            assert (f + g)(t) == f(t) + g(t)
            assert (f - g)(t) == f(t) - g(t)
            assert (f * g)(t) == f(t) * g(t)
            assert (-f)(t) == -f(t)
            assert (f * 3)(t) == 3 * f(t)


@pytest.mark.parametrize("op", [
    lambda p: p * Fraction(1, 2),
    lambda p: Fraction(1, 2) * p,
    lambda p: p + 1,
    lambda p: 1 + p,
    lambda p: p - 1,
    lambda p: p * 0.5,
    lambda p: p * "x",
], ids=["p*Fraction", "Fraction*p", "p+1", "1+p", "p-1", "p*float", "p*str"])
def test_a_foreign_operand_is_a_type_error(op):
    p = IntPolynomial((1, 2))
    with pytest.raises(TypeError):
        op(p)
    # an int still scales, on either side
    assert 3 * p == p * 3 == IntPolynomial((3, 6))
    assert p * 0 == IntPolynomial()


def test_derivative_product_rule():
    rng = random.Random(78)
    for _ in range(100):
        f = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
        g = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
    assert IntPolynomial((5,)).derivative().is_zero
    assert IntPolynomial((1, 2, 3)).derivative() == IntPolynomial((2, 6))


def test_interval_horner_contains_pointwise_values():
    # f over [-3, 5] / 2 comes back as [x, y] / 2^3, 3 the degree
    f = IntPolynomial((1, -3, 0, 2))
    box = Enclosure(Fraction(-3, 2), Fraction(5, 2))
    x, y = intpoly._interval_horner(f.coeffs, -3, 5, 1)
    out = Enclosure(Fraction(x, 8), Fraction(y, 8))
    step = (box.hi - box.lo) / 16
    for i in range(17):
        x = box.lo + i * step
        assert out.lo <= f(x) <= out.hi


def _positive_multiple(row, ref) -> bool:
    """Whether the integer row is a positive rational multiple of ref."""
    ratio = Fraction(row[-1]) / ref[-1]
    return len(row) == len(ref) and ratio > 0 and all(r == ratio * c for r, c in zip(row, ref))


def test_sturm_chain_known_values():
    # chain for x^3 - 2x^2 + 3x - 5: the published rows over the rationals,
    # and the library's primitive integer rows, positive multiples of them
    f = IntPolynomial((-5, 3, -2, 1))
    published = [[Fraction(-5), Fraction(3), Fraction(-2), Fraction(1)],
                 [Fraction(3), Fraction(-4), Fraction(3)],
                 [Fraction(13, 3), Fraction(-10, 9)],
                 [Fraction(-3303, 100)]]
    chain = sturm_chain(f)
    assert len(chain) == len(published)
    for row, ref in zip(chain, published):
        assert all(type(c) is int for c in row)
        assert gcd(*row) == 1
        assert _positive_multiple(row, ref)
    assert chain == [[-5, 3, -2, 1], [3, -4, 3], [39, -10], [-1]]


def test_count_roots_between():
    f = IntPolynomial((-2, 0, 1))
    assert count_roots_between(f, 0, 2) == 1
    assert count_roots_between(f, -2, 2) == 2
    assert count_roots_between(f, 2, 3) == 0
    cubic = IntPolynomial((1, 1, -5, 2))
    assert count_roots_between(cubic, -1, 3) == 3
    assert count_roots_between(cubic, 0, Fraction(1, 2)) == 0
    # endpoints may not be roots
    with pytest.raises(ValueError):
        count_roots_between(IntPolynomial((-1, 1)), 1, 2)
    # non-squarefree input is counted through its squarefree part
    doubled = IntPolynomial((-1, 1)) * IntPolynomial((-1, 1))
    assert count_roots_between(doubled, 0, 2) == 1


def test_squarefree_detection_and_part():
    f = IntPolynomial((-1, 1))
    g = IntPolynomial((2, 1))
    assert is_squarefree(f * g)
    assert not is_squarefree(f * f * g)
    part = squarefree_part(f * f * g)
    assert part.degree == 2
    # same roots: check sign changes at the three integer points around them
    assert part(1) == 0 and part(-2) == 0
    assert squarefree_part(f * g) == f * g or squarefree_part(f * g) == -(f * g)


def test_poly_gcd():
    f = IntPolynomial((-1, 0, 1))   # (x-1)(x+1)
    g = IntPolynomial((-1, 1)) * IntPolynomial((3, 1))
    d = poly_gcd(f, g)
    assert d.degree == 1
    assert d(1) == 0


def test_cauchy_root_bound_contains_all_real_roots():
    rng = random.Random(79)
    assert cauchy_root_bound(IntPolynomial((-2, 0, 1))) >= 2
    for _ in range(60):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 6))]
        coeffs.append(rng.choice([1, 2, -3]))
        f = IntPolynomial(coeffs)
        if not is_squarefree(f):
            continue
        b = cauchy_root_bound(f)
        if f(-b) == 0 or f(b) == 0 or f(-b - 7) == 0 or f(b + 7) == 0:
            continue
        inside = count_roots_between(f, -b, b)
        wider = count_roots_between(f, -b - 7, b + 7)
        assert inside == wider


def test_zero_polynomial_has_no_squarefree_part():
    with pytest.raises(ValueError, match="zero polynomial"):
        squarefree_part(IntPolynomial())
    with pytest.raises(ValueError, match="zero polynomial"):
        count_roots_between(IntPolynomial(), Fraction(0), Fraction(1))


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
polys = st.lists(st.integers(-9, 9), min_size=2, max_size=6).map(IntPolynomial).filter(
    lambda f: f.degree >= 1)
rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@PROPERTY
@given(f=polys, g=polys, square=st.booleans())
def test_chain_squarefree_test_agrees_with_is_squarefree(f, g, square):
    f = f * f * g if square else f * g
    if is_squarefree(f):
        assert len(sturm_chain(f)[-1]) == 1
        assert len(isolate_real_roots(f)) == count_roots_between(
            f, -cauchy_root_bound(f), cauchy_root_bound(f))
    else:
        assert len(sturm_chain(f)[-1]) > 1
        with pytest.raises(NotSquarefreeError):
            isolate_real_roots(f)


# the witness shape: squarefree, degree 1 to 8, coefficients in -9..9
witness_polys = st.lists(st.integers(-9, 9), min_size=2, max_size=9).map(IntPolynomial).filter(
    lambda f: f.degree >= 1 and is_squarefree(f))


@PROPERTY
@given(f=witness_polys)
@example(f=IntPolynomial((9, 8, 6, 9, 5, -2, 1, -1)))                # dense, degree 7
@example(f=IntPolynomial((5, -1, -9, 6, -8, 6, 5, -4)))               # five real roots
@example(f=IntPolynomial((-12, -2, 98, -59, -114, 92, 22, -31, 6)))   # eight real roots
@example(f=IntPolynomial((5, -9)))
def test_variations_at_the_root_bound_are_read_off_the_leading_coefficients(f):
    # isolation takes the chain's variations at -B and B from the rows'
    # leading coefficients; evaluated there, the chain gives the same
    assert is_squarefree(f)
    chain, b = sturm_chain(f), cauchy_root_bound(f)
    at_lo, at_hi = intpoly._signs_at_infinity(chain)
    assert at_lo[0] == sign_at(f.coeffs, -b, 1)
    for ends, x in ((at_lo, -b), (at_hi, b)):
        assert (intpoly._sign_variations(ends)
                == intpoly._sign_variations([sign_at(row, x, 1) for row in chain]))


def test_a_count_without_a_chain_builds_one_remainder_sequence_for_a_squarefree_f(monkeypatch):
    # a squarefree f's own chain counts; only a repeated root, shown by the
    # chain's last row, sends the count to f divided by that row, gcd(f, f')
    # up to a factor, whose chain is the second sequence
    calls, chains = [], []
    sequence, chain_fn = intpoly._remainder_sequence, intpoly.sturm_chain

    def counting_sequence(f, g):
        calls.append((f, g))
        return sequence(f, g)

    def counting_chain(f):
        chains.append(f)
        return chain_fn(f)

    monkeypatch.setattr(intpoly, "_remainder_sequence", counting_sequence)
    monkeypatch.setattr(intpoly, "sturm_chain", counting_chain)
    squarefree = IntPolynomial((-2, 0, 1))
    assert count_roots_between(squarefree, 1, 2) == 1
    assert (len(calls), chains) == (1, [squarefree])
    calls.clear()
    chains.clear()
    repeated = IntPolynomial((-1, 1)) * IntPolynomial((-1, 1)) * IntPolynomial((2, 1))
    assert count_roots_between(repeated, -3, 2) == 2
    assert chains == [repeated, IntPolynomial((-2, 1, 1))]
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Integer signs and bisection against their Fraction references.

def _sign(v):
    return (v > 0) - (v < 0)


@PROPERTY
@given(coeffs=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8),
       p=st.integers(-10 ** 9, 10 ** 9), q=st.integers(1, 10 ** 9))
@example(coeffs=[-6, 1, 1], p=2, q=1)                  # (x - 2)(x + 3) at its root
@example(coeffs=[-6, 1, 1], p=-12, q=4)                # at -3, unreduced
@example(coeffs=[-1, 9, -27, 27], p=1, q=3)            # (3x - 1)^3 at its root
@example(coeffs=[], p=5, q=7)
def test_sign_at_is_the_sign_of_fraction_horner(coeffs, p, q):
    assert sign_at(coeffs, p, q) == _sign(fraction_horner(coeffs, Fraction(p, q)))


@PROPERTY
@given(f=polys, a=rationals, b=rationals)
def test_sturm_count_equals_the_fraction_count(f, a, b):
    lo, hi = min(a, b), max(a, b)
    assume(lo < hi and fraction_horner(f.coeffs, lo) != 0 and fraction_horner(f.coeffs, hi) != 0)
    want = fraction_sturm_count(fraction_sturm_chain(fraction_squarefree_part(f.coeffs)), lo, hi)
    assert count_roots_between(f, lo, hi) == want
    with pytest.raises(ValueError, match="need lo < hi"):
        count_roots_between(f, hi, lo)


# Sparse polynomials, whose remainders drop by more than one degree at a
# time, odd and even gaps alike, with leading coefficients of either sign;
# squared factors give chains that end in a gcd of positive degree.
sparse = st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5, -7)), min_size=2, max_size=9).map(
    IntPolynomial)
chain_polys = st.one_of(polys, sparse, st.builds(lambda f, g: f * f * g, polys, sparse))


@PROPERTY
@given(f=chain_polys)
@example(f=IntPolynomial((-1, 0, 0, 0, 0, -1)))        # -x^5 - 1: a gap of three
@example(f=IntPolynomial((2, 0, 0, -3)))               # -3x^3 + 2: a gap of two
@example(f=IntPolynomial((1, 0, -1, 0, 0, 0, -2)))     # lead -2, gaps of two and more
@example(f=IntPolynomial((4,)))
@example(f=IntPolynomial())
def test_integer_chain_rows_are_positive_multiples_of_the_fraction_rows(f):
    chain, ref = sturm_chain(f), fraction_sturm_chain(f.coeffs)
    assert len(chain) == len(ref)
    for row, want in zip(chain, ref):
        assert gcd(*row) == 1
        assert _positive_multiple(row, want)


@PROPERTY
@given(f=chain_polys, g=chain_polys)
@example(f=IntPolynomial(), g=IntPolynomial())
@example(f=IntPolynomial(), g=IntPolynomial((0, -2, 4)))
@example(f=IntPolynomial((-6, 3)), g=IntPolynomial())
def test_gcd_and_squarefree_part_equal_the_fraction_references(f, g):
    assert poly_gcd(f, g).coeffs == fraction_poly_gcd(f.coeffs, g.coeffs)
    if f.is_zero:
        assert not is_squarefree(f)
        with pytest.raises(ValueError, match="zero polynomial"):
            squarefree_part(f)
        return
    want = fraction_squarefree_part(f.coeffs)
    assert squarefree_part(f).coeffs == want
    assert is_squarefree(f) == (want == f.coeffs)


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


@PROPERTY
@given(num=st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=12),
       low=st.lists(st.integers(-9, 9), max_size=5),
       lead=st.integers(-6, 6).filter(bool))
@example(num=[], low=[1], lead=1)
@example(num=[3, 0, 0], low=[-2], lead=-1)                  # trailing zeros
@example(num=[0, 0, 0, 0, 1], low=[-3, 0], lead=2)
@example(num=[5, 4], low=[1, 2, 3], lead=4)                 # deg num < deg den
def test_pdivmod_is_a_pseudo_division(num, low, lead):
    # c num = quot den + rem, deg rem < deg den, c a power of |lead(den)|,
    # and c = 1 when lead(den) = +-1
    den = low + [lead]
    quot, rem = intpoly._pdivmod(num, den)
    assert len(IntPolynomial(rem).coeffs) < len(den)
    got = IntPolynomial(_times(quot, den)) + IntPolynomial(rem)
    f = IntPolynomial(num)
    if f.is_zero:
        assert got.is_zero
        return
    c, r = divmod(got.leading, f.leading)
    assert r == 0 and got == f * c
    assert c in [abs(lead) ** k for k in range(len(num) + 1)]
    if abs(lead) == 1:
        assert c == 1


@st.composite
def _root_products(draw):
    """Integer coefficients of degree 1 to 9: linear factors q x - p, roots
    often 0, 1 or repeated, times a random cofactor."""
    roots = st.sampled_from([(0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (-1, 2), (3, 2), (5, 7)])
    coeffs = [draw(st.integers(-5, 5).filter(bool))]
    for p, q in draw(st.lists(roots, max_size=6)):
        for _ in range(draw(st.sampled_from((1, 1, 2, 3)))):
            coeffs = _times(coeffs, [-p, q])
    coeffs = _times(coeffs, draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4)))
    assume(1 <= len(coeffs) - 1 <= 9 and coeffs[-1] != 0)
    return coeffs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=_root_products())
@example(g=[0, 1])                                          # the root 0 alone
@example(g=[-1, 1])                                         # the root 1 alone
@example(g=[-1, 2])                                         # 1/2, simple
@example(g=[1, -4, 4])                                      # 1/2, double
@example(g=_times([-1, 2], [-2, 3]))                        # two roots inside
def test_one_simple_root_matches_the_inline_count(g):
    assert intpoly._one_simple_root(g) == descartes_one_simple_root(g)


CUBIC = [-5, -2, 0, 1]                                  # x^3 - 2x - 5, root in (2, 3)
TRIPLE = _times([-1, 9, -27, 27], [1, 0, 1])           # (3x - 1)^3 (x^2 + 1)
# a root 2 + 2^-2000 of (2^2000 x - 2^2001 - 1)(x^2 + 1): on the bisection
# grid of (2, 3) after 2,000 halvings, so a deeper width gives a point
ON_GRID = _times([-(2 ** 2001 + 1), 2 ** 2000], [1, 0, 1])
# three roots 2 + k / (20 * 2^64), k = 1, 5, 9, all in the cell halving
# reaches after 64 steps: halving follows the middle one, Newton from the
# cell's middle the last, so no jump may be tried there
CLUSTER = [1]
for _k in (1, 5, 9):
    CLUSTER = _times(CLUSTER, [-(40 * 2 ** 64 + _k), 20 * 2 ** 64])


@st.composite
def _sign_changes(draw, max_bits):
    """(coeffs, lo, hi, max_width): f changes sign over [lo, hi], whose ends
    are often not dyadic.  f is x^2 + c times linear factors, some cubed;
    with on_grid one root sits on the bracket's bisection grid."""
    ends = st.builds(Fraction, st.integers(-200, 200), st.integers(1, 40))
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    bits = draw(st.integers(1, max_bits))
    coeffs = [draw(st.integers(1, 5)), 0, 1]
    if draw(st.booleans()):
        level = draw(st.integers(1, bits + 2))
        r = lo + (hi - lo) * Fraction(2 * draw(st.integers(0, 2 ** (level - 1) - 1)) + 1,
                                      2 ** level)
        coeffs = _times(coeffs, [-r.numerator, r.denominator])
    for p, q, power in draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12),
                                               st.sampled_from((1, 1, 3))), max_size=3)):
        for _ in range(power):
            coeffs = _times(coeffs, [-p, q])
    assume(_sign(fraction_horner(coeffs, lo)) * _sign(fraction_horner(coeffs, hi)) < 0)
    max_width = Fraction(draw(st.integers(1, 7)), draw(st.integers(1, 7)) << bits)
    return coeffs, lo, hi, max_width


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_sign_changes(300))
@example(case=(CUBIC, Fraction(2), Fraction(3), Fraction(1, 2 ** 3000)))
@example(case=(TRIPLE, Fraction(1, 7), Fraction(5, 11), Fraction(1, 2 ** 3000)))
@example(case=(ON_GRID, Fraction(2), Fraction(3), Fraction(1, 2 ** 2100)))
@example(case=(CUBIC, Fraction(2), Fraction(3), Fraction(1, 2)))
@example(case=(CLUSTER, Fraction(2), Fraction(3), Fraction(1, 2 ** 300)))
def test_bisect_root_equals_fraction_bisection(case):
    coeffs, lo, hi, max_width = case
    enc = bisect_root(IntPolynomial(coeffs), lo, hi, max_width)
    assert (enc.lo, enc.hi) == fraction_bisect_root(coeffs, lo, hi, max_width)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=_sign_changes(3000), guess=st.sampled_from((0, -1, None)))
def test_newton_jumps_land_where_halving_does(case, guess):
    # deep widths, where the Fraction reference is too slow: the result with
    # Newton jumps equals plain integer halving, and a wrong guess (the first
    # or last cell, or none) falls back to halving with the same result
    coeffs, lo, hi, max_width = case
    f = IntPolynomial(coeffs)
    want = bisect_root(f, lo, hi, max_width)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intpoly, "JUMP_LEVELS", 10 ** 9)
        assert bisect_root(f, lo, hi, max_width) == want
        mp.undo()
        mp.setattr(intpoly, "_newton_guess", lambda g, levels: (
            None if guess is None else guess % (1 << levels)))
        assert bisect_root(f, lo, hi, max_width) == want


def test_rational_text_with_an_exponent_past_the_cap_is_refused():
    # Fraction expands a decimal exponent at once, into a power of 10 with
    # that many digits; past 4300 the text is refused before that
    for text in ("1e-4301", "1E+4301", "1e-99999999999999999999", "2.5e4_301"):
        with pytest.raises(ValueError, match=re.escape(f"exponent of {text!r} exceeds 4300")):
            intpoly._from_rational_str(text)
    assert intpoly._from_rational_str("1e-4300") == Fraction(1, 10 ** 4300)
    assert intpoly._from_rational_str("1E+4300") == 10 ** 4300
    assert intpoly._from_rational_str("1e30") == 10 ** 30
