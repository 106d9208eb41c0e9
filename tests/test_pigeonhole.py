"""Tests for the bin-collision construction and the fractional-part criterion."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irratcert import pigeonhole
from irratcert.constants import (CosInv, E, EPow, ERational, InvE, Root,
                                 SinInv, SinOf, Sqrt)
from irratcert.enclosure import Enclosure
from irratcert.pigeonhole import (bin_placements, fractional_residual,
                                  pigeonhole_approximant)

from oracles import fraction_bin_placements, sqrt_bracket


def test_worked_examples():
    r = pigeonhole_approximant(Sqrt(2), 3)
    assert (r.q, r.p) == (3, 4)
    r = pigeonhole_approximant(Sqrt(2), 5)
    assert (r.q, r.p) == (5, 7)
    r = pigeonhole_approximant(E(), 1)
    assert (r.q, r.p) == (1, 2)


def test_residual_encloses_true_value():
    r = pigeonhole_approximant(Sqrt(2), 5)
    lo, hi = sqrt_bracket(2, 80)
    # residual must contain 5*sqrt(2) - 7
    assert r.residual.lo <= 5 * hi - 7
    assert 5 * lo - 7 <= r.residual.hi


def test_determinism():
    a = pigeonhole_approximant(SinInv(2), 40)
    b = pigeonhole_approximant(SinInv(2), 40)
    assert (a.p, a.q) == (b.p, b.q)
    assert a.residual == b.residual


def test_invariants_across_constants():
    specs = [Sqrt(2), Sqrt(3), Root(2, 3), E(), InvE(), EPow(2),
             ERational(Fraction(1, 2)), SinInv(1), CosInv(2),
             SinOf(Fraction(1, 3))]
    for spec in specs:
        for n in (1, 2, 3, 7, 20, 50):
            r = pigeonhole_approximant(spec, n)
            assert 0 < r.q <= n
            assert r.residual.max_abs() < Fraction(1, n)
            assert r.n == n


def test_rejects_bad_index():
    with pytest.raises(ValueError):
        pigeonhole_approximant(Sqrt(2), 0)


def test_fractional_residual_examples():
    # {6e} = 0.30969..., so the product sits near -0.21378
    enc = fractional_residual(6, E())
    assert Fraction(-214, 1000) < enc.lo <= enc.hi < Fraction(-2137, 10000)
    # {24e} = 0.23876..., product -0.181755...
    enc = fractional_residual(24, E())
    assert Fraction(-1818, 10000) < enc.lo <= enc.hi < Fraction(-1817, 10000)


def test_fractional_residual_range_and_width():
    for q in (1, 2, 5, -6, 17):
        enc = fractional_residual(q, Sqrt(2), Fraction(1, 10 ** 6))
        assert Fraction(-1, 4) <= enc.lo <= enc.hi <= 0
        assert enc.width <= Fraction(1, 10 ** 6)


def test_fractional_residual_negative_q_symmetry():
    # {-x} = 1 - {x} off the integers, and t(t-1) is symmetric about 1/2,
    # so the products for q and -q enclose the same value
    a = fractional_residual(6, E(), Fraction(1, 10 ** 9))
    b = fractional_residual(-6, E(), Fraction(1, 10 ** 9))
    assert a.lo <= b.hi and b.lo <= a.hi


def test_fractional_residual_factorial_denominators_shrink():
    # for q = n! against e the product tends to zero; spot-check 12 vs 3
    small = fractional_residual(factorial(12), E())
    big = fractional_residual(factorial(3), E())
    assert small.max_abs() < big.min_abs()
    ten = fractional_residual(factorial(10), E())
    assert Fraction(-1, 9) < ten.lo <= ten.hi < 0


def test_fractional_residual_rejects_zero():
    with pytest.raises(ValueError):
        fractional_residual(0, E())


@st.composite
def scan_cases(draw):
    """(lo, hi, n) around the widths pigeonhole_approximant tries.

    Denominators are dyadic or not; an enclosure may be a point; "edge"
    puts lo or hi where some multiple k*x is exactly i + j/n, an integer
    when j = 0.
    """
    n = draw(st.integers(1, 400))
    den = draw(st.one_of(st.integers(1, 10 ** 6), st.integers(0, 40).map(lambda e: 2 ** e)))
    width = Fraction(draw(st.integers(1, 64)), 4 * n * n * (n + 1) * draw(st.integers(1, 4)))
    if draw(st.integers(0, 3)) == 0:
        width = Fraction(0)
    if draw(st.booleans()):
        k, i, j = draw(st.integers(1, n)), draw(st.integers(-30, 30)), draw(st.integers(0, n - 1))
        edge = Fraction(i * n + j, k * n)
        lo = edge if draw(st.booleans()) else edge - width
    else:
        lo = Fraction(draw(st.integers(-10 ** 7, 10 ** 7)), den)
    return lo, lo + width, n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=scan_cases())
def test_integer_bin_scan_matches_fraction_placement(case):
    lo, hi, n = case
    assert bin_placements(Enclosure(lo, hi), n) == fraction_bin_placements(lo, hi, n)


def test_bin_scan_edge_examples():
    # 3 * (1/3) is exactly 1: a point settles it, any width above it does not
    assert bin_placements(Enclosure.point(Fraction(1, 3)), 3) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert bin_placements(Enclosure(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 9)),
                          3) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert bin_placements(Enclosure(Fraction(1, 3) - Fraction(1, 10 ** 9), Fraction(1, 3)),
                          3) is None
    # negative values floor downwards
    assert bin_placements(Enclosure.point(Fraction(-1, 4)), 2) == [(0, 0), (-1, 1), (-1, 1)]


def test_pigeonhole_makes_no_interval_product_per_multiple(monkeypatch):
    products, tries = [], []
    original_mul, original_enclose = Enclosure.__mul__, pigeonhole.enclose

    def counting_mul(self, other):
        products.append(other)
        return original_mul(self, other)

    def counting_enclose(c, width):
        tries.append(width)
        return original_enclose(c, width)

    monkeypatch.setattr(Enclosure, "__mul__", counting_mul)
    monkeypatch.setattr(pigeonhole, "enclose", counting_enclose)
    r = pigeonhole_approximant(E(), 1500)
    assert (r.p, r.q) == (2721, 1001)
    assert tries and len(products) <= 2 * len(tries)
