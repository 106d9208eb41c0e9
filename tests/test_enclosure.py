"""Tests for the rational interval type, and for the interval arithmetic the
test oracles form residuals by (`oracles.Interval`)."""

import fractions
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irratcert import enclosure
from irratcert.enclosure import DEFAULT_MAX_REFINE, Enclosure, refinement_budget
from oracles import Interval

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def test_construction_coerces_and_orders():
    e = Enclosure("1/3", 0.5)
    assert e.lo == Fraction(1, 3)
    assert e.hi == Fraction(1, 2)
    assert isinstance(e.lo, Fraction) and isinstance(e.hi, Fraction)
    with pytest.raises(ValueError):
        Enclosure(1, 0)


def test_point_and_width():
    p = Interval.point(Fraction(3, 7))
    assert p.is_point
    assert p.width == 0
    assert Interval(1, 3).width == 2
    assert not Interval(1, 3).is_point


def test_contains_and_zero_exclusion():
    e = Interval(Fraction(-1, 2), Fraction(1, 3))
    assert e.contains(0)
    assert e.contains(Fraction(-1, 2))
    assert not e.contains(1)
    assert not e.excludes_zero()
    assert Interval(1, 2).excludes_zero()
    assert Interval(-2, -1).excludes_zero()
    # an endpoint touching zero does not exclude it
    assert not Interval(0, 1).excludes_zero()
    assert not Interval(-1, 0).excludes_zero()


def test_abs_extremes():
    assert Interval(-3, 2).max_abs() == 3
    assert Interval(-3, 2).min_abs() == 0
    assert Interval(1, 4).min_abs() == 1
    assert Interval(-4, -1).min_abs() == 1
    assert Interval(-4, -1).max_abs() == 4


def test_addition_subtraction_negation():
    a = Interval(1, 2)
    b = Interval(-1, 3)
    assert a + b == Interval(0, 5)
    assert a - b == Interval(-2, 3)
    assert -a == Interval(-2, -1)
    assert a + 1 == Interval(2, 3)
    assert 1 - a == Interval(-1, 0)
    assert 3 + a == Interval(4, 5)


def test_scalar_multiplication_sign_aware():
    a = Interval(1, 2)
    assert a * 3 == Interval(3, 6)
    assert a * -3 == Interval(-6, -3)
    assert -2 * a == Interval(-4, -2)
    assert a * 0 == Interval(0, 0)
    assert a * Fraction(1, 2) == Interval(Fraction(1, 2), 1)


def _grid():
    vals = [Fraction(k, 2) for k in range(-6, 7)]
    out = []
    for lo in vals:
        for hi in vals:
            if lo <= hi:
                out.append(Interval(lo, hi))
    return out


def test_interval_product_contains_all_pointwise_products():
    # exhaustive over a half-integer grid: the product enclosure must hold
    # x*y for x, y running over endpoints and midpoints of the factors
    for a in _grid():
        mids_a = [a.lo, (a.lo + a.hi) / 2, a.hi]
        for b in _grid():
            prod = a * b
            for x in mids_a:
                for y in (b.lo, (b.lo + b.hi) / 2, b.hi):
                    assert prod.lo <= x * y <= prod.hi


def test_intersect():
    a = Interval(0, 2)
    b = Interval(1, 3)
    assert a.intersect(b) == Interval(1, 2)
    assert b.intersect(a) == Interval(1, 2)
    assert a.intersect(Interval(2, 5)) == Interval(2, 2)
    with pytest.raises(ValueError):
        a.intersect(Interval(3, 4))


def test_floor_if_settled():
    assert Interval(Fraction(5, 2), Fraction(11, 4)).floor_if_settled() == 2
    assert Interval(Fraction(-3, 2), Fraction(-5, 4)).floor_if_settled() == -2
    assert Interval(Fraction(19, 10), Fraction(21, 10)).floor_if_settled() is None
    # integer point settles; interval with an interior integer does not
    assert Interval.point(4).floor_if_settled() == 4
    assert Interval(Fraction(7, 2), Fraction(9, 2)).floor_if_settled() is None


def test_refinement_budget_env(monkeypatch):
    monkeypatch.delenv("IRRATCERT_MAX_REFINE", raising=False)
    assert refinement_budget() == DEFAULT_MAX_REFINE
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", "123")
    assert refinement_budget() == 123


# ---------------------------------------------------------------------------
# Containment: every operation's result holds the result of the same
# operation on any points drawn from its operands.

_ends = st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=1000)
# where in [lo, hi] a point sits, the endpoints themselves included
_where = st.sampled_from((Fraction(0), Fraction(1))) | st.fractions(0, 1, max_denominator=97)


@st.composite
def _enclosure_and_point(draw):
    a, b = draw(_ends), draw(st.just(None) | _ends)
    lo, hi = (a, a) if b is None else (min(a, b), max(a, b))
    return Interval(lo, hi), lo + draw(_where) * (hi - lo)


@PROPERTY
@given(first=_enclosure_and_point(), second=_enclosure_and_point(),
       s=st.sampled_from((0, 1, -1)) | _ends)
@example(first=(Interval(-2, 3), Fraction(-2)), second=(Interval(-5, -1), Fraction(-5)), s=-3)
def test_arithmetic_contains_the_point_results(first, second, s):
    (a, x), (b, y) = first, second
    assert (a + b).contains(x + y)
    assert (a - b).contains(x - y)
    assert (a * b).contains(x * y)
    assert (-a).contains(-x)
    assert (a * s).contains(x * s) and (s * a).contains(s * x)
    assert (a + s).contains(x + s) and (s + a).contains(s + x)
    assert (a - s).contains(x - s) and (s - a).contains(s - x)


@PROPERTY
@given(first=_enclosure_and_point(), second=_enclosure_and_point())
@example(first=(Interval(0, 2), Fraction(2)), second=(Interval(2, 5), Fraction(2)))
@example(first=(Interval(0, 2), Fraction(1)), second=(Interval(3, 4), Fraction(3)))
def test_intersect_agrees_with_the_points(first, second):
    (a, x), (b, y) = first, second
    if a.hi < b.lo or b.hi < a.lo:
        with pytest.raises(ValueError, match="disjoint"):
            a.intersect(b)
        assert not b.contains(x) and not a.contains(y)
        return
    both = a.intersect(b)
    assert both == b.intersect(a)
    assert both.contains(x) == b.contains(x)
    assert both.contains(y) == a.contains(y)
    assert a.contains(both.lo) and b.contains(both.lo)
    assert a.contains(both.hi) and b.contains(both.hi)


@PROPERTY
@given(case=_enclosure_and_point())
@example(case=(Interval(-3, 2), Fraction(0)))
@example(case=(Interval(0, 0), Fraction(0)))
@example(case=(Interval(-4, -1), Fraction(-1)))
def test_abs_extremes_agree_with_the_points(case):
    a, x = case
    assert a.min_abs() <= abs(x) <= a.max_abs()
    # both are attained at a point of the enclosure
    assert a.contains(a.max_abs()) or a.contains(-a.max_abs())
    assert a.contains(a.min_abs()) or a.contains(-a.min_abs())
    assert (a.min_abs() == 0) == a.contains(0)


# ---------------------------------------------------------------------------
# Enclosure._grid(x, y, k) must build Fraction(x, 2^k) and Fraction(y, 2^k)
# exactly, whichever constructor `_COPRIME` holds.

_numerators = (st.sampled_from((0, 1, -1)) | st.integers(-2 ** 200, 2 ** 200)
               | st.builds(lambda m, t: m << t, st.integers(-2 ** 64, 2 ** 64),
                           st.integers(0, 500)))
_OVER_THE_DIGIT_LIMIT = 10 ** 4400 + 1


def _same_fraction(x, y):
    assert type(x) is Fraction
    assert (x, x.numerator, x.denominator, hash(x)) == (y, y.numerator, y.denominator, hash(y))


def test_coprime_constructor_skips_the_gcd(monkeypatch):
    chosen = enclosure._coprime_constructor()
    # made by object.__new__ with the slots set, on every supported Python
    assert chosen is not Fraction and chosen.__name__ == "coprime"
    assert enclosure._COPRIME.__name__ == "coprime"
    gcds = []

    def counting(a, b, _gcd=math.gcd):
        gcds.append((a, b))
        return _gcd(a, b)
    monkeypatch.setattr(fractions.math, "gcd", counting)
    assert (Fraction(6, 4).numerator, len(gcds)) == (3, 1)
    gcds.clear()
    # a pair not in lowest terms stays as given: no gcd was taken
    unreduced = chosen(6, 4)
    assert type(unreduced) is Fraction
    assert (unreduced.numerator, unreduced.denominator, gcds) == (6, 4, [])


def _repr_or_error(x):
    try:
        return repr(x)
    except ValueError as exc:   # past the int-to-str digit limit
        return type(exc)


@PROPERTY
@given(n=_numerators, d=st.integers(1, 2 ** 200) | st.integers(1, 50))
@example(n=0, d=1)
@example(n=0, d=7)
@example(n=-1, d=1)
@example(n=-(3 << 300), d=5 ** 40)
@example(n=10 ** 4400, d=3)
@example(n=-_OVER_THE_DIGIT_LIMIT, d=2 ** 64)
@example(n=_OVER_THE_DIGIT_LIMIT, d=7 ** 90)
def test_coprime_constructor_equals_the_fraction(n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g
    x, y = enclosure._coprime_constructor()(n, d), Fraction(n, d)
    _same_fraction(x, y)
    assert _repr_or_error(x) == _repr_or_error(y)
    for got, want in ((x + 0, y + 0), (x * 1, y * 1), (-x, -y), (x + x, y + y)):
        _same_fraction(got, want)


def test_grid_falls_back_to_the_plain_constructor(monkeypatch):
    calls = []

    def plain(n, d):
        # has no slots to set
        calls.append((n, d))
        return Fraction(n, d)
    fallback = enclosure._coprime_constructor(plain)
    assert fallback is plain
    monkeypatch.setattr(enclosure, "_COPRIME", fallback)
    # Enclosure._grid must read the constructor at call time, not one it
    # captured at import
    ends = ((0, 0, 0), (-12, 0, 0), (0, 5, 3), (-(3 << 10), 1 << 9, 4),
            (-(5 << 40), 6 << 50, 41), (-7, _OVER_THE_DIGIT_LIMIT, 9))
    for x, y, k in ends:
        enc = Enclosure._grid(x, y, k)
        _same_fraction(enc.lo, Fraction(x, 2 ** k))
        _same_fraction(enc.hi, Fraction(y, 2 ** k))
    assert len(calls) == 2 * len(ends)


@PROPERTY
@given(x=_numerators, y=_numerators, k=st.integers(0, 600))
@example(x=5, y=5, k=3)
@example(x=6, y=-6, k=2)
@example(x=0, y=0, k=0)
@example(x=0, y=0, k=77)
@example(x=-12, y=-12, k=0)
@example(x=-(3 << 300), y=3 << 300, k=5)
@example(x=3 << 300, y=3 << 300, k=301)
@example(x=10 ** 4400, y=10 ** 4400, k=100)
@example(x=-10 ** 4400, y=0, k=5000)
@example(x=-1, y=_OVER_THE_DIGIT_LIMIT, k=64)
@example(x=_OVER_THE_DIGIT_LIMIT, y=-1, k=64)
def test_grid_enclosure_equals_the_public_constructor(x, y, k):
    # Enclosure._grid orders its ends on the integers; it must build what
    # Enclosure(lo, hi) builds, and refuse what it refuses, in the same words
    lo, hi = Fraction(x, 2 ** k), Fraction(y, 2 ** k)
    if x > y:
        with pytest.raises(ValueError) as public:
            Enclosure(lo, hi)
        with pytest.raises(ValueError) as grid:
            Enclosure._grid(x, y, k)
        assert str(grid.value) == str(public.value)
        return
    enc = Enclosure._grid(x, y, k)
    _same_fraction(enc.lo, lo)
    _same_fraction(enc.hi, hi)
    assert enc == Enclosure(lo, hi) and hash(enc) == hash(Enclosure(lo, hi))
