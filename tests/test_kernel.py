"""Property tests of the fixed-point enclosure kernel against mpmath.

mpmath's interval context at 4,200 bits gives a rigorous enclosure of each
true value; a kernel enclosure must contain it and be no wider than asked.
Radical enclosures are pinned exactly: [z, z + 1] / 2^k with
z = floor(2^k * a^(1/m)), checked by integer powers.
"""

import contextlib
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import iv
from mpmath.libmp import to_rational

from irratcert import constants, intpoly
from irratcert.algebraic import isolate_real_roots
from irratcert.constants import (AlgebraicRoot, CosInv, CosOf, E, EPow,
                                 ERational, InvE, Root, SinInv, SinOf, Sqrt,
                                 canonical_text, enclose, integer_nth_root,
                                 parse_constant)
from irratcert.enclosure import Enclosure
from irratcert.intpoly import IntPolynomial
from irratcert.verify import ConstantCache

from oracles import exp_term_loop, fraction_bisect_root, trig_term_loop

ORACLE_BITS = 4200
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _truth(interval) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of the mpmath interval interval() at ORACLE_BITS."""
    saved, iv.prec = iv.prec, ORACLE_BITS
    try:
        v = interval()
    finally:
        iv.prec = saved
    lo, hi = (Fraction(*to_rational(raw)) for raw in v._mpi_)
    return lo, hi


def _at(fn, x: Fraction) -> tuple[Fraction, Fraction]:
    return _truth(lambda: fn(iv.mpf(x.numerator) / x.denominator))


def _assert_encloses(enc, truth, max_width):
    lo, hi = truth
    assert enc.hi - enc.lo <= max_width
    assert enc.lo <= lo and hi <= enc.hi, (enc, float(lo))


def _rationals(limit):
    """Nonzero n/d with d <= 64 and |n/d| <= limit."""
    return st.integers(1, 64).flatmap(lambda d: st.builds(
        Fraction, st.integers(-limit * d, limit * d).filter(bool), st.just(d)))


# widths num/den * 2^-k: down to about 2^-2010, up to 1000, mostly not dyadic
widths = st.builds(lambda k, num, den: Fraction(num, den << k),
                   st.integers(0, 2000), st.integers(1, 1000), st.integers(1, 1000))


@PROPERTY
@given(x=_rationals(12), max_width=widths)
def test_exp_encloses_truth(x, max_width):
    _assert_encloses(enclose(ERational(x), max_width), _at(iv.exp, x), max_width)


@PROPERTY
@given(x=_rationals(40), max_width=widths)
def test_sin_encloses_truth_inside_unit_range(x, max_width):
    enc = enclose(SinOf(x), max_width)
    _assert_encloses(enc, _at(iv.sin, x), max_width)
    assert -1 <= enc.lo <= enc.hi <= 1


@PROPERTY
@given(x=_rationals(40), max_width=widths)
def test_cos_encloses_truth_inside_unit_range(x, max_width):
    enc = enclose(CosOf(x), max_width)
    _assert_encloses(enc, _at(iv.cos, x), max_width)
    assert -1 <= enc.lo <= enc.hi <= 1


@pytest.mark.parametrize("spec, fn", [
    (ERational(Fraction(12)), iv.exp), (ERational(Fraction(-12)), iv.exp),
    (ERational(Fraction(1, 3)), iv.exp), (SinOf(Fraction(40)), iv.sin),
    (CosOf(Fraction(-37, 3)), iv.cos), (CosOf(Fraction(1, 7)), iv.cos),
])
@pytest.mark.parametrize("bits", [1, 50, 700])
def test_starved_precision_is_raised_until_the_width_fits(monkeypatch, spec, fn, bits):
    # four guard bits leave the rounding error wider than the request, so
    # the sums must be redone at a finer scale
    monkeypatch.setattr(constants, "_series_precision",
                        lambda x, w: constants._grid_bits(*w.as_integer_ratio()) + 4)
    x = spec.r if isinstance(spec, ERational) else spec.x
    max_width = Fraction(1, 2 ** bits)
    _assert_encloses(enclose(spec, max_width), _at(fn, x), max_width)


# widths from 2^-1 down to 2^-4000, scaled by num/den <= 1, so mostly not dyadic
deep_widths = st.builds(lambda k, num, den: Fraction(min(num, den), max(num, den) << k),
                        st.integers(1, 4000), st.integers(1, 1000), st.integers(1, 1000))
BIT_IDENTICAL = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _starving(starved):
    """Four guard bits, as in the test above, while starved."""
    if not starved:
        return contextlib.nullcontext()
    return mock.patch.object(constants, "_series_precision",
                             lambda x, w: constants._grid_bits(*w.as_integer_ratio()) + 4)


# the kernels skip the tail bound while its bits rule out an exit; each must
# return what the term loop that forms it after every term returns.  The
# starved examples take the redo at a finer scale; the others exit within 3
# bits of the skip test, so a test 3 bits looser would change them
@BIT_IDENTICAL
@given(x=_rationals(12), max_width=deep_widths, starved=st.just(False))
@example(x=Fraction(12), max_width=Fraction(1, 2 ** 50), starved=True)
@example(x=Fraction(-12), max_width=Fraction(3, 5 << 700), starved=True)
@example(x=Fraction(1, 3), max_width=Fraction(1, 1 << 4000), starved=True)
@example(x=Fraction(284, 33), max_width=Fraction(857, 900 << 55), starved=False)
@example(x=Fraction(-277, 27), max_width=Fraction(725, 383 << 86), starved=False)
def test_exp_kernel_returns_the_term_loops_enclosure(x, max_width, starved):
    with _starving(starved):
        enc = constants._exp_enclosure(x, max_width)
    lo, hi, sums = exp_term_loop(x, max_width, starved)
    assert (enc.lo, enc.hi) == (lo, hi)
    assert sums > 1 or not starved


@BIT_IDENTICAL
@given(x=_rationals(40), max_width=deep_widths, first_power=st.sampled_from([0, 1]),
       starved=st.just(False))
@example(x=Fraction(40), max_width=Fraction(1, 2 ** 50), first_power=1, starved=True)
@example(x=Fraction(-37, 3), max_width=Fraction(7, 9 << 700), first_power=0, starved=True)
@example(x=Fraction(1, 7), max_width=Fraction(5, 7 << 3999), first_power=0, starved=True)
@example(x=Fraction(-381, 20), max_width=Fraction(951, 988 << 84), first_power=0, starved=False)
@example(x=Fraction(-12), max_width=Fraction(3, 25 << 216), first_power=1, starved=False)
def test_trig_kernel_returns_the_term_loops_enclosure(x, max_width, first_power, starved):
    with _starving(starved):
        enc = constants._trig_enclosure(x, max_width, first_power)
    lo, hi, sums = trig_term_loop(x, max_width, first_power, starved)
    assert (enc.lo, enc.hi) == (lo, hi)
    assert sums > 1 or not starved


def _fewest_bits(max_width):
    k = 0
    while Fraction(1, 2 ** k) > max_width:
        k += 1
    return k


@PROPERTY
@given(a=st.integers(2, 10 ** 12), m=st.integers(2, 7), max_width=widths)
def test_radical_enclosure_is_the_dyadic_floor_bracket(a, m, max_width):
    assume(integer_nth_root(a, m) ** m != a)
    spec = Sqrt(a) if m == 2 else Root(a, m)
    enc = enclose(spec, max_width)
    k = _fewest_bits(max_width)
    assert enc.hi - enc.lo == Fraction(1, 2 ** k)
    z = enc.lo * 2 ** k
    assert z.denominator == 1
    z = int(z)
    assert z ** m < a << (m * k) < (z + 1) ** m


KINDS = [
    (Sqrt(2), lambda: iv.sqrt(2)),
    (Root(5, 3), lambda: iv.exp(iv.log(5) / 3)),
    (E(), lambda: iv.exp(1)),
    (InvE(), lambda: iv.exp(-1)),
    (EPow(7), lambda: iv.exp(7)),
    (ERational(Fraction(-11, 3)), lambda: iv.exp(iv.mpf(-11) / 3)),
    (SinInv(3), lambda: iv.sin(iv.mpf(1) / 3)),
    (CosInv(2), lambda: iv.cos(iv.mpf(1) / 2)),
    (SinOf(Fraction(22, 7)), lambda: iv.sin(iv.mpf(22) / 7)),
    (CosOf(Fraction(-31, 2)), lambda: iv.cos(iv.mpf(-31) / 2)),
]


@pytest.mark.parametrize("spec, truth", KINDS, ids=[canonical_text(s) for s, _ in KINDS])
def test_every_kind_matches_mpmath_at_2_pow_minus_2000(spec, truth):
    max_width = Fraction(1, 2 ** 2000)
    _assert_encloses(enclose(spec, max_width), _truth(truth), max_width)


CUBIC = IntPolynomial((-5, -2, 0, 1))  # x^3 - 2x - 5, Wallis's cubic


def test_algebraic_root_matches_mpmath_at_2_pow_minus_2000():
    max_width = Fraction(1, 2 ** 2000)
    enc = enclose(AlgebraicRoot(CUBIC, 2, 3), max_width)
    with mpmath.workprec(ORACLE_BITS):
        v = mpmath.findroot(lambda t: t ** 3 - 2 * t - 5, mpmath.mpf(2))
        v = Fraction(*to_rational(v._mpf_))
    # the sign change pins the one root of the bracket within 2^-4000 of v
    eps = Fraction(1, 2 ** 4000)
    assert CUBIC(v - eps) < 0 < CUBIC(v + eps)
    assert enc.hi - enc.lo <= max_width
    assert enc.lo <= v - eps and v + eps <= enc.hi


def test_algebraic_root_at_2_pow_minus_20000_by_a_newton_jump(monkeypatch):
    confirmed = []
    confirm = intpoly._confirm

    def recording(*args):
        confirmed.append(confirm(*args))
        return confirmed[-1]
    monkeypatch.setattr(intpoly, "_confirm", recording)
    max_width = Fraction(1, 2 ** 20000)
    enc = enclose(AlgebraicRoot(CUBIC, 2, 3), max_width)
    assert enc.hi - enc.lo == max_width
    assert CUBIC(enc.lo) < 0 < CUBIC(enc.hi)
    assert len(confirmed) == 1 and confirmed[0] is not None


def test_algebraic_root_matches_fraction_bisection_at_2_pow_minus_2000():
    max_width = Fraction(1, 2 ** 2000)
    enc = enclose(AlgebraicRoot(CUBIC, 2, 3), max_width)
    assert (enc.lo, enc.hi) == fraction_bisect_root(CUBIC.coeffs, 2, 3, max_width)


def test_an_exact_rational_root_comes_back_as_a_point_at_a_deep_width():
    # 2 + 2^-3000 + 2^-4000 is a midpoint after 4,000 halvings of (2, 3),
    # past the first Newton jump; x^2 - 2 has no root in (2, 3)
    root = 2 + Fraction(1, 2 ** 3000) + Fraction(1, 2 ** 4000)
    poly = IntPolynomial((-root.numerator, root.denominator)) * IntPolynomial((-2, 0, 1))
    enc = intpoly.bisect_root(poly, 2, 3, Fraction(1, 2 ** 10000))
    assert enc.lo == enc.hi == root
    # a width the halving stops short of gives the cell around it
    enc = intpoly.bisect_root(poly, 2, 3, Fraction(1, 2 ** 3999))
    assert enc.lo < root < enc.hi and enc.hi - enc.lo == Fraction(1, 2 ** 3999)
    # the spec knows the root is rational, so every width gives the point
    spec = AlgebraicRoot(poly, 2, 3)
    assert spec.rational == root
    for width in (Fraction(1, 2 ** 10000), Fraction(1, 2 ** 3999), Fraction(1)):
        assert enclose(spec, width) == Enclosure(root, root)


_fractions = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30).filter(bool),
                       st.integers(1, 10 ** 30))


@st.composite
def _algebraic_roots(draw):
    """x^2 - D times rational roots, one of its isolated brackets."""
    f = IntPolynomial((-draw(st.integers(2, 10 ** 6)), 0, 1))
    for r in draw(st.lists(_fractions, max_size=3)):
        f = f * IntPolynomial((-r.numerator, r.denominator))
    assume(len(intpoly.sturm_chain(f)[-1]) == 1)
    brackets = isolate_real_roots(f)
    br = brackets[draw(st.integers(0, len(brackets) - 1))]
    return AlgebraicRoot(f, br.lo, br.hi)


def _non_power(m):
    return st.integers(2, 10 ** 40).filter(lambda a: integer_nth_root(a, m) ** m != a)


SPECS = st.one_of(
    _non_power(2).map(Sqrt),
    st.integers(2, 9).flatmap(lambda m: _non_power(m).map(lambda a: Root(a, m))),
    st.just(E()), st.just(InvE()),
    st.integers(1, 10 ** 30).map(EPow), _fractions.map(ERational),
    st.integers(1, 10 ** 30).map(SinInv), st.integers(1, 10 ** 30).map(CosInv),
    _fractions.map(SinOf), _fractions.map(CosOf), _algebraic_roots())


# rationals of 4,300 to 4,500 digits, past the interpreter's default limit
# on int-to-str and str-to-int conversions
_long = st.integers(10 ** 4300, 10 ** 4500)
_long_fractions = st.builds(lambda sign, n, d: Fraction(sign * n, d),
                            st.sampled_from((-1, 1)), _long, st.one_of(st.just(1), _long))
# sqrt(2) bracketed by ends of 4,300 digits and more
_long_bracket = st.builds(lambda n: AlgebraicRoot(IntPolynomial((-2, 0, 1)), 1 + Fraction(1, n),
                                                  2 - Fraction(1, n)), _long)
LONG_SPECS = st.one_of(_long_fractions.map(ERational), _long_fractions.map(SinOf),
                       _long_fractions.map(CosOf), _long_bracket)


@PROPERTY
@given(spec=st.one_of(SPECS, LONG_SPECS))
def test_canonical_text_round_trips(spec):
    assert parse_constant(canonical_text(spec)) == spec


@PROPERTY
@given(m=st.integers(2, 9), a=st.one_of(st.integers(2, 2 ** 2000),
                                       st.integers(2 ** 10000, 2 ** 40000)),
       near=st.sampled_from((None, -1, 0, 1)))
def test_integer_nth_root_is_the_floor(m, a, near):
    # past 768 bits the Newton iteration starts from the root of a's top
    # half; perfect powers and their neighbours are where a start below the
    # root, or a stop one step early, would show
    if near is not None:
        a = max(integer_nth_root(a, m) ** m + near, 0)
    r = integer_nth_root(a, m)
    assert r ** m <= a < (r + 1) ** m


def _width_runs(width_strategy):
    """Lists of widths, rising, falling, or in the order drawn."""
    order = st.sampled_from([sorted, lambda ws: sorted(ws, reverse=True), list])
    return st.builds(lambda ws, arrange: arrange(ws),
                     st.lists(width_strategy, min_size=1, max_size=8), order)


def _grid_enclosure(cache, spec, max_width) -> Enclosure:
    """The cache's answer at max_width, [lo, hi] / 2^k, as an Enclosure."""
    k, lo, hi = cache.grid(spec, *Fraction(max_width).as_integer_ratio())
    return Enclosure(Fraction(lo, 2 ** k), Fraction(hi, 2 ** k))


@PROPERTY
@given(kind=st.integers(0, len(KINDS) - 1), run=_width_runs(widths),
       fill=st.one_of(st.integers(0, 8), st.integers(2100, 4000)))
def test_cache_answers_contain_the_value_within_the_width(kind, run, fill):
    # certify fills the cache first at the precision of its last row: the
    # first request here is at a few bits or at 2,100 to 4,000 (the oracle
    # has 4,200), below or above the widths that follow (2^-2010 to 1000)
    spec, truth = KINDS[kind]
    exact = _truth(truth)
    cache = ConstantCache()
    for max_width in [Fraction(1, 2 ** fill), *run]:
        enc = _grid_enclosure(cache, spec, max_width)
        _assert_encloses(enc, exact, max_width)
        if isinstance(spec, (Sqrt, Root)):
            assert enc == enclose(spec, max_width)


@PROPERTY
@given(run=_width_runs(st.builds(lambda k, num: Fraction(num, 1 << k),
                                 st.integers(0, 300), st.integers(1, 1000))))
def test_cache_answers_for_an_algebraic_root(run):
    # x^3 - 2x - 5 rises through its one root in (2, 3), and rounding to a
    # grid of 2^-k with k >= 2 keeps both endpoints in [2, 3]
    spec = AlgebraicRoot(CUBIC, 2, 3)
    cache = ConstantCache()
    for max_width in run:
        enc = _grid_enclosure(cache, spec, max_width)
        assert enc.hi - enc.lo <= max_width
        assert CUBIC(enc.lo) <= 0 <= CUBIC(enc.hi)
