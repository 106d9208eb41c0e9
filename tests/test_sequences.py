"""Tests for the explicit approximant families and the transformation rules."""

import sys
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irratcert.errors import (BadIndexError, CapExceededError,
                              ChainMismatchError, DivisibilityViolationError,
                              PerfectPowerError, ZeroNumeratorError,
                              ZeroScaleError)
from irratcert.sequences import (_BOUND_WIDTH, Approximant, BoundedBy, compose_chain,
                                 cos_inv_m_approximant, e_approximant,
                                 e_squared_approximant, inv_e_approximant,
                                 e_squared_rows, factorial_rows, mth_root_form,
                                 reciprocal, rescale, root_rows, scaled_compose,
                                 sin_inv_m_approximant, sqrt_approximant, sqrt_rows,
                                 trig_rows)
from irratcert.constants import E, EPow, InvE, Root, SinInv, Sqrt, enclose, integer_nth_root
from irratcert.verify import pair_residual

from oracles import Interval, root_form_binomials, root_ring_power, sqrt_ring_power


def _residual(app, c):
    return pair_residual(app.p, app.q, c, (1, 10 ** 30))


def test_sqrt_worked_examples():
    app, bb = sqrt_approximant(2, 2)
    assert (app.p, app.q) == (7, 5)
    assert _residual(app, Sqrt(2)).lo > 0
    app, _ = sqrt_approximant(2, 3)
    assert (app.p, app.q) == (41, 29)
    app, _ = sqrt_approximant(3, 1)
    assert (app.p, app.q) == (1, 1)


def test_sqrt_matches_ring_expansion():
    # (sqrt(m) - z)^(2n-1) = -p + q sqrt(m), an exact integer identity
    for m in (2, 3, 5, 7, 10):
        z = integer_nth_root(m, 2)
        for n in range(1, 13):
            app, _ = sqrt_approximant(m, n)
            assert sqrt_ring_power(m, z, 2 * n - 1) == (-app.p, app.q)


def test_sqrt_rejects_squares():
    with pytest.raises(PerfectPowerError):
        sqrt_approximant(4, 1)
    with pytest.raises(BadIndexError):
        sqrt_approximant(2, 0)


@pytest.mark.parametrize("row", [
    lambda n: sqrt_approximant(2, n), lambda n: mth_root_form(2, 3, n), e_approximant,
    inv_e_approximant, e_squared_approximant, lambda n: sin_inv_m_approximant(2, n),
    lambda n: cos_inv_m_approximant(2, n)])
def test_an_index_past_sys_maxsize_is_refused(row):
    # the rows are walked with islice, which takes no index past sys.maxsize
    with pytest.raises(BadIndexError, match=f"index must be <= {sys.maxsize}$"):
        row(sys.maxsize + 1)


def test_root_form_worked_examples():
    assert mth_root_form(2, 3, 1).coeffs == (1, -2, 1)
    assert mth_root_form(2, 3, 2).coeffs == (19, -5, -8)
    assert mth_root_form(2, 2, 2).coeffs == (-7, 5)


def test_root_form_matches_ring_expansion():
    for a, m in ((2, 3), (2, 2), (3, 2), (5, 3), (2, 5), (7, 4), (4, 4)):
        z = integer_nth_root(a, m)
        for n in range(1, 7):
            form = mth_root_form(a, m, n)
            assert form.coeffs == root_ring_power(a, m, z, m * n - 1)


def test_root_form_matches_binomial_sums():
    # the repeated-squaring rows equal the binomial-theorem definition
    for a, m in ((2, 2), (2, 3), (3, 4), (7, 5), (61, 2), (99, 2), (5, 6)):
        z = integer_nth_root(a, m)
        for n in range(1, 131):
            assert mth_root_form(a, m, n).coeffs == root_form_binomials(a, m, z, n), (a, m, n)


@pytest.mark.parametrize("a, m", [(2, 2), (61, 2), (2, 3), (7, 4), (5, 6)])
def test_root_rows_bound_is_the_fresh_power(a, m):
    # each row's bound is the last one times base^m; it must be the power
    # (hi - z)^(mn-1) itself, numerator and denominator alike
    base = enclose(Root(a, m), _BOUND_WIDTH).hi - integer_nth_root(a, m)
    for n, (_, bound) in enumerate(islice(root_rows(a, m), 200), 1):
        fresh = base ** (m * n - 1)
        assert (bound.numerator, bound.denominator) == (fresh.numerator, fresh.denominator), n


def _same_fraction(got, want):
    # a bound built from a coprime pair without a gcd must be the reduced
    # Fraction itself: a common factor left in would break == and hash
    assert type(got) is type(want) is Fraction
    assert got == want and hash(got) == hash(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@st.composite
def _radicals(draw):
    """(a, m, n): a <= 200 not a perfect m-th power, m in 2..9, n <= 150."""
    m = draw(st.integers(2, 9))
    a = draw(st.integers(2, 200).filter(lambda a: integer_nth_root(a, m) ** m != a))
    return a, m, draw(st.integers(1, 150))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_radicals())
def test_root_rows_are_the_binomial_sums_and_fresh_powers(amn):
    # the multiply-and-fold rows equal the binomial theorem, and the bound
    # advanced as an integer pair equals base^(mn-1) formed fresh
    a, m, n = amn
    z = integer_nth_root(a, m)
    base = enclose(Root(a, m), _BOUND_WIDTH).hi - z
    coeffs, bound = next(islice(root_rows(a, m), n - 1, None))
    assert coeffs == root_form_binomials(a, m, z, n)
    _same_fraction(bound, base ** (m * n - 1))
    if m == 2:
        (p, q), sqrt_bound = next(islice(sqrt_rows(a), n - 1, None))
        assert (p, q) == (-coeffs[0], coeffs[1])
        _same_fraction(sqrt_bound, bound)


def test_series_bounds_are_the_fresh_fractions():
    # e^2: (e2_hi + 1) / 2n; e and 1/e: 1/n; sine and cosine: 1/(m^2 (N+1)^2 - 1)
    e2_hi = enclose(EPow(2), _BOUND_WIDTH).hi
    for n, (_, bound) in enumerate(islice(e_squared_rows(), 200), 1):
        _same_fraction(bound, (e2_hi + 1) / (2 * n))
    for s in (1, -1):
        for n, (_, bound) in enumerate(islice(factorial_rows(s), 200), 1):
            _same_fraction(bound, Fraction(1, n))
    for m in (1, 2, 7):
        for first in (2, 3):
            for n, (_, bound) in enumerate(islice(trig_rows(m, first), 100), 1):
                big_n = first + 4 * (n - 1)
                _same_fraction(bound, Fraction(1, m * m * (big_n + 1) ** 2 - 1))


def test_root_form_sqrt_consistency():
    # for m = 2 the power form collapses to the (p, q) family with a sign
    for n in range(1, 9):
        form = mth_root_form(2, 2, n)
        app, _ = sqrt_approximant(2, n)
        assert form.coeffs == (-app.p, app.q)


def test_e_family_values():
    for n in range(1, 15):
        app, bb = e_approximant(n)
        assert app.q == factorial(n)
        assert app.p == sum(factorial(n) // factorial(i) for i in range(n + 1))
        assert bb.bound == Fraction(1, n)
        assert _residual(app, E()).lo > 0
    app, _ = e_approximant(3)
    assert (app.p, app.q) == (16, 6)


def test_inv_e_family_values():
    for n in range(1, 15):
        app, bb = inv_e_approximant(n)
        assert app.q == factorial(n)
        assert app.p == sum((-1) ** i * (factorial(n) // factorial(i))
                            for i in range(n + 1))
        # only nonzero is claimed: the alternating tail has sign (-1)^(n+1)
        enc = Interval.of(_residual(app, InvE()))
        assert enc.excludes_zero() and (enc.lo > 0) == (n % 2 == 1)
        assert enc.max_abs() < bb.bound
    assert (inv_e_approximant(1)[0].p, inv_e_approximant(1)[0].q) == (0, 1)
    assert (inv_e_approximant(3)[0].p, inv_e_approximant(3)[0].q) == (2, 6)


def test_e_squared_values_and_chain_identity():
    cases = {1: (5, 1), 2: (65, 9), 3: (1957, 265)}
    for n, (p, q) in cases.items():
        app, bb = e_squared_approximant(n)
        assert (app.p, app.q) == (p, q)
        # bound is (upper estimate of e^2 + 1) / 2n with a coarse estimate
        assert Fraction(8389, 1000) / (2 * n) < bb.bound < Fraction(17, 2) / (2 * n)
        assert _residual(app, EPow(2)).lo > 0
    # the paper's rule: row n chains the e pair at k = 2n with the reciprocal
    # of the 1/e pair at k, the same p and the alternating numerator as q; the
    # generator advances the chained sums directly
    e_rows, inv_e_rows = factorial_rows(1), factorial_rows(-1)
    for n, ((p, q), _) in enumerate(islice(e_squared_rows(), 200), 1):
        e_pair, inv_e_pair = (next(islice(rows, 1, None))[0] for rows in (e_rows, inv_e_rows))
        chained = compose_chain(Approximant(2 * n, *e_pair),
                                reciprocal(Approximant(2 * n, *inv_e_pair)))
        assert (p, q) == (chained.p, chained.q), n
    # and its rows, each two steps of both factorial sums, are the sums
    # p = sum((2n)!/i!), q = sum((-1)^i (2n)!/i!)
    for n in range(1, 131):
        app, _ = e_squared_approximant(n)
        ratios = [factorial(2 * n) // factorial(i) for i in range(2 * n + 1)]
        assert app.p == sum(ratios), n
        assert app.q == sum((-1) ** i * r for i, r in enumerate(ratios)), n


def test_sin_inv_values():
    cases = {(1, 1): (5, 6), (2, 1): (23, 48), (1, 2): (4241, 5040)}
    for (m, n), (p, q) in cases.items():
        app, bb = sin_inv_m_approximant(m, n)
        assert (app.p, app.q) == (p, q)
        assert bb.bound == Fraction(1, m * m * (4 * n) ** 2 - 1)
        assert _residual(app, SinInv(m)).lo > 0
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            app, _ = sin_inv_m_approximant(m, n)
            assert app.q == m ** (4 * n - 1) * factorial(4 * n - 1)


def test_cos_inv_values():
    cases = {(1, 1): (1, 2), (2, 1): (7, 8), (1, 2): (389, 720)}
    for (m, n), (p, q) in cases.items():
        app, bb = cos_inv_m_approximant(m, n)
        assert (app.p, app.q) == (p, q)
        assert bb.bound == Fraction(1, m * m * (4 * n - 1) ** 2 - 1)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            app, _ = cos_inv_m_approximant(m, n)
            assert app.q == m ** (4 * n - 2) * factorial(4 * n - 2)



def test_series_approximants_match_factorial_definitions():
    # the generators build p by Horner's rule; the definitions divide
    # factorials term by term
    for n in range(1, 131):
        f = factorial(n)
        assert e_approximant(n)[0].p == sum(f // factorial(i) for i in range(n + 1))
        assert inv_e_approximant(n)[0].p == sum((-1) ** i * (f // factorial(i))
                                                for i in range(n + 1))
        sin_f, cos_f = factorial(4 * n - 1), factorial(4 * n - 2)
        sin_parts = [(-1) ** k * (sin_f // factorial(2 * k + 1)) for k in range(2 * n)]
        cos_parts = [(-1) ** k * (cos_f // factorial(2 * k)) for k in range(2 * n)]
        for m in range(1, 6):
            sin_app, _ = sin_inv_m_approximant(m, n)
            assert sin_app.p == sum(c * m ** (4 * n - 2 * k - 2)
                                    for k, c in enumerate(sin_parts))
            assert sin_app.q == m ** (4 * n - 1) * sin_f
            cos_app, _ = cos_inv_m_approximant(m, n)
            assert cos_app.p == sum(c * m ** (4 * n - 2 * k - 2)
                                    for k, c in enumerate(cos_parts))
            assert cos_app.q == m ** (4 * n - 2) * cos_f

def test_approximant_validation():
    with pytest.raises(BadIndexError):
        Approximant(0, 1, 1)
    with pytest.raises(ValueError):
        Approximant(1, 1, 0)
    with pytest.raises(ValueError):
        BoundedBy(0)
    with pytest.raises(ValueError):
        BoundedBy(Fraction(-1, 2))


def test_reciprocal():
    a = Approximant(3, 16, 6)
    assert reciprocal(a) == Approximant(3, 6, 16)
    with pytest.raises(ZeroNumeratorError):
        reciprocal(Approximant(1, 0, 1))


def test_compose_chain_errors():
    a = Approximant(2, 5, 2)
    with pytest.raises(ChainMismatchError):
        compose_chain(a, Approximant(3, 2, 7))
    with pytest.raises(ChainMismatchError):
        compose_chain(a, Approximant(2, 3, 7))
    assert compose_chain(a, Approximant(2, 2, 7)) == Approximant(2, 5, 7)


def test_scaled_compose():
    a = Approximant(2, 5, 6)
    b = Approximant(2, 3, 7)
    assert scaled_compose(a, b, 2, cap=4) == Approximant(2, 5, 14)
    with pytest.raises(CapExceededError):
        scaled_compose(a, b, 2, cap=1)
    with pytest.raises(DivisibilityViolationError):
        scaled_compose(a, Approximant(2, 4, 7), 2, cap=4)
    with pytest.raises(ChainMismatchError):
        scaled_compose(a, Approximant(3, 3, 7), 2, cap=4)


def test_rescale():
    # (p, q) approximating 3*alpha turns into (p, 3q) approximating alpha
    a = Approximant(4, 7, 5)
    assert rescale(a, 3) == Approximant(4, 7, 15)
    with pytest.raises(ZeroScaleError):
        rescale(a, 0)
