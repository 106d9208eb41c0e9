"""Tests for the bridge polynomial machinery behind the e^k and trig certificates."""

from fractions import Fraction
from functools import cache
from math import factorial

import pytest

from irratcert.errors import AngleNearPiError, AngleOutOfRangeError
from irratcert.niven import (FPair, RationalPolynomial, exp_functional_int,
                             exp_functional_rational, niven_poly,
                             trig_functional)

from oracles import bridge_derivative_table, gauss_mul


def test_niven_poly_small_cases():
    assert niven_poly(1).coeffs == (0, 1, -1)
    assert niven_poly(2).coeffs == (0, 0, Fraction(1, 2), -1, Fraction(1, 2))
    p = niven_poly(3)
    assert p(0) == 0 and p(1) == 0
    assert p(Fraction(1, 2)) == Fraction(1, 2 ** 6) / 6


def test_exp_functional_int_examples():
    assert exp_functional_int(1, 1) == FPair(at0=-3, at1=-1)
    assert exp_functional_int(1, 2) == FPair(at0=-4, at1=0)
    assert exp_functional_int(2, 2) == FPair(at0=28, at1=4)


# The functionals are rows of one recurrence, so the term-calculus tables are
# the only reference for them past row 1: every case below is checked up to
# n = 45, beyond what the certificate workloads reach (n = 40), and a subset
# with negative p and q > 1 up to n = 130.
ORACLE_N = range(1, 131)
SHALLOW_N = 45
ORACLE_KS = ((2, 4, 6), (1, 3, 5))
ORACLE_RATES = ((Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(-3, 5),
                 Fraction(4, 5), Fraction(2), Fraction(4)),
                (Fraction(-1, 2), Fraction(-3, 2), Fraction(3)))
ORACLE_ANGLES = (((1, 1), (1, 2), (2, 3), (3, 1), (8, 5), (5, 2)),
                 ((1, 3), (7, 3), (2, 5)))


def _oracle_cases(cases):
    """(n, term-calculus tables at 0 and 1, cases checked at n) for each n."""
    shallow, deep = cases
    for n in ORACLE_N:
        yield n, _tables(n), (shallow + deep if n <= SHALLOW_N else deep)


@cache
def _tables(n):
    return tuple(bridge_derivative_table(n, point) for point in (0, 1))


def test_exp_functional_int_against_oracle():
    # n! F(x) = sum over i of (-1)^i k^(2n-i) (x^n (1-x)^n)^(i)(x), recomputed
    # from the term-calculus table
    for n, tables, ks in _oracle_cases(ORACLE_KS):
        for k in ks:
            pair = exp_functional_int(n, k)
            for table, got in zip(tables, (pair.at0, pair.at1)):
                acc = sum((-1) ** i * k ** (2 * n - i) * d for i, d in enumerate(table))
                assert acc == factorial(n) * got


def test_exp_functional_int_validation():
    with pytest.raises(ValueError):
        exp_functional_int(0, 1)
    with pytest.raises(ValueError):
        exp_functional_int(1, 0)


def test_exp_functional_rational_examples():
    assert exp_functional_rational(1, Fraction(1, 2)) == FPair(at0=-10, at1=-6)
    assert exp_functional_rational(1, -1) == FPair(at0=-1, at1=-3)
    with pytest.raises(ValueError):
        exp_functional_rational(1, 0)


def test_exp_functional_rational_against_oracle():
    for n, tables, rates in _oracle_cases(ORACLE_RATES):
        for r in rates:
            p, q = r.numerator, r.denominator
            pair = exp_functional_rational(n, r)
            for table, got in zip(tables, (pair.at0, pair.at1)):
                acc = sum((-1) ** i * p ** (2 * n - i) * q ** i * d
                          for i, d in enumerate(table))
                assert acc == factorial(n) * got


def test_trig_functional_example():
    pair, witness = trig_functional(1, 1, 1)
    assert pair.at0 == (-2, -1)
    assert pair.at1 == (-2, 1)
    assert (witness.a, witness.c, witness.d) == (-2, -2, 1)
    assert witness.bound == Fraction(1, 1)


def test_trig_functional_against_gaussian_oracle():
    # recompute F(x) = sum (-1)^i (ip)^(2n-i) q^i f^(i)(x) with a standalone
    # Gaussian product helper
    for n, tables, angles in _oracle_cases(ORACLE_ANGLES):
        nf = factorial(n)
        for p, q in angles:
            pair, witness = trig_functional(n, p, q)
            for table, got in zip(tables, (pair.at0, pair.at1)):
                total = (0, 0)
                for i, d in enumerate(table):
                    if d % nf:
                        raise AssertionError("table not divisible by n!")
                    coeff = (-1) ** i * q ** i * p ** (2 * n - i) * (d // nf)
                    ipow = [(1, 0), (0, 1), (-1, 0), (0, -1)][(2 * n - i) % 4]
                    term = gauss_mul(ipow, (coeff, 0))
                    total = (total[0] + term[0], total[1] + term[1])
                assert got == total
            # F(1) is the conjugate of F(0), so a = c
            assert pair.at1 == (pair.at0[0], -pair.at0[1])
            assert witness.a == pair.at0[0]
            assert witness.c == pair.at1[0]
            assert witness.d == pair.at1[1]
            assert witness.bound == Fraction(p ** (2 * n + 1), nf * q)


def test_trig_angle_guards():
    with pytest.raises(AngleOutOfRangeError):
        trig_functional(1, 22, 7)
    with pytest.raises(AngleNearPiError):
        trig_functional(1, 355, 113)
    with pytest.raises(ValueError):
        trig_functional(1, 0, 1)
    with pytest.raises(ValueError):
        trig_functional(1, 1, 0)
    # the documented acceptance edge: 3.14159 exactly is still taken
    trig_functional(1, 314159, 100000)
    trig_functional(1, 3, 1)


def test_rational_polynomial_behaves():
    p = RationalPolynomial((Fraction(1, 2), Fraction(-1, 3)))
    assert p(3) == Fraction(1, 2) - 1
    assert p.degree == 1
