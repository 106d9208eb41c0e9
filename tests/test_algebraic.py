"""Tests for power-form reduction, monic transforms, and root classification."""

import random
import time
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irratcert import algebraic, intpoly
from irratcert.algebraic import (PowerForm, RootBracket, classify_roots,
                                 integer_root_test, isolate_real_roots,
                                 monic_certificate, monic_transform,
                                 reduce_power_form)
from irratcert.cli import main
from irratcert.constants import Sqrt, enclose, integer_nth_root
from irratcert.errors import NotMonicError, NotSquarefreeError
from irratcert.intpoly import (IntPolynomial, bisect_root, cauchy_root_bound,
                               count_roots_between, squarefree_part, sturm_chain)
from irratcert.sequences import trig_rows

from oracles import (bin_placements, fraction_isolate, fraction_sturm_chain,
                     modular_powers_remainder)


def test_reduce_small_cases():
    mod = IntPolynomial((-2, 0, 0, 1))          # t^3 = 2
    assert reduce_power_form(mod, (0, 0, 0, 1)).coeffs == (2, 0, 0)
    assert reduce_power_form(mod, (1, 2)).coeffs == (1, 2, 0)
    assert reduce_power_form(mod, (0, 0, 0, 0, 0, 0, 1)).coeffs == (4, 0, 0)
    mod2 = IntPolynomial((1, 0, 1))             # t^2 = -1
    assert reduce_power_form(mod2, (0, 0, 1)).coeffs == (-1, 0)
    with pytest.raises(NotMonicError):
        reduce_power_form(IntPolynomial((1, 2)), (1,))


def test_reduce_matches_modular_powers_oracle():
    rng = random.Random(20240815)
    cases = []
    for _ in range(500):
        deg = rng.randint(1, 6)
        cases.append(([rng.randint(-9, 9) for _ in range(deg)] + [1],
                      [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]))
    # the empty vector, trailing zeros, degree-1 moduli, lengths up to 40
    # and coefficients past 2^200, in the vector and in the modulus
    for _ in range(300):
        deg = rng.choice((1, 1, 2, 3, 5))
        big = 2 ** rng.choice((8, 200, 260))
        vec = [rng.randint(-big, big) for _ in range(rng.randint(0, 40))]
        cases.append(([rng.randint(-big, big) for _ in range(deg)] + [1],
                      vec + [0] * rng.choice((0, 0, 1, 7))))
    cases += [([-2, 1], []), ([5, 0, 1], [0, 0, 0]), ([-2, 1], [0] * 40 + [2 ** 201]),
              ([-(2 ** 300), 1], [1, 1, 1, 0, 0])]
    for modulus_coeffs, vec in cases:
        deg = len(modulus_coeffs) - 1
        modulus = IntPolynomial(modulus_coeffs)
        got = reduce_power_form(modulus, vec)
        want = modular_powers_remainder(modulus_coeffs, vec)
        assert got.coeffs == want
        assert len(got.coeffs) == deg


def test_power_form_zero_flag():
    assert PowerForm((0, 0)).is_zero()
    assert not PowerForm((0, 1)).is_zero()


def test_monic_certificate():
    mod = IntPolynomial((-2, 0, 0, 1))
    # (t - 1)^2 = t^2 - 2t + 1, already reduced
    assert monic_certificate(mod, 1, 2).coeffs == (1, -2, 1)
    # (t - 1)^5 reduced mod t^3 - 2
    want = modular_powers_remainder((-2, 0, 0, 1),
                                    [-1, 5, -10, 10, -5, 1])
    assert monic_certificate(mod, 1, 5).coeffs == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(low=st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       z=st.integers(-5, 5), n=st.integers(0, 60))
def test_monic_certificate_matches_reduced_binomials(low, z, n):
    # repeated squaring against the expanded binomial reduced in one pass
    modulus = IntPolynomial(low + [1])
    binomial = [comb(n, k) * (-z) ** (n - k) for k in range(n + 1)]
    assert monic_certificate(modulus, z, n) == reduce_power_form(modulus, binomial)


def test_monic_transform_example_and_identity():
    f = IntPolynomial((1, 1, -5, 2))
    g = monic_transform(f)
    assert g.coeffs == (4, 2, -5, 1)
    # defining identity g(a x) = a^(m-1) f(x)
    for f in (IntPolynomial((1, 1, -5, 2)), IntPolynomial((3, -4, 6)),
              IntPolynomial((-7, 0, 0, 0, 3))):
        a = f.leading
        m = f.degree
        g = monic_transform(f)
        for x in range(-3, 4):
            assert g(a * x) == a ** (m - 1) * f(x)


def test_integer_root_test():
    assert set(integer_root_test(IntPolynomial((-4, 0, 1)))) == {2, -2}
    assert set(integer_root_test(IntPolynomial((6, -5, 1)))) == {2, 3}
    assert set(integer_root_test(IntPolynomial((0, 0, -1, 1)))) == {0, 1}
    assert integer_root_test(IntPolynomial((1, 1, 1))) == []
    with pytest.raises(NotMonicError):
        integer_root_test(IntPolynomial((1, 2)))


def test_root_classification_is_fast(capsys):
    # inputs on which a rational-root test by divisors of the constant term
    # is slow: 2 (x - 2)(3x - 5)(3x - 4)(4x - 3)(x^2 + 2)(x^2 + 3x + 11),
    # whose monic transform has constant term 5280 * 72^7 with 1728 divisors
    start = time.perf_counter()
    assert main(["classify", "--poly=5280,-15368,17500,-13148,8254,-3128,556,-198,72"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.splitlines() == [
        "bracket (735/1024, 245/256): rational 3/4",
        "bracket (1225/1024, 735/512): rational 4/3",
        "bracket (735/512, 1715/1024): rational 5/3",
        "bracket (245/128, 2205/1024): rational 2",
    ]
    # x^2 - (2^61 - 1) and (2^61 - 1) x^2 + 1: the prime 2^61 - 1 is the
    # constant term of each monic transform; the second has no real root
    start = time.perf_counter()
    assert main(["classify", "--poly=-2305843009213693951,0,1"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.splitlines() == [
        "bracket (-1750711592975873285526994125/1152921504606846976, "
        "-28011385485308129559218212047/18446744073709551616): irrational",
        "bracket (28011385485308129559218212047/18446744073709551616, "
        "1750711592975873285526994125/1152921504606846976): irrational",
    ]
    start = time.perf_counter()
    assert main(["classify", "--poly=1,0,2305843009213693951"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == ""
    start = time.perf_counter()
    assert integer_root_test(IntPolynomial((-(2 ** 61 - 1), 0, 1))) == []
    assert time.perf_counter() - start < 2


def test_root_bracket_validation():
    f = IntPolynomial((-2, 0, 1))
    br = RootBracket(Fraction(1), Fraction(2), f)
    assert (br.lo, br.hi) == (1, 2)
    with pytest.raises(ValueError):
        RootBracket(Fraction(2), Fraction(1), f)
    with pytest.raises(ValueError):
        RootBracket(Fraction(2), Fraction(3), f)   # no sign change


@pytest.mark.parametrize("call", [
    lambda: integer_nth_root(-1, 2),
    lambda: integer_nth_root(8, 0),
    lambda: monic_certificate(IntPolynomial([-2, 0, 1]), 1, -1),
    lambda: monic_transform(IntPolynomial([5])),
    lambda: cauchy_root_bound(IntPolynomial([5])),
    lambda: next(trig_rows(0, 3)),
], ids=["nth-root-negative", "nth-root-zeroth", "negative-exponent", "transform-constant",
        "bound-constant", "trig-m-zero"])
def test_public_argument_checks_refuse(call):
    with pytest.raises(ValueError):
        call()


def test_public_edge_cases_answer():
    assert integer_root_test(IntPolynomial([1])) == []
    br = RootBracket(1, 2, IntPolynomial([-2, 0, 1]))
    assert (type(br.lo), type(br.hi), br.lo, br.hi) == (Fraction, Fraction, 1, 2)
    assert repr(IntPolynomial([1, 2])) == "IntPolynomial([1, 2])"
    # g = (1 - 2t)^2: Newton starts at t = 1/2, where g' vanishes
    assert intpoly._newton_guess([1, -4, 4], 10) is None


def test_isolate_real_roots():
    f = IntPolynomial((-2, 0, 1))
    brackets = isolate_real_roots(f)
    assert len(brackets) == 2
    assert all(br.hi - br.lo <= Fraction(1, 4) for br in brackets)
    assert brackets[0].hi < 0 < brackets[1].lo
    assert isolate_real_roots(IntPolynomial((1, 0, 1))) == []
    line = isolate_real_roots(IntPolynomial((-3, 5)))
    assert len(line) == 1
    assert line[0].lo < Fraction(3, 5) < line[0].hi
    with pytest.raises(NotSquarefreeError):
        isolate_real_roots(IntPolynomial((-1, 1)) * IntPolynomial((-1, 1)))


def test_isolate_cubic_example():
    f = IntPolynomial((1, 1, -5, 2))
    brackets = isolate_real_roots(f)
    assert len(brackets) == 3
    windows = [(Fraction(-1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1)),
               (Fraction(2), Fraction(5, 2))]
    for br, (lo, hi) in zip(brackets, windows):
        assert lo <= br.lo < br.hi <= hi


def test_classify_cubic_all_irrational():
    out = classify_roots(IntPolynomial((1, 1, -5, 2)))
    assert len(out) == 3
    assert all(v.is_irrational for v in out)


def test_classify_mixed_polynomial():
    # (2x - 3)(x^2 - 2): one rational root among irrational neighbours
    f = IntPolynomial((-3, 2)) * IntPolynomial((-2, 0, 1))
    out = classify_roots(f)
    assert len(out) == 3
    values = [v.rational_value for v in out]
    assert values[0] is None           # -sqrt(2)
    assert values[1] is None           # sqrt(2), just below 3/2
    assert values[2] == Fraction(3, 2)


def test_classify_pure_rational_roots():
    out = classify_roots(IntPolynomial((-4, 0, 1)))
    assert [v.rational_value for v in out] == [-2, 2]
    out = classify_roots(IntPolynomial((2, -7, 3)))   # 3x^2 - 7x + 2 = (3x-1)(x-2)
    assert [v.rational_value for v in out] == [Fraction(1, 3), 2]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(planted=st.sets(st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
                       max_size=5),
       d=st.one_of(st.just(-1), st.integers(2, 60).filter(lambda d: isqrt(d) ** 2 != d)))
def test_classify_finds_exactly_the_planted_rational_roots(planted, d):
    # x^2 - d times (q x - p) for each distinct planted p/q; x^2 - d has two
    # irrational roots for d > 1 not a square, and none for d = -1
    f = IntPolynomial((-d, 0, 1))
    for r in planted:
        f = f * IntPolynomial((-r.numerator, r.denominator))
    out = classify_roots(f)
    assert len(out) == len(planted) + (2 if d > 0 else 0)
    assert sorted(v.rational_value for v in out if not v.is_irrational) == sorted(planted)
    for v in out:
        br = v.bracket
        assert br.hi - br.lo <= Fraction(1, 4)
        assert f(br.lo) != 0 and f(br.hi) != 0
        assert count_roots_between(f, br.lo, br.hi) == 1
        assert v.is_irrational or br.lo < v.rational_value < br.hi
    assert all(x.bracket.hi <= y.bracket.lo for x, y in zip(out, out[1:]))


def test_isolation_builds_one_sturm_chain_and_no_gcd(monkeypatch):
    # (x - 1)(x + 1)(2x - 1)(x - 2)(3x + 1)(x - 3)(x^2 - 2): eight real roots
    f = IntPolynomial((-12, -2, 98, -59, -114, 92, 22, -31, 6))
    chains, gcds = [], []

    def counting(record, fn):
        def wrapper(*args):
            record.append(args)
            return fn(*args)
        return wrapper

    chain_fn, count_fn = intpoly.sturm_chain, intpoly.count_roots_between
    monkeypatch.setattr(intpoly, "sturm_chain", counting(chains, chain_fn))
    monkeypatch.setattr(algebraic, "sturm_chain", counting(chains, chain_fn))
    monkeypatch.setattr(intpoly, "poly_gcd", counting(gcds, intpoly.poly_gcd))
    # each count is read off the one chain: none is a separate Sturm count
    counts = []
    monkeypatch.setattr(intpoly, "count_roots_between", counting(counts, count_fn))
    monkeypatch.setattr(algebraic, "count_roots_between", counting(counts, count_fn))
    brackets = isolate_real_roots(f)
    assert len(brackets) == 8
    assert len(chains) <= 1
    assert gcds == []
    assert counts == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(planted=st.sets(st.builds(Fraction, st.integers(-20, 20), st.sampled_from((1, 2, 3, 4, 8))),
                       max_size=4),
       quadratic=st.lists(st.integers(-30, 30), min_size=3, max_size=3).filter(lambda c: c[2]))
@example(planted={Fraction(0)}, quadratic=[-2, 0, 1])      # 0 is the first midpoint
@example(planted={Fraction(0), Fraction(1, 2), Fraction(-3, 4)}, quadratic=[1, 0, 1])
# dense degree 7 and 8, the witness shape, given whole in place of the quadratic
@example(planted=set(), quadratic=[9, 8, 6, 9, 5, -2, 1, -1])
@example(planted=set(), quadratic=[5, -1, -9, 6, -8, 6, 5, -4])        # five real roots
@example(planted=set(), quadratic=[-12, -2, 98, -59, -114, 92, 22, -31, 6])
def test_isolation_equals_fraction_isolation(planted, quadratic):
    # planted rational roots, dyadic ones among them so that midpoints hit
    # roots, times a quadratic with two, one or no real roots
    f = IntPolynomial(quadratic)
    for r in planted:
        f = f * IntPolynomial((-r.numerator, r.denominator))
    if len(sturm_chain(f)[-1]) > 1:
        return
    want = fraction_isolate(f.coeffs, fraction_sturm_chain(f.coeffs), cauchy_root_bound(f))
    assert [(br.lo, br.hi) for br in isolate_real_roots(f)] == want


def test_no_fraction_arithmetic_in_the_integer_loops(monkeypatch):
    # Sturm chains, gcds, squarefree parts, signs, halvings, Newton jumps
    # and bin floors all run on integers; Fractions are only built, for
    # Sturm counts and results
    f = IntPolynomial((-12, -2, 98, -59, -114, 92, 22, -31, 6))
    enc = enclose(Sqrt(2), Fraction(1, 10 ** 12))
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__"):
        def counting(*args, _op=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(Fraction, name, counting)
    assert len(isolate_real_roots(f)) == 8
    # (x - 1)^2 (x + 2)^3 (3x^2 - 2): its squarefree part by the same sequence
    part = squarefree_part(IntPolynomial((-16, 8, 44, -14, -38, 1, 12, 3)))
    assert len(classify_roots(f)) == 8
    cubic = IntPolynomial((-5, -2, 0, 1))
    deep = bisect_root(cubic, Fraction(2), Fraction(3), Fraction(1, 2 ** 5000))
    bisect_root(cubic, Fraction(13, 7), Fraction(31, 10), Fraction(1, 3 * 10 ** 300))
    assert bin_placements(enc, 800) is not None
    assert calls == []
    monkeypatch.undo()
    assert deep.width == Fraction(1, 2 ** 5000)
    assert part == IntPolynomial((4, -2, -8, 3, 3))
