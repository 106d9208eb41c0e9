"""Tests for residual evaluation, certificates, and their serialization."""

import importlib
import importlib.util
import json
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irratcert import algebraic, verify
from irratcert.algebraic import PowerForm
from irratcert.cli import main
from irratcert.constants import (CosInv, CosOf, E, EPow, ERational, InvE,
                                 Root, SinInv, SinOf, Sqrt, enclose,
                                 integer_nth_root)
from irratcert.enclosure import Enclosure
from irratcert.intpoly import IntPolynomial
from irratcert.niven import (RationalPolynomial, exp_functional_int,
                             exp_functional_rational, niven_poly,
                             trig_functional)
from irratcert.sequences import (_BOUND_WIDTH, cos_inv_m_approximant,
                                 e_approximant, e_squared_approximant,
                                 inv_e_approximant, mth_root_form,
                                 sin_inv_m_approximant, sqrt_approximant)
from irratcert.verify import (FAMILIES, PAIR, Certificate, ConstantCache,
                              LinearForm, certify, integral_exp_poly,
                              integral_sin_poly, pair_residual,
                              power_form_residual, trig_residual)

from oracles import (FractionConstantCache, cos_bracket, enclosure_horner,
                     enclosure_pair_residual, enclosure_power_form_residual,
                     enclosure_trig_residual, sin_bracket)
from test_kernel import KINDS

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def test_pair_residual_sqrt_exact_containment():
    # 5*sqrt(2) - 7 lies in the enclosure iff (lo+7)^2 < 50 < (hi+7)^2
    enc = pair_residual(7, 5, Sqrt(2), Fraction(1, 10 ** 30))
    assert enc.width <= Fraction(1, 10 ** 30)
    assert (enc.lo + 7) ** 2 < 50 < (enc.hi + 7) ** 2
    assert enc.excludes_zero()


def test_pair_residual_zero_q_degenerates_to_point():
    enc = pair_residual(4, 0, E(), Fraction(1, 1000))
    assert enc.is_point and enc.lo == -4


def test_power_form_residual_matches_pair_route():
    # the vector (-7, 5) over sqrt(2) denotes the same number as the pair (7, 5)
    a = power_form_residual(PowerForm((-7, 5)), Sqrt(2), Fraction(1, 10 ** 20))
    b = pair_residual(7, 5, Sqrt(2), Fraction(1, 10 ** 20))
    assert a.lo <= b.hi and b.lo <= a.hi
    assert a.width <= Fraction(1, 10 ** 20)


def test_power_form_residual_cube_root():
    enc = power_form_residual(PowerForm((19, -5, -8)), Root(2, 3), Fraction(1, 10 ** 15))
    assert enc.excludes_zero() and enc.lo > 0
    assert Fraction(1186, 10 ** 6) < enc.lo  # value ~ 0.0011867
    assert enc.hi < Fraction(1188, 10 ** 6)


def test_power_form_residual_zero_vector():
    enc = power_form_residual(PowerForm((0, 0, 0)), Root(2, 3), Fraction(1, 100))
    assert enc.is_point and enc.lo == 0


def test_residual_wrapper():
    # an approximant's residual q*e - p, through pair_residual
    app, _ = e_approximant(3)
    enc = pair_residual(app.p, app.q, E(), Fraction(1, 10 ** 12))
    assert Fraction(1, 4) < enc.lo <= enc.hi < Fraction(1, 3)


def test_trig_residual_against_series_brackets():
    enc = trig_residual((-2, -2, 1), Fraction(1), Fraction(1, 10 ** 9))
    slo, shi = sin_bracket(1, 15)
    clo, chi = cos_bracket(1, 15)
    # value is 2 - sin(1) - 2 cos(1)
    assert enc.lo <= 2 - slo - 2 * clo
    assert 2 - shi - 2 * chi <= enc.hi
    assert enc.width <= Fraction(1, 10 ** 9)


def test_certify_families_nice():
    assert certify("sqrt", Sqrt(2), 10).verdict == "nice"
    assert certify("root", Root(2, 3), 6).verdict == "nice"
    assert certify("e", E(), 20).verdict == "nice"
    assert certify("inv-e", InvE(), 10).verdict == "nice"
    assert certify("e-squared", EPow(2), 8).verdict == "nice"
    assert certify("e-pow", EPow(3), 6).verdict == "nice"
    assert certify("e-rat", ERational(Fraction(-1, 2)), 6).verdict == "nice"
    assert certify("sin-inv", SinInv(2), 6).verdict == "nice"
    assert certify("cos-inv", CosInv(1), 6).verdict == "nice"
    assert certify("trig-angle", CosOf(Fraction(1, 2)), 6).verdict == "nice"


def test_certify_row_contents_e_family():
    cert = certify("e", E(), 12)
    assert cert.constant == "e"
    assert cert.family == "e"
    assert len(cert.rows) == 12
    for row in cert.rows:
        assert row.nonzero_ok and row.bound_ok
        assert row.term.layout is PAIR
        assert row.term.ints[1] == factorial(row.n)
        assert row.bound == Fraction(1, row.n)
        # paper-grade sandwich: strictly between 1/(n+1) and 1/n
        assert Fraction(1, row.n + 1) < row.residual.lo
        assert row.residual.hi < Fraction(1, row.n)


def test_certify_naive_squared_family_violated():
    cert = certify("e-squared-naive", EPow(2), 12)
    assert cert.verdict == "violated:1"
    assert not cert.is_nice
    for row in cert.rows:
        assert row.nonzero_ok
        assert not row.bound_ok
        # the residual exceeds n!/(n+1), certified through the enclosure
        assert row.residual.lo > Fraction(factorial(row.n), row.n + 1)


def test_certify_decay_check_catches_growth():
    # k = 5 rows each satisfy their own bound, but the residual grows for
    # small n, so the final-below-first check fails and names the last row
    cert = certify("e-pow", EPow(5), 4)
    assert all(row.nonzero_ok and row.bound_ok for row in cert.rows)
    assert cert.verdict == "violated:4"



def test_certify_decides_the_decay_check(capsys):
    # row 15 sits far below row 1, but the enclosure that settles row 15's
    # own checks is wide enough to overlap row 1's; the decay comparison
    # narrows both rows until it is decided
    assert main(["cert", "--family", "e-pow", "--k", "5", "--n-max", "15",
                 "--format", "json"]) == 0
    data = Certificate.from_json(capsys.readouterr().out)
    assert data.verdict == "nice"
    first, last = data.rows[0], data.rows[-1]
    assert last.residual.max_abs() < first.residual.min_abs()
    for row in (first, last):
        assert row.nonzero_ok and row.bound_ok
        assert row.residual.max_abs() < row.bound


DECAY_GRID = [("e-pow", EPow(k), n) for k in (1, 3, 5, 6) for n in (2, 4, 11, 15, 19)]
DECAY_GRID += [("e-rat", ERational(r), n) for r in (Fraction(-3, 2), Fraction(4, 5), Fraction(4))
               for n in (2, 7, 15)]
DECAY_GRID += [("trig-angle", CosOf(x), n) for x in (Fraction(5, 2), Fraction(8, 5), Fraction(3))
               for n in (2, 15, 36)]


@pytest.mark.parametrize("family, c, n_max", DECAY_GRID)
def test_certify_verdict_independent_of_start_width(family, c, n_max):
    # flags and verdict are facts about the residuals, so where refinement
    # starts must not change them
    def summary(cert):
        return cert.verdict, [(r.term, r.nonzero_ok, r.bound_ok) for r in cert.rows]
    default = summary(certify(family, c, n_max))
    assert summary(certify(family, c, n_max, max_width=Fraction(1, 10))) == default
    assert summary(certify(family, c, n_max, max_width=Fraction(1, 10 ** 6))) == default


@pytest.mark.parametrize("family, c, n_max", [
    ("e-pow", EPow(3), 30), ("e-pow", EPow(6), 40),
    ("e-rat", ERational(Fraction(-3, 2)), 30), ("trig-angle", CosOf(Fraction(7, 3)), 30)])
def test_certify_carries_refinement_depth(monkeypatch, family, c, n_max):
    # each row starts at the depth the row before needed, so the Niven
    # families take about one residual evaluation per row, not 6 to 9
    calls = []
    evaluate = verify._residual_eval

    def counting(term, c, width, cache):
        calls.append(width)
        return evaluate(term, c, width, cache)
    monkeypatch.setattr(verify, "_residual_eval", counting)
    cert = certify(family, c, n_max)
    assert cert.verdict == "nice"
    assert len(calls) <= 2 * n_max

def test_certify_single_row_skips_decay_check():
    assert certify("e", E(), 1).verdict == "nice"


def test_certify_epow_rows_match_functional():
    cert = certify("e-pow", EPow(3), 6)
    for row in cert.rows:
        pair = exp_functional_int(row.n, 3)
        assert row.term == LinearForm(PAIR, (pair.at0, pair.at1))


def test_certify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        certify("nope", E(), 3)
    with pytest.raises(ValueError):
        certify("sqrt", E(), 3)
    with pytest.raises(ValueError):
        certify("e", E(), 0)
    with pytest.raises(ValueError):
        certify("e-squared", EPow(3), 3)
    with pytest.raises(ValueError):
        certify("trig-angle", CosOf(Fraction(-1, 2)), 3)


def test_certify_width_override():
    cert = certify("e", E(), 4, max_width=Fraction(1, 10 ** 9))
    for row in cert.rows:
        assert row.residual.width <= Fraction(1, 10 ** 9)


def test_json_round_trip():
    for family, c, n_max in (("sqrt", Sqrt(2), 6), ("root", Root(2, 3), 4),
                             ("trig-angle", CosOf(Fraction(1, 3)), 3),
                             ("e-squared-naive", EPow(2), 4)):
        cert = certify(family, c, n_max)
        again = Certificate.from_json(cert.to_json())
        assert again == cert


def test_from_json_names_the_missing_field():
    text = certify("trig-angle", CosOf(Fraction(1, 3)), 2).to_json()

    def truncated(edit):
        data = json.loads(text)
        edit(data)
        return json.dumps(data)
    cases = [
        (lambda d: d.pop("rows"), "'rows'"),
        (lambda d: d.pop("verdict"), "'verdict'"),
        (lambda d: [d["rows"][1].pop(k) for k in ("a", "c", "d")], "'p', 'coeffs', 'a'"),
        (lambda d: d["rows"][0].pop("d"), "'d'"),
        (lambda d: d["rows"][0].pop("residual_hi"), "'residual_hi'"),
    ]
    for edit, named in cases:
        with pytest.raises(ValueError, match=named):
            Certificate.from_json(truncated(edit))


def _edited(family, c, n_max, edit):
    data = json.loads(certify(family, c, n_max).to_json())
    edit(data)
    return json.dumps(data)


def test_from_json_requires_boolean_flags():
    for name, value in (("nonzero_ok", "false"), ("bound_ok", 0), ("nonzero_ok", None)):
        text = _edited("e", E(), 2, lambda d: d["rows"][1].__setitem__(name, value))
        with pytest.raises(ValueError, match=f"'{name}' must be a JSON boolean"):
            Certificate.from_json(text)


def test_from_json_requires_a_list_of_coeffs():
    for value in ("12", {"0": "1"}, 12):
        text = _edited("root", Root(2, 3), 2, lambda d: d["rows"][0].__setitem__("coeffs", value))
        with pytest.raises(ValueError, match="'coeffs' must be a JSON list"):
            Certificate.from_json(text)


def test_from_json_requires_integers_or_decimal_strings():
    cases = [
        ("e", E(), lambda d: d["rows"][0].__setitem__("p", "2.0"), "'p'"),
        ("e", E(), lambda d: d["rows"][0].__setitem__("q", " 1"), "'q'"),
        ("e", E(), lambda d: d["rows"][0].__setitem__("q", True), "'q'"),
        ("e", E(), lambda d: d["rows"][1].__setitem__("n", 2.0), "'n'"),
        ("root", Root(2, 3), lambda d: d["rows"][1]["coeffs"].__setitem__(0, "1_9"), "'coeffs'"),
        ("trig-angle", CosOf(Fraction(1, 2)), lambda d: d["rows"][0].__setitem__("d", [2]),
         "'d'"),
    ]
    for family, c, edit, named in cases:
        with pytest.raises(ValueError, match=f"{named} must be an integer or a decimal string"):
            Certificate.from_json(_edited(family, c, 2, edit))
    # both spellings the format allows still load
    text = _edited("e", E(), 2, lambda d: d["rows"][1].__setitem__("p", 5))
    assert Certificate.from_json(text) == certify("e", E(), 2)


def test_from_json_requires_a_json_object():
    for text in ("[]", "3", '"certificate"', "null"):
        with pytest.raises(ValueError, match="must be a JSON object"):
            Certificate.from_json(text)
    text = _edited("e", E(), 2, lambda d: d.__setitem__("rows", ["1"]))
    with pytest.raises(ValueError, match="'rows' must hold JSON objects"):
        Certificate.from_json(text)


def test_certify_encloses_the_constant_once_per_precision(monkeypatch):
    # the per-run cache doubles its precision on a miss, so 120 rows take
    # a handful of kernel calls, not one or more each
    calls = []
    kernel = verify.enclose

    def counting(spec, max_width):
        calls.append(max_width)
        return kernel(spec, max_width)
    monkeypatch.setattr(verify, "enclose", counting)
    assert certify("e", E(), 120).verdict == "nice"
    assert len(calls) <= 16


def test_json_serializes_integers_as_strings():
    cert = certify("e", E(), 15)
    data = cert.to_json_dict()
    assert data["rows"][14]["q"] == str(factorial(15))
    assert all(isinstance(row["p"], str) for row in data["rows"])
    assert data["verdict"] == "nice"


def test_csv_and_json_carry_identical_rows():
    cert = certify("e", E(), 5)
    data = cert.to_json_dict()
    lines = cert.to_csv().strip().splitlines()
    assert lines[-1] == "# verdict: nice"
    header = lines[0].split(",")
    for json_row, line in zip(data["rows"], lines[1:-1]):
        cells = dict(zip(header, line.split(",")))
        assert cells["n"] == str(json_row["n"])
        assert cells["p"] == json_row["p"]
        assert cells["q"] == json_row["q"]
        assert cells["residual_lo"] == json_row["residual_lo"]
        assert cells["residual_hi"] == json_row["residual_hi"]
        assert cells["bound"] == json_row["bound"]
        assert cells["nonzero_ok"] == ("true" if json_row["nonzero_ok"] else "false")
        assert cells["bound_ok"] == ("true" if json_row["bound_ok"] else "false")


def test_table_output_mentions_verdict():
    text = certify("sqrt", Sqrt(2), 3).to_table()
    assert text.endswith("verdict: nice\n")
    assert "residual~" in text.splitlines()[0]


def test_quadrature_agrees_with_functional_residual():
    # F(1) e^k - F(0) equals the integral of e^(kx) k^(2n+1) f_n(x) over [0,1];
    # the two enclosures come from unrelated code paths
    for n in range(1, 7):
        for k in range(1, 4):
            pair = exp_functional_int(n, k)
            left = pair_residual(pair.at0, pair.at1, EPow(k), Fraction(1, 10 ** 12))
            f = niven_poly(n)
            scaled = RationalPolynomial(
                tuple(k ** (2 * n + 1) * c for c in f.coeffs))
            right = integral_exp_poly(k, scaled, Fraction(1, 10 ** 12))
            assert left.lo <= right.hi and right.lo <= left.hi
            assert left.lo > 0
            assert left.hi < Fraction(k ** (2 * n + 1), factorial(n)) * 21


def test_integral_exp_poly_known_value():
    # integral of e^x * 1 dx = e - 1
    one = RationalPolynomial((Fraction(1),))
    enc = integral_exp_poly(1, one, Fraction(1, 10 ** 12))
    ref = pair_residual(1, 1, E(), Fraction(1, 10 ** 12))   # e - 1
    assert enc.lo <= ref.hi and ref.lo <= enc.hi


def test_integral_sin_poly_known_value():
    # integral of sin(t x) dx = (1 - cos t)/t
    one = RationalPolynomial((Fraction(1),))
    for t in (Fraction(1), Fraction(1, 2), Fraction(3)):
        enc = integral_sin_poly(t, one, Fraction(1, 10 ** 12))
        clo, chi = cos_bracket(t, 20)
        lo, hi = sorted(((1 - chi) / t, (1 - clo) / t))
        assert enc.lo <= hi and lo <= enc.hi


def test_integral_zero_poly():
    zero = RationalPolynomial((Fraction(0),))
    assert integral_exp_poly(2, zero, Fraction(1, 100)).is_point
    assert integral_sin_poly(2, zero, Fraction(1, 100)).is_point


# ---------------------------------------------------------------------------
# The residuals are formed on integers on a dyadic grid; they must equal the
# Enclosure arithmetic of the references in oracles.py exactly, with the
# constant taken from a Fraction-rounding cache fed the same requests.

residual_widths = st.builds(lambda k, num, den: Fraction(num, den << k),
                            st.integers(0, 300), st.integers(1, 1000), st.integers(1, 1000))
multipliers = st.sampled_from((0, 1, -1)) | st.integers(-2 ** 90, 2 ** 90)
TRIG_ANGLES = (Fraction(22, 7), Fraction(-31, 2), Fraction(1, 3), Fraction(1, 2))


def _caches(shared):
    """(cache, reference) for one run: one cache each, or fresh ones per call."""
    if shared:
        return ConstantCache(), FractionConstantCache()
    return None, None


@PROPERTY
@given(kind=st.sampled_from(KINDS), shared=st.booleans(),
       calls=st.lists(st.tuples(multipliers, multipliers, residual_widths), min_size=1,
                      max_size=6))
@example(kind=KINDS[2], shared=True, calls=[(5, 0, Fraction(1, 10)), (7, -3, Fraction(1, 999)),
                                           (-7, 3, Fraction(1, 3)), (0, -1, Fraction(5))])
def test_pair_residual_equals_enclosure_arithmetic(kind, shared, calls):
    spec = kind[0]
    cache, ref = _caches(shared)
    for p, q, w in calls:
        at = (ref or FractionConstantCache()).enclose
        assert pair_residual(p, q, spec, w, cache) == \
            enclosure_pair_residual(p, q, lambda x: at(spec, x), w)


@PROPERTY
@given(kind=st.sampled_from(KINDS), shared=st.booleans(),
       calls=st.lists(st.tuples(st.lists(multipliers, max_size=5), residual_widths),
                      min_size=1, max_size=4))
@example(kind=KINDS[1], shared=True, calls=[([0, 0, 0], Fraction(1, 100)),
                                           ([19, -5, -8], Fraction(1, 10 ** 15))])
def test_power_form_residual_equals_enclosure_arithmetic(kind, shared, calls):
    spec = kind[0]
    cache, ref = _caches(shared)
    for coeffs, w in calls:
        at = (ref or FractionConstantCache()).enclose
        assert power_form_residual(PowerForm(coeffs), spec, w, cache) == \
            enclosure_power_form_residual(coeffs, lambda x: at(spec, x), w)


@PROPERTY
@given(angle=st.sampled_from(TRIG_ANGLES), shared=st.booleans(),
       calls=st.lists(st.tuples(multipliers, multipliers, multipliers, residual_widths),
                      min_size=1, max_size=6))
@example(angle=Fraction(1, 2), shared=True,
         calls=[(a, c, d, Fraction(1, 10 ** 6)) for a in (-1, 2) for c in (-3, 0, 2)
                for d in (-5, 0, 4)])
def test_trig_residual_equals_enclosure_arithmetic(angle, shared, calls):
    cache, ref = _caches(shared)
    for a, c, d, w in calls:
        at = (ref or FractionConstantCache()).enclose
        assert trig_residual((a, c, d), angle, w, cache) == enclosure_trig_residual(
            (a, c, d), lambda x: at(CosOf(angle), x), lambda x: at(SinOf(angle), x), w)


def _rationals(limit=10 ** 6, den=10 ** 6):
    return st.builds(Fraction, st.integers(-limit, limit), st.integers(1, den))


@PROPERTY
@given(ends=st.lists(_rationals(), min_size=2, max_size=2),
       coeffs=st.lists(multipliers, max_size=6))
@example(ends=[Fraction(-3, 2), Fraction(1, 3)], coeffs=[1, -3, 0, 2])
@example(ends=[Fraction(1, 3), Fraction(1, 3)], coeffs=[0, 0, -7])
def test_eval_interval_equals_enclosure_horner(ends, coeffs):
    box = Enclosure(min(ends), max(ends))
    assert IntPolynomial(coeffs).eval_interval(box) == enclosure_horner(coeffs, box)


@st.composite
def _enclosure_and_bound(draw):
    """An enclosure whose endpoints are often exactly 0 or +-bound, and a bound."""
    bound = draw(st.just(Fraction(0)) | _rationals(10 ** 4, 10 ** 3).map(abs))
    end = st.sampled_from((0, bound, -bound)) | _rationals(10 ** 4, 10 ** 3)
    lo = draw(end)
    hi = draw(st.just(lo) | end)
    return Enclosure(min(lo, hi), max(lo, hi)), bound


@PROPERTY
@given(case=_enclosure_and_bound())
@example(case=(Enclosure.point(0), Fraction(1, 2)))
@example(case=(Enclosure.point(0), Fraction(0)))
@example(case=(Enclosure(Fraction(-1, 2), Fraction(1, 2)), Fraction(1, 2)))
@example(case=(Enclosure(Fraction(0), Fraction(1, 2)), Fraction(1, 2)))
@example(case=(Enclosure.point(Fraction(-3, 7)), Fraction(3, 7)))
def test_checks_agree_with_enclosure_predicates(case):
    enc, bound = case
    nonzero_ok, bound_ok, decided = verify._checks(enc, bound)
    assert nonzero_ok == enc.excludes_zero()
    assert bound_ok == (enc.max_abs() < bound)
    assert decided == ((enc.excludes_zero() or enc.is_point)
                       and (enc.max_abs() < bound or enc.min_abs() >= bound))


FAMILY_CONSTANTS = {
    "sqrt": Sqrt(2), "root": Root(2, 3), "e": E(), "inv-e": InvE(),
    "e-squared": EPow(2), "e-squared-naive": EPow(2), "e-pow": EPow(3),
    "e-rat": ERational(Fraction(-1, 2)), "sin-inv": SinInv(2), "cos-inv": CosInv(1),
    "trig-angle": CosOf(Fraction(1, 2)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_certify_does_no_enclosure_arithmetic(monkeypatch, family):
    # every residual and both of its checks are computed on integers
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__neg__"):
        def counting(*args, _op=getattr(Enclosure, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(Enclosure, name, counting)
    certify(family, FAMILY_CONSTANTS[family], 12)
    assert calls == []


def test_from_json_rejects_an_empty_row_list():
    text = _edited("e", E(), 2, lambda d: d.__setitem__("rows", []))
    with pytest.raises(ValueError, match="'rows' must hold at least one row"):
        Certificate.from_json(text)


def test_from_json_rejects_mixed_layouts():
    root_row = json.loads(certify("root", Root(2, 3), 2).to_json())["rows"][1]
    text = _edited("e", E(), 3, lambda d: d["rows"].__setitem__(1, root_row))
    with pytest.raises(ValueError, match="row 2 lacks the field 'p'"):
        Certificate.from_json(text)
    trig_row = json.loads(certify("trig-angle", CosOf(Fraction(1, 2)), 3).to_json())["rows"][2]
    text = _edited("root", Root(2, 3), 3, lambda d: d["rows"].__setitem__(2, trig_row))
    with pytest.raises(ValueError, match="row 3 lacks the field 'coeffs'"):
        Certificate.from_json(text)


def _per_n_row(family, c, hi, n):
    """Row n of a family from its per-n public function: (ints, bound), with a
    Niven family's bound in closed form."""
    if family == "e-pow":
        pair = exp_functional_int(n, c.k)
        return (pair.at0, pair.at1), hi * Fraction(c.k ** (2 * n + 1), factorial(n))
    if family == "e-rat":
        pair = exp_functional_rational(n, c.r)
        p, q = c.r.numerator, c.r.denominator
        top = hi if c.r > 0 else 1
        return (pair.at0, pair.at1), top * Fraction(abs(p) ** (2 * n + 1), factorial(n) * q)
    if family == "trig-angle":
        p, q = c.x.numerator, c.x.denominator
        _, w = trig_functional(n, p, q)
        return (w.a, w.c, w.d), Fraction(p ** (2 * n + 1), factorial(n) * q)
    if family == "root":
        z = integer_nth_root(c.a, c.m)
        return mth_root_form(c.a, c.m, n).coeffs, (hi - z) ** (c.m * n - 1)
    if family == "e-squared-naive":
        app, _ = e_approximant(n)
        return (app.p ** 2, app.q ** 2), Fraction(1, n)
    app, bb = {
        "sqrt": lambda: sqrt_approximant(c.m, n, hi),
        "e": lambda: e_approximant(n),
        "inv-e": lambda: inv_e_approximant(n),
        "e-squared": lambda: e_squared_approximant(n, hi),
        "sin-inv": lambda: sin_inv_m_approximant(c.m, n),
        "cos-inv": lambda: cos_inv_m_approximant(c.m, n),
    }[family]()
    return (app.p, app.q), bb.bound


@pytest.mark.parametrize("family, c", [
    ("sqrt", Sqrt(2)), ("sqrt", Sqrt(13)), ("root", Root(7, 4)), ("root", Root(3, 5)),
    ("e", E()), ("inv-e", InvE()), ("e-squared", EPow(2)), ("e-squared-naive", EPow(2)),
    ("sin-inv", SinInv(1)), ("sin-inv", SinInv(3)), ("cos-inv", CosInv(2)),
    ("cos-inv", CosInv(5)), ("e-pow", EPow(1)), ("e-pow", EPow(3)), ("e-pow", EPow(5)),
    ("e-rat", ERational(Fraction(-1, 2))), ("e-rat", ERational(Fraction(2, 3))),
    ("e-rat", ERational(Fraction(-5, 7))), ("trig-angle", CosOf(Fraction(1, 3))),
    ("trig-angle", CosOf(Fraction(2, 5))), ("trig-angle", CosOf(Fraction(3))),
])
def test_certify_rows_equal_the_per_n_functions(family, c):
    # certify walks each family's row generator; row n must be the per-n
    # function's row n, each Niven bound its closed form, and a second run
    # must not see the first's state
    cert = certify(family, c, 60)
    hi = enclose(c, _BOUND_WIDTH).hi
    for row in cert.rows:
        assert (row.term.ints, row.bound) == _per_n_row(family, c, hi, row.n), row.n
    assert [row.n for row in cert.rows] == list(range(1, 61))
    assert certify(family, c, 60) == cert


def test_root_rows_reduce_once_per_row(monkeypatch):
    # row n is row n-1 times (t - z)^m, one reduction each; rebuilding
    # every row by repeated squaring takes about nine
    calls = []
    reduce = algebraic.reduce_power_form

    def counting(modulus, c):
        calls.append(len(c))
        return reduce(modulus, c)
    monkeypatch.setattr(algebraic, "reduce_power_form", counting)
    assert certify("root", Root(7, 4), 120).verdict == "nice"
    assert 120 <= len(calls) <= 2 * 120


def test_certificates_print_past_the_int_digit_limit():
    # 400! has 869 digits, over the lowest limit the interpreter allows
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int-to-str digits")
    cert = certify("e", E(), 400)
    full = cert.to_json(), cert.to_csv(), cert.to_table()
    negative = -factorial(400) * 10 ** 300 - 7
    negative_text = str(negative)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert (cert.to_json(), cert.to_csv(), cert.to_table()) == full
        assert Certificate.from_json(full[0]) == cert
        assert verify._digits(negative) == negative_text
        assert verify._from_digits(negative_text) == negative
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(factorial(400)) in full[0]


def test_perfbench_trace_sites_exist():
    # perfbench/tracing.py wraps each (module, attribute) of LAYERS by name;
    # verify imports its per-n functions only for that, so dropping one of
    # them, or renaming any traced function, must fail here
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, sites in tracing.LAYERS.items():
        for module_name, attr in sites:
            owner = importlib.import_module(f"irratcert.{module_name}")
            *cls, name = attr.split(".")
            if cls:
                owner = owner.__dict__[cls[0]]
            assert name in owner.__dict__, (layer, module_name, attr)
