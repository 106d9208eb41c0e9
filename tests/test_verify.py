"""Tests for residual evaluation, certificates, and their serialization."""

import dataclasses
import json
import sys
from fractions import Fraction
from itertools import islice
from math import factorial, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irratcert import algebraic, certificate, constants, sequences, verify
from irratcert.algebraic import PowerForm
from irratcert.cli import main
from irratcert.constants import (CosInv, CosOf, E, EPow, ERational, InvE,
                                 Root, SinInv, SinOf, Sqrt, enclose,
                                 integer_nth_root)
from irratcert.enclosure import Enclosure
from irratcert.intpoly import _interval_horner
from irratcert.niven import (RationalPolynomial, exp_functional_int,
                             exp_functional_rational, niven_poly,
                             trig_functional)
from irratcert.sequences import (_BOUND_WIDTH, Approximant, BoundedBy,
                                 cos_inv_m_approximant, e_approximant,
                                 e_squared_approximant, inv_e_approximant,
                                 mth_root_form, sin_inv_m_approximant,
                                 sqrt_approximant)
from irratcert.certificate import LAYOUTS
from irratcert.verify import (FAMILIES, FORM, PAIR, TRIG, Certificate, CertRow,
                              ConstantCache, certify, integral_exp_poly,
                              integral_sin_poly, pair_residual,
                              power_form_residual, trig_residual)

from oracles import (FractionConstantCache, Interval, certificate_csv, certificate_json,
                     cos_bracket, enclosure_horner, enclosure_pair_residual,
                     enclosure_power_form_residual, enclosure_trig_residual, sin_bracket)
from test_kernel import KINDS

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def test_pair_residual_sqrt_exact_containment():
    # 5*sqrt(2) - 7 lies in the enclosure iff (lo+7)^2 < 50 < (hi+7)^2
    enc = pair_residual(7, 5, Sqrt(2), (1, 10 ** 30))
    assert enc.hi - enc.lo <= Fraction(1, 10 ** 30)
    assert (enc.lo + 7) ** 2 < 50 < (enc.hi + 7) ** 2
    assert Interval.of(enc).excludes_zero()


def test_pair_residual_zero_q_degenerates_to_point():
    enc = pair_residual(4, 0, E(), (1, 1000))
    assert enc.lo == enc.hi == -4


def test_power_form_residual_matches_pair_route():
    # the vector (-7, 5) over sqrt(2) denotes the same number as the pair (7, 5)
    a = power_form_residual(PowerForm((-7, 5)), Sqrt(2), (1, 10 ** 20))
    b = pair_residual(7, 5, Sqrt(2), (1, 10 ** 20))
    assert a.lo <= b.hi and b.lo <= a.hi
    assert a.hi - a.lo <= Fraction(1, 10 ** 20)


def test_power_form_residual_cube_root():
    enc = power_form_residual(PowerForm((19, -5, -8)), Root(2, 3), (1, 10 ** 15))
    assert Interval.of(enc).excludes_zero() and enc.lo > 0
    assert Fraction(1186, 10 ** 6) < enc.lo  # value ~ 0.0011867
    assert enc.hi < Fraction(1188, 10 ** 6)


def test_power_form_residual_zero_vector():
    enc = power_form_residual(PowerForm((0, 0, 0)), Root(2, 3), (1, 100))
    assert enc.lo == enc.hi == 0


def test_residual_wrapper():
    # an approximant's residual q*e - p, through pair_residual
    app, _ = e_approximant(3)
    enc = pair_residual(app.p, app.q, E(), (1, 10 ** 12))
    assert Fraction(1, 4) < enc.lo <= enc.hi < Fraction(1, 3)


def test_trig_residual_against_series_brackets():
    enc = trig_residual((-2, -2, 1), Fraction(1), (1, 10 ** 9))
    slo, shi = sin_bracket(1, 15)
    clo, chi = cos_bracket(1, 15)
    # value is 2 - sin(1) - 2 cos(1)
    assert enc.lo <= 2 - slo - 2 * clo
    assert 2 - shi - 2 * chi <= enc.hi
    assert enc.hi - enc.lo <= Fraction(1, 10 ** 9)


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
    assert cert.layout is PAIR
    assert len(cert.rows) == 12
    for row in cert.rows:
        assert row.nonzero_ok and row.bound_ok
        assert row.ints[1] == factorial(row.n)
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



def test_certify_decides_the_decay_check(monkeypatch, capsys):
    # at the override width 1 each row settles its own checks on an enclosure
    # wide enough to overlap the other row's (row 2 about -0.996, row 1 about
    # -1.124); the decay comparison narrows both rows until it is decided.
    # From their default start no DECAY_GRID run needs a second decay try.
    calls = []
    decided = verify._decided

    def counting(n, *args):
        calls.append(n)
        return decided(n, *args)
    monkeypatch.setattr(verify, "_decided", counting)
    assert main(["cert", "--family", "e-rat", "--r=-3/2", "--n-max", "2", "--width", "1",
                 "--format", "json"]) == 0
    # each row is decided on its first try; each later decay try re-decides
    # row 1, then row 2
    assert calls[:2] == [1, 2]
    assert len(calls) > 2 and calls[2:] == [1, 2] * (len(calls) // 2 - 1)
    data = Certificate.from_json(capsys.readouterr().out)
    assert data.verdict == "nice"
    first, last = data.rows[0], data.rows[-1]
    assert Interval.of(last.residual).max_abs() < Interval.of(first.residual).min_abs()
    for row in (first, last):
        assert row.nonzero_ok and row.bound_ok
        assert Interval.of(row.residual).max_abs() < row.bound


def test_decay_narrows_again_past_an_undecided_try(monkeypatch):
    # the rows' residuals are replaced by [1/1000, 1], which leaves the decay
    # comparison undecided, so _decay narrows; its first narrowed try finds
    # row 1 undecided, and it must go on to the next width, not stop there
    layout, c = FAMILIES["e"].layout, E()
    rows = certify("e", c, 5).rows
    first, last = (dataclasses.replace(row, residual=Enclosure(Fraction(1, 1000), Fraction(1)))
                   for row in (rows[0], rows[-1]))
    widths = [(row.bound.numerator, row.bound.denominator * 1000) for row in (first, last)]
    seen, decided = [], verify._decided

    def undecided_once(n, layout, ints, bound, c, width, cache):
        seen.append((n, width))
        return None if len(seen) == 1 else decided(n, layout, ints, bound, c, width, cache)
    monkeypatch.setattr(verify, "_decided", undecided_once)
    a, b, shrinks = verify._decay(first, last, layout, c, *widths, verify.ConstantCache(), 10)
    assert shrinks is True
    assert seen == [(row.n, (num, den * s)) for s in (16, 256)
                    for row, (num, den) in zip((first, last), widths)]
    assert ((a.n, b.n) == (1, 5)
            and Interval.of(b.residual).max_abs() < Interval.of(a.residual).min_abs())


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
        return cert.verdict, [(r.ints, r.nonzero_ok, r.bound_ok) for r in cert.rows]
    default = summary(certify(family, c, n_max))
    assert summary(certify(family, c, n_max, max_width=Fraction(1, 10))) == default
    assert summary(certify(family, c, n_max, max_width=Fraction(1, 10 ** 6))) == default


def _residual_evals(monkeypatch, family, c, n_max, max_width=None):
    """(certificate, the number of residual evaluations certify made for it)."""
    calls = []
    decided = verify._decided

    def counting(*args):
        calls.append(None)
        return decided(*args)
    monkeypatch.setattr(verify, "_decided", counting)
    return certify(family, c, n_max, max_width), len(calls)


@pytest.mark.parametrize("family, c", [
    ("root", Root(7, 4)), ("sqrt", Sqrt(2)), ("e-pow", EPow(3)),
    ("trig-angle", CosOf(Fraction(1, 3)))])
def test_certify_override_carries_refinement_depth(monkeypatch, family, c):
    # an override is a base width like bound/1000: each row starts at it over
    # 16^depth, the depth the row before needed, and so does not narrow from
    # the override again; flags and verdict are the default run's
    def summary(cert):
        return cert.verdict, [(r.ints, r.nonzero_ok, r.bound_ok) for r in cert.rows]
    cert, evals = _residual_evals(monkeypatch, family, c, 60, Fraction(1, 10 ** 6))
    assert evals <= 3 * 60
    assert summary(cert) == summary(certify(family, c, 60))


@pytest.mark.parametrize("family, c, n_max", [
    ("e-pow", EPow(3), 30), ("e-pow", EPow(6), 40),
    ("e-rat", ERational(Fraction(-3, 2)), 30), ("trig-angle", CosOf(Fraction(7, 3)), 30),
    ("e", E(), 120)])
def test_certify_carries_refinement_depth(monkeypatch, family, c, n_max):
    # each row starts at the depth the row before needed: e at n_max 120
    # narrows once and its later rows start at that depth, 121 residual
    # evaluations where starting each row afresh takes 133; the Niven rows
    # start at their 4^-n depth and take one each
    cert, evals = _residual_evals(monkeypatch, family, c, n_max)
    assert cert.verdict == "nice"
    assert evals <= n_max + 3


def test_certify_single_row_skips_decay_check():
    assert certify("e", E(), 1).verdict == "nice"


def test_certify_epow_rows_match_functional():
    cert = certify("e-pow", EPow(3), 6)
    for row in cert.rows:
        pair = exp_functional_int(row.n, 3)
        assert row.ints == (pair.at0, pair.at1)


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
        assert row.residual.hi - row.residual.lo <= Fraction(1, 10 ** 9)


def test_json_round_trip():
    for family, c in FAMILY_CONSTANTS.items():
        cert = certify(family, c, 12)
        text = cert.to_json()
        assert text == certificate_json(cert), family
        assert Certificate.from_json(text) == cert, family


json_integers = st.integers() | st.sampled_from((10 ** 4400 + 1, -(7 ** 5300)))
json_rationals = st.builds(Fraction, json_integers, json_integers.filter(bool))
verdicts = st.just("nice") | st.integers(1, 10 ** 6).map(lambda n: f"violated:{n}")


@st.composite
def _certificates(draw, layouts=LAYOUTS, min_rows=0):
    """Certificates of one of the layouts with drawn integers, rationals,
    flags, verdict and free text for the constant and family."""
    layout = draw(st.sampled_from(layouts))
    rows = []
    for _ in range(draw(st.integers(min_rows, 3))):
        size = draw(st.integers(0, 4)) if layout.vector else len(layout.fields)
        ints = tuple(draw(st.lists(json_integers, min_size=size, max_size=size)))
        lo, hi = sorted(draw(st.lists(json_rationals, min_size=2, max_size=2)))
        rows.append(CertRow(draw(st.integers(1, 10 ** 6)), ints,
                            Enclosure(lo, hi), draw(json_rationals), draw(st.booleans()),
                            draw(st.booleans())))
    return Certificate(draw(st.text()), draw(st.text()), layout, tuple(rows), draw(verdicts))


def _one_row(layout, ints, verdict="nice"):
    row = CertRow(3, ints, Enclosure(Fraction(-1, 3), Fraction(7 ** 5300, 2)),
                  Fraction(5, 10 ** 4400 + 1), True, False)
    return Certificate("root:2,3", "root", layout, (row,), verdict)


@PROPERTY
@given(data=st.data())
def test_to_json_equals_json_dumps(data):
    # the hand-written text is the text json.dumps(indent=2) writes; drawn
    # inside, as hypothesis cannot print the integers past the digit limit
    cert = data.draw(_certificates())
    assert cert.to_json() == certificate_json(cert)
    assert json.loads(cert.to_json()) == json.loads(certificate_json(cert))
    if cert.rows:
        assert Certificate.from_json(cert.to_json()) == cert


def test_to_json_equals_json_dumps_on_each_layout():
    for cert in (_one_row(FORM, ()), _one_row(FORM, (-(10 ** 4400), 0, 12), "violated:3"),
                 _one_row(TRIG, (-1, 10 ** 4400 + 1, 0)), _one_row(PAIR, (-5, 2))):
        assert cert.to_json() == certificate_json(cert)


@pytest.mark.parametrize("layout", LAYOUTS, ids=["PAIR", "FORM", "TRIG"])
@PROPERTY
@given(data=st.data())
def test_to_csv_equals_csv_writer(layout, data):
    # the cells joined by hand are the text csv.writer writes: no cell needs
    # quoting, its integers negative, zero or past the 4,300-digit str() limit
    cert = data.draw(_certificates([layout], min_rows=1))
    assert cert.to_csv() == certificate_csv(cert)
    size = 3 if layout.vector else len(layout.fields)
    cert = _one_row(layout, (-(7 ** 5300), 0, 10 ** 4400 + 1)[:size])
    assert cert.to_csv() == certificate_csv(cert)


@pytest.mark.parametrize("layout, ints", [(PAIR, (1, 2, 3)), (PAIR, (1,)), (TRIG, (4, 5)),
                                         (TRIG, (1, 2, 3, 4))])
def test_writers_refuse_a_row_of_the_wrong_size(layout, ints):
    # a fixed layout writes one integer per field: JSON would drop an extra
    # integer that CSV and the table write under a header without its name
    row = CertRow(1, ints, Enclosure(Fraction(1, 3), Fraction(1, 2)), Fraction(1), True, True)
    cert = Certificate("e", "e", layout, (row,), "nice")
    for write in (cert.to_json, cert.to_csv, cert.to_table):
        with pytest.raises(ValueError, match=f"^certificate row 1 holds {len(ints)} integers, "
                                             f"but its layout has the {len(layout.fields)} "):
            write()


@pytest.mark.parametrize("family, c", [("e", E()), ("root", Root(7, 4)),
                                       ("trig-angle", CosOf(Fraction(1, 3)))])
def test_certify_rows_equal_constructed_rows(family, c):
    # certify builds its rows and their residuals without __init__; each must
    # compare, hash, print, copy and refuse assignment as a constructed one does
    for row in certify(family, c, 5).rows:
        for obj, built in ((row, CertRow(**vars(row))),
                           (row.residual, Enclosure(row.residual.lo, row.residual.hi))):
            fields = {f.name: getattr(built, f.name) for f in dataclasses.fields(built)}
            assert vars(obj) == fields
            assert obj == built and hash(obj) == hash(built) and repr(obj) == repr(built)
            assert dataclasses.asdict(obj) == dataclasses.asdict(built)
            name = next(iter(fields))
            assert dataclasses.replace(obj, **{name: fields[name]}) == built
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, fields[name])
        assert dataclasses.replace(row, n=row.n + 1) == CertRow(**{**vars(row), "n": row.n + 1})


@PROPERTY
@given(x=st.fractions() | st.builds(Fraction, st.integers(-10 ** 600, 10 ** 600),
                                    st.integers(1, 10 ** 600)))
@example(x=Fraction(0))
@example(x=Fraction(-1, 10 ** 11))
@example(x=Fraction(-7, 2 ** 40))
@example(x=Fraction(3, 10 ** 10))
def test_decimal_is_the_truncated_expansion(x):
    # the table's decimal text against plain Fraction arithmetic: sign,
    # floor(|x|), the ten digits floor(|x| 10^10) mod 10^10, and ".." when
    # digits are cut off
    text = certificate._decimal(x)
    sign, body = ("-", text[1:]) if text.startswith("-") else ("", text)
    whole, point, rest = body.partition(".")
    digits, suffix = rest[:10], rest[10:]
    scaled = abs(x) * 10 ** 10
    assert sign == ("-" if x < 0 else "") and point == "."
    assert int(whole) == abs(x).numerator // abs(x).denominator
    assert len(digits) == 10 and int(digits) == scaled.numerator // scaled.denominator % 10 ** 10
    assert suffix == ("" if scaled.denominator == 1 else "..")


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


def _kernel_calls(monkeypatch, family, c, n_max):
    """(certificate, the specs of the kernel calls certify made for it)."""
    calls = []
    kernel = verify.enclose

    def counting(spec, max_width):
        calls.append(spec)
        return kernel(spec, max_width)
    monkeypatch.setattr(verify, "enclose", counting)
    return certify(family, c, n_max), calls


def test_certify_encloses_the_constant_once_per_precision(monkeypatch):
    # the per-run cache is filled once and doubles its precision on a miss,
    # so 120 rows take a handful of kernel calls, not one or more each
    cert, calls = _kernel_calls(monkeypatch, "e", E(), 120)
    assert cert.verdict == "nice"
    assert len(calls) <= 16


def test_json_serializes_integers_as_strings():
    cert = certify("e", E(), 15)
    data = json.loads(cert.to_json())
    assert data["rows"][14]["q"] == str(factorial(15))
    assert all(isinstance(row["p"], str) for row in data["rows"])
    assert data["verdict"] == "nice"


def test_certify_row_with_q_zero(capsys):
    # F(1) = q (p - 2q) vanishes at n = 1 for the rate 2, so row 1 is
    # p = -4, q = 0: its residual is the exact point 4, well below its bound
    for family, c in (("e-pow", EPow(2)), ("e-rat", ERational(2))):
        row = certify(family, c, 3).rows[0]
        assert row.ints == (-4, 0)
        assert row.residual.lo == row.residual.hi == 4
        assert row.nonzero_ok and row.bound_ok
    assert main(["cert", "--family", "e-pow", "--k", "2", "--n-max", "3",
                 "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert (row["p"], row["q"]) == ("-4", "0")
    assert row["residual_lo"] == row["residual_hi"] == "4/1"


def test_table_output_mentions_verdict():
    text = certify("sqrt", Sqrt(2), 3).to_table()
    assert text.endswith("verdict: nice\n")
    assert "residual~" in text.splitlines()[0]


def test_table_lines_end_without_blanks():
    # the last column (bound~) varies in width, so padding it would leave
    # blanks at the end of the shorter lines
    text = certify("root", Root(7, 4), 3).to_table()
    lines = text.splitlines()
    assert len(lines) == 5
    assert all(line == line.rstrip() for line in lines)
    assert lines[0].split() == ["n", "coeffs", "nonzero_ok", "bound_ok", "residual~", "bound~"]
    # the columns before the last still line up
    assert len({line.index("true") for line in lines[1:4]}) == 1


def test_quadrature_agrees_with_functional_residual():
    # F(1) e^k - F(0) equals the integral of e^(kx) k^(2n+1) f_n(x) over [0,1];
    # the two enclosures come from unrelated code paths
    for n in range(1, 7):
        for k in range(1, 4):
            pair = exp_functional_int(n, k)
            left = pair_residual(pair.at0, pair.at1, EPow(k), (1, 10 ** 12))
            f = niven_poly(n)
            scaled = RationalPolynomial(
                tuple(k ** (2 * n + 1) * c for c in f.coeffs))
            right = integral_exp_poly(k, scaled, (1, 10 ** 12))
            assert left.lo <= right.hi and right.lo <= left.hi
            assert left.lo > 0
            assert left.hi < Fraction(k ** (2 * n + 1), factorial(n)) * 21


def test_integral_exp_poly_known_value():
    # integral of e^x * 1 dx = e - 1
    one = RationalPolynomial((Fraction(1),))
    enc = integral_exp_poly(1, one, (1, 10 ** 12))
    ref = pair_residual(1, 1, E(), (1, 10 ** 12))   # e - 1
    assert enc.lo <= ref.hi and ref.lo <= enc.hi


def test_integral_sin_poly_known_value():
    # integral of sin(t x) dx = (1 - cos t)/t
    one = RationalPolynomial((Fraction(1),))
    for t in (Fraction(1), Fraction(1, 2), Fraction(3)):
        enc = integral_sin_poly(t, one, (1, 10 ** 12))
        clo, chi = cos_bracket(t, 20)
        lo, hi = sorted(((1 - chi) / t, (1 - clo) / t))
        assert enc.lo <= hi and lo <= enc.hi


def test_integral_zero_poly():
    zero = RationalPolynomial((Fraction(0),))
    for enc in (integral_exp_poly(2, zero, (1, 100)), integral_sin_poly(2, zero, (1, 100))):
        assert enc.lo == enc.hi


# ---------------------------------------------------------------------------
# The residuals are formed on integers on a dyadic grid; they must equal the
# Enclosure arithmetic of the references in oracles.py exactly, with the
# constant taken from a Fraction-rounding cache fed the same requests.

# widths as the evaluators take them: unreduced integer pairs (num, den)
residual_widths = st.builds(lambda k, num, den: (num, den << k),
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
@example(kind=KINDS[2], shared=True, calls=[(5, 0, (1, 10)), (7, -3, (1, 999)),
                                           (-7, 3, (1, 3)), (0, -1, (5, 1))])
def test_pair_residual_equals_enclosure_arithmetic(kind, shared, calls):
    spec = kind[0]
    cache, ref = _caches(shared)
    for p, q, w in calls:
        at = (ref or FractionConstantCache()).enclose
        assert pair_residual(p, q, spec, w, cache) == \
            enclosure_pair_residual(p, q, lambda x: at(spec, x), Fraction(*w))


@PROPERTY
@given(kind=st.sampled_from(KINDS), shared=st.booleans(),
       calls=st.lists(st.tuples(st.lists(multipliers, max_size=5), residual_widths),
                      min_size=1, max_size=4))
@example(kind=KINDS[1], shared=True, calls=[([0, 0, 0], (1, 100)),
                                           ([19, -5, -8], (1, 10 ** 15))])
@example(kind=KINDS[1], shared=False, calls=[([5], (1, 7))])
@example(kind=KINDS[0], shared=True, calls=[([3, 0, 0], (1, 1000))])
@example(kind=KINDS[9], shared=True, calls=[([4, 1, -3], (1, 2 ** 40)),
                                           ([0, 7, 0, -2 ** 70], (3, 10 ** 9))])
@example(kind=KINDS[1], shared=True, calls=[([19, -5, -8], (6, 8 * 10 ** 12))])
# the single try fits where the grid answer is clipped at k = 0 (a width above
# slope + 1), on a box straddling zero, and under a 2^90 coefficient
@example(kind=KINDS[1], shared=False, calls=[([3, 1], (1000, 1)), ([-2, 0, 1], (1000, 1))])
@example(kind=KINDS[2], shared=True, calls=[([3, 1], (1000, 1))])
@example(kind=KINDS[8], shared=True, calls=[([1, -3, 2], (1, 10 ** 6)), ([0, 5], (7, 2))])
@example(kind=KINDS[1], shared=True, calls=[([1, 2 ** 90, -7], (1, 10 ** 9)),
                                           ([-(2 ** 90), 0, 3], (1, 2 ** 200))])
def test_power_form_residual_equals_enclosure_arithmetic(kind, shared, calls):
    spec = kind[0]
    cache, ref = _caches(shared)
    for coeffs, w in calls:
        at = (ref or FractionConstantCache()).enclose
        assert power_form_residual(PowerForm(coeffs), spec, w, cache) == \
            enclosure_power_form_residual(coeffs, lambda x: at(spec, x), Fraction(*w))


@PROPERTY
@given(angle=st.sampled_from(TRIG_ANGLES), shared=st.booleans(),
       calls=st.lists(st.tuples(multipliers, multipliers, multipliers, residual_widths),
                      min_size=1, max_size=6))
@example(angle=Fraction(1, 2), shared=True,
         calls=[(a, c, d, (1, 10 ** 6)) for a in (-1, 2) for c in (-3, 0, 2)
                for d in (-5, 0, 4)])
def test_trig_residual_equals_enclosure_arithmetic(angle, shared, calls):
    cache, ref = _caches(shared)
    for a, c, d, w in calls:
        at = (ref or FractionConstantCache()).enclose
        assert trig_residual((a, c, d), angle, w, cache) == enclosure_trig_residual(
            (a, c, d), lambda x: at(CosOf(angle), x), lambda x: at(SinOf(angle), x),
            Fraction(*w))


SERIES_KINDS = [spec for spec, _ in KINDS if not isinstance(spec, verify._RADICALS)]
round_bits = st.integers(0, 420)


def _assert_rounded(rounded, exact, j):
    """rounded is exact rounded outward to 2^-j: it contains exact, its ends lie
    on 2^-j, it is at most 2^(1-j) wider, and it is exact itself when exact's
    ends lie on 2^-j already (as they do when j is at least the grid's bits)."""
    def on_grid(enc):
        return all((end * 2 ** j).denominator == 1 for end in (enc.lo, enc.hi))
    assert rounded.lo <= exact.lo and exact.hi <= rounded.hi
    assert on_grid(rounded)
    assert (rounded.hi - rounded.lo) - (exact.hi - exact.lo) <= Fraction(2, 2 ** j)
    if on_grid(exact):
        assert rounded == exact


@PROPERTY
@given(spec=st.sampled_from(SERIES_KINDS), shared=st.booleans(),
       calls=st.lists(st.tuples(multipliers, multipliers, residual_widths, round_bits),
                      min_size=1, max_size=6))
@example(spec=E(), shared=True, calls=[(7, 3, (1, 10 ** 6), 0),
                                        (2 ** 80, 3 ** 50, (1, 1000), 22),
                                        (-5, -(2 ** 90), (1, 2 ** 300), 420)])
def test_pair_residual_rounds_outward(spec, shared, calls):
    # round_to changes nothing the cache does: both caches see equal requests
    caches = (ConstantCache(), ConstantCache()) if shared else (None, None)
    for p, q, w, j in calls:
        exact = pair_residual(p, q, spec, w, caches[0])
        _assert_rounded(pair_residual(p, q, spec, w, caches[1], round_to=j), exact, j)


@PROPERTY
@given(angle=st.sampled_from(TRIG_ANGLES), shared=st.booleans(),
       calls=st.lists(st.tuples(multipliers, multipliers, multipliers, residual_widths,
                                round_bits), min_size=1, max_size=6))
@example(angle=Fraction(1, 3), shared=True,
         calls=[(a, c, d, (1, 10 ** 9), j) for a in (-1, 2) for c in (-3, 0, 2 ** 70)
                for d in (-(5 ** 30), 0, 4) for j in (3, 40)])
def test_trig_residual_rounds_outward(angle, shared, calls):
    caches = (ConstantCache(), ConstantCache()) if shared else (None, None)
    for a, c, d, w, j in calls:
        exact = trig_residual((a, c, d), angle, w, caches[0])
        _assert_rounded(trig_residual((a, c, d), angle, w, caches[1], round_to=j), exact, j)


def test_certify_rounds_series_residuals_to_their_width():
    # a series row's residual carries about log2(1/width) + 12 bits, however
    # large q is: at n = 120, sin-inv:4 has a 4,538-bit q and 44-bit endpoints
    for family, c in (("sin-inv", SinInv(4)), ("cos-inv", CosInv(3)), ("e", E())):
        for row in certify(family, c, 120).rows:
            for end in (row.residual.lo, row.residual.hi):
                assert abs(end.numerator).bit_length() <= 64, (family, row.n)
                assert end.denominator.bit_length() <= 64, (family, row.n)


def _rationals(limit=10 ** 6, den=10 ** 6):
    return st.builds(Fraction, st.integers(-limit, limit), st.integers(1, den))


@PROPERTY
@given(ends=st.lists(_rationals(), min_size=2, max_size=2)
       | st.lists(_rationals().map(abs), min_size=2, max_size=2),
       coeffs=st.lists(multipliers, max_size=6), k=st.integers(0, 64))
@example(ends=[Fraction(-3, 2), Fraction(1, 3)], coeffs=[1, -3, 0, 2], k=0)
@example(ends=[Fraction(1, 3), Fraction(1, 3)], coeffs=[0, 0, -7], k=0)
@example(ends=[Fraction(-3, 2), Fraction(1, 3)], coeffs=[1, -3, 0, 2], k=5)
@example(ends=[Fraction(0), Fraction(5, 3)], coeffs=[2, -1, 3, -4], k=0)
@example(ends=[Fraction(0), Fraction(0)], coeffs=[-5, 2, 0, -1], k=3)
@example(ends=[Fraction(7, 2), Fraction(7, 2)], coeffs=[-1, 4, -2, 1], k=3)
@example(ends=[Fraction(1, 3), Fraction(9, 4)], coeffs=[5, -7, 0, 3, -1], k=2)
@example(ends=[Fraction(2), Fraction(3)], coeffs=[-(2 ** 70), 3 ** 40, -1, 1], k=7)
def test_interval_horner_equals_enclosure_horner(ends, coeffs, k):
    # the box is [A, B] / (D 2^k), D the common denominator of the ends:
    # f over it is g over [A, B] / 2^k, g_i = f_i D^(d - i), divided by D^d,
    # and the route gives g there as [x, y] / 2^(kd); a box with A >= 0
    # takes the two-product steps, the one every root constant takes
    lo, hi = min(ends), max(ends)
    den = lcm(lo.denominator, hi.denominator)
    g = [c * den ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs)] or [0]
    d = len(g) - 1
    x, y = _interval_horner(g, lo.numerator * den // lo.denominator,
                            hi.numerator * den // hi.denominator, k)
    scale = den ** d << k * d
    box = Enclosure(lo / 2 ** k, hi / 2 ** k)
    assert Enclosure(Fraction(x, scale), Fraction(y, scale)) == enclosure_horner(coeffs, box)


@st.composite
def _enclosure_and_bound(draw):
    """An enclosure whose endpoints are often exactly 0 or +-bound, and a bound."""
    bound = draw(st.just(Fraction(0)) | _rationals(10 ** 4, 10 ** 3).map(abs))
    end = st.sampled_from((0, bound, -bound)) | _rationals(10 ** 4, 10 ** 3)
    lo = draw(end)
    hi = draw(st.just(lo) | end)
    return Enclosure(min(lo, hi), max(lo, hi)), bound


@st.composite
def _dyadics(draw, k_max=4000):
    """n / 2^k in lowest terms, k up to k_max, |n / 2^k| up to 2^64."""
    k = draw(st.integers(0, k_max))
    return Fraction(draw(st.integers(-1 << k + 64, 1 << k + 64)), 1 << k)


@st.composite
def _dyadic_enclosure_and_bound(draw):
    """Dyadic ends, denominators 2^0 to 2^4000, against a bound whose
    denominator is a power of two (or, now and then, 1/n); an end is often
    exactly 0, exactly +-bound, or +-bound moved by one unit 2^-j."""
    bound = draw(_dyadics().map(abs) | st.integers(1, 10 ** 6).map(lambda n: Fraction(1, n)))
    tie = st.sampled_from((1, -1)).map(lambda sign: sign * bound)
    off = st.builds(lambda sign, step, j: sign * (bound + step * Fraction(1, 1 << j)),
                    st.sampled_from((1, -1)), st.sampled_from((1, -1)), st.integers(0, 4100))
    end = st.just(Fraction(0)) | tie | off | _dyadics()
    lo = draw(end)
    hi = draw(st.just(lo) | end)
    return Enclosure(min(lo, hi), max(lo, hi)), bound


@settings(PROPERTY, max_examples=300)
@given(case=_enclosure_and_bound() | _dyadic_enclosure_and_bound())
@example(case=(Enclosure(0, 0), Fraction(1, 1 << 4000)))
@example(case=(Enclosure(Fraction(-5, 1 << 3000), Fraction(-5, 1 << 3000)),
               Fraction(5, 1 << 3000)))
@example(case=(Enclosure(Fraction(-5, 1 << 3000), Fraction(0)), Fraction(5, 1 << 3000)))
@example(case=(Enclosure(Fraction(5, 1 << 3000), Fraction(5, 1 << 2)), Fraction(5, 1 << 3000)))
@example(case=(Enclosure(Fraction(2 ** 4000 - 1, 1 << 4001), Fraction(2 ** 4000 + 1, 1 << 4001)),
               Fraction(1, 2)))
@example(case=(Enclosure(Fraction(3, 1 << 4000), Fraction(7, 1 << 4000)), Fraction(7, 1 << 4000)))
# sides whose bit-length sums are one apart, so the products decide:
# 8/3 < 3 as 8 * 1 < 3 * 3, and 3 > 8/3 as 3 * 3 > 8 * 1
@example(case=(Enclosure(Fraction(8, 3), Fraction(8, 3)), Fraction(3)))
@example(case=(Enclosure(3, 3), Fraction(8, 3)))
@example(case=(Enclosure(0, 0), Fraction(1, 2)))
@example(case=(Enclosure(0, 0), Fraction(0)))
@example(case=(Enclosure(Fraction(-1, 2), Fraction(1, 2)), Fraction(1, 2)))
@example(case=(Enclosure(Fraction(0), Fraction(1, 2)), Fraction(1, 2)))
@example(case=(Enclosure(Fraction(-3, 7), Fraction(-3, 7)), Fraction(3, 7)))
def test_checks_agree_with_enclosure_predicates(case):
    enc, bound = case
    nonzero_ok, bound_ok, decided = verify._checks(enc, bound)
    enc = Interval.of(enc)
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


# residual evaluations certify makes at n_max 30 and 120, recorded when the
# series residuals were not yet rounded: rounding must cost no narrowing
RESIDUAL_EVALS = {
    "sqrt": (30, 120), "root": (30, 120), "e": (30, 121), "inv-e": (30, 120),
    "e-squared": (30, 120), "e-squared-naive": (30, 120), "e-pow": (30, 120),
    "e-rat": (30, 120), "sin-inv": (30, 120), "cos-inv": (30, 120),
    "trig-angle": (30, 120),
}


@pytest.mark.parametrize("family, n_max, want",
                         [(family, n_max, want) for family, counts in RESIDUAL_EVALS.items()
                          for n_max, want in zip((30, 120), counts)])
def test_certify_residual_evaluation_counts(monkeypatch, family, n_max, want):
    _, evals = _residual_evals(monkeypatch, family, FAMILY_CONSTANTS[family], n_max)
    assert evals == want


@pytest.mark.parametrize("family, n_max", [(family, n_max) for family in FAMILY_CONSTANTS
                                            for n_max in (30, 120)])
def test_certify_kernel_call_budget(monkeypatch, family, n_max):
    # one fill per cached constant (cos and sin for trig-angle) at the last
    # row's first precision, and at most one doubling for the narrowings past
    # it; a bound's coarse estimate enters the kernel through sequences.  A
    # Niven row starts at its 4^-n depth, so nothing narrows past the fill.
    c = FAMILY_CONSTANTS[family]
    _, calls = _kernel_calls(monkeypatch, family, c, n_max)
    assert calls[0] == c
    assert len(calls) <= (5 if family == "trig-angle" else 3)
    if FAMILIES[family].sink:
        assert calls == ([c, SinOf(c.x)] if family == "trig-angle" else [c])


NIVEN_PLAN = [("e-pow", EPow(k)) for k in range(1, 7)]
NIVEN_PLAN += [("e-rat", ERational(r)) for r in sorted({Fraction(a, b) for a in range(-4, 5) if a
                                                        for b in range(1, 6)})]
NIVEN_PLAN += [("trig-angle", CosOf(x)) for x in (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2),
                                                  Fraction(1), Fraction(8, 5), Fraction(2),
                                                  Fraction(7, 3), Fraction(5, 2), Fraction(3),
                                                  Fraction(31, 10))]


@pytest.mark.parametrize("family, c", NIVEN_PLAN)
def test_niven_rows_start_at_their_depth(monkeypatch, family, c):
    # the family's sink, 2 bits per index, is where its residual sits below its
    # bound (max x^n (1-x)^n = 4^-n): started there, no row narrows and the
    # decay check needs no second try, so there is one evaluation per row.
    # At 31/10 row 200 still sits above row 1: the verdict is violated:200.
    assert FAMILIES[family].sink == 2
    cert, evals = _residual_evals(monkeypatch, family, c, 200)
    assert all(row.nonzero_ok and row.bound_ok for row in cert.rows)
    assert evals == 200


@pytest.mark.parametrize("family, c, n_max", [
    (family, c, n_max)
    for family, c in [*FAMILY_CONSTANTS.items(), ("e-rat", ERational(Fraction(2, 3)))]
    for n_max in (30, 120)])
def test_kernel_calls_at_the_bound_width(monkeypatch, family, c, n_max):
    # counted at the kernel itself, whichever module enters it: a bound that
    # reads the constant (e-rat's for r > 0) asks for its coarse estimate
    # once, the others never
    widths = []
    for name in ("_exp_enclosure", "_trig_enclosure", "_root_enclosure"):
        def recording(*args, _kernel=getattr(constants, name), **kwargs):
            widths.append(args[-1])     # _trig_enclosure takes first_power by keyword
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(constants, name, recording)
    certify(family, c, n_max)
    reads = family in ("sqrt", "root", "e-squared", "e-pow") or family == "e-rat" and c.r > 0
    assert widths.count(_BOUND_WIDTH) == reads
    assert len(widths) <= (5 if family == "trig-angle" else 3)
    if FAMILIES[family].sink:
        # a Niven certificate makes only the fill and the bound's estimate
        assert len(widths) == (2 if family == "trig-angle" else 1) + reads


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_certify_does_no_enclosure_arithmetic(monkeypatch, family):
    # every residual and both of its checks are computed on integers; an
    # Enclosure has no operators, so counting ones are installed, and an
    # operation is counted, not only raised where a caller might catch it
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__neg__"):
        def counting(*args, _op=getattr(Interval, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(Enclosure, name, counting, raising=False)
    certify(family, FAMILY_CONSTANTS[family], 12)
    assert calls == []


@pytest.mark.parametrize("family", sorted(set(FAMILIES) - {"e-squared"}))
def test_certify_does_no_fraction_division(monkeypatch, family):
    # widths travel from certify to the constant's grid as integer pairs;
    # e-squared divides in its bound
    calls = []
    for name in ("__truediv__", "__rtruediv__"):
        def counting(*args, _op=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(Fraction, name, counting)
    certify(family, FAMILY_CONSTANTS[family], 30)
    assert calls == []


def test_power_form_residual_does_no_fraction_arithmetic(monkeypatch):
    # the slope probe and the one Horner run on integers from the
    # constant's grid answers; Fractions are only built, by Enclosure._grid
    depth, residuals, calls = [], [], []

    def tracking(*args, _residual=verify.power_form_residual):
        depth.append(None)
        residuals.append(None)
        try:
            return _residual(*args)
        finally:
            depth.pop()
    monkeypatch.setattr(verify, "power_form_residual", tracking)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__", "__rpow__"):
        def counting(*args, _op=getattr(Fraction, name), _name=name):
            if depth:
                calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(Fraction, name, counting)
    assert certify("root", Root(7, 4), 12).is_nice
    assert len(residuals) >= 12
    assert calls == []


@PROPERTY
@given(kind=st.sampled_from(KINDS), p=multipliers, q=multipliers,
       angle=st.sampled_from(TRIG_ANGLES), w=residual_widths, g=st.integers(1, 2 ** 70))
def test_residuals_take_an_unreduced_width_pair(kind, p, q, angle, w, g):
    # a pair (num, den) is the width num/den, whatever factor they share
    pair = (w[0] * g, w[1] * g)
    assert pair_residual(p, q, kind[0], pair) == pair_residual(p, q, kind[0], w)
    assert trig_residual((p, q, -p), angle, pair) == trig_residual((p, q, -p), angle, w)
    assert power_form_residual(PowerForm((p, q)), kind[0], pair) == \
        power_form_residual(PowerForm((p, q)), kind[0], w)


@pytest.mark.parametrize("pair", [(1, -2), (-1, -2)])
def test_residuals_refuse_a_width_pair_with_a_negative_denominator(pair):
    # (1, -2) stands for -1/2, not a width, even though its numerator is positive
    for evaluate in (lambda: pair_residual(3, 2, Sqrt(2), pair),
                     lambda: pair_residual(3, 0, E(), pair),
                     lambda: trig_residual((1, 2, 3), Fraction(1, 3), pair),
                     lambda: power_form_residual(PowerForm((-3, 2)), Sqrt(2), pair)):
        with pytest.raises(ValueError, match="max_width must be positive"):
            evaluate()


def test_from_json_rejects_an_empty_row_list():
    text = _edited("e", E(), 2, lambda d: d.__setitem__("rows", []))
    with pytest.raises(ValueError, match="'rows' must hold at least one row"):
        Certificate.from_json(text)


def test_from_json_rejects_a_truncated_certificate():
    text = certify("root", Root(2, 3), 3).to_json()
    for cut in (1, len(text) // 2, len(text) - 1):
        with pytest.raises(ValueError):
            Certificate.from_json(text[:cut])


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
        "sqrt": lambda: sqrt_approximant(c.m, n),
        "e": lambda: e_approximant(n),
        "inv-e": lambda: inv_e_approximant(n),
        "e-squared": lambda: e_squared_approximant(n),
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
        assert (row.ints, row.bound) == _per_n_row(family, c, hi, row.n), row.n
    assert [row.n for row in cert.rows] == list(range(1, 61))
    assert certify(family, c, 60) == cert


@pytest.mark.parametrize("family", sorted(FAMILY_CONSTANTS))
def test_certify_builds_no_approximant_or_bound_objects(monkeypatch, family):
    # rows travel from the generators to the certificate as plain (ints, bound)
    # tuples; the e^2 chain is checked against its factors in test_sequences
    built = {Approximant: 0, BoundedBy: 0}
    for cls in built:
        def counting(self, _cls=cls, _check=cls.__post_init__):
            built[_cls] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    certify(family, FAMILY_CONSTANTS[family], 30)
    assert built == {Approximant: 0, BoundedBy: 0}


@pytest.mark.parametrize("family", sorted(FAMILY_CONSTANTS))
def test_family_rows_have_the_shape_of_their_layout(family):
    # a pair's q is nonzero, a power form has m coefficients, and every
    # bound is a positive Fraction
    c = FAMILY_CONSTANTS[family]
    layout = FAMILIES[family].layout
    size = c.m if layout is FORM else len(layout.fields)
    rows = FAMILIES[family].rows(c)
    for n, (ints, bound) in enumerate(islice(rows, 40), 1):
        assert len(ints) == size and all(type(x) is int for x in ints), n
        assert layout is not PAIR or ints[1] != 0, n
        assert type(bound) is Fraction and bound > 0, n


def test_root_rows_reduce_once_per_row(monkeypatch):
    # row n is row n-1 times (t - z)^m, multiplied and folded in place: the
    # powers (t - z)^m and (t - z)^(m-1) are reduced once, before row 1, so
    # the reductions do not grow with n_max; rebuilding every row by repeated
    # squaring would take about nine per row
    calls = {"monic_certificate": 0, "reduce_power_form": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)
    counting(sequences, "monic_certificate")
    counting(algebraic, "reduce_power_form")
    seen = []
    for n_max in (120, 240):
        calls.update(dict.fromkeys(calls, 0))
        assert certify("root", Root(7, 4), n_max).verdict == "nice"
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    # each power by repeated squaring: one reduction per bit of m, plus one
    assert 1 <= seen[0]["monic_certificate"] <= 4
    assert seen[0]["reduce_power_form"] <= 4 * seen[0]["monic_certificate"]


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
        assert certificate._digits(negative) == negative_text
        assert certificate._from_digits(negative_text) == negative
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(factorial(400)) in full[0]
