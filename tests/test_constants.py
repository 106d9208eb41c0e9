"""Tests for constant specs, their enclosures, and the text forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irratcert.constants import (AlgebraicRoot, CosInv, CosOf, E, EPow,
                                 ERational, InvE, Root, SinInv, SinOf, Sqrt,
                                 _grid_bits, _width_bits, canonical_text,
                                 enclose, floor_of, integer_nth_root,
                                 parse_constant)
from irratcert.errors import (BracketAmbiguousError, PerfectPowerError,
                              ZeroExponentError)
from irratcert.intpoly import IntPolynomial

from oracles import (assert_overlaps, cos_bracket, e_bracket, exp_bracket,
                     sin_bracket, sqrt_bracket)


def test_integer_nth_root():
    assert integer_nth_root(8, 3) == 2
    assert integer_nth_root(9, 2) == 3
    assert integer_nth_root(10, 3) == 2
    assert integer_nth_root(26, 2) == 5
    assert integer_nth_root(1, 5) == 1
    assert integer_nth_root(10 ** 60, 4) == 10 ** 15
    assert integer_nth_root(10 ** 60 - 1, 4) == 10 ** 15 - 1


def test_spec_validation():
    with pytest.raises(PerfectPowerError):
        Sqrt(4)
    with pytest.raises(PerfectPowerError):
        Sqrt(9)
    with pytest.raises(ValueError):
        Sqrt(1)
    with pytest.raises(PerfectPowerError):
        Root(8, 3)
    with pytest.raises(PerfectPowerError):
        Root(27, 3)
    with pytest.raises(ValueError):
        Root(2, 1)
    with pytest.raises(ZeroExponentError):
        ERational(0)
    with pytest.raises(ValueError):
        EPow(0)
    with pytest.raises(ValueError):
        SinInv(0)
    with pytest.raises(ValueError):
        SinOf(0)
    with pytest.raises(ValueError):
        CosOf(0)
    # fine specs
    Sqrt(2), Root(4, 4), EPow(1), ERational(Fraction(-3, 4)), SinInv(1)


def test_sqrt_enclosure_squeezes_truth():
    for width in (Fraction(1, 10), Fraction(1, 10 ** 6), Fraction(1, 10 ** 30)):
        e = enclose(Sqrt(2), width)
        assert e.width <= width
        assert 0 < e.lo
        assert e.lo * e.lo < 2 < e.hi * e.hi
    lo, hi = sqrt_bracket(7, 80)
    assert_overlaps(enclose(Sqrt(7), Fraction(1, 10 ** 20)), lo, hi)


def test_root_enclosure():
    e = enclose(Root(2, 3), Fraction(1, 10 ** 12))
    assert e.lo ** 3 < 2 < e.hi ** 3
    assert e.width <= Fraction(1, 10 ** 12)
    e = enclose(Root(4, 4), Fraction(1, 10 ** 9))
    assert e.lo ** 4 < 4 < e.hi ** 4


def test_e_family_enclosures_against_partial_sums():
    lo, hi = e_bracket(25)
    assert_overlaps(enclose(E(), Fraction(1, 10 ** 15)), lo, hi)
    lo, hi = exp_bracket(2, 30)
    assert_overlaps(enclose(EPow(2), Fraction(1, 10 ** 15)), lo, hi)
    lo, hi = exp_bracket(-1, 20)
    assert_overlaps(enclose(InvE(), Fraction(1, 10 ** 15)), lo, hi)
    lo, hi = exp_bracket(Fraction(-3, 4), 20)
    assert_overlaps(enclose(ERational(Fraction(-3, 4)), Fraction(1, 10 ** 15)), lo, hi)


def test_trig_enclosures_against_partial_sums():
    for m in (1, 2, 3):
        lo, hi = sin_bracket(Fraction(1, m), 12)
        assert_overlaps(enclose(SinInv(m), Fraction(1, 10 ** 15)), lo, hi)
        lo, hi = cos_bracket(Fraction(1, m), 12)
        assert_overlaps(enclose(CosInv(m), Fraction(1, 10 ** 15)), lo, hi)
    lo, hi = sin_bracket(Fraction(22, 7), 25)
    assert_overlaps(enclose(SinOf(Fraction(22, 7)), Fraction(1, 10 ** 12)), lo, hi)
    lo, hi = cos_bracket(3, 25)
    assert_overlaps(enclose(CosOf(Fraction(3)), Fraction(1, 10 ** 12)), lo, hi)


def test_trig_enclosures_stay_inside_unit_range():
    # the series bracket is clipped, so even a coarse request stays in [-1, 1]
    for spec in (SinOf(Fraction(3)), CosOf(Fraction(3)), SinOf(Fraction(22, 7))):
        e = enclose(spec, Fraction(1, 2))
        assert -1 <= e.lo <= e.hi <= 1


def test_enclosures_overlap_across_widths():
    # narrower requests must stay consistent with wider ones: both contain
    # the same real number
    for spec in (Sqrt(2), Root(2, 3), E(), InvE(), EPow(2),
                 ERational(Fraction(1, 2)), SinInv(2), CosInv(1),
                 SinOf(Fraction(1, 3)), CosOf(Fraction(5, 2))):
        wide = enclose(spec, Fraction(1, 100))
        narrow = enclose(spec, Fraction(1, 10 ** 18))
        assert_overlaps(narrow, wide.lo, wide.hi)
        assert narrow.width <= Fraction(1, 10 ** 18)


def test_algebraic_root_spec_and_enclosure():
    f = IntPolynomial((-2, 0, 1))
    spec = AlgebraicRoot(f, 1, 2)
    e = enclose(spec, Fraction(1, 10 ** 12))
    assert e.lo ** 2 < 2 < e.hi ** 2
    # bracket holding two roots is rejected
    g = IntPolynomial((-2, 0, 1))
    with pytest.raises(BracketAmbiguousError):
        AlgebraicRoot(g, -2, 2)
    # endpoints must straddle a sign change
    with pytest.raises(ValueError):
        AlgebraicRoot(f, 2, 3)
    # rational root lands exactly: enclosure collapses to a point
    h = IntPolynomial((-1, 1))
    spec = AlgebraicRoot(h, 0, 2)
    e = enclose(spec, Fraction(1, 10 ** 6))
    assert e.contains(1)


def test_floor_of():
    assert floor_of(Sqrt(2)) == 1
    assert floor_of(Sqrt(99)) == 9
    assert floor_of(Root(2, 3)) == 1
    assert floor_of(E()) == 2
    assert floor_of(EPow(2)) == 7
    assert floor_of(InvE()) == 0
    assert floor_of(SinInv(2)) == 0
    assert floor_of(CosOf(Fraction(3))) == -1
    # 3 in (2, 17/5) and -5/3 in (-2, -3/2): no bisection midpoint is the
    # root, which the spec finds rational and encloses as a point
    assert floor_of(AlgebraicRoot(IntPolynomial((-3, 1)), 2, Fraction(17, 5))) == 3
    assert floor_of(AlgebraicRoot(IntPolynomial((5, 3)), -2, Fraction(-3, 2))) == -2


def test_canonical_text_round_trip():
    specs = [Sqrt(2), Root(2, 3), E(), InvE(), EPow(3),
             ERational(Fraction(1, 2)), ERational(Fraction(-3, 4)),
             SinInv(3), CosInv(3), SinOf(Fraction(22, 7)), CosOf(Fraction(1, 1))]
    for spec in specs:
        assert parse_constant(canonical_text(spec)) == spec
    assert canonical_text(Sqrt(2)) == "sqrt:2"
    assert canonical_text(Root(2, 3)) == "root:2,3"
    assert canonical_text(E()) == "e"
    assert canonical_text(InvE()) == "inv-e"
    assert canonical_text(EPow(3)) == "e-pow:3"
    assert canonical_text(ERational(Fraction(1, 2))) == "e-rat:1/2"
    assert canonical_text(SinInv(3)) == "sin-inv:3"
    assert canonical_text(CosOf(Fraction(1, 1))) == "cos:1"
    # surrounding blanks are stripped and the rational is reduced
    assert canonical_text(parse_constant(" e-rat:-2/4 ")) == "e-rat:-1/2"


def test_parse_algebraic_root_text():
    spec = parse_constant("algroot:1,1,-5,2@2,5/2")
    assert isinstance(spec, AlgebraicRoot)
    assert spec.poly == IntPolynomial((1, 1, -5, 2))
    assert spec.lo == 2 and spec.hi == Fraction(5, 2)
    assert parse_constant(canonical_text(spec)) == spec


# integers on both sides of the interpreter's 4,300-digit str() limit
def _ints(lo):
    return st.integers(lo, 10 ** 6) | st.integers(10 ** 4300, 10 ** 4400)


_RATIONALS = st.builds(lambda n, d, neg: Fraction(-n if neg else n, d),
                       _ints(1), _ints(1), st.booleans())
_SPECS = st.one_of(
    _ints(2).filter(lambda m: math.isqrt(m) ** 2 != m).map(Sqrt),
    st.tuples(_ints(2), st.integers(2, 9))
      .filter(lambda am: integer_nth_root(*am) ** am[1] != am[0]).map(lambda am: Root(*am)),
    st.just(E()), st.just(InvE()), _ints(1).map(EPow), _RATIONALS.map(ERational),
    _ints(1).map(SinInv), _ints(1).map(CosInv), _RATIONALS.map(SinOf), _RATIONALS.map(CosOf))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=_SPECS)
def test_text_form_round_trips(spec):
    assert parse_constant(canonical_text(spec)) == spec


def test_fixed_text_forms_round_trip():
    big = 10 ** 4400 + 7
    low = Fraction(math.isqrt(2 * 10 ** 8800), 10 ** 4400)   # ends past the digit limit
    for spec in (Sqrt(big), Root(big, 3), ERational(Fraction(-big, 3 * 10 ** 4350 + 1)),
                 CosOf(Fraction(-7, 10 ** 4301 + 1)),
                 AlgebraicRoot(IntPolynomial((-2, 0, 1)), Fraction(-3, 2), -1),
                 AlgebraicRoot(IntPolynomial((-big, 1)), big - 1, big + Fraction(1, 3)),
                 AlgebraicRoot(IntPolynomial((-2, 0, 1)), low, low + Fraction(1, 10 ** 4400))):
        assert parse_constant(canonical_text(spec)) == spec


# text -> the detail after "spec '<text>': ", or None for an unrecognized spec
MALFORMED = [
    ("", None),
    ("sqrt", None),
    ("sqrt:", None),
    ("e:1", None),
    ("root:2", "root spec needs 2 field(s), got 1"),
    ("root:2,3,4", "root spec needs 2 field(s), got 3"),
    ("sqrt:2,3", "sqrt spec needs 1 field(s), got 2"),
    ("sqrt:x", "invalid literal for int() with base 10: 'x'"),
    ("e-rat:1/0", "zero denominator"),
    ("sin:0", "sin(0) is rational; angle must be nonzero"),
    ("what:7", None),
    ("algroot:1,2", "algroot spec needs coeffs@lo,hi"),
    ("cos:1/2/3", "Invalid literal for Fraction: '1/2/3'"),
]


@pytest.mark.parametrize("text, detail", MALFORMED)
def test_malformed_text(text, detail):
    with pytest.raises(Exception) as info:
        parse_constant(text)
    assert info.type is ValueError
    want = (f"unrecognized constant spec {text!r}" if detail is None
            else f"malformed constant spec {text!r}: {detail}")
    assert str(info.value) == want


def test_twin_kinds_name_themselves():
    for make, message in ((SinInv, "sin-inv spec needs m >= 1, got 0"),
                          (CosInv, "cos-inv spec needs m >= 1, got 0"),
                          (SinOf, "sin(0) is rational; angle must be nonzero"),
                          (CosOf, "cos(0) is rational; angle must be nonzero")):
        with pytest.raises(ValueError) as info:
            make(0)
        assert str(info.value) == message
    assert SinInv(3) != CosInv(3) and SinOf(Fraction(1, 2)) != CosOf(Fraction(1, 2))
    assert repr(CosInv(3)) == "CosInv(m=3)"
    match CosOf(Fraction(1, 2)):
        case SinOf():
            raise AssertionError("CosOf matched the SinOf pattern")
        case CosOf(x=x):
            assert x == Fraction(1, 2)


def test_non_spec_is_a_type_error():
    for call in (canonical_text, lambda c: enclose(c, Fraction(1, 8))):
        with pytest.raises(TypeError, match=r"^not a constant spec: Fraction\(1, 2\)$"):
            call(Fraction(1, 2))


def test_parse_errors():
    # the spec's own error classes pass through unwrapped
    with pytest.raises(PerfectPowerError):
        parse_constant("sqrt:4")
    with pytest.raises(PerfectPowerError):
        parse_constant("root:8,3")
    with pytest.raises(ZeroExponentError):
        parse_constant("e-rat:0")
    for text in ("cos:1/0", "e-rat:3/0", "algroot:-2,0,1@0,1/0"):
        with pytest.raises(ValueError, match=f"spec '{text}': zero denominator$"):
            parse_constant(text)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(u=st.integers(1, 2 ** 300), v=st.integers(1, 2 ** 300),
       g=st.sampled_from((1, 2, 3, 16)) | st.integers(1, 2 ** 100))
@example(u=1, v=1, g=1)
@example(u=3, v=1, g=5)
@example(u=1, v=2 ** 64, g=2 ** 10)
@example(u=1, v=2 ** 64 + 1, g=3)
@example(u=7, v=7 * 2 ** 40 - 1, g=2)
def test_grid_bits_of_an_unreduced_pair(u, v, g):
    # the grid exponent is read off the bit lengths of the pair as given, so
    # a common factor g does not move it
    k = _grid_bits(u * g, v * g)
    assert k == _width_bits(Fraction(u, v))
    assert v <= u << k
    assert k == 0 or u << (k - 1) < v
