"""Tests for the bin-collision construction and the fractional-part criterion."""

import tracemalloc
from fractions import Fraction
from math import factorial, floor, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irratcert import pigeonhole
from irratcert.constants import (CosInv, E, EPow, ERational, InvE, Root,
                                 SinInv, SinOf, Sqrt, parse_constant)
from irratcert.enclosure import Enclosure
from irratcert.pigeonhole import (_farey_neighbours, _shared_bin, fractional_residual,
                                  pigeonhole_approximant, simplest_between)

from oracles import (Interval, bin_placements, enclosure_fractional_residual,
                     fraction_bin_placements, sorted_shared_bin, sqrt_bracket)


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
            assert Interval.of(r.residual).max_abs() < Fraction(1, n)
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
        assert enc.hi - enc.lo <= Fraction(1, 10 ** 6)


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
    assert Interval.of(small).max_abs() < Interval.of(big).min_abs()
    ten = fractional_residual(factorial(10), E())
    assert Fraction(-1, 9) < ten.lo <= ten.hi < 0


def test_fractional_residual_rejects_zero():
    with pytest.raises(ValueError):
        fractional_residual(0, E())


# one constant of each kind, with the rational algroot points 2/3 and 1/2
# that `enclose` returns as points
FRACPART_CONSTANTS = ["sqrt:2", "root:5,3", "e", "inv-e", "e-pow:3", "e-rat:-1/2", "e-rat:7/3",
                      "sin-inv:2", "cos-inv:3", "sin:1/3", "cos:22/7", "algroot:1,1,-5,2@2,5/2",
                      "algroot:-2,3@0,1", "algroot:-1,2@0,1"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(constant=st.sampled_from(FRACPART_CONSTANTS),
       q=st.one_of(st.integers(-60, 60), st.integers(-10 ** 40, 10 ** 40)).filter(bool),
       width=st.one_of(st.integers(0, 30).map(lambda k: Fraction(1, 10 ** k)),
                       st.fractions(Fraction(1, 10 ** 12), 1)))
@example(constant="e", q=10 ** 40, width=Fraction(1))
@example(constant="algroot:-1,2@0,1", q=-(10 ** 40) - 1, width=Fraction(1, 10 ** 30))
@example(constant="cos:22/7", q=-7, width=Fraction(1, 10 ** 30))
@example(constant="sqrt:2", q=-1, width=Fraction(1, 10 ** 6))
def test_fractional_residual_matches_the_interval_formula(constant, q, width):
    # the integer pass gives the very ends that q * enc, its floor, f (f - 1)
    # and the clamp to [-1/4, 0] give on Enclosures
    c = parse_constant(constant)
    got, want = fractional_residual(q, c, width), enclosure_fractional_residual(q, c, width)
    assert (got.lo, got.hi) == (want.lo, want.hi)


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
    assert bin_placements(Enclosure(Fraction(1, 3), Fraction(1, 3)),
                          3) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert bin_placements(Enclosure(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 9)),
                          3) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert bin_placements(Enclosure(Fraction(1, 3) - Fraction(1, 10 ** 9), Fraction(1, 3)),
                          3) is None
    # negative values floor downwards
    assert bin_placements(Enclosure(Fraction(-1, 4), Fraction(-1, 4)),
                          2) == [(0, 0), (-1, 1), (-1, 1)]


def test_pigeonhole_makes_no_interval_product_per_multiple(monkeypatch):
    # an Enclosure has no operators; a counting product is installed so that
    # one is counted, not only raised where a caller might catch the error
    products, tries = [], []
    original_mul, original_enclose = Interval.__mul__, pigeonhole.enclose

    def counting_mul(self, other):
        products.append(other)
        return original_mul(self, other)

    def counting_enclose(c, width):
        tries.append(width)
        return original_enclose(c, width)

    monkeypatch.setattr(Enclosure, "__mul__", counting_mul, raising=False)
    monkeypatch.setattr(pigeonhole, "enclose", counting_enclose)
    r = pigeonhole_approximant(E(), 1500)
    assert (r.p, r.q) == (2721, 1001)
    assert tries and len(products) <= 2 * len(tries)


# Recorded before the bin scan read its floors off the simplest rational in
# the enclosure: (constant, n, p, q, residual_lo, residual_hi, enclose calls)
# for one constant of each kind the witness workload sends, and for
# algroot:-2,3@0,1, the rational root 2/3, which `enclose` returns as a point.
PIGEONHOLE_PINS = [
    ('sqrt:3', 1, 1, 1, '5/8', '3/4', 1),
    ('sqrt:3', 2, 3, 2, '7/16', '15/32', 1),
    ('sqrt:3', 3, 5, 3, '49/256', '13/64', 1),
    ('sqrt:3', 7, 12, 7, '253/2048', '65/512', 1),
    ('sqrt:3', 50, 71, 41, '7365/524288', '3703/262144', 1),
    ('sqrt:3', 200, 265, 153, '126613/33554432', '63383/16777216', 1),
    ('sqrt:3', 799, 989, 571, '1085467/1073741824', '2171505/2147483648', 1),
    ('sqrt:3', 1500, 2340, 1351, '5506317/8589934592', '11013985/17179869184', 1),
    ('root:5,3', 1, 1, 1, '5/8', '3/4', 1),
    ('root:5,3', 2, 3, 2, '13/32', '7/16', 1),
    ('root:5,3', 3, 5, 3, '31/256', '17/128', 1),
    ('root:5,3', 7, 5, 3, '133/1024', '269/2048', 1),
    ('root:5,3', 50, 53, 31, '4825/524288', '607/65536', 1),
    ('root:5,3', 200, 171, 100, '-80803/33554432', '-80641/33554432', 1),
    ('root:5,3', 799, 737, 431, '-394417/1073741824', '-787741/2147483648', 1),
    ('root:5,3', 1500, 737, 431, '-3152619/8589934592', '-6304345/17179869184', 1),
    ('e', 1, 2, 1, '20137/32768', '47107/65536', 1),
    ('e', 2, 5, 2, '415927/1048576', '457885/1048576', 1),
    ('e', 3, 8, 3, '2434993/16777216', '2598163/16777216', 1),
    ('e', 7, 19, 7, '3328719/134217728', '3754977/134217728', 1),
    ('e', 50, 106, 39, '445565509/34359738368', '111594655/8589934592', 1),
    ('e', 200, 193, 71, '-4377546489/2199023255552', '-4376061257/2199023255552', 1),
    ('e', 799, 1264, 465, '73892290229/70368744177664', '147807227353/140737488355328', 1),
    ('e', 1500, 2721, 1001, '248289969909/2251799813685248', '62086350071/562949953421312', 1),
    ('inv-e', 1, 0, 1, '36857/131072', '50523/131072', 1),
    ('inv-e', 2, 0, 1, '191363/524288', '403705/1048576', 1),
    ('inv-e', 3, 1, 3, '798067/8388608', '219913/2097152', 1),
    ('inv-e', 7, 1, 3, '3472417/33554432', '7036175/67108864', 1),
    ('inv-e', 50, 7, 19, '-709142611/68719476736', '-705848469/68719476736', 1),
    ('inv-e', 200, 71, 193, '3216442831/4398046511104', '3220290865/4398046511104', 1),
    ('inv-e', 799, 71, 193, '103039771357/140737488355328', '25762292759/35184372088832', 1),
    ('inv-e', 1500, 536, 1457,
     '1557134033033/4503599627370496', '1557295395783/4503599627370496', 1),
    ('e-pow:2', 1, 7, 1, '168643/524288', '204181/524288', 1),
    ('e-pow:2', 2, 7, 1, '3127163/8388608', '3264155/8388608', 1),
    ('e-pow:2', 3, 22, 3, '5255053/33554432', '701273/4194304', 1),
    ('e-pow:2', 7, 37, 5, '-7443417/134217728', '-14655295/268435456', 1),
    ('e-pow:2', 50, 133, 18, '206294321/68719476736', '206831045/68719476736', 1),
    ('e-pow:2', 200, 133, 18, '26473187533/8796093022208', '26474312227/8796093022208', 1),
    ('e-pow:2', 799, 2431, 329,
     '-305971018545/562949953421312', '-305918272665/562949953421312', 1),
    ('e-pow:2', 1500, 2431, 329,
     '-9790131036153/18014398509481984', '-9789840872019/18014398509481984', 1),
    ('e-rat:-2/5', 1, 0, 1, '21889/32768', '22673/32768', 1),
    ('e-rat:-2/5', 2, 1, 2, '22041/65536', '5587/16384', 1),
    ('e-rat:-2/5', 3, 2, 3, '18943/4194304', '48157/4194304', 1),
    ('e-rat:-2/5', 7, 2, 3, '366581/33554432', '385031/33554432', 1),
    ('e-rat:-2/5', 50, 2, 3, '188292013/17179869184', '188327353/17179869184', 1),
    ('e-rat:-2/5', 200, 61, 91, '-962976679/1099511627776', '-962813137/1099511627776', 1),
    ('e-rat:-2/5', 799, 61, 91, '-61632799567/70368744177664', '-61626964591/70368744177664', 1),
    ('e-rat:-2/5', 1500, 734, 1095,
     '507044117389/1125899906842624', '507118093399/1125899906842624', 1),
    ('sin:5/7', 1, 0, 1, '21413/32768', '25397/32768', 1),
    ('sin:5/7', 2, 1, 2, '39843/131072', '40659/131072', 1),
    ('sin:5/7', 3, 1, 2, '39845/131072', '162631/524288', 1),
    ('sin:5/7', 7, 2, 3, '-583935/16777216', '-290375/8388608', 1),
    ('sin:5/7', 50, 19, 29, '-47300749/17179869184', '-47011075/17179869184', 1),
    ('sin:5/7', 200, 19, 29, '-753494449/274877906944', '-376683227/137438953472', 1),
    ('sin:5/7', 799, 471, 719, '35468250059/35184372088832', '35468360785/35184372088832', 1),
    ('sin:5/7', 1500, 716, 1093, '79720293243/562949953421312', '79722796213/562949953421312', 1),
    ('cos:-11/4', 1, -1, 1, '19741/262144', '11661/131072', 1),
    ('cos:-11/4', 2, -1, 1, '631845/8388608', '746223/8388608', 1),
    ('cos:-11/4', 3, -1, 1, '5028609/67108864', '5081045/67108864', 1),
    ('cos:-11/4', 7, -1, 1, '40639569/536870912', '40657017/536870912', 1),
    ('cos:-11/4', 50, -12, 13, '-4386604809/274877906944', '-4375078233/274877906944', 1),
    ('cos:-11/4', 200, -171, 185, '71422639501/17592186044416', '71504901601/17592186044416', 1),
    ('cos:-11/4', 799, -232, 251,
     '115926293725/1125899906842624', '115928630535/1125899906842624', 1),
    ('cos:-11/4', 1500, -232, 251,
     '29677128632647/288230376151711744', '29677136804203/288230376151711744', 5),
    ('algroot:7,-14,-1,2@2,3', 1, 2, 1, '5/8', '3/4', 1),
    ('algroot:7,-14,-1,2@2,3', 2, 5, 2, '9/32', '5/16', 1),
    ('algroot:7,-14,-1,2@2,3', 3, 5, 2, '37/128', '19/64', 1),
    ('algroot:7,-14,-1,2@2,3', 7, 8, 3, '-131/2048', '-63/1024', 1),
    ('algroot:7,-14,-1,2@2,3', 50, 82, 31, '9569/524288', '75/4096', 1),
    ('algroot:7,-14,-1,2@2,3', 200, 127, 48, '-132207/33554432', '-132001/33554432', 1),
    ('algroot:7,-14,-1,2@2,3', 799, 1307, 494, '1232251/1073741824', '616249/536870912', 1),
    ('algroot:7,-14,-1,2@2,3', 1500, 2024, 765, '-4244905/17179869184', '-265197/1073741824', 1),
    ('algroot:-2,3@0,1', 1, 0, 1, '2/3', '2/3', 1),
    ('algroot:-2,3@0,1', 2, 1, 2, '1/3', '1/3', 1),
    ('algroot:-2,3@0,1', 3, 2, 3, '0', '0', 1),
    ('algroot:-2,3@0,1', 7, 2, 3, '0', '0', 1),
    ('algroot:-2,3@0,1', 50, 2, 3, '0', '0', 1),
    ('algroot:-2,3@0,1', 200, 2, 3, '0', '0', 1),
    ('algroot:-2,3@0,1', 799, 2, 3, '0', '0', 1),
    ('algroot:-2,3@0,1', 1500, 2, 3, '0', '0', 1),
]


# Recorded at n = 10^6 while the shared bin was still found by sorting the
# n+1 bins, in the same shape.
MILLION_PINS = [
    ('e', 10 ** 6, 1084483, 398959, '232389438063647575/1208925819614629174706176',
     '232389457875153597/1208925819614629174706176', 1),
    ('sqrt:2', 10 ** 6, 665857, 470832, '-3462970568561/4611686018427387904',
     '-3462969707679/4611686018427387904', 1),
    ('sin:5/7', 10 ** 6, 351560, 536669, '2121250891224063/2361183241434822606848',
     '135760059278933107/151115727451828646838272', 1),
    ('cos:-11/4', 10 ** 6, -520666, 563307,
     '-1533603003487855391/4835703278458516698824704',
     '-1533602370979335275/4835703278458516698824704', 1),
    ('algroot:-2,3@0,1', 10 ** 6, 2, 3, '0', '0', 1),
]


def test_pigeonhole_pins(monkeypatch):
    calls, original_enclose = [], pigeonhole.enclose

    def counting_enclose(c, width):
        calls.append(width)
        return original_enclose(c, width)

    monkeypatch.setattr(pigeonhole, "enclose", counting_enclose)
    for constant, n, p, q, lo, hi, tries in PIGEONHOLE_PINS + MILLION_PINS:
        calls.clear()
        r = pigeonhole_approximant(parse_constant(constant), n)
        assert (r.p, r.q, r.residual.lo, r.residual.hi, len(calls)) == (
            p, q, Fraction(lo), Fraction(hi), tries), (constant, n)


def least_denominator(lo, hi):
    """Least q > 0 with some integer p and lo < p/q < hi; hi None is no upper end."""
    q = 1
    while hi is not None and Fraction(floor(lo * q) + 1, q) >= hi:
        q += 1
    return q


@st.composite
def open_intervals(draw):
    """(lo, hi) with lo < hi, or hi None: general, integer ends, adjacent
    Farey pairs (reached by a random Stern-Brocot path) and no upper end."""
    kind = draw(st.sampled_from(["general", "integers", "farey", "unbounded"]))
    shift = draw(st.integers(-50, 50))
    if kind == "farey":
        (a, b), (c, d) = (0, 1), (1, 0)
        for left in draw(st.lists(st.booleans(), min_size=1, max_size=12)):
            if left:
                c, d = a + c, b + d
            else:
                a, b = a + c, b + d
        lo = Fraction(a, b) + shift
        return lo, (Fraction(c, d) + shift if d else None)
    lo = Fraction(draw(st.integers(-10 ** 4, 10 ** 4)), draw(st.integers(1, 300)))
    if kind == "integers":
        lo = Fraction(shift)
        ends = draw(st.sampled_from(["both", "lo", "hi"]))
        if ends == "hi":
            lo -= Fraction(1, draw(st.integers(1, 300)))
        if ends != "lo":
            return lo, Fraction(shift + draw(st.integers(1, 3)))
    if kind == "unbounded":
        return lo, None
    return lo, lo + Fraction(draw(st.integers(1, 400)), draw(st.integers(1, 10 ** 4)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(interval=open_intervals())
@example(interval=(Fraction(1, 3), Fraction(1, 2)))
@example(interval=(Fraction(-7, 2), Fraction(-3)))
@example(interval=(Fraction(2), Fraction(3)))
@example(interval=(Fraction(2), None))
@example(interval=(Fraction(-1, 2), Fraction(1, 2)))
def test_simplest_between_has_the_least_denominator(interval):
    lo, hi = interval
    p, q = simplest_between(lo.numerator, lo.denominator,
                            *((hi.numerator, hi.denominator) if hi is not None else (1, 0)))
    assert q > 0 and gcd(p, q) == 1
    assert lo < Fraction(p, q) and (hi is None or Fraction(p, q) < hi)
    assert q == least_denominator(lo, hi)


def test_ambiguous_try_builds_nothing_per_multiple(monkeypatch):
    """No try builds anything per multiple: a try whose enclosure leaves a
    floor open stops at the rotation, and a settled one walks the points
    holding a few integers, so the module calls no range and the memory an
    approximant takes does not grow with n."""
    n, lengths, tries = 1500, [], []
    original_enclose = pigeonhole.enclose

    def counting_range(*args):
        lengths.append(len(range(*args)))
        return range(*args)

    def widened_enclose(c, width):
        # the first two tries get an enclosure at least a unit wide, which
        # straddles an integer
        tries.append(width)
        enc = original_enclose(c, width)
        return Enclosure(enc.lo - 1, enc.hi) if len(tries) <= 2 else enc

    monkeypatch.setattr(pigeonhole, "range", counting_range, raising=False)
    assert bin_placements(Enclosure(Fraction(1, 3) - Fraction(1, 10 ** 9), Fraction(1, 3)),
                          3) is None
    assert bin_placements(Enclosure(Fraction(2), Fraction(3)), n) is None
    monkeypatch.setattr(pigeonhole, "enclose", widened_enclose)
    r = pigeonhole_approximant(E(), n)
    assert (r.p, r.q) == (2721, 1001)
    assert len(tries) == 3 and lengths == []
    # one list of 10^6 + 1 floors alone would take 8 MB
    monkeypatch.setattr(pigeonhole, "enclose", original_enclose)
    tracemalloc.start()
    try:
        r = pigeonhole_approximant(Sqrt(2), 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.p, r.q) == (665857, 470832) and peak < 64 * 1024


@st.composite
def rotations(draw):
    """(P, Q, n): the rotation `_rotation` returns for an enclosure of some
    width, Q > n, or any small Q; for a point a/d, P = n*a and Q = d, whose
    points repeat when d <= n; or P/nQ just off a fraction u/s with s <= n + 2,
    whose points line up in long runs of one step.  P may be negative."""
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["width", "point", "near"]))
    if kind == "point":
        d = draw(st.integers(1, 2 * n + 2))
        return n * draw(st.integers(-10 * d, 10 * d)), d, n
    if kind == "near":
        s, w = draw(st.integers(1, n + 2)), draw(st.integers(1, 10 ** 6))
        off = draw(st.integers(-1000, 1000))
        return n * draw(st.integers(-3 * s, 3 * s)) * w + off, s * w, n
    Q = draw(st.one_of(st.integers(1, n + 5), st.integers(n + 1, 10 ** 6)))
    return draw(st.integers(-10 ** 3 * Q, 10 ** 3 * Q)), Q, n


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rotation=rotations())
@example(rotation=(1, 1501, 1500))
@example(rotation=(2 * 10 ** 6, 3, 10 ** 6))
@example(rotation=(-7, 5, 1))
@example(rotation=(-1, 4, 3))
@example(rotation=(-1, 2, 3))
@example(rotation=(-4, 3, 5))
def test_shared_bin_walk_matches_sorted_bins(rotation):
    assert _shared_bin(*rotation) == sorted_shared_bin(*rotation)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rotation=rotations())
def test_farey_neighbours_are_the_extreme_points(rotation):
    # a and b are the k in 1..n at the least and the greatest k*P mod nQ
    P, Q, n = rotation
    m = n * Q
    assume(m // gcd(P, m) > n)
    points = [k * P % m for k in range(n + 1)]
    a, b = _farey_neighbours(P % m, m, n)
    assert points[a] == min(points[1:]) and points[b] == max(points[1:])
