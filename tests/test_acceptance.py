"""Acceptance suite: ten end-to-end criteria, one pass line each.

Each test prints a single PASS line after its assertions so a -s run reads
as a checklist.  Oracles live in oracles.py; nothing here trusts a library
value without a second route or an exact hand-derived window.
"""

import json
import time
from fractions import Fraction
from math import factorial

from irratcert.algebraic import reduce_power_form
from irratcert.cli import main
from irratcert.constants import (AlgebraicRoot, CosInv, CosOf, E, EPow,
                                 ERational, InvE, Root, SinInv, SinOf, Sqrt,
                                 integer_nth_root)
from irratcert.intpoly import IntPolynomial
from irratcert.niven import RationalPolynomial, exp_functional_int, niven_poly
from irratcert.pigeonhole import pigeonhole_approximant
from irratcert.sequences import sin_inv_m_approximant, sqrt_approximant
from irratcert.verify import (Certificate, certify, integral_exp_poly,
                              pair_residual, trig_residual)

from oracles import (Interval, bridge_derivative_at, e_bracket, modular_powers_remainder,
                     sqrt_ring_power)
from test_cli import CORPUS_ERROR, CORPUS_OK, CORPUS_VIOLATED

import random


def _ok(msg):
    print(f"PASS  {msg}", flush=True)


def test_acceptance_01_algebraic_exactness():
    started = time.monotonic()
    checked = 0
    for m in (2, 3, 5, 7, 10):
        z = integer_nth_root(m, 2)
        for n in range(1, 13):
            app, _ = sqrt_approximant(m, n)
            assert sqrt_ring_power(m, z, 2 * n - 1) == (-app.p, app.q)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _ok(f"criterion 1: {checked} sqrt approximants equal the exact ring "
        f"expansion, zero tolerance, {elapsed:.2f}s")


def test_acceptance_02_e_sandwich():
    cert = certify("e", E(), 20, max_width=Fraction(1, 10 ** 8))
    assert cert.verdict == "nice"
    for row in cert.rows:
        assert row.residual.hi - row.residual.lo <= Fraction(1, 10 ** 8)
        assert Fraction(1, row.n + 1) < row.residual.lo
        assert row.residual.hi < Fraction(1, row.n)
    _ok("criterion 2: e residuals strictly inside (1/(n+1), 1/n) for "
        "n = 1..20 at width 1e-8")


def test_acceptance_03_niven_integrality_and_identity():
    for n in range(1, 11):
        for k in range(1, 6):
            pair = exp_functional_int(n, k)
            for point, got in ((0, pair.at0), (1, pair.at1)):
                acc = Fraction(0)
                for i in range(0, 2 * n + 1):
                    acc += Fraction((-1) ** i * k ** (2 * n - i)
                                    * bridge_derivative_at(n, i, point),
                                    factorial(n))
                assert acc.denominator == 1
                assert acc == got
    for n in range(1, 7):
        for k in range(1, 4):
            pair = exp_functional_int(n, k)
            left = pair_residual(pair.at0, pair.at1, EPow(k), (1, 10 ** 12))
            scaled = RationalPolynomial(
                tuple(k ** (2 * n + 1) * c for c in niven_poly(n).coeffs))
            right = integral_exp_poly(k, scaled, (1, 10 ** 12))
            assert left.lo <= right.hi and right.lo <= left.hi
            assert left.lo > 0
            assert left.hi < Fraction(21 * k ** (2 * n + 1), factorial(n))
    # spot value: at (n=1, k=1) the residual is exactly 3 - e
    pair = exp_functional_int(1, 1)
    enc = pair_residual(pair.at0, pair.at1, E(), (1, 10 ** 9))
    assert enc.hi - enc.lo <= Fraction(1, 10 ** 9)
    lo, hi = e_bracket(30)
    assert enc.lo <= 3 - lo and 3 - hi <= enc.hi
    _ok("criterion 3: functional tables integral and equal to the symbolic "
        "oracle (n<=10, k<=5); residual matches quadrature (n<=6, k<=3); "
        "spot residual 3-e at width 1e-9")


def test_acceptance_04_sin_inv_bounds():
    for m in range(1, 6):
        cert = certify("sin-inv", SinInv(m), 8)
        assert cert.verdict == "nice"
        for row in cert.rows:
            assert row.bound == Fraction(1, m * m * (4 * row.n) ** 2 - 1)
            assert row.residual.lo > 0
            assert row.residual.hi < row.bound
    app, _ = sin_inv_m_approximant(1, 1)
    assert (app.p, app.q) == (5, 6)
    enc = pair_residual(5, 6, SinInv(1), (1, 10 ** 6))
    assert Fraction(487, 10 ** 4) < enc.lo <= enc.hi < Fraction(489, 10 ** 4)
    _ok("criterion 4: sin(1/m) residuals positive and below 1/(m^2(4n)^2-1) "
        "for m<=5, n<=8; |6 sin 1 - 5| inside (0.0487, 0.0489)")


def test_acceptance_05_trig_angle_certificates():
    for angle in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3)):
        cert = certify("trig-angle", CosOf(angle), 8)
        p, q = angle.numerator, angle.denominator
        for row in cert.rows:
            assert row.nonzero_ok
            assert row.bound_ok
            assert row.bound == Fraction(p ** (2 * row.n + 1),
                                         factorial(row.n) * q)
    enc = trig_residual((-2, -2, 1), Fraction(1), (1, 10 ** 6))
    assert enc.hi - enc.lo <= Fraction(1, 10 ** 6)
    assert Fraction(77923, 10 ** 6) < enc.lo <= enc.hi < Fraction(77926, 10 ** 6)
    _ok("criterion 5: Gaussian witnesses nonzero and below p^(2n+1)/(n! q) "
        "for angles {1, 1/2, 1/3, 3}, n<=8; spot residual ~0.077924")


def test_acceptance_06_pigeonhole_all_constants():
    cubic = IntPolynomial((1, 1, -5, 2))
    specs = [Sqrt(2), Sqrt(7), Root(2, 3), E(), InvE(), EPow(2),
             ERational(Fraction(1, 2)), SinInv(1), SinInv(3), CosInv(2),
             SinOf(Fraction(22, 7)), CosOf(Fraction(1, 2)),
             AlgebraicRoot(cubic, 2, Fraction(5, 2))]
    big_run = 0.0
    for spec in specs:
        for n in (3, 5, 10, 50, 200):
            started = time.monotonic()
            r = pigeonhole_approximant(spec, n)
            took = time.monotonic() - started
            if n == 200:
                big_run += took
            assert 0 < r.q <= n
            assert Interval.of(r.residual).max_abs() < Fraction(1, n)
        again = pigeonhole_approximant(spec, 50)
        once = pigeonhole_approximant(spec, 50)
        assert (again.p, again.q, again.residual) == (once.p, once.q, once.residual)
    assert big_run < 10.0
    _ok(f"criterion 6: pigeonhole over {len(specs)} constants at "
        f"n in {{3,5,10,50,200}}: 0 < q <= n, |q a - p| < 1/n, deterministic; "
        f"n=200 total {big_run:.2f}s")


def test_acceptance_07_reduction_oracle():
    rng = random.Random(811)
    for _ in range(500):
        deg = rng.randint(1, 6)
        modulus_coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
        vec = [rng.randint(-9, 9) for _ in range(rng.randint(1, 13))]
        got = reduce_power_form(IntPolynomial(modulus_coeffs), vec)
        assert got.coeffs == modular_powers_remainder(modulus_coeffs, vec)
    _ok("criterion 7: power-form reduction equals the modular-powers "
        "remainder on 500 random instances, exact")


def test_acceptance_08_negative_control():
    cert = certify("e-squared-naive", EPow(2), 8)
    assert cert.verdict == "violated:1"
    for row in cert.rows:
        assert row.residual.lo > Fraction(factorial(row.n), row.n + 1)
        assert not row.bound_ok
    _ok("criterion 8: term-wise squared e family violated at row 1 with "
        "residual above n!/(n+1) for n<=8")


def test_acceptance_09_root_classification(capsys):
    assert main(["classify", "--poly", "1,1,-5,2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.endswith("irrational") for line in lines)
    windows = [(Fraction(-1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1)),
               (Fraction(2), Fraction(5, 2))]
    for line, (lo, hi) in zip(lines, windows):
        inside = line.split("(")[1].split(")")[0]
        a, b = (Fraction(part.strip()) for part in inside.split(","))
        assert lo <= a < b <= hi
    with capsys.disabled():
        _ok("criterion 9: cubic classifies as three irrational roots with "
            "brackets inside (-1/2,0), (1/2,1), (2,5/2)")


def test_acceptance_10_cli_contract(capsys):
    for argv in CORPUS_OK:
        assert main(argv) == 0, argv
        capsys.readouterr()
    for argv in CORPUS_VIOLATED:
        assert main(argv) == 2, argv
        capsys.readouterr()
    for argv in CORPUS_ERROR:
        assert main(argv) == 1, argv
        capsys.readouterr()
    assert main(["cert", "--family", "e", "--n-max", "20", "--format", "json"]) == 0
    text = capsys.readouterr().out
    cert = Certificate.from_json(text)
    assert cert.to_json() + "\n" == text
    data = json.loads(text)
    assert data["rows"][19]["q"] == str(factorial(20))
    assert Fraction(data["rows"][19]["residual_lo"]) == cert.rows[19].residual.lo
    with capsys.disabled():
        _ok("criterion 10: golden corpus of 15 runs partitions exit codes "
            "11/1/3 and JSON round-trips bit-exactly at 20!-sized integers")


def test_acceptance_summary():
    _ok("acceptance: all ten criteria hold")
