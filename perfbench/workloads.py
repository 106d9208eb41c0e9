"""Seeded `irratcert` CLI requests for the three benchmark workloads.

A workload is built from units: one request of each main kind (a family,
or a subcommand and its size stratum).  A run of --seconds gets a fixed
number of units, sized from the nominal cost of a unit, so every seed and
every commit does the same amount of work whatever the machine's speed.

Within a run each family's size parameter (`n_max`, `n`) takes one value
from each of as many equal strata as there are units, jittered near the
stratum's middle by the seed, and the family parameter (`k`, `r`, the
angle, `m`, ...) is fixed by the stratum.  Seeds therefore send different
requests that do nearly the same work, which keeps medians comparable
between seeds; the seed also sets the order.

`coverage` gives the few cheap requests a traced run adds so that every
per-layer counter is measured on every workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import is_squarefree

# angles a/b with a*100000 <= 314159*b are accepted by trig-angle; those in
# (3.14159, 355/113] are refused as too close to pi
_PI_NUM, _PI_DEN = 314159, 100000
_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Request:
    kind: str           # cert, pigeonhole, classify, fracpart or error
    argv: tuple
    expect: dict = field(compare=False)


def _pick(values, u):
    return values[int(u * len(values))]


def _strata(rng, count, lo, hi):
    """One value in [lo, hi] from each of `count` equal strata: the middle,
    jittered by the seed over a quarter of the stratum, so that seeds send
    different sizes whose costs still match closely."""
    return [lo + int((i + 0.5 + (rng.random() - 0.5) / 4) * (hi - lo + 1) / count)
            for i in range(count)]


def _param_at(i):
    """Family-parameter position of stratum i: spread evenly and the same for
    every seed, so that sizes and parameters pair up alike in every run."""
    return (0.5 + i * _GOLDEN) % 1.0


def _cert(family, n, params, constant, spec):
    argv = ("cert", "--family", family, *params, "--n-max", str(n), "--format", "json")
    return Request("cert", argv, {"family": family, "n_max": n,
                                  "constant": constant, "spec": spec})


def _is_power(a, m):
    z = round(a ** (1 / m))
    return any((z + d) ** m == a for d in (-1, 0, 1))


def _non_power(rng, lo, hi, m):
    while True:
        a = rng.randint(lo, hi)
        if not _is_power(a, m):
            return a


def _rational(rng, max_num, max_den):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, max_num), rng.randint(1, max_den))


E_POW_K = tuple(range(1, 7))
E_RAT = tuple(sorted({Fraction(a, b) for a in range(-4, 5) if a for b in range(1, 6)}))
ANGLES = tuple(sorted({Fraction(a, b) for b in range(1, 6)
                       for a in range(1, _PI_NUM * b // _PI_DEN + 1)}))
SQRT_M = tuple(m for m in range(2, 100) if not _is_power(m, 2))
ROOTS = tuple((a, m) for m in (3, 4) for a in range(2, 13) if not _is_power(a, m))
TRIG_M = tuple(range(1, 6))


# --- certificate requests; u in [0, 1) picks the family parameter ---------

def cert_e_pow(u, n):
    k = _pick(E_POW_K, u)
    return _cert("e-pow", n, ("--k", str(k)), f"e-pow:{k}", ("exp", Fraction(k)))


def cert_e_rat(u, n):
    r = _pick(E_RAT, u)
    return _cert("e-rat", n, (f"--r={r}",), f"e-rat:{r}", ("exp", r))


def cert_trig_angle(u, n):
    x = _pick(ANGLES, u)
    return _cert("trig-angle", n, ("--angle", str(x)), f"cos:{x}", ("cos", x))


def cert_sqrt(u, n):
    m = _pick(SQRT_M, u)
    return _cert("sqrt", n, ("--m", str(m)), f"sqrt:{m}", ("root", m, 2))


def cert_root(u, n):
    a, m = _pick(ROOTS, u)
    return _cert("root", n, ("--a", str(a), "--m", str(m)), f"root:{a},{m}", ("root", a, m))


def cert_e(u, n):
    return _cert("e", n, (), "e", ("exp", Fraction(1)))


def cert_inv_e(u, n):
    return _cert("inv-e", n, (), "inv-e", ("exp", Fraction(-1)))


def cert_e_squared(u, n):
    return _cert("e-squared", n, (), "e-pow:2", ("exp", Fraction(2)))


def cert_e_squared_naive(u, n):
    return _cert("e-squared-naive", n, (), "e-pow:2", ("exp", Fraction(2)))


def cert_sin_inv(u, n):
    m = _pick(TRIG_M, u)
    return _cert("sin-inv", n, ("--m", str(m)), f"sin-inv:{m}", ("sin", Fraction(1, m)))


def cert_cos_inv(u, n):
    m = _pick(TRIG_M, u)
    return _cert("cos-inv", n, ("--m", str(m)), f"cos-inv:{m}", ("cos", Fraction(1, m)))


# --- witness requests --------------------------------------------------------

def _algroot(rng):
    """A root of (x^2 - D)(cx - t): sqrt(D) bracketed by (z, z+1), t/c outside."""
    D = _non_power(rng, 2, 60, 2)
    z = math.isqrt(D)
    while True:
        c, t = rng.randint(1, 4), rng.randint(-9, 9)
        if not z <= Fraction(t, c) <= z + 1:
            break
    coeffs = (t * D, -c * D, -t, c)
    text = f"algroot:{','.join(map(str, coeffs))}@{z},{z + 1}"
    return text, ("alg", coeffs, Fraction(z), Fraction(z + 1))


def witness_constant(rng, kind):
    """(constant text as irratcert prints it, oracle spec)."""
    if kind == "sqrt":
        m = _non_power(rng, 2, 999, 2)
        return f"sqrt:{m}", ("root", m, 2)
    if kind == "root":
        m = rng.randint(3, 5)
        a = _non_power(rng, 2, 50, m)
        return f"root:{a},{m}", ("root", a, m)
    if kind == "e":
        return "e", ("exp", Fraction(1))
    if kind == "inv-e":
        return "inv-e", ("exp", Fraction(-1))
    if kind == "e-pow":
        k = rng.randint(1, 6)
        return f"e-pow:{k}", ("exp", Fraction(k))
    if kind == "e-rat":
        r = _rational(rng, 9, 9)
        return f"e-rat:{r}", ("exp", r)
    if kind in ("sin", "cos"):
        x = _rational(rng, 30, 7)
        return f"{kind}:{x}", (kind, x)
    return _algroot(rng)


PIGEONHOLE_KINDS = ("sqrt", "root", "e", "e-pow", "e-rat", "inv-e", "sin", "cos", "algroot")


def pigeonhole(rng, n, kind):
    text, spec = witness_constant(rng, kind)
    argv = ("pigeonhole", "--constant", text, "--n", str(n), "--format", "json")
    return Request("pigeonhole", argv, {"constant": text, "n": n, "spec": spec})


def fracpart(rng, digits):
    kind = rng.choice(PIGEONHOLE_KINDS)
    text, spec = witness_constant(rng, kind)
    q = rng.randint(10 ** (digits - 1), 10 ** digits)
    return Request("fracpart", ("fracpart", "--constant", text, "--q", str(q)),
                   {"constant": text, "q": q, "spec": spec})


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _dense(rng, degree):
    return [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]


def classify(rng, degree, i):
    """Dense coefficients in -9..9, and for odd i times a linear factor, so
    that rational roots occur.

    Products of several factors are left out: their leading coefficients
    grow, and `integer_root_test` trial-divides up to the square root of
    a_0 * a_n^(m-1), which takes tens of seconds for a single request.
    """
    while True:
        if i % 2:
            poly = _poly_mul([rng.randint(-6, 6), rng.randint(1, 4)], _dense(rng, degree - 1))
        else:
            poly = _dense(rng, degree)
        if is_squarefree(poly):
            break
    return Request("classify", ("classify", f"--poly={','.join(map(str, poly))}"),
                   {"poly": tuple(poly)})


# --- invalid requests --------------------------------------------------------

def _error(argv, error):
    return Request("error", tuple(argv), {"error": error})


def invalid(rng, which):
    if which == 0:
        m = rng.randint(2, 5)
        a = rng.randint(2, 9) ** m
        if m == 2 and rng.random() < 0.5:
            return _error(("pigeonhole", "--constant", f"sqrt:{a}", "--n", "50"), "PerfectPowerError")
        return _error(("cert", "--family", "root", "--a", str(a), "--m", str(m), "--n-max", "5"),
                      "PerfectPowerError")
    if which == 1:
        q = rng.randint(400_000, 900_000)
        p = _PI_NUM * q // _PI_DEN + 1          # just above 3.14159, below 355/113
        return _error(("cert", "--family", "trig-angle", "--angle", f"{p}/{q}", "--n-max", "5"),
                      "AngleNearPiError")
    g = [rng.randint(-5, 5), rng.randint(1, 3)]
    h = [rng.randint(-5, 5), rng.randint(-3, 3), 1]
    poly = _poly_mul(_poly_mul(g, g), h)
    return _error(("classify", f"--poly={','.join(map(str, poly))}"), "NotSquarefreeError")


# --- workloads --------------------------------------------------------------

NIVEN = (cert_e_pow, cert_e_rat, cert_trig_angle)
CLOSED = (cert_sqrt, cert_root, cert_e, cert_inv_e, cert_e_squared,
          cert_e_squared_naive, cert_sin_inv, cert_cos_inv)


def _certs(rng, families, units, lo, hi):
    return [make(_param_at(i), n) for make in families
            for i, n in enumerate(_strata(rng, units, lo, hi))]


def cert_niven(rng, units):
    return _certs(rng, NIVEN, units, 10, 40)


def cert_closed(rng, units):
    return _certs(rng, CLOSED, units, 40, 120)


def witness(rng, units):
    reqs = [pigeonhole(rng, n, kind) for kind in PIGEONHOLE_KINDS
            for n in _strata(rng, 2 * units, 200, 1500)]
    for u in range(units):
        reqs += [classify(rng, d, u + d) for d in range(2, 9)]
        reqs += [fracpart(rng, digits) for digits in (1, 8, 16, 24, 32, 40)]
        reqs += [invalid(rng, which) for which in range(3)]
    return reqs


# build function, nominal seconds per unit (requests, reference loop and oracle
# together, on the 2-core x86 box the bounds were set on), and the kinds of
# request the traced run adds for coverage
WORKLOADS = {
    "cert-niven": (cert_niven, 0.6, ("sequences", "pigeonhole", "fracpart", "classify", "invalid")),
    "cert-closed": (cert_closed, 2.7, ("niven", "pigeonhole", "fracpart", "classify", "invalid")),
    "witness": (witness, 0.85, ("sequences", "niven")),
}


def units_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / WORKLOADS[workload][1]))


def requests(workload: str, seed: int, seconds: float) -> list:
    """The run's requests, in the order to send them."""
    build, _, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    reqs = build(rng, units_for(workload, seconds))
    rng.shuffle(reqs)
    return reqs


def coverage(workload: str, seed: int) -> list:
    """One cheap request of each kind the workload lacks, for the traced run."""
    rng = random.Random(f"{workload}:{seed}:coverage")
    out = []
    for kind in WORKLOADS[workload][2]:
        if kind == "sequences":
            out.append(cert_sqrt(rng.random(), rng.randint(3, 6)))
        elif kind == "niven":
            out.append(cert_e_pow(rng.random(), rng.randint(3, 6)))
        elif kind == "pigeonhole":
            out.append(pigeonhole(rng, rng.randint(20, 60), rng.choice(PIGEONHOLE_KINDS)))
        elif kind == "fracpart":
            out.append(fracpart(rng, rng.randint(1, 12)))
        elif kind == "classify":
            out.append(classify(rng, 3, 1))
        else:
            out += [invalid(rng, which) for which in range(3)]
    return out
