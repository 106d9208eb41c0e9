"""Output checks that do not share code with irratcert.

Every request's captured output is re-derived here from the request alone,
using the standard library and mpmath: certificate rows' integers are
rebuilt from each construction's definition and their linear forms are
re-evaluated, pigeonhole pairs and fractional parts are recomputed, and
root classifications are checked by exact substitution and a Sturm count
written for this file.  Nothing in irratcert is imported.

Constants are evaluated with mpmath at a working precision 24 bits above
the precision the error bound is charged at, and converted to exact
rationals, so every comparison below is exact rational arithmetic.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import mpmath

MAX_PREC = 1 << 16
_GUARD = 24


class OracleError(Exception):
    """The output disagrees with the independent evaluation."""


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


# ---------------------------------------------------------------------------
# Integer polynomials, ascending coefficient lists.

def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _rem(a, b):
    a = [Fraction(x) for x in a]
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        s = len(a) - len(b)
        for i, c in enumerate(b):
            a[s + i] -= f * c
        a = _trim(a)
    return a


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def is_squarefree(coeffs) -> bool:
    a, b = _trim(coeffs), _trim(_derivative(coeffs))
    while b:
        a, b = b, _rem(a, b)
    return len(a) == 1


def real_root_count(coeffs) -> int:
    """Distinct real roots of a squarefree polynomial, by a Sturm sequence."""
    chain = [[Fraction(c) for c in _trim(coeffs)], [Fraction(c) for c in _derivative(_trim(coeffs))]]
    while chain[-1] and len(chain[-1]) > 1:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    chain = [p for p in chain if p]
    bound = 2 + max(abs(Fraction(c)) for c in coeffs[:-1]) / abs(Fraction(coeffs[-1]))

    def variations(x):
        signs = [v > 0 for v in (poly_eval(p, x) for p in chain) if v != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    return variations(-bound) - variations(bound)


def divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
        d += 1
    return out


# ---------------------------------------------------------------------------
# Constants as exact dyadic approximations with an error bound.

def _to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _mp_rational(r: Fraction):
    return mpmath.mpf(r.numerator) / r.denominator


def _algebraic_root(coeffs, lo: Fraction, hi: Fraction, prec: int) -> Fraction:
    """Bisect on dyadic rationals; the result is within 2^-prec of the root."""
    s_lo = poly_eval(coeffs, lo) > 0
    scale = 1 << prec
    a = (lo.numerator * scale) // lo.denominator
    b = -((-hi.numerator * scale) // hi.denominator)
    while b - a > 1:
        mid = (a + b) // 2
        v = poly_eval(coeffs, Fraction(mid, scale))
        if v == 0:
            return Fraction(mid, scale)
        if (v > 0) == s_lo:
            a = mid
        else:
            b = mid
    return Fraction(a, scale)


class Constants:
    """alpha(spec, prec) -> (approximation, error bound), cached per request."""

    def __init__(self):
        self._cache = {}

    def alpha(self, spec, prec: int) -> tuple[Fraction, Fraction]:
        key = (spec, prec)
        if key not in self._cache:
            self._cache[key] = self._compute(spec, prec)
        return self._cache[key]

    @staticmethod
    def _compute(spec, prec):
        kind = spec[0]
        if kind == "alg":
            _, coeffs, lo, hi = spec
            return _algebraic_root(list(coeffs), lo, hi, prec), Fraction(1, 1 << prec)
        with mpmath.workprec(prec + _GUARD):
            if kind == "exp":
                v = mpmath.exp(_mp_rational(spec[1]))
            elif kind == "sin":
                v = mpmath.sin(_mp_rational(spec[1]))
            elif kind == "cos":
                v = mpmath.cos(_mp_rational(spec[1]))
            elif kind == "root":
                v = mpmath.root(spec[1], spec[2])
            else:
                raise ValueError(f"unknown constant kind {kind!r}")
            approx = _to_fraction(v)
        err = max(Fraction(1), abs(approx)) / (1 << prec)
        return approx, err


def _bits(x: Fraction) -> int:
    """Rough log2 of |x| (0 maps to 0), enough to size precisions."""
    if x == 0:
        return 0
    return abs(x.numerator).bit_length() - x.denominator.bit_length()


# ---------------------------------------------------------------------------
# Linear forms.  A certificate row is a linear form in the constant:
# pair (p, q): q*a - p; power form (d_0..d_{m-1}): sum d_l a^l;
# trig triple (a, c, d) at angle x: c cos x - d sin x - a.

def _form_value(form, spec, consts: Constants, prec: int) -> tuple[Fraction, Fraction]:
    kind = form[0]
    if kind == "pair":
        _, p, q = form
        a, e = consts.alpha(spec, prec)
        return q * a - p, abs(q) * e
    if kind == "power":
        coeffs = form[1]
        a, e = consts.alpha(spec, prec)
        total, err, power = Fraction(0), Fraction(0), Fraction(1)
        for i, d in enumerate(coeffs):
            total += d * power
            if i:
                err += abs(d) * i * (abs(a) + 1) ** i * e
            power *= a
        return total, err
    _, ta, tc, td = form
    x = spec[1]
    cos_v, cos_e = consts.alpha(("cos", x), prec)
    sin_v, sin_e = consts.alpha(("sin", x), prec)
    return tc * cos_v - td * sin_v - ta, abs(tc) * cos_e + abs(td) * sin_e


def _flat(form):
    return form[1] if form[0] == "power" else form[1:]


def _form_prec(form, lo: Fraction, hi: Fraction, bound: Fraction) -> int:
    """Enough bits that the evaluation error sits far below the interval width."""
    size = max(abs(x) for x in _flat(form)).bit_length()
    width = hi - lo if hi > lo else bound
    return max(64, size + max(0, -_bits(width)) + 48)


def _below_bound(form, spec, consts, prec, lo, hi, bound):
    """Whether |form| < bound, or None while the precision cannot tell the
    value from 0 or from the bound.  Checks containment on the way."""
    v, e = _form_value(form, spec, consts, prec)
    _need(lo - e <= v <= hi + e,
          "residual interval does not contain the re-evaluated linear form")
    if abs(v) <= e or abs(abs(v) - bound) <= e:
        return None
    return abs(v) < bound


def _row_form(row: dict):
    if "p" in row:
        return ("pair", int(row["p"]), int(row["q"]))
    if "coeffs" in row:
        return ("power", tuple(int(x) for x in row["coeffs"]))
    return ("trig", int(row["a"]), int(row["c"]), int(row["d"]))


# ---------------------------------------------------------------------------
# The constructions, rebuilt from their definitions: each returns the row
# integers (p, q), the power-form coefficients, or (a, c, d) at index n.

def _niven_derivatives(n):
    """f^(j)(0) for f = x^n (1-x)^n / n!, j = 0 .. 2n; f^(j)(1) = (-1)^j f^(j)(0)."""
    g = [0] * n + [(-1) ** i * math.comb(n, i) for i in range(n + 1)]
    nf = math.factorial(n)
    return [math.factorial(j) * c // nf for j, c in enumerate(g)]


def _exp_functional(n, num, den):
    """(F(0), F(1)) for F = sum (-1)^i num^(2n-i) den^i f^(i)."""
    d0 = _niven_derivatives(n)
    terms = [(-1) ** i * num ** (2 * n - i) * den ** i for i in range(2 * n + 1)]
    return (sum(t * d for t, d in zip(terms, d0)),
            sum(t * d * (-1) ** j for j, (t, d) in enumerate(zip(terms, d0))))


def _trig_functional(n, num, den):
    """(a, c, d): F = sum (-1)^i (i num)^(2n-i) den^i f^(i), F(0) = a + b i,
    F(1) = c + d i."""
    d0 = _niven_derivatives(n)
    unit = [(1, 0), (0, 1), (-1, 0), (0, -1)]           # powers of i
    re0 = re1 = im1 = 0
    for j in range(2 * n + 1):
        scale = (-1) ** j * num ** (2 * n - j) * den ** j * d0[j]
        ur, ui = unit[(2 * n - j) % 4]
        re0 += scale * ur
        re1 += scale * ur * (-1) ** j
        im1 += scale * ui * (-1) ** j
    return re0, re1, im1


def construction(family: str, spec, n: int) -> tuple:
    f = math.factorial
    if family == "sqrt":                # q sqrt(m) - p = (sqrt(m) - z)^(2n-1)
        m = spec[1]
        z = math.isqrt(m)
        x, y = 1, 0
        for _ in range(2 * n - 1):
            x, y = -z * x + m * y, x - z * y
        return -x, y
    if family == "root":                # (t - z)^(mn-1) reduced by t^m = a
        a, m = spec[1], spec[2]
        z = round(a ** (1 / m))
        z -= z ** m > a
        c = [1] + [0] * (m - 1)
        for _ in range(m * n - 1):
            c = [a * c[-1] - z * c[0]] + [c[k - 1] - z * c[k] for k in range(1, m)]
        return tuple(c)
    if family == "e":
        return sum(f(n) // f(i) for i in range(n + 1)), f(n)
    if family == "inv-e":
        return sum((-1) ** i * (f(n) // f(i)) for i in range(n + 1)), f(n)
    if family == "e-squared":
        t = f(2 * n)
        return (sum(t // f(i) for i in range(2 * n + 1)),
                sum((-1) ** i * (t // f(i)) for i in range(2 * n + 1)))
    if family == "e-squared-naive":
        p, q = construction("e", None, n)
        return p * p, q * q
    if family in ("sin-inv", "cos-inv"):   # series at 1/m cleared of denominators
        m = spec[1].denominator
        top = 4 * n - 1 if family == "sin-inv" else 4 * n - 2
        first = 1 if family == "sin-inv" else 0
        p = sum((-1) ** k * m ** (top - 2 * k - first) * (f(top) // f(2 * k + first))
                for k in range(2 * n))
        return p, m ** top * f(top)
    if family in ("e-pow", "e-rat"):
        r = spec[1]
        return _exp_functional(n, r.numerator, r.denominator)
    if family == "trig-angle":
        x = spec[1]
        return _trig_functional(n, x.numerator, x.denominator)
    raise ValueError(f"unknown family {family!r}")


_ROW_SHAPE = {"root": "power", "trig-angle": "trig"}


def check_cert(expect: dict, code: int, out: str, consts: Constants) -> str:
    """Check a `cert --format json` output; returns the digest record."""
    _need(code in (0, 2), f"exit code {code} for a certificate request")
    data = json.loads(out)
    _need(data["family"] == expect["family"], "family differs from the request")
    _need(data["constant"] == expect["constant"], "constant differs from the request")
    rows = data["rows"]
    _need([r["n"] for r in rows] == list(range(1, expect["n_max"] + 1)),
          "rows are not n = 1 .. n_max")
    spec = expect["spec"]
    parsed = []
    prec = 64
    for r in rows:
        form = _row_form(r)
        _need(form[0] == _ROW_SHAPE.get(data["family"], "pair"),
              "row shape does not match the family")
        lo, hi, bound = (Fraction(r["residual_lo"]), Fraction(r["residual_hi"]),
                         Fraction(r["bound"]))
        _need(lo <= hi and bound > 0, "malformed residual interval or bound")
        _need(_flat(form) == construction(data["family"], spec, r["n"]),
              f"row {r['n']}: integers differ from the construction")
        parsed.append((r, form, lo, hi, bound))
        prec = max(prec, _form_prec(form, lo, hi, bound))
    first_bad = None
    for r, form, lo, hi, bound in parsed:
        p = prec
        while (below := _below_bound(form, spec, consts, p, lo, hi, bound)) is None:
            p *= 2
            _need(p <= MAX_PREC, f"row {r['n']}: value not separated from 0 or the bound")
        # the constants are irrational and no row form is identically zero,
        # so a decided value is nonzero
        _need(r["nonzero_ok"] is True, f"row {r['n']}: nonzero_ok flag is wrong")
        _need(r["bound_ok"] is below, f"row {r['n']}: bound_ok flag is wrong")
        if first_bad is None and not below:
            first_bad = r["n"]
    if first_bad is not None:
        verdict = f"violated:{first_bad}"
    elif len(parsed) >= 2 and not (max(abs(parsed[-1][2]), abs(parsed[-1][3]))
                                   < _min_abs(parsed[0][2], parsed[0][3])):
        verdict = f"violated:{parsed[-1][0]['n']}"
    else:
        verdict = "nice"
    _need(data["verdict"] == verdict, f"verdict {data['verdict']} should be {verdict}")
    _need(code == (0 if verdict == "nice" else 2), "exit code does not match the verdict")
    body = ";".join(
        f"{r['n']}:{','.join(str(x) for x in _flat(form))}:{int(r['nonzero_ok'])}{int(r['bound_ok'])}"
        for r, form, *_ in parsed)
    return f"cert {data['constant']} {data['family']} {verdict} {body}"


def _min_abs(lo: Fraction, hi: Fraction) -> Fraction:
    return Fraction(0) if lo <= 0 <= hi else min(abs(lo), abs(hi))


def check_pigeonhole(expect: dict, code: int, out: str, consts: Constants) -> str:
    """0 < q <= n and |q*a - p| < 1/n, with the printed residual containing it."""
    _need(code == 0, f"exit code {code} for a pigeonhole request")
    data = json.loads(out)
    n = expect["n"]
    _need(data["constant"] == expect["constant"] and data["n"] == n,
          "constant or n differs from the request")
    p, q = int(data["p"]), int(data["q"])
    lo, hi = Fraction(data["residual_lo"]), Fraction(data["residual_hi"])
    _need(0 < q <= n, f"q = {q} outside 1..{n}")
    prec = max(64, q.bit_length() + n.bit_length() + 64)
    while True:
        v, e = _form_value(("pair", p, q), expect["spec"], consts, prec)
        _need(lo - e <= v <= hi + e, "residual interval does not contain q*a - p")
        if abs(abs(v) - Fraction(1, n)) > e:
            break
        prec *= 2
        _need(prec <= MAX_PREC, "|q*a - p| not separated from 1/n")
    _need(abs(v) < Fraction(1, n), f"|q*a - p| >= 1/{n}")
    return f"pigeonhole {data['constant']} {n} {p} {q}"


_FRACPART = re.compile(r"\{q\*x\}\(\{q\*x\} - 1\) in \[(\S+), (\S+)\]\nvalue ~ \S+\n\Z")


def check_fracpart(expect: dict, code: int, out: str, consts: Constants) -> str:
    """The printed interval holds {q a}({q a} - 1) and is no wider than 1e-9."""
    _need(code == 0, f"exit code {code} for a fracpart request")
    m = _FRACPART.match(out)
    _need(m is not None, "fracpart output not in the documented form")
    lo, hi = Fraction(m.group(1)), Fraction(m.group(2))
    _need(Fraction(-1, 4) <= lo <= hi <= 0, "interval outside [-1/4, 0]")
    _need(hi - lo <= Fraction(1, 10**9), "interval wider than the default 1e-9")
    q = expect["q"]
    prec = q.bit_length() + 96
    while True:
        qa, e = _form_value(("pair", 0, q), expect["spec"], consts, prec)
        frac = qa - (qa.numerator // qa.denominator)
        if e < frac < 1 - e:
            break
        prec *= 2
        _need(prec <= MAX_PREC, "{q a} not separated from an integer")
    v = frac * (frac - 1)
    e2 = 2 * e + e * e
    _need(lo - e2 <= v <= hi + e2, "interval does not contain {q a}({q a} - 1)")
    return f"fracpart {expect['constant']} {q}"


_BRACKET = re.compile(r"bracket \((\S+), (\S+)\): (irrational|rational (\S+))\Z")


def check_classify(expect: dict, code: int, out: str, consts: Constants) -> str:
    """Brackets are disjoint sign changes covering every real root; a rational
    verdict substitutes to 0, an irrational one has no rational-root candidate
    in its bracket."""
    _need(code == 0, f"exit code {code} for a classify request")
    f = list(expect["poly"])
    lines = out.splitlines()
    _need(len(lines) == real_root_count(f), "bracket count differs from the real root count")
    lead, shift = f[-1], 0
    while f[shift] == 0:
        shift += 1
    tail = f[shift]
    verdicts = []
    prev_hi = None
    for line in lines:
        m = _BRACKET.match(line)
        _need(m is not None, f"unparseable classify line {line!r}")
        lo, hi = Fraction(m.group(1)), Fraction(m.group(2))
        _need(lo < hi and (prev_hi is None or prev_hi <= lo), "brackets overlap or are out of order")
        prev_hi = hi
        f_lo, f_hi = poly_eval(f, lo), poly_eval(f, hi)
        _need(f_lo != 0 and f_hi != 0 and (f_lo > 0) != (f_hi > 0),
              "bracket endpoints do not straddle a sign change")
        if m.group(4) is not None:
            v = Fraction(m.group(4))
            _need(lo < v < hi and poly_eval(f, v) == 0, f"claimed rational root {v} is not a root")
            verdicts.append(f"rational {v}")
        else:
            _need(not (shift and lo < 0 < hi), "root 0 reported as irrational")
            for den in divisors(lead):
                for num in divisors(tail):
                    for cand in (Fraction(num, den), Fraction(-num, den)):
                        _need(not (lo < cand < hi and poly_eval(f, cand) == 0),
                              f"irrational verdict, but {cand} is a root in the bracket")
            verdicts.append("irrational")
    return f"classify {','.join(map(str, f))} {';'.join(verdicts)}"


def check_error(expect: dict, code: int, out: str, err: str) -> str:
    """An invalid request passes only on exit 1 with one `error[Class]` line."""
    _need(code == 1, f"exit code {code} for an invalid request")
    _need(out == "", "invalid request wrote to stdout")
    lines = err.splitlines()
    _need(len(lines) == 1 and lines[0].startswith(f"error[{expect['error']}]: "),
          f"expected one error[{expect['error']}] line, got {err[:200]!r}")
    return f"error {expect['error']}"


_CHECKS = {"cert": check_cert, "pigeonhole": check_pigeonhole,
           "fracpart": check_fracpart, "classify": check_classify}


def check(request, code: int, out: str, err: str) -> str:
    """Digest record of a correct output; raises OracleError otherwise."""
    if request.kind == "error":
        return check_error(request.expect, code, out, err)
    _need(err == "", f"unexpected stderr {err[:200]!r}")
    return _CHECKS[request.kind](request.expect, code, out, Constants())
