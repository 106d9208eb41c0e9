"""Residual enclosures, per-family bounds, and certificates with verdicts.

A certificate is a table of rows, one per index n: the construction's
integers for that index, a certified enclosure of the residual, the
construction's explicit bound, and two checks (residual nonzero, residual
below bound).  The verdict is `nice` when every row passes and the final
residual magnitude sits below the first; otherwise `violated:<n>` names the
offending row.  Verdicts are data, not exceptions: a violated certificate
is a meaningful result about a sequence that fails to shrink.  Residuals
are formed on integers, the constant taken on a dyadic grid 2^-k, and both
checks decided by integer cross-multiplication.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, NamedTuple

from .algebraic import PowerForm
from .constants import (CosInv, CosOf, E, EPow, ERational, InvE, Root, SinInv,
                        SinOf, Sqrt, _width_bits, canonical_text, enclose,
                        integer_nth_root)
from .enclosure import Enclosure, refine
from .intpoly import IntPolynomial, _digits, _from_digits
# the per-n functions (*_approximant, mth_root_form, *_functional) are unused
# here; they are imported only for perfbench/tracing.py to wrap
from .niven import (check_angle, exp_functional_int, exp_functional_rational,
                    functional_rows, trig_functional)
from .sequences import (_BOUND_WIDTH, cos_inv_m_approximant, e_approximant,
                        e_squared_approximant, e_squared_rows, factorial_rows,
                        inv_e_approximant, mth_root_form, root_forms,
                        sin_inv_m_approximant, sqrt_approximant, sqrt_rows, trig_rows)


@dataclass(frozen=True)
class Layout:
    """One shape of row: the wire names of its integers and its residual.

    A vector layout has one field holding all of its integers, written as a
    JSON list and as one ';'-joined CSV cell.
    """

    fields: tuple[str, ...]
    vector: bool
    evaluate: Callable[[tuple[int, ...], object, Fraction, ConstantCache | None], Enclosure]

    def json_fields(self, ints: tuple[int, ...]) -> dict:
        if self.vector:
            return {self.fields[0]: [_digits(x) for x in ints]}
        return {name: _digits(x) for name, x in zip(self.fields, ints)}

    def csv_cells(self, ints: tuple[int, ...]) -> list[str]:
        if self.vector:
            return [";".join(_digits(x) for x in ints)]
        return [_digits(x) for x in ints]

    def read(self, d: dict) -> tuple[int, ...]:
        if self.vector:
            name = self.fields[0]
            return tuple(_integer(x, name) for x in _field(d, name, list))
        return tuple(_integer(_field(d, name), name) for name in self.fields)


@dataclass(frozen=True)
class LinearForm:
    """The integers of one certificate row, read through their layout."""

    layout: Layout
    ints: tuple[int, ...]


# The evaluators look the residual functions up at call time, so rebinding
# them on this module takes effect.
PAIR = Layout(("p", "q"), False,
              lambda ints, c, w, cache: pair_residual(*ints, c, w, cache))
FORM = Layout(("coeffs",), True,
              lambda ints, c, w, cache: power_form_residual(PowerForm(ints), c, w, cache))
TRIG = Layout(("a", "c", "d"), False,
              lambda ints, c, w, cache: trig_residual(ints, c.x, w, cache))
LAYOUTS = (PAIR, FORM, TRIG)


@dataclass(frozen=True)
class CertRow:
    n: int
    term: LinearForm
    residual: Enclosure
    bound: Fraction
    nonzero_ok: bool
    bound_ok: bool


@dataclass(frozen=True)
class Certificate:
    constant: str
    family: str
    rows: tuple[CertRow, ...]
    verdict: str

    @property
    def is_nice(self) -> bool:
        return self.verdict == "nice"

    def to_json_dict(self) -> dict:
        return {
            "constant": self.constant,
            "family": self.family,
            "rows": [_row_dict(row) for row in self.rows],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a certificate must be a JSON object, got {type(data).__name__}")
        rows = tuple(_row_from_dict(d) for d in _field(data, "rows", list))
        if not rows:
            raise ValueError("certificate field 'rows' must hold at least one row")
        for i, row in enumerate(rows, 1):
            if row.term.layout is not rows[0].term.layout:
                raise ValueError(f"certificate row {i} lacks the field "
                                 f"{rows[0].term.layout.fields[0]!r} that row 1 has")
        return cls(constant=_field(data, "constant", str), family=_field(data, "family", str),
                   rows=rows, verdict=_field(data, "verdict", str))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        header, cells = _csv_layout(self.rows)
        writer.writerow(header)
        for row_cells in cells:
            writer.writerow(row_cells)
        out.write(f"# verdict: {self.verdict}\n")
        return out.getvalue()

    def to_table(self) -> str:
        header, cells = _csv_layout(self.rows)
        # residual shown as one approximate midpoint column for reading ease
        lines = []
        display = []
        for row, row_cells in zip(self.rows, cells):
            named = dict(zip(header, row_cells))
            entry = {k: named[k] for k in header
                     if k not in ("residual_lo", "residual_hi", "bound")}
            mid = (row.residual.lo + row.residual.hi) / 2
            entry["residual~"] = _decimal(mid)
            entry["bound~"] = _decimal(row.bound)
            display.append(entry)
        columns = list(display[0].keys())
        widths = {c: max(len(c), max(len(str(e[c])) for e in display)) for c in columns}
        lines.append("  ".join(c.ljust(widths[c]) for c in columns))
        for entry in display:
            lines.append("  ".join(str(entry[c]).ljust(widths[c]) for c in columns))
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def _frac_str(fr: Fraction) -> str:
    return f"{_digits(fr.numerator)}/{_digits(fr.denominator)}"


def _decimal(fr: Fraction, places: int = 10) -> str:
    """Exact decimal expansion truncated to `places` digits after the point."""
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    whole, rem = divmod(fr.numerator, fr.denominator)
    digits = []
    for _ in range(places):
        rem *= 10
        d, rem = divmod(rem, fr.denominator)
        digits.append(str(d))
    suffix = "" if rem == 0 else ".."
    return f"{sign}{_digits(whole)}." + "".join(digits) + suffix


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


_JSON_TYPES = {bool: "boolean", list: "list", str: "string"}
_DECIMAL = re.compile(r"-?[0-9]+")
_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _field(d: dict, name: str, kind=object):
    """d[name], which must be a JSON value of the given Python type."""
    try:
        value = d[name]
    except KeyError:
        raise ValueError(f"certificate is missing the field {name!r}") from None
    if not isinstance(value, kind):
        raise ValueError(f"certificate field {name!r} must be a JSON {_JSON_TYPES[kind]}, "
                         f"got {value!r}")
    return value


def _integer(value, name: str) -> int:
    """An integer field, written as a JSON integer or a decimal string."""
    if type(value) is int or isinstance(value, str) and _DECIMAL.fullmatch(value):
        return _from_digits(value) if isinstance(value, str) else value
    raise ValueError(f"certificate field {name!r} must be an integer or a decimal "
                     f"string, got {value!r}")


def _rational(d: dict, name: str) -> Fraction:
    text = _field(d, name, str)
    ratio = _RATIO.fullmatch(text)
    try:
        return Fraction(_from_digits(ratio[1]), _from_digits(ratio[2])) if ratio else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"certificate field {name!r} must be a rational like 3/4, "
                         f"got {text!r}") from None


def _row_dict(row: CertRow) -> dict:
    return {"n": row.n, **row.term.layout.json_fields(row.term.ints),
            "residual_lo": _frac_str(row.residual.lo),
            "residual_hi": _frac_str(row.residual.hi),
            "bound": _frac_str(row.bound),
            "nonzero_ok": row.nonzero_ok, "bound_ok": row.bound_ok}


def _row_from_dict(d) -> CertRow:
    if not isinstance(d, dict):
        raise ValueError(f"certificate field 'rows' must hold JSON objects, got {d!r}")
    layout = next((lay for lay in LAYOUTS if lay.fields[0] in d), None)
    if layout is None:
        names = ", ".join(repr(lay.fields[0]) for lay in LAYOUTS)
        raise ValueError(f"certificate row has none of the fields {names}")
    residual = Enclosure(_rational(d, "residual_lo"), _rational(d, "residual_hi"))
    return CertRow(n=_integer(_field(d, "n"), "n"), term=LinearForm(layout, layout.read(d)),
                   residual=residual, bound=_rational(d, "bound"),
                   nonzero_ok=_field(d, "nonzero_ok", bool),
                   bound_ok=_field(d, "bound_ok", bool))


def _csv_layout(rows) -> tuple[list[str], list[list[str]]]:
    header = ["n", *rows[0].term.layout.fields,
              "residual_lo", "residual_hi", "bound", "nonzero_ok", "bound_ok"]
    cells = [[str(row.n), *row.term.layout.csv_cells(row.term.ints),
              _frac_str(row.residual.lo), _frac_str(row.residual.hi),
              _frac_str(row.bound), _bool_str(row.nonzero_ok), _bool_str(row.bound_ok)]
             for row in rows]
    return header, cells


# ---------------------------------------------------------------------------
# Residual evaluation.  Each evaluator takes its constant from a ConstantCache
# (a fresh one when given none) as integers on a grid 2^-k, forms its linear
# form there, and builds one Fraction per endpoint of the Enclosure returned.

class ConstantCache:
    """The narrowest enclosure of each constant computed so far, for one run.

    Each constant is kept as integers (K, L, H), its value in [L, H] / 2^K.
    A request for width w is answered on the grid 2^-k by L >> (K - k) and
    -((-H) >> (K - k)): as floor(floor(x) / 2^s) = floor(x / 2^s), that is
    the kernel's enclosure rounded outward to 2^-k.  For the series constants
    k = _width_bits(w) + 2, so the answer is at most w/2 wide.  For Sqrt and
    Root k = _width_bits(w), and the answer equals enclose(spec, w), since
    [z, z + 1] / 2^K truncates to floor(2^k * value) / 2^k.  A constant kept
    at K < k bits is enclosed again at max(k, 2K) bits, so a run makes a
    number of kernel calls logarithmic in its final precision.
    """

    def __init__(self):
        self._best = {}     # spec -> (K, L, H)

    def grid(self, spec, max_width) -> tuple[int, int, int]:
        """(k, lo, hi): the constant lies in [lo, hi] / 2^k, at most max_width wide."""
        k = _width_bits(Fraction(max_width))
        if not isinstance(spec, (Sqrt, Root)):
            k += 2
        bits, lo, hi = self._best.get(spec, (-1, 0, 0))
        if bits < k:
            bits = max(k, 2 * bits)
            # through the module global, so rebinding `enclose` sees the call
            enc = enclose(spec, Fraction(1, 1 << bits))
            lo = (enc.lo.numerator << bits) // enc.lo.denominator
            hi = -((-enc.hi.numerator << bits) // enc.hi.denominator)
            self._best[spec] = bits, lo, hi
        return k, lo >> (bits - k), -((-hi) >> (bits - k))

    def enclose(self, spec, max_width) -> Enclosure:
        k, lo, hi = self.grid(spec, max_width)
        return Enclosure(Fraction(lo, 1 << k), Fraction(hi, 1 << k))


def _positive(max_width) -> Fraction:
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    return max_width


def pair_residual(p: int, q: int, c, max_width, cache=None) -> Enclosure:
    """Enclosure of q*value - p, no wider than max_width."""
    max_width = _positive(max_width)
    if q == 0:
        return Enclosure.point(-p)
    k, lo, hi = (cache or ConstantCache()).grid(c, max_width / abs(q))
    if q < 0:
        lo, hi = hi, lo
    return Enclosure(Fraction(q * lo - (p << k), 1 << k), Fraction(q * hi - (p << k), 1 << k))


def power_form_residual(form: PowerForm, c, max_width, cache=None) -> Enclosure:
    """Enclosure of sum(d_l * value^l), no wider than max_width."""
    max_width = _positive(max_width)
    if form.is_zero():
        return Enclosure.point(0)
    cache = cache or ConstantCache()
    poly = IntPolynomial(form.coeffs)
    box = cache.enclose(c, Fraction(1, 4)).max_abs() + 1
    slope = sum(abs(coeff) * i * box ** (i - 1) for i, coeff in enumerate(poly.coeffs) if i)

    def attempt(width):
        acc = poly.eval_interval(cache.enclose(c, width))
        (a, b), (x, y) = acc.lo.as_integer_ratio(), acc.hi.as_integer_ratio()
        # acc.width <= max_width, cross-multiplied
        fits = (x * b - a * y) * max_width.denominator <= max_width.numerator * b * y
        return acc if fits else None

    return refine(attempt, max_width / (slope + 1), "power form residual")


def trig_residual(acd: tuple[int, int, int], angle: Fraction, max_width,
                  cache=None) -> Enclosure:
    """Enclosure of c*cos(angle) - d*sin(angle) - a for the triple (a, c, d)."""
    max_width = _positive(max_width)
    a, c, d = acd
    cache = cache or ConstantCache()
    w = max_width / (2 * (abs(c) + abs(d) + 1))
    # two series constants at one width: both answers are on one grid 2^-k
    k, cos_lo, cos_hi = cache.grid(CosOf(angle), w)
    _, sin_lo, sin_hi = cache.grid(SinOf(angle), w)
    if c < 0:
        cos_lo, cos_hi = cos_hi, cos_lo
    if d < 0:
        sin_lo, sin_hi = sin_hi, sin_lo
    return Enclosure(Fraction(c * cos_lo - d * sin_hi - (a << k), 1 << k),
                     Fraction(c * cos_hi - d * sin_lo - (a << k), 1 << k))


def _checks(enc: Enclosure, bound: Fraction) -> tuple[bool, bool, bool]:
    """(nonzero_ok, bound_ok, decided) of enc against zero and the bound, by
    integer products of numerators and (positive) denominators: zero is
    excluded; |x| < bound on enc; zero is excluded or enc is a point, and
    enc sits entirely below the bound or entirely at or above it."""
    (a, b), (c, d) = enc.lo.as_integer_ratio(), enc.hi.as_integer_ratio()
    u, v = bound.as_integer_ratio()
    nonzero = a > 0 or c < 0
    below = abs(a) * v < u * b and abs(c) * v < u * d
    # min |x| over enc is 0 when enc holds zero
    above = abs(a) * v >= u * b and abs(c) * v >= u * d if nonzero else u <= 0
    # an enclosure holding zero is a point only at zero
    return nonzero, below, (nonzero or a == c == 0) and (below or above)


def _decided(n: int, term: LinearForm, enc: Enclosure, bound: Fraction):
    """Row n with residual enc once enc settles both checks, else None."""
    nonzero_ok, bound_ok, decided = _checks(enc, bound)
    return CertRow(n, term, enc, bound, nonzero_ok, bound_ok) if decided else None


def _residual_eval(term: LinearForm, c, width, cache) -> Enclosure:
    return term.layout.evaluate(term.ints, c, width, cache)


# ---------------------------------------------------------------------------
# Families.  Each names the constant kind it certifies (a class, or the one
# constant it certifies), rows(c, hi) -> an iterator of (form, bound) for
# n = 1, 2, ..., where hi is a coarse upper enclosure of the constant shared
# by every row, and the construction behind it.

class Family(NamedTuple):
    kind: object
    rows: Callable
    doc: str


def _pairs(rows):
    return ((LinearForm(PAIR, (app.p, app.q)), bb.bound) for app, bb in rows)


def _root_rows(c, hi):
    base = hi - integer_nth_root(c.a, c.m)
    for n, form in enumerate(root_forms(c.a, c.m), 1):
        yield LinearForm(FORM, form.coeffs), base ** (c.m * n - 1)


def _e_squared_naive_rows(c, hi):
    # squaring a nice approximation of e term by term; the residual
    # q^2 e^2 - p^2 = (q e + p)(q e - p) grows at least like n!/(n+1),
    # so this family exists to be refuted
    for app, bb in factorial_rows(1):
        yield LinearForm(PAIR, (app.p ** 2, app.q ** 2)), bb.bound


def _niven_rows(c, hi):
    """e-pow k is e-rat with r = k/1, and trig-angle p/q the Gaussian case of
    the same functional rows; row n's bound is top |p|^(2n+1) / (n! q)."""
    gaussian = isinstance(c, CosOf)
    if gaussian:
        if c.x <= 0:
            raise ValueError("trig-angle needs a positive angle")
        check_angle(c.x.numerator, c.x.denominator)
        r, top = c.x, 1
    else:
        r = Fraction(c.k if isinstance(c, EPow) else c.r)
        top = hi if r > 0 else 1
    p, q = r.numerator, r.denominator
    bound = top * Fraction(abs(p), q)
    for n, x in enumerate(functional_rows(p, q, gaussian), 1):
        bound *= Fraction(p * p, n)
        # the trig triple (a, c, d) is (Re F(0), Re F(1), Im F(1))
        yield (LinearForm(TRIG, x[:1] + x[2:]) if gaussian else LinearForm(PAIR, x)), bound


FAMILIES = {
    "sqrt": Family(
        Sqrt, lambda c, hi: _pairs(sqrt_rows(c.m, hi)),
        "p, q are the even/odd binomial parts of (sqrt(m) - z)^(2n-1) with "
        "z = floor(sqrt(m)); residual equals that power exactly, so it is "
        "positive and shrinks geometrically; bound is an upper enclosure of it."),
    "root": Family(
        Root, _root_rows,
        "coefficient vector of (a^(1/m) - z)^(mn-1) reduced below degree m; "
        "the combination sum(d_l a^(l/m)) equals that positive power; "
        "bound is an upper enclosure of it."),
    "e": Family(
        E, lambda c, hi: _pairs(factorial_rows(1)),
        "p = sum(n!/i!), q = n!; the residual q e - p is the factorial tail, "
        "strictly between 1/(n+1) and 1/n."),
    "inv-e": Family(
        InvE, lambda c, hi: _pairs(factorial_rows(-1)),
        "alternating partial sums: p = sum((-1)^i n!/i!), q = n!; the "
        "residual is the alternating tail, nonzero with |.| < 1/n."),
    "e-squared": Family(
        EPow(2), lambda c, hi: _pairs(e_squared_rows(hi)),
        "chains the e pair at index 2n with the reciprocal 1/e pair; "
        "q e^2 - p is positive and below (e^2 + 1)/(2n)."),
    "e-squared-naive": Family(
        EPow(2), _e_squared_naive_rows,
        "squares the e pair term by term; the residual "
        "q^2 e^2 - p^2 grows at least like n!/(n+1), so the "
        "certificate is expected to come back violated."),
    "e-pow": Family(
        EPow, _niven_rows,
        "alternating derivative functional of x^n (1-x)^n / n!; "
        "F(1) e^k - F(0) equals the integral of e^(kx) k^(2n+1) f_n, "
        "positive and below e^k k^(2n+1)/n!."),
    "e-rat": Family(
        ERational, _niven_rows,
        "same functional driven by p/q: F(1) e^(p/q) - F(0) equals "
        "(p^(2n+1)/q) times the integral of e^(px/q) f_n, nonzero and "
        "below |p|^(2n+1) max(1, e^(p/q)) / (n! q)."),
    "sin-inv": Family(
        SinInv, lambda c, hi: _pairs(trig_rows(c.m, 3)),
        "sine series at 1/m cleared of denominators: q = m^(4n-1)(4n-1)!; "
        "the grouped tail keeps q sin(1/m) - p positive, below "
        "1/(m^2 (4n)^2 - 1)."),
    "cos-inv": Family(
        CosInv, lambda c, hi: _pairs(trig_rows(c.m, 2)),
        "cosine analogue with q = m^(4n-2)(4n-2)!; positive residual "
        "below 1/(m^2 (4n-1)^2 - 1)."),
    "trig-angle": Family(
        CosOf, _niven_rows,
        "Gaussian-integer functional at angle p/q in (0, pi]: the triple "
        "(a, c, d) satisfies 0 < |c cos(p/q) - d sin(p/q) - a| < "
        "p^(2n+1)/(n! q), certifying that cos and sin of the angle "
        "cannot both be rational."),
}


def _settle(n: int, term: LinearForm, c, bound: Fraction, width, cache):
    """(row, width) at the first of width, width/16, ... that decides row n."""
    def attempt(w):
        row = _decided(n, term, _residual_eval(term, c, w, cache), bound)
        return None if row is None else (row, w)
    return refine(attempt, width, f"residual at n={n} against zero and the bound", shrink=16)


def _decay(first: CertRow, last: CertRow, c, first_width, last_width, cache):
    """The first and last rows, re-enclosed until |last| < |first| is decided.

    Both rows are narrowed together, by 16 from their own decided widths, and
    each must stay decided against zero and its bound.  The first try keeps
    the enclosures the rows were decided with.
    """
    def attempt(scale):
        if scale == 1:
            a, b = first, last
        else:
            a, b = (_decided(row.n, row.term, _residual_eval(row.term, c, width * scale, cache),
                             row.bound)
                    for row, width in ((first, first_width), (last, last_width)))
            if a is None or b is None:
                return None
        x, y = a.residual, b.residual
        return (a, b) if y.max_abs() < x.min_abs() or y.min_abs() >= x.max_abs() else None
    return refine(attempt, Fraction(1), f"decay of row {last.n} against row {first.n}",
                  shrink=16)


def certify(family: str, c, n_max: int, max_width=None) -> Certificate:
    """Certificate for rows n = 1 .. n_max: the first n_max of the family's rows(c, hi).

    Per row the residual enclosure is computed at width bound/1000/16^r (or
    the override), then narrowed by 16 until both checks are decided: zero
    is excluded (or the residual is exactly zero), and the enclosure sits
    entirely below or entirely at-or-above the bound.  Without the second
    condition an enclosure straddling the bound would fail a row the
    mathematics actually satisfies.  r is the number of narrowings the row
    before needed in all, 0 for the first row: the residuals of the Niven
    families shrink about 4^n faster than their bounds, so a row usually
    needs at least the depth of the one before.  Every width tried is
    bound/1000/16^j for some j, so a row whose depth does not drop is decided
    at the width a fresh start would reach.  An override starts every row at
    that width and carries nothing.

    The verdict also requires the final residual magnitude to sit below the
    first when n_max >= 2 and every row passes.  That comparison is decided,
    not read off whatever enclosures settled the rows: the first and last
    rows are narrowed together, by 16 from their own decided widths, until
    |last| < |first| or |last| >= |first| is certain.  Those are the
    enclosures printed, so the verdict does not depend on where refinement
    started.

    The residuals take their constant from one ConstantCache per call, which
    doubles its precision when a request is too narrow for it: a few kernel
    calls per certificate, not one or more per row.  Radical answers equal
    fresh enclosures; series residual endpoints may change digits, while the
    flags and verdict, being decided, do not.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    try:
        kind, rows_of, _ = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family!r}; known families: {known}") from None
    if not isinstance(kind, type) and c != kind:
        raise ValueError(f"family {family!r} certifies {canonical_text(kind)}")
    if isinstance(kind, type) and not isinstance(c, kind):
        raise ValueError(f"family {family!r} needs a {kind.__name__} constant, "
                         f"got {canonical_text(c)}")
    if max_width is not None:
        max_width = Fraction(max_width)
        if max_width <= 0:
            raise ValueError("width override must be positive")
    hi = enclose(c, _BOUND_WIDTH).hi
    cache = ConstantCache()
    rows, widths = [], []
    depth = 0
    for n, (term, bound) in enumerate(islice(rows_of(c, hi), n_max), 1):
        start = max_width if max_width is not None else bound / 1000 / 16 ** depth
        settled, width = _settle(n, term, c, bound, start, cache)
        # start / width is 16^t after t narrowings
        depth += (start / width).numerator.bit_length() // 4
        rows.append(settled)
        widths.append(width)
    first_bad = next((r.n for r in rows if not (r.nonzero_ok and r.bound_ok)), None)
    if first_bad is not None:
        verdict = f"violated:{first_bad}"
    elif n_max >= 2:
        rows[0], rows[-1] = _decay(rows[0], rows[-1], c, widths[0], widths[-1], cache)
        shrinks = rows[-1].residual.max_abs() < rows[0].residual.min_abs()
        verdict = "nice" if shrinks else f"violated:{n_max}"
    else:
        verdict = "nice"
    return Certificate(constant=canonical_text(c), family=family,
                       rows=tuple(rows), verdict=verdict)


# ---------------------------------------------------------------------------
# Independent integral enclosures.  These never touch the functional
# identities above; they integrate truncated series term by term, so tests
# can compare the two routes.

def integral_exp_poly(rate, poly, max_width) -> Enclosure:
    """Enclosure of the integral over [0, 1] of e^(rate*x) * poly(x).

    poly brings rational coefficients (ascending); the exponential series is
    integrated term by term and the Lagrange remainder is charged against an
    upper estimate of e^|rate| times the integral of |poly|.
    """
    rate = Fraction(rate)
    max_width = _positive(max_width)
    coeffs = [Fraction(c) for c in poly.coeffs]
    abs_integral = sum(abs(c) / (i + 1) for i, c in enumerate(coeffs))
    if abs_integral == 0:
        return Enclosure.point(0)
    from .constants import _exp_enclosure
    exp_hi = _exp_enclosure(abs(rate), Fraction(1)).hi
    total = Fraction(0)
    tp = Fraction(1)
    j = 0
    while True:
        moment = sum(c / (i + j + 1) for i, c in enumerate(coeffs))
        total += tp * moment
        tp *= Fraction(rate, j + 1)
        j += 1
        rem = abs(tp) * exp_hi * abs_integral
        if 2 * rem <= max_width:
            return Enclosure(total - rem, total + rem)


def integral_sin_poly(angle, poly, max_width) -> Enclosure:
    """Enclosure of the integral over [0, 1] of sin(angle*x) * poly(x)."""
    angle = Fraction(angle)
    max_width = _positive(max_width)
    coeffs = [Fraction(c) for c in poly.coeffs]
    abs_integral = sum(abs(c) / (i + 1) for i, c in enumerate(coeffs))
    if abs_integral == 0:
        return Enclosure.point(0)
    total = Fraction(0)
    tp = Fraction(angle)
    j = 0
    while True:
        moment = sum(c / (i + 2 * j + 2) for i, c in enumerate(coeffs))
        total += tp * moment
        tp *= Fraction(-angle * angle, (2 * j + 2) * (2 * j + 3))
        j += 1
        rem = abs(tp) * abs_integral
        if 2 * rem <= max_width:
            return Enclosure(total - rem, total + rem)
