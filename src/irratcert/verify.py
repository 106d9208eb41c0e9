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
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

from .algebraic import PowerForm
from .constants import (CosInv, CosOf, E, EPow, ERational, InvE, Root, SinInv,
                        SinOf, Sqrt, _grid_bits, canonical_text, enclose,
                        integer_nth_root)
from .enclosure import Enclosure, dyadic, refine
from .intpoly import _digits, _from_digits, _from_rational_str, _interval_horner
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
    evaluate: Callable[[tuple[int, ...], object, tuple[int, int], ConstantCache | None],
                       Enclosure]

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
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """json.dumps(indent=2) of the documented shape, written in one pass."""
        rows = _json_list([_row_json(row) for row in self.rows], "  ")
        return (f'{{\n  "constant": {_quote(self.constant)},\n'
                f'  "family": {_quote(self.family)},\n  "rows": {rows},\n'
                f'  "verdict": {_quote(self.verdict)}\n}}')

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
        writer.writerow(["n", *self.rows[0].term.layout.fields,
                         "residual_lo", "residual_hi", "bound", "nonzero_ok", "bound_ok"])
        writer.writerows([str(row.n), *row.term.layout.csv_cells(row.term.ints),
                          _frac_str(row.residual.lo), _frac_str(row.residual.hi),
                          _frac_str(row.bound), str(row.nonzero_ok).lower(),
                          str(row.bound_ok).lower()] for row in self.rows)
        out.write(f"# verdict: {self.verdict}\n")
        return out.getvalue()

    def to_table(self) -> str:
        # residual shown as one approximate midpoint column for reading ease
        header = ["n", *self.rows[0].term.layout.fields, "nonzero_ok", "bound_ok",
                  "residual~", "bound~"]
        cells = [[str(row.n), *row.term.layout.csv_cells(row.term.ints),
                  str(row.nonzero_ok).lower(), str(row.bound_ok).lower(),
                  _decimal((row.residual.lo + row.residual.hi) / 2), _decimal(row.bound)]
                 for row in self.rows]
        widths = [max(map(len, column)) for column in zip(header, *cells)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                 for line in [header, *cells]]
        return "\n".join(lines) + f"\nverdict: {self.verdict}\n"


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


_JSON_TYPES = {bool: "boolean", list: "list", str: "string"}
_DECIMAL = re.compile(r"-?[0-9]+")


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
    try:
        return _from_rational_str(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"certificate field {name!r} must be a rational like 3/4, "
                         f"got {text!r}") from None


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of items already indented 2 past indent, closed at indent."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _row_json(row: CertRow) -> str:
    """One row as an object of the top-level "rows" list: integers as strings,
    a vector layout as a list of them."""
    layout, ints, enc = row.term.layout, row.term.ints, row.residual
    if layout.vector:
        items = _json_list([f'        "{_digits(x)}"' for x in ints], "      ")
        integers = f'"{layout.fields[0]}": {items}'
    else:
        integers = ",\n      ".join(f'"{name}": "{_digits(x)}"'
                                    for name, x in zip(layout.fields, ints))
    return (f'    {{\n      "n": {_digits(row.n)},\n      {integers},\n'
            f'      "residual_lo": "{_frac_str(enc.lo)}",\n'
            f'      "residual_hi": "{_frac_str(enc.hi)}",\n'
            f'      "bound": "{_frac_str(row.bound)}",\n'
            f'      "nonzero_ok": {"true" if row.nonzero_ok else "false"},\n'
            f'      "bound_ok": {"true" if row.bound_ok else "false"}\n    }}')


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


# ---------------------------------------------------------------------------
# Residual evaluation.  Each evaluator takes its constant from a ConstantCache
# (a fresh one when given none) as integers on a grid 2^-k, forms its linear
# form there on integers (the power form by interval Horner with shifts), and
# builds one Fraction per endpoint of the Enclosure returned, by `dyadic`.
# A width is a Fraction, or an integer pair (num, den) standing for num/den,
# in lowest terms or not: certify hands its widths on as pairs.

class ConstantCache:
    """The narrowest enclosure of each constant computed so far, for one run.

    Each constant is kept as integers (K, L, H), its value in [L, H] / 2^K.
    A request for width u/v, given as the integers u and v, is answered on
    the grid 2^-k by L >> (K - k) and -((-H) >> (K - k)): as
    floor(floor(x) / 2^s) = floor(x / 2^s), that is the kernel's enclosure
    rounded outward to 2^-k.  k comes from the bit lengths of u and v
    (`_grid_bits`), with no Fraction built.  For the series constants k is
    the smallest k0 with 2^-k0 <= u/v, plus 2, so the answer is at most half
    as wide as asked.  For Sqrt and Root k = k0, and the answer equals
    enclose(spec, u/v), since [z, z + 1] / 2^K truncates to
    floor(2^k * value) / 2^k.  A constant kept at K < k bits is enclosed
    again at max(k, 2K) bits, so a run makes a number of kernel calls
    logarithmic in its final precision.
    """

    def __init__(self):
        self._best = {}     # spec -> [K, L, H]
        self._seen = {}     # id(obj) -> (obj, what _memo made for it)

    def _memo(self, obj, make):
        """make() for the first call with obj, and the same value for every
        later call with that object, found by its id: hashing a spec that
        holds a Fraction, or the Fraction, costs microseconds.  obj is kept,
        so its id is not reused."""
        hit = self._seen.get(id(obj))
        if hit is None:
            hit = self._seen[id(obj)] = obj, make()
        return hit[1]

    def trig_specs(self, angle: Fraction):
        """(CosOf(angle), SinOf(angle)), built once per angle object."""
        return self._memo(angle, lambda: (CosOf(angle), SinOf(angle)))

    def grid(self, spec, u: int, v: int) -> tuple[int, int, int]:
        """(k, lo, hi): the constant lies in [lo, hi] / 2^k, at most u/v wide."""
        k = _grid_bits(u, v)
        if not isinstance(spec, (Sqrt, Root)):
            k += 2
        # equal specs share one entry; each spec object is hashed once
        entry = self._memo(spec, lambda: self._best.setdefault(spec, [-1, 0, 0]))
        bits, lo, hi = entry
        if bits < k:
            bits = max(k, 2 * bits)
            # through the module global, so rebinding `enclose` sees the call
            enc = enclose(spec, dyadic(1, bits))
            lo = (enc.lo.numerator << bits) // enc.lo.denominator
            hi = -((-enc.hi.numerator << bits) // enc.hi.denominator)
            entry[:] = bits, lo, hi
        return k, lo >> (bits - k), -((-hi) >> (bits - k))


def _width(max_width) -> tuple[int, int]:
    """max_width as integers (num, den), den > 0: a pair as given, unreduced."""
    num, den = (max_width if isinstance(max_width, tuple)
                else Fraction(max_width).as_integer_ratio())
    if num <= 0:
        raise ValueError("max_width must be positive")
    return num, den


def _positive(max_width) -> Fraction:
    return Fraction(*_width(max_width))


def pair_residual(p: int, q: int, c, max_width, cache=None) -> Enclosure:
    """Enclosure of q*value - p, no wider than max_width."""
    num, den = _width(max_width)
    if q == 0:
        return Enclosure.point(-p)
    k, lo, hi = (cache or ConstantCache()).grid(c, num, den * abs(q))
    if q < 0:
        lo, hi = hi, lo
    return Enclosure(dyadic(q * lo - (p << k), k), dyadic(q * hi - (p << k), k))


def power_form_residual(form: PowerForm, c, max_width, cache=None) -> Enclosure:
    """Enclosure of sum(d_l * value^l), no wider than max_width: interval
    Horner on the grid answer [a, z] / 2^k at width num/den / (slope + 1) / 2^j,
    j = 0, 1, ..., until it fits, the slope bounded on the grid answer at 1/4."""
    num, den = _width(max_width)
    if form.is_zero():
        return Enclosure.point(0)
    cache = cache or ConstantCache()
    coeffs, deg = form.coeffs, len(form.coeffs) - 1
    b, lo, hi = cache.grid(c, 1, 4)
    box = max(-lo, hi) + (1 << b)
    # |value| + 1 <= box / 2^b, and slope + 1 = s / t over t = 2^(b (deg - 1))
    t = 1 << b * max(deg - 1, 0)
    s = t + sum(abs(d) * i * box ** (i - 1) << b * (deg - i)
                for i, d in enumerate(coeffs) if i)

    def attempt(width):
        k, a, z = cache.grid(c, *width)
        x, y = _interval_horner(coeffs, a, z, k)
        # [x, y] / 2^(k deg) is at most num/den wide, cross-multiplied
        fits = (y - x) * den <= num << k * deg
        return Enclosure(dyadic(x, k * deg), dyadic(y, k * deg)) if fits else None

    # the widths num/den / (slope + 1) / 2^j, as unreduced integer pairs
    return refine(attempt, (num * t, den * s), "power form residual")


def trig_residual(acd: tuple[int, int, int], angle: Fraction, max_width,
                  cache=None) -> Enclosure:
    """Enclosure of c*cos(angle) - d*sin(angle) - a for the triple (a, c, d)."""
    num, den = _width(max_width)
    a, c, d = acd
    cache = cache or ConstantCache()
    v = den * 2 * (abs(c) + abs(d) + 1)
    # two series constants at one width: both answers are on one grid 2^-k
    cos, sin = cache.trig_specs(angle)
    k, cos_lo, cos_hi = cache.grid(cos, num, v)
    _, sin_lo, sin_hi = cache.grid(sin, num, v)
    if c < 0:
        cos_lo, cos_hi = cos_hi, cos_lo
    if d < 0:
        sin_lo, sin_hi = sin_hi, sin_lo
    return Enclosure(dyadic(c * cos_lo - d * sin_hi - (a << k), k),
                     dyadic(c * cos_hi - d * sin_lo - (a << k), k))


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


def _settle(n: int, term: LinearForm, c, bound: Fraction, width: tuple[int, int], cache):
    """(row, width) at the first of (num, den), (num, 16 den), ... that decides
    row n, the widths as integer pairs."""
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
        _, s = scale    # the widths are divided by s = 16^j
        if s == 1:
            a, b = first, last
        else:
            a, b = (_decided(row.n, row.term,
                             _residual_eval(row.term, c, (num, den * s), cache), row.bound)
                    for row, (num, den) in ((first, first_width), (last, last_width)))
            if a is None or b is None:
                return None
        x, y = a.residual, b.residual
        return (a, b) if y.max_abs() < x.min_abs() or y.min_abs() >= x.max_abs() else None
    return refine(attempt, (1, 1), f"decay of row {last.n} against row {first.n}",
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
    that width and carries nothing.  The widths travel from here to the
    constant's grid as unreduced integer pairs (num, den), den shifted left
    4 bits per narrowing, so no try divides a Fraction.

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
        max_width = max_width.as_integer_ratio()
    hi = enclose(c, _BOUND_WIDTH).hi
    cache = ConstantCache()
    rows, widths = [], []
    depth = 0
    for n, (term, bound) in enumerate(islice(rows_of(c, hi), n_max), 1):
        if max_width is None:
            u, v = bound.as_integer_ratio()
            start = u, v * 1000 << 4 * depth
        else:
            start = max_width
        settled, width = _settle(n, term, c, bound, start, cache)
        # each narrowing multiplies the denominator by 16, 4 more bits
        depth += (width[1].bit_length() - start[1].bit_length()) // 4
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
