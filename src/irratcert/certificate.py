"""The certificate wire format: rows of integers, residual, bound and flags,
written as JSON, CSV or a table and read back from JSON, and the package's
codecs that spell and read integers and rationals, past the digit limit too.

A certificate names its row layout once; each row holds only its integers.
Nothing here evaluates a residual or builds a row: this module imports only
`enclosure`, so a reader of certificates needs no part of the producer.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .enclosure import Enclosure, _record


@_record
class Layout:
    """One shape of row: the wire names of its integers.

    A vector layout has one field holding all of its integers, written as a
    JSON list and as one ';'-joined CSV cell.
    """

    fields: tuple[str, ...]
    vector: bool

    def csv_cells(self, row: CertRow) -> list[str]:
        """The cells of row's integers: one per field, or one ';'-joined cell for
        a vector layout.  A row with another count of integers is refused."""
        ints = row.ints
        if self.vector:
            return [";".join(_digits(x) for x in ints)]
        if len(ints) != len(self.fields):
            raise ValueError(f"certificate row {row.n} holds {len(ints)} integers, but its "
                             f"layout has the {len(self.fields)} fields {', '.join(self.fields)}")
        return [_digits(x) for x in ints]

    def read(self, d: dict) -> tuple[int, ...]:
        if self.vector:
            name = self.fields[0]
            return tuple(_integer(x, name) for x in _field(d, name, list))
        return tuple(_integer(_field(d, name), name) for name in self.fields)


PAIR = Layout(("p", "q"), False)
FORM = Layout(("coeffs",), True)
TRIG = Layout(("a", "c", "d"), False)
LAYOUTS = (PAIR, FORM, TRIG)


@_record
class CertRow:
    """Row n: its integers, an enclosure of its residual, the bound it must
    stay under, and whether the residual is certainly nonzero and certainly
    below the bound."""

    n: int
    ints: tuple[int, ...]
    residual: Enclosure
    bound: Fraction
    nonzero_ok: bool
    bound_ok: bool


@_record
class Certificate:
    """A family's rows for one constant, their layout, and the verdict: `nice`
    or `violated:<n>`."""

    constant: str
    family: str
    layout: Layout
    rows: tuple[CertRow, ...]
    verdict: str

    @property
    def is_nice(self) -> bool:
        return self.verdict == "nice"

    def to_json(self) -> str:
        """json.dumps(indent=2) of the documented shape, written in one pass: one
        join copies the header, each row and its separator, and the footer."""
        head = (f'{{\n  "constant": {_quote(self.constant)},\n'
                f'  "family": {_quote(self.family)},\n  "rows": ')
        foot = f',\n  "verdict": {_quote(self.verdict)}\n}}'
        if not self.rows:
            return f"{head}[]{foot}"
        parts = [head, "[\n"]
        for row in self.rows:
            parts += (_row_json(row, self.layout), ",\n")
        parts[-1:] = ("\n  ]", foot)      # in place of the last row's separator
        return "".join(parts)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a certificate must be a JSON object, got {type(data).__name__}")
        items = _field(data, "rows", list)
        if not items:
            raise ValueError("certificate field 'rows' must hold at least one row")
        layout = _layout(items[0])
        rows = tuple(_row_from_dict(d, layout, i) for i, d in enumerate(items, 1))
        return cls(constant=_field(data, "constant", str), family=_field(data, "family", str),
                   layout=layout, rows=rows, verdict=_field(data, "verdict", str))

    def to_csv(self) -> str:
        """A header line, a line per row and a `# verdict:` line; no cell needs
        quoting (digits, '-', '/', ';', field names, true/false)."""
        layout = self.layout
        header = ["n", *layout.fields, "residual_lo", "residual_hi", "bound", "nonzero_ok",
                  "bound_ok"]
        lines = [",".join(header)]
        lines += [",".join([_digits(row.n), *layout.csv_cells(row),
                            _frac_str(row.residual.lo), _frac_str(row.residual.hi),
                            _frac_str(row.bound), "true" if row.nonzero_ok else "false",
                            "true" if row.bound_ok else "false"]) for row in self.rows]
        lines.append(f"# verdict: {self.verdict}\n")
        return "\n".join(lines)

    def to_table(self) -> str:
        # residual shown as one approximate midpoint column for reading ease
        layout = self.layout
        lines = [["n", *layout.fields, "nonzero_ok", "bound_ok", "residual~", "bound~"]]
        lines += ([str(row.n), *layout.csv_cells(row),
                   str(row.nonzero_ok).lower(), str(row.bound_ok).lower(),
                   _decimal((row.residual.lo + row.residual.hi) / 2), _decimal(row.bound)]
                  for row in self.rows)
        # the last column is not padded, so no line ends in blanks
        widths = [max(map(len, column)) for column in zip(*lines)][:-1]
        # each padded line replaces its cells, so the text is built once
        for i, line in enumerate(lines):
            lines[i] = "  ".join([*(cell.ljust(w) for cell, w in zip(line, widths)), line[-1]])
        lines.append(f"verdict: {self.verdict}\n")
        return "\n".join(lines)


_SIGNED = re.compile(r"[+-]?[0-9]+")
_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# the decimal exponent that ends text Fraction reads, and its largest magnitude
# read: CPython's default limit on the digits int() takes from text
_EXPONENT = re.compile(r"[eE][+-]?(\d+(?:_\d+)*)\s*\Z")
_MAX_EXPONENT = 4300


def _digits(x: int) -> str:
    """str(x), also where x has more digits than the interpreter converts at
    once (sys.get_int_max_str_digits): there x is split by a power of 10."""
    try:
        return str(x)
    except ValueError:
        half = x.bit_length() * 3 // 20     # about half of x's decimal digits
        high, low = divmod(abs(x), 10 ** half)
        return "-" * (x < 0) + _digits(high) + _digits(low).zfill(half)


def _from_digits(text: str) -> int:
    """int(text), also past that limit where text is [+-]?[0-9]+ (stripped):
    there it is split as in _digits.  Other text keeps int()'s error."""
    try:
        return int(text)
    except ValueError:
        text = text.strip()
        if not _SIGNED.fullmatch(text):
            raise
        half = len(text) // 2
        low = _from_digits(text[-half:])
        return _from_digits(text[:-half]) * 10 ** half + (-low if text[0] == "-" else low)


def _rational_str(x: Fraction) -> str:
    """str(x), also past the digit limit, as _digits."""
    return _digits(x.numerator) + ("/" + _digits(x.denominator)) * (x.denominator != 1)


def _from_rational_str(text: str) -> Fraction:
    """Fraction(text), also past the digit limit where text is an integer or
    num/den (stripped), as _from_digits.  Other text keeps Fraction's errors,
    and one whose exponent exceeds _MAX_EXPONENT is refused before Fraction
    expands it to a power of 10 of that many digits."""
    ratio = _RATIO.fullmatch(text.strip())
    if ratio:
        return Fraction(_from_digits(ratio[1]), _from_digits(ratio[2] or "1"))
    # int() of an exponent past the digit limit raises its own ValueError
    exponent = _EXPONENT.search(text)
    if exponent and int(exponent[1]) > _MAX_EXPONENT:
        raise ValueError(f"the exponent of {text!r} exceeds {_MAX_EXPONENT} in magnitude")
    return Fraction(text)


def _frac_str(fr: Fraction) -> str:
    return f"{_digits(fr.numerator)}/{_digits(fr.denominator)}"


def _decimal(fr: Fraction) -> str:
    """Exact decimal expansion truncated to 10 digits after the point."""
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    whole, rem = divmod(fr.numerator, fr.denominator)
    digits, rem = divmod(rem * 10 ** 10, fr.denominator)
    suffix = "" if rem == 0 else ".."
    return f"{sign}{_digits(whole)}.{digits:010d}{suffix}"


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


def _row_json(row: CertRow, layout: Layout, spell=str) -> str:
    """One row as an object of the top-level "rows" list: integers as strings,
    a vector layout as a list of them.  Spelled by str, and by _digits again
    when an integer is past str's digit limit."""
    ints = row.ints
    if not layout.vector and len(ints) != len(layout.fields):
        layout.csv_cells(row)   # refuses the row, naming it
    lo, lo_den = row.residual.lo.as_integer_ratio()
    hi, hi_den = row.residual.hi.as_integer_ratio()
    bound, bound_den = row.bound.as_integer_ratio()
    try:
        if layout.vector:
            items = ",\n        ".join([f'"{spell(x)}"' for x in ints])
            items = f"[\n        {items}\n      ]" if ints else "[]"
            integers = f'"{layout.fields[0]}": {items}'
        else:
            integers = ",\n      ".join([f'"{name}": "{spell(x)}"'
                                         for name, x in zip(layout.fields, ints)])
        return (f'    {{\n      "n": {row.n},\n      {integers},\n'
                f'      "residual_lo": "{spell(lo)}/{spell(lo_den)}",\n'
                f'      "residual_hi": "{spell(hi)}/{spell(hi_den)}",\n'
                f'      "bound": "{spell(bound)}/{spell(bound_den)}",\n'
                f'      "nonzero_ok": {"true" if row.nonzero_ok else "false"},\n'
                f'      "bound_ok": {"true" if row.bound_ok else "false"}\n    }}')
    except ValueError:      # past the digit limit; _digits raises none
        return _row_json(row, layout, _digits)


def _layout(d) -> Layout:
    """The layout of the row object d: the first of LAYOUTS whose first field it holds."""
    if not isinstance(d, dict):
        raise ValueError(f"certificate field 'rows' must hold JSON objects, got {d!r}")
    layout = next((lay for lay in LAYOUTS if lay.fields[0] in d), None)
    if layout is None:
        names = ", ".join(repr(lay.fields[0]) for lay in LAYOUTS)
        raise ValueError(f"certificate row has none of the fields {names}")
    return layout


def _row_from_dict(d, layout: Layout, i: int) -> CertRow:
    """Row i of a certificate, read through layout, the layout of row 1."""
    if _layout(d) is not layout and (name := layout.fields[0]) not in d:
        raise ValueError(f"certificate row {i} lacks the field {name!r} that row 1 has")
    residual = Enclosure(_rational(d, "residual_lo"), _rational(d, "residual_hi"))
    return CertRow(n=_integer(_field(d, "n"), "n"), ints=layout.read(d), residual=residual,
                   bound=_rational(d, "bound"), nonzero_ok=_field(d, "nonzero_ok", bool),
                   bound_ok=_field(d, "bound_ok", bool))
