"""Exact rational intervals, used everywhere floating point would normally appear.

An Enclosure is a closed interval [lo, hi] whose endpoints are Fractions and
which is certified (by whoever built it) to contain some real value.  It
carries no arithmetic: the package forms its residuals on the integers of a
dyadic grid and builds the Enclosure of the result once, by `_grid`.
Every record of the package, the Enclosure first, is declared by `_record`:
a dataclass frozen by a shared __setattr__ and __delattr__, with a shared ==,
hash and repr, so that dataclass writes only its __init__.
"""

from __future__ import annotations

import os
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction

from .errors import PrecisionExhausted

DEFAULT_MAX_REFINE = 10**6


def refinement_budget() -> int:
    """Narrowings allowed after a refinement loop's first try.

    The IRRATCERT_MAX_REFINE env var overrides the default; it must be a
    non-negative integer.
    """
    raw = os.environ.get("IRRATCERT_MAX_REFINE")
    if not raw:
        return DEFAULT_MAX_REFINE
    if not raw.strip().isdecimal():
        raise ValueError(f"IRRATCERT_MAX_REFINE must be a non-negative integer, got {raw!r}")
    return int(raw)


def _coprime_constructor(cls=Fraction):
    """The cheapest way to build a cls from a numerator and a positive
    denominator already in lowest terms, taking no gcd: object.__new__ with
    the two slots set, once a probe equals cls(n, d); plain cls(n, d) where
    the probe fails."""
    def coprime(n, d, new=object.__new__):
        x = new(cls)
        x._numerator, x._denominator = n, d
        return x
    try:
        probe, want = coprime(-3, 4), cls(-3, 4)
        if type(probe) is cls and (probe, hash(probe), probe.numerator) == (want, hash(want), -3):
            return coprime
    except (TypeError, AttributeError):
        pass
    return cls


_COPRIME = _coprime_constructor()


def _grid_bits(u: int, v: int, f: int = 1) -> int:
    """Smallest k >= 0 with v f <= u * 2^k, for positive u, v and f, from bit
    lengths: 2^-k <= u/(v f) whether or not the pair is in lowest terms.  For
    v and f over 64 bits, 2^20 bits^2 together, v f lies in [x, y) 2^s from
    their top 64 bits; the k for x is the answer if y 2^s <= u 2^k, and only
    a tie in about 60 bits forms the product."""
    if f != 1:
        bv, bf = v.bit_length(), f.bit_length()
        if bv > 64 and bf > 64 and bv * bf > 1 << 20:
            vh, fh, s = v >> bv - 64, f >> bf - 64, bv + bf - 128
            k = _grid_bits(u, vh * fh << s)
            if (vh + 1) * (fh + 1) << s <= u << k:
                return k
        v *= f
    k = v.bit_length() - u.bit_length()
    if k < 0:
        return 0
    return k + 1 if u << k < v else k


def refine(width: tuple[int, int], what: str, shrink=2, budget=None):
    """The widths to try, (num, den), (num, den * shrink), ..., as pairs
    standing for num/den, never reduced.

    This is the one budgeted refinement loop: it yields at most budget + 1
    widths, budget being refinement_budget() unless given, and asked for one
    more raises PrecisionExhausted, naming `what`, the number of tries and
    the last width yielded.  A caller that tried the first width itself
    skips it, and that try still counts against the budget.
    """
    num, den = width
    tries = (refinement_budget() if budget is None else budget) + 1
    for i in range(tries):
        if i:
            den *= shrink
        yield num, den
    width = Fraction(num, den)
    exponent = width.numerator.bit_length() - width.denominator.bit_length() + 1
    raise PrecisionExhausted(f"{what} not settled within the refinement budget "
                             f"(tries: {tries}, last width < 2^{exponent})")


def _frozen(cls, **fields):
    """The record cls holding fields, all of them, made without its __init__,
    so without the checks of a __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return (tuple(getattr(self, name) for name in self._compared)
                == tuple(getattr(other, name) for name in self._compared))
    return NotImplemented


def _record_hash(self):
    return hash(tuple(getattr(self, name) for name in self._compared))


def _record_repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
    return f"{self.__class__.__qualname__}({shown})"


def _record_setattr(self, name, value):
    """Each field is written once, and only the generated __init__ meets one
    not yet set; every other assignment raises, as on a frozen dataclass.  A
    __post_init__ rewrites a field by object.__setattr__.

    The test and the store leave self.__dict__ unread: on 3.11 reading it
    gives the instance a dict of its own, and every later load of a field
    from that instance then runs about 2-4 times slower."""
    if name in self._fields and not hasattr(self, name):
        object.__setattr__(self, name, value)
    else:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record(cls):
    """cls as a dataclass whose __setattr__ and __delattr__, which freeze it,
    ==, hash and (unless cls defines its own) repr are the five shared
    functions above.  The last three return what 3.11's dataclass writes for
    each class: ==, hash over the fields compared, repr over those shown.  So
    dataclass writes only __init__ per class.  A subclass that adds no field
    needs no decorator: it inherits all of these, its base's fields and
    __init__, and refuses new attributes as its base does."""
    cls.__eq__, cls.__hash__ = _record_eq, _record_hash
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _record_repr
    cls = dataclass(repr=False, eq=False)(cls)
    cls.__setattr__, cls.__delattr__ = _record_setattr, _record_delattr
    cls._fields = tuple(f.name for f in fields(cls))
    for name in cls.__dict__.keys() & set(cls._fields):
        delattr(cls, name)      # a default left on the class would read as set
    cls._compared = tuple(f.name for f in fields(cls) if f.compare)
    cls._shown = tuple(f.name for f in fields(cls) if f.repr)
    return cls


@_record
class Enclosure:
    """The closed interval [lo, hi] of two Fractions, lo <= hi; other
    rationals given as endpoints are made Fractions."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"enclosure endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def _grid(cls, x: int, y: int, k: int) -> "Enclosure":
        """[x, y] / 2^k, its order checked on the integers, not as Fractions, and
        each end built with its trailing zeros, at most k, shifted out, no gcd
        taken, by `_COPRIME` read at call time."""
        if x > y:
            raise ValueError(f"enclosure endpoints out of order: "
                             f"{Fraction(x, 1 << k)} > {Fraction(y, 1 << k)}")
        coprime, enc = _COPRIME, object.__new__(cls)
        t = (x & -x).bit_length() - 1 if x else k     # 0 / 2^k is 0 / 1
        u = (y & -y).bit_length() - 1 if y else k
        t, u = (t if t < k else k), (u if u < k else k)     # min() is a slower call
        enc.__dict__.update(lo=coprime(x >> t, 1 << k - t), hi=coprime(y >> u, 1 << k - u))
        return enc
