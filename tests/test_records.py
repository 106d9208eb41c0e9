"""Every record is a dataclass whose ==, hash, repr, __setattr__ and __delattr__
are the package's shared ones, the last two freezing it, and a re-imported
package leaves no earlier copy alive."""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import irratcert
from irratcert import enclosure
from irratcert.algebraic import PowerForm, RootBracket, RootClassification
from irratcert.certificate import PAIR, Certificate, CertRow, Layout
from irratcert.constants import (AlgebraicRoot, CosInv, CosOf, E, EPow, ERational, InvE,
                                 Root, SinInv, SinOf, Sqrt)
from irratcert.enclosure import Enclosure
from irratcert.intpoly import IntPolynomial
from irratcert.niven import FPair, GaussPair, RationalPolynomial, TrigWitness
from irratcert.pigeonhole import PigeonholeResult
from irratcert.sequences import Approximant, BoundedBy

ROOT = Path(__file__).parents[1]

_X2_2 = IntPolynomial((-2, 0, 1))
_RESIDUAL = Enclosure(Fraction(-1, 8), Fraction(3, 8))
_ROW = CertRow(n=2, ints=(3, 2), residual=_RESIDUAL, bound=Fraction(1, 2), nonzero_ok=False,
               bound_ok=True)
_BRACKET = RootBracket(Fraction(1), Fraction(2), _X2_2)

# one instance of every record class in irratcert.__all__, and of Layout
EXAMPLES = [
    AlgebraicRoot(_X2_2, 1, 2), Approximant(3, 17, 12), BoundedBy(Fraction(1, 3)), _ROW,
    Certificate("sqrt:2", "sqrt", PAIR, (_ROW,), "nice"), CosInv(3), CosOf(Fraction(1, 3)),
    E(), EPow(2), ERational(Fraction(-1, 2)), _RESIDUAL, FPair(1, -2), GaussPair((1, 2), (3, -4)),
    _X2_2, InvE(), Layout(("p", "q"), False), PigeonholeResult(5, 3, 2, _RESIDUAL),
    PowerForm((1, -2)), RationalPolynomial((Fraction(1, 2), 3)), Root(2, 3), _BRACKET,
    RootClassification(_BRACKET, None), SinInv(3), SinOf(Fraction(1, 3)), Sqrt(2),
    TrigWitness(1, 2, -3, Fraction(1, 4)),
]
IDS = [type(x).__name__ for x in EXAMPLES]


def _values(x, which) -> tuple:
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x) if which(f))


def test_every_record_class_has_an_example():
    records = {getattr(irratcert, name) for name in irratcert.__all__
               if dataclasses.is_dataclass(getattr(irratcert, name))}
    assert {type(x) for x in EXAMPLES} == records | {Layout}
    assert len(EXAMPLES) == len(records) + 1


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_a_record_compares_hashes_and_prints_over_its_fields(x):
    cls = type(x)
    # a record declared with a plain @dataclass(frozen=True) gets its own
    assert (cls.__eq__, cls.__hash__) == (enclosure._record_eq, enclosure._record_hash)
    compared = _values(x, lambda f: f.compare)
    assert x == copy.copy(x) and x is not copy.copy(x)
    assert not x != copy.copy(x)
    assert hash(x) == hash(compared)
    assert x.__eq__(object()) is NotImplemented
    assert x.__eq__(compared) is NotImplemented
    if cls is IntPolynomial:
        assert repr(x) == "IntPolynomial([-2, 0, 1])"
    else:
        assert cls.__repr__ is enclosure._record_repr
        shown = ", ".join(f"{f.name}={getattr(x, f.name)!r}"
                          for f in dataclasses.fields(x) if f.repr)
        assert repr(x) == f"{cls.__qualname__}({shown})"
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(x) if f.init)


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_a_record_is_frozen_and_copies_as_a_dataclass(x):
    cls = type(x)
    assert (cls.__setattr__, cls.__delattr__) == (enclosure._record_setattr,
                                                  enclosure._record_delattr)
    names = [f.name for f in dataclasses.fields(x)]
    for name in names + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"field '{name}'"):
            setattr(x, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"field '{name}'"):
            delattr(x, name)
    assert not hasattr(x, "extra")
    assert dataclasses.replace(x) == x
    assert list(dataclasses.asdict(x)) == names
    assert dataclasses.asdict(x) == dataclasses.asdict(copy.copy(x))


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_a_record_made_by_frozen_refuses_every_field(x):
    # _frozen fills every field at once, so none is left for an assignment
    y = enclosure._frozen(type(x), **vars(x))
    assert y == x
    for f in dataclasses.fields(x):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(y, f.name, 1)
    assert vars(y) == vars(x)


@pytest.mark.parametrize("x", [SinInv(3), CosInv(3), SinOf(Fraction(1, 3)), CosOf(Fraction(1, 3))],
                         ids=lambda x: type(x).__name__)
def test_an_angle_class_inherits_its_bases_record_methods(x):
    # undecorated, so dataclass writes nothing for it; that it refuses an
    # extra attribute is checked with every other record above
    cls = type(x)
    assert not {"__init__", "__setattr__", "__delattr__"} & vars(cls).keys()
    assert dataclasses.fields(cls) == dataclasses.fields(cls.__base__)


def test_a_frozen_dataclass_cannot_subclass_a_record():
    # a record's dataclass parameters say frozen=False: its freezing is the
    # shared __setattr__, which dataclass does not see
    assert not Sqrt.__dataclass_params__.frozen
    with pytest.raises(TypeError, match="frozen"):
        dataclasses.dataclass(frozen=True)(type("Sub", (Sqrt,), {}))


@pytest.mark.parametrize("a, b", [(SinInv(3), CosInv(3)), (E(), InvE()),
                                  (SinOf(Fraction(1, 3)), CosOf(Fraction(1, 3)))])
def test_records_of_two_classes_with_equal_fields_differ(a, b):
    assert vars(a) == vars(b)
    assert a != b and b != a
    assert len({a, b}) == 2


def test_an_algebraic_roots_rational_is_left_out_of_eq_hash_and_repr():
    x = AlgebraicRoot(_X2_2, 1, 2)
    y = copy.copy(x)
    object.__setattr__(y, "rational", Fraction(7))
    assert (x.rational, y.rational) == (None, Fraction(7))
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert "rational" not in repr(x)
    assert repr(x) == ("AlgebraicRoot(poly=IntPolynomial([-2, 0, 1]), lo=Fraction(1, 1), "
                       "hi=Fraction(2, 1))")


def test_constant_spec_is_a_union_isinstance_accepts():
    assert isinstance(Sqrt(2), irratcert.ConstantSpec)
    assert isinstance(CosOf(Fraction(1, 3)), irratcert.ConstantSpec)
    assert not isinstance(_RESIDUAL, irratcert.ConstantSpec)


# The package is imported, dropped from sys.modules and imported again; once
# collected, the first import's classes and module dicts must be gone.  It
# runs in its own process, so this one keeps one copy of every class.
_REIMPORT = """
import gc, json, sys, weakref
import irratcert.cli
first = weakref.ref(sys.modules["irratcert.constants"].Sqrt)
for name in [name for name in sys.modules if name.split(".")[0] == "irratcert"]:
    del sys.modules[name]
import irratcert.cli
gc.collect()

def earlier(d):
    name = d.get("__name__")
    return (isinstance(name, str) and name.split(".")[0] == "irratcert" and "__spec__" in d
            and d is not getattr(sys.modules.get(name), "__dict__", None))

print(json.dumps([first() is None,
                  sorted(d["__name__"] for d in gc.get_objects() if type(d) is dict and earlier(d))]))
"""


def test_a_reimport_keeps_no_earlier_copy_of_the_package_alive():
    paths = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    assert json.loads(out) == [True, []]
