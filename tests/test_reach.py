"""Every function the package defines is reached by a CLI request, or is one
of the paper's definitions or a future caller's, named in PAPER_API."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import CORPUS_ERROR, CORPUS_OK, CORPUS_VIOLATED

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "irratcert"

_PER_N = "the paper's explicit constructions: row n of one approximant family"
_RULES = "the paper's transformation rules on approximants"
_POLY = "the paper's polynomial types, which algebraic numbers are roots of"
_NIVEN = "the paper's Niven section: the functionals of x^n (1-x)^n / n!"
_CHECK_READ = "ROADMAP item 6: the checker reads a certificate back from JSON"
_CHECK_ROUTE = ("ROADMAP item 6: the checker confirms each row by a route the "
                "producer never takes")
_FRACPART = ("interval arithmetic the fractional-part product is checked by "
             "(oracles.enclosure_fractional_residual); the package forms it on integers")

# qualified name (module.Class.function) -> why it stays with no request reaching it
PAPER_API = {
    "algebraic.integer_root_test": "the paper's algebraic section: the integer roots of a "
                                   "monic polynomial, the rest irrational",
    "algebraic.monic_transform": "the paper's algebraic section: a root made an algebraic "
                                 "integer by scaling",
    "certificate.Certificate.from_json": _CHECK_READ,
    "certificate.Layout.read": _CHECK_READ,
    "certificate._field": _CHECK_READ,
    "certificate._integer": _CHECK_READ,
    "certificate._layout": _CHECK_READ,
    "certificate._rational": _CHECK_READ,
    "certificate._row_from_dict": _CHECK_READ,
    "enclosure.Enclosure.__add__": _CHECK_ROUTE,
    "enclosure.Enclosure.__mul__": _FRACPART,
    "enclosure.Enclosure.__neg__": _CHECK_ROUTE,
    "enclosure.Enclosure.__rsub__": _CHECK_ROUTE,
    "enclosure.Enclosure.__sub__": _FRACPART,
    "enclosure.Enclosure.contains": _CHECK_ROUTE,
    "enclosure.Enclosure.excludes_zero": _CHECK_ROUTE,
    "enclosure.Enclosure.floor_if_settled": _FRACPART,
    "enclosure.Enclosure.intersect": _FRACPART,
    "enclosure.Enclosure.is_point": _CHECK_ROUTE,
    "enclosure.Enclosure.max_abs": _CHECK_ROUTE,
    "enclosure.Enclosure.min_abs": _CHECK_ROUTE,
    "enclosure.Enclosure.point": _CHECK_ROUTE,
    "enclosure.Enclosure.width": _FRACPART,
    "errors.check_index": _PER_N,
    "intpoly.IntPolynomial.__add__": _POLY,
    "intpoly.IntPolynomial.__call__": _POLY,
    "intpoly.IntPolynomial.__mul__": _POLY,
    "intpoly.IntPolynomial.__neg__": _POLY,
    "intpoly.IntPolynomial.__repr__": _POLY,
    "intpoly.IntPolynomial.__sub__": _POLY,
    "niven.RationalPolynomial.__call__": _NIVEN,
    "niven.RationalPolynomial.__post_init__": _NIVEN,
    "niven.RationalPolynomial.degree": _NIVEN,
    "niven.exp_functional_int": _NIVEN,
    "niven.exp_functional_rational": _NIVEN,
    "niven.niven_poly": _NIVEN,
    "niven.trig_functional": _NIVEN,
    "sequences.Approximant.__post_init__": _PER_N,
    "sequences.BoundedBy.__post_init__": _PER_N,
    "sequences._approximant": _PER_N,
    "sequences._nth": _PER_N,
    "sequences.cos_inv_m_approximant": _PER_N,
    "sequences.e_approximant": _PER_N,
    "sequences.e_squared_approximant": _PER_N,
    "sequences.inv_e_approximant": _PER_N,
    "sequences.mth_root_form": _PER_N,
    "sequences.sin_inv_m_approximant": _PER_N,
    "sequences.sqrt_approximant": _PER_N,
    "sequences.compose_chain": _RULES,
    "sequences.reciprocal": _RULES,
    "sequences.rescale": _RULES,
    "sequences.scaled_compose": _RULES,
    "verify._integral": _CHECK_ROUTE,
    "verify.integral_exp_poly": _CHECK_ROUTE,
    "verify.integral_sin_poly": _CHECK_ROUTE,
}

# The profile starts before irratcert is imported, so calls made at import count.
_SCAN = """
import contextlib, io, json, sys
codes = set()
def record(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
sys.setprofile(record)
from irratcert.cli import main
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
sys.setprofile(None)
print(json.dumps([(c.co_filename, c.co_firstlineno, c.co_name) for c in codes]))
"""


def _requests(output: Path) -> list[list[str]]:
    """The golden corpus, one request per subcommand and format, and the flags
    that take their own paths, among them a start width that row 6 must
    narrow from; the last fracpart request is deep enough for the algebraic
    kernel's Newton jump, and the last request's polynomial has a repeated
    factor."""
    return (CORPUS_OK + CORPUS_VIOLATED + CORPUS_ERROR
            + [["cert", "--family", "sqrt", "--m", "2", "--n-max", "3", "--format", fmt]
               for fmt in ("json", "csv", "table")]
            + [["pigeonhole", "--constant", "e", "--n", "50", "--format", fmt]
               for fmt in ("json", "table")]
            + [["reduce", "--modulus=-2,0,1", "--coeffs", "1,2,3"],
               ["classify", "--poly", "1,1,-5,2"],
               ["fracpart", "--constant", "sqrt:2", "--q", "5"],
               ["cert", "--family", "e", "--seed-doc"],
               ["cert", "--family", "e", "--n-max", "3", "--width", "1/1000"],
               ["cert", "--family", "e-pow", "--k", "3", "--n-max", "6", "--width", "10"],
               ["cert", "--family", "e", "--n-max", "3", "--output", str(output)],
               ["fracpart", "--constant", "algroot:-2,0,1@1,2", "--q", "7",
                "--width", "1/1" + "0" * 40],
               # (x^2 - 2)(x - 5)^2: a repeated root, outside the bracket, sends
               # the bracket's Sturm count to the squarefree part
               ["pigeonhole", "--constant", "algroot:-50,20,23,-10,1@1,2", "--n", "50"]])


def _reached(requests) -> set:
    """(file, first line, name) of every code object the requests called."""
    paths = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("IRRATCERT_MAX_REFINE", None)
    out = subprocess.run([sys.executable, "-c", _SCAN], input=json.dumps(requests),
                         capture_output=True, text=True, env=env, check=True, timeout=120).stdout
    return {(str(Path(f).resolve()), line, name) for f, line, name in json.loads(out)}


def _defined() -> dict:
    """(file, first line, name) -> qualified name of every def in the package.
    A code object's first line is its first decorator's, if it has any."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                qualified = f"{prefix}.{child.name}"
                found[(str(path.resolve()), line, child.name)] = qualified
                visit(child, path, qualified)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def test_every_function_is_reached_or_is_paper_api(tmp_path):
    # a function no request reaches is dead unless the paper defines it or an
    # open ROADMAP item will call it; an entry a request now reaches, or whose
    # function is gone, is stale
    defined = _defined()
    reached = {defined[key] for key in _reached(_requests(tmp_path / "cert.txt"))
               if key in defined}
    assert len(reached) > 100
    unreached = sorted(set(defined.values()) - reached - PAPER_API.keys())
    assert unreached == []
    stale = sorted(name for name in PAPER_API
                   if name in reached or name not in defined.values())
    assert stale == []


def test_every_traced_name_resolves():
    # perfbench/tracing.py rebinds each (module, attribute) through the owner's
    # __dict__; a name deleted or moved here would break every traced run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for sites in tracing.LAYERS.values() for site in sites]
    assert sites
    for module_name, attr in sites:
        owner = importlib.import_module(f"irratcert.{module_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = owner.__dict__[cls_name]
        assert attr in owner.__dict__, (module_name, attr)
