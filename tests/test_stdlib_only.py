"""The package imports nothing outside the standard library at run time."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "irratcert").glob("*.py"))


def test_every_absolute_import_is_from_the_standard_library():
    # relative imports stay inside the package; an absolute one must name a
    # standard-library module, so installing irratcert needs nothing else
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "__future__" or top in sys.stdlib_module_names, (path.name, name)
