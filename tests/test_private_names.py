"""Every private name the package defines is used somewhere in the package."""

import ast
from collections import Counter
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "irratcert").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _uses(tree) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
                   or isinstance(node, ast.Attribute))


def _definitions(tree):
    """(name, node) for each module-level def, class or assignment, and each
    method, that bears a private name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def test_every_private_definition_has_a_caller():
    # a helper left behind by a refactor is read nowhere but in its own body
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    assert uses
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name, node in _definitions(tree)
              if _private(name) and uses[name] - _uses(node)[name] == 0]
    assert unused == []
