"""The certificate wire format imports nothing of the code that produces
certificates, so a reader of one need not trust the producer."""

import ast
from pathlib import Path

SOURCE = Path(__file__).parents[1] / "src" / "irratcert" / "certificate.py"
PRODUCER = {"verify", "sequences", "niven", "constants", "algebraic", "pigeonhole", "cli"}


def _package_imports(source: str) -> set:
    """The irratcert modules a source imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("irratcert.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "irratcert":
                continue
            module = module.removeprefix("irratcert").lstrip(".")
            # `from . import verify` and `from irratcert import verify` name modules
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found


def test_certificate_imports_nothing_of_the_producer():
    source = SOURCE.read_text(encoding="utf-8")
    # it does read the package's intervals, so the scan sees imports
    assert _package_imports(source) == {"enclosure"}
    # and the scan catches a producer import however it is written
    for line in ("from .verify import certify", "from . import niven",
                 "from .constants import enclose as _e", "import irratcert.sequences",
                 "from irratcert.cli import main", "from irratcert import pigeonhole",
                 "from .algebraic import PowerForm"):
        assert _package_imports(f"{source}\n{line}\n") & PRODUCER, line
