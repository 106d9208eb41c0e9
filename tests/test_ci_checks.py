"""ci/checks.py, the checks CI runs after tier-1: its check names, the
workflow that calls it, its `cut` and its pin comparison, run in process
without the console script."""

import importlib.util
import io
import re
import subprocess
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from irratcert.cli import main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("checks", ROOT / "ci" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

# dropping, renaming or reordering a check is an edit here
CHECK_NAMES = [
    "No declared runtime requirement",
    "Import without warnings",
    "Installed console script",
    "Installed console script error path",
    "Installed console script huge exponent",
    "Installed console script budget exhaustion",
    "Memory-capped certificate",
    "Installed console script usage paths",
    "Installed console script argv spellings",
    "Large pigeonhole in a small address space",
    "Installed reduce console script",
    "Radical certificates at scale",
    "Niven certificates at scale",
    "Certificate JSON size",
    "Benchmark oracle smoke run",
    "Traced benchmark smoke run",
    "Benchmark self-test",
]


def test_the_script_runs_the_recorded_checks():
    assert list(checks.CHECKS) == CHECK_NAMES
    assert set(checks.ONLY_ON) <= set(CHECK_NAMES)


def test_the_workflow_runs_tier_1_then_the_script_after_install():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = text.split("\n      - ")[1:]
    assert [step.splitlines()[0] for step in steps[:3]] == [
        "uses: actions/checkout@v4", "uses: actions/setup-python@v5",
        "name: Install the package with its test extra"]
    assert [re.search(r"^        run: (.*)$", step, re.M)[1] for step in steps[3:]] == [
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
        "--continue-on-collection-errors --durations=10",
        "python ci/checks.py"]


def _run(args, **how):
    """checks.ok in process: main run on the whitespace-separated args, which
    must exit 0, and its stdout as bytes."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(args.split()) == 0, args
    return SimpleNamespace(stdout=out.getvalue().encode())


@pytest.mark.parametrize("args, fields", [
    ("cert --family e-pow --k 3 --n-max 6 --format csv", "1-3,7-8"),
    ("cert --family trig-angle --angle 1/3 --n-max 6 --format csv", "1-4,8-9"),
    ("cert --family root --a 7 --m 4 --n-max 3 --format csv", "2,4-5")])
def test_cut_keeps_what_coreutils_cut_keeps(args, fields):
    # each CSV ends in a `# verdict:` line, which has no comma
    text = _run(args).stdout
    assert text.endswith(b"\n") and text.splitlines()[-1].startswith(b"# verdict: ")
    want = subprocess.run(["cut", "-d,", f"-f{fields}"], input=text, capture_output=True,
                          check=True).stdout
    assert checks.cut(text, fields) == want


def test_a_changed_pin_fails_the_pin_check(monkeypatch):
    monkeypatch.setattr(checks, "ok", _run)
    rows = checks.PINS["Niven certificates at scale"]
    checks.pins(rows)
    for i, (request, fields, digest) in enumerate(rows):
        changed = [*rows]
        changed[i] = (request, fields, f"{int(digest[0], 16) ^ 1:x}{digest[1:]}")
        with pytest.raises(checks.Failed, match=f"^{re.escape(request)} differs$"):
            checks.pins(changed)
