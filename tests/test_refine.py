"""Tests for the refinement driver, its budget, and budget exhaustion."""

import pytest

from irratcert import verify
from irratcert.cli import main
from irratcert.enclosure import refine, refinement_budget
from irratcert.errors import PrecisionExhausted


def _widths(start, shrink=2, budget=None):
    """The widths refine yields from start, and the error that ends them."""
    widths = []
    with pytest.raises(PrecisionExhausted) as info:
        for width in refine(start, "probe", shrink, budget):
            widths.append(width)
    return widths, str(info.value)


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("shrink", [2, 16])
def test_refine_returns_on_first_success(monkeypatch, k, shrink):
    # a loop that breaks at its k-th try has seen the first k widths, each
    # the one before with its denominator times shrink
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", "10")
    widths = []
    for width in refine((1, 3), "probe", shrink):
        widths.append(width)
        if len(widths) == k:
            break
    assert widths == [(1, 3 * shrink ** i) for i in range(k)]


@pytest.mark.parametrize("budget", [0, 1, 4])
def test_refine_raises_after_budget_plus_one_tries(monkeypatch, budget):
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", str(budget))
    widths, message = _widths((1, 4))
    assert widths == [(1, 4 * 2 ** i) for i in range(budget + 1)]
    assert message.startswith("probe ")
    assert f"tries: {budget + 1}" in message
    assert f"last width < 2^{-1 - budget}" in message
    # a budget given outright overrides the environment
    assert _widths((1, 4), 16, budget + 1)[0] == [(1, 4 * 16 ** i) for i in range(budget + 2)]


def test_refine_reports_the_width_in_lowest_terms(monkeypatch):
    # the pairs are yielded unreduced; the message reads num/den reduced
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", "2")
    widths, message = _widths((3, 9))
    assert widths == [(3, 9), (3, 18), (3, 36)]
    assert message == _widths((1, 3))[1] == ("probe not settled within the refinement budget "
                                             "(tries: 3, last width < 2^-2)")


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5", " "])
def test_budget_rejects_non_integers(monkeypatch, raw):
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", raw)
    with pytest.raises(ValueError, match="IRRATCERT_MAX_REFINE"):
        refinement_budget()


def test_budget_accepts_zero(monkeypatch):
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", "0")
    assert refinement_budget() == 0


@pytest.mark.parametrize("raw", ["abc", "-1"])
def test_cli_reports_a_bad_budget(monkeypatch, capsys, raw):
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", raw)
    assert main(["cert", "--family", "e", "--n-max", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[ValueError]: ")
    assert "IRRATCERT_MAX_REFINE" in lines[0] and repr(raw) in lines[0]


@pytest.mark.parametrize("budget", [0, 1, 2])
def test_cli_reports_an_exhausted_budget(monkeypatch, capsys, budget):
    # the override is the literal start width, and from 10^6 row 4 needs four
    # narrowings: certify's own first try and the narrowings refine yields
    # count as one budget, and the last width tried is 10^6 / 16^budget
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", str(budget))
    tries = []
    decided = verify._decided

    def counting(n, *args):
        tries.append(n)
        return decided(n, *args)
    monkeypatch.setattr(verify, "_decided", counting)
    assert main(["cert", "--family", "e-pow", "--k", "3", "--n-max", "6",
                 "--width", "1000000"]) == 1
    assert tries == [1, 2, 3] + [4] * (budget + 1)
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[PrecisionExhausted]: residual at n=4 ")
    # 2^19 < 10^6 < 2^20, and each narrowing divides by 2^4
    assert lines[0].endswith(f"(tries: {budget + 1}, last width < 2^{20 - 4 * budget})")


EXHAUSTED = [
    ("0", ["cert", "--family", "e-rat", "--r=-3/2", "--n-max", "2", "--width", "1"],
     "decay of row 2 against row 1 not settled within the refinement budget "
     "(tries: 1, last width < 2^1)"),
    ("0", ["pigeonhole", "--constant", "sin:22/7", "--n", "1"],
     "bins for sin:22/7 at n=1 not settled within the refinement budget "
     "(tries: 1, last width < 2^-2)"),
    ("1", ["pigeonhole", "--constant", "sin:22/7", "--n", "1"],
     "bins for sin:22/7 at n=1 not settled within the refinement budget "
     "(tries: 2, last width < 2^-3)"),
    ("0", ["fracpart", "--constant", "e", "--q", "7", "--width", "1"],
     "fractional part of 7 * e not settled within the refinement budget "
     "(tries: 1, last width < 2^-3)"),
]


@pytest.mark.parametrize("budget, argv, message", EXHAUSTED)
def test_each_narrowing_loop_ends_in_one_error_line(monkeypatch, capsys, budget, argv, message):
    # the decay check, pigeonhole bins and fracpart each run out of budget with
    # the one-line error, exit 1 and nothing on stdout, as the rows do above
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", budget)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[PrecisionExhausted]: {message}\n"
