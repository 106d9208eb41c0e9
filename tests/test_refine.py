"""Tests for the refinement driver, its budget, and budget exhaustion."""

import pytest

from irratcert import verify
from irratcert.cli import main
from irratcert.enclosure import refine, refinement_budget
from irratcert.errors import PrecisionExhausted


def _recorder(succeed_on):
    widths = []

    def attempt(width):
        widths.append(width)
        return "done" if len(widths) == succeed_on else None
    return attempt, widths


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("shrink", [2, 16])
def test_refine_returns_on_first_success(monkeypatch, k, shrink):
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", "10")
    attempt, widths = _recorder(k)
    assert refine(attempt, (1, 3), "probe", shrink=shrink) == "done"
    assert widths == [(1, 3 * shrink ** i) for i in range(k)]


@pytest.mark.parametrize("budget", [0, 1, 4])
def test_refine_raises_after_budget_plus_one_tries(monkeypatch, budget):
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", str(budget))
    attempt, widths = _recorder(None)
    with pytest.raises(PrecisionExhausted) as info:
        refine(attempt, (1, 4), "probe")
    assert len(widths) == budget + 1
    assert widths[-1] == (1, 4 * 2 ** budget)
    message = str(info.value)
    assert message.startswith("probe ")
    assert f"tries: {budget + 1}" in message
    assert f"last width < 2^{-1 - budget}" in message


def test_refine_reports_the_width_in_lowest_terms(monkeypatch):
    # the pair reaches attempt unreduced; the message reads num/den reduced
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", "2")
    messages = []
    for start in [(1, 3), (3, 9)]:
        with pytest.raises(PrecisionExhausted) as info:
            refine(lambda w: None, start, "probe")
        messages.append(str(info.value))
    assert messages == ["probe not settled within the refinement budget "
                        "(tries: 3, last width < 2^-2)"] * 2


def test_refine_keeps_a_falsy_result(monkeypatch):
    monkeypatch.setenv("IRRATCERT_MAX_REFINE", "3")
    assert refine(lambda w: 0, (1, 1), "zero") == 0


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
    # narrowings: certify's own first try and the narrowings refine makes
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
