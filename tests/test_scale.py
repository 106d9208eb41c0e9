"""Scale behaviour held by counts, not time: what certify does at n_max 1,000.

Each count is exact and read through the module globals that `verify` and
`sequences` look up, as RESIDUAL_EVALS in test_verify.py is.  Time is no guard
here, since in-process timings move by more than the effects that matter.

A count may go down in a change that says so.  Raising one is a change to a
check, and the change must say what it raised, where, and why.
"""

from fractions import Fraction

import pytest

from irratcert import sequences, verify
from irratcert.constants import (CosInv, CosOf, E, EPow, ERational, InvE, Root, SinInv,
                                 Sqrt)
from irratcert.verify import certify

N_MAX = 1000

# family: (constant, residual evaluations, kernel calls by the cache fill,
# kernel calls by the bound's `_upper`, verdict)
SCALE_COUNTS = {
    "sqrt": (Sqrt(2), 1000, 1, 1, "nice"),
    "root": (Root(7, 4), 1000, 1, 1, "nice"),
    "e": (E(), 1002, 1, 0, "nice"),
    "inv-e": (InvE(), 1000, 1, 0, "nice"),
    "e-squared": (EPow(2), 1000, 1, 1, "nice"),
    "e-squared-naive": (EPow(2), 1000, 1, 0, "violated:1"),
    "sin-inv": (SinInv(4), 1000, 1, 0, "nice"),
    "cos-inv": (CosInv(3), 1000, 1, 0, "nice"),
    "e-pow": (EPow(3), 1000, 1, 1, "nice"),
    "e-rat": (ERational(Fraction(-1, 2)), 1000, 1, 0, "nice"),
    "trig-angle": (CosOf(Fraction(1, 3)), 1000, 2, 0, "nice"),
}


def _counting(monkeypatch, module, name) -> list:
    """Rebind module.name to a wrapper that appends to the returned list on each call."""
    calls, original = [], getattr(module, name)

    def counting(*args):
        calls.append(None)
        return original(*args)
    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("family", sorted(SCALE_COUNTS))
def test_certify_counts_at_n_max_1000(monkeypatch, family):
    # one residual evaluation per row (e makes two more), one cache fill per
    # constant (cos and sin for trig-angle), and one coarse estimate for a
    # bound that reads the constant
    c, residuals, fills, bounds, verdict = SCALE_COUNTS[family]
    decided = _counting(monkeypatch, verify, "_decided")
    filled = _counting(monkeypatch, verify, "enclose")
    bounded = _counting(monkeypatch, sequences, "enclose")
    cert = certify(family, c, N_MAX)
    assert len(cert.rows) == N_MAX
    assert cert.verdict == verdict
    assert (len(decided), len(filled), len(bounded)) == (residuals, fills, bounds)
