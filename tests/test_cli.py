"""Tests for the command-line interface: golden corpus, formats, exit codes."""

import argparse
import csv
import io
import json
import math
import random
import signal
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout, suppress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irratcert import cli
from irratcert.cli import main
from irratcert.verify import FAMILIES, Certificate, certify

from oracles import certificate_json

# The golden corpus: 15 runs whose exit codes partition exactly into
# eleven successes, one violated certificate, and three input errors.
CORPUS_OK = [
    ["cert", "--family", "sqrt", "--m", "2", "--n-max", "6", "--format", "json"],
    ["cert", "--family", "root", "--a", "2", "--m", "3", "--n-max", "4", "--format", "csv"],
    ["cert", "--family", "e", "--n-max", "8", "--format", "table"],
    ["cert", "--family", "inv-e", "--n-max", "6", "--format", "json"],
    ["cert", "--family", "e-squared", "--n-max", "5", "--format", "csv"],
    ["cert", "--family", "e-pow", "--k", "3", "--n-max", "5", "--format", "json"],
    ["cert", "--family", "e-rat", "--r=-1/2", "--n-max", "5", "--format", "json"],
    ["cert", "--family", "sin-inv", "--m", "2", "--n-max", "5", "--format", "table"],
    ["cert", "--family", "cos-inv", "--m", "1", "--n-max", "5", "--format", "csv"],
    ["cert", "--family", "trig-angle", "--angle", "1/2", "--n-max", "5", "--format", "json"],
    ["classify", "--poly", "1,1,-5,2"],
]
CORPUS_VIOLATED = [
    ["cert", "--family", "e-squared-naive", "--n-max", "8"],
]
CORPUS_ERROR = [
    ["cert", "--family", "frobnicate"],
    ["cert", "--family", "sqrt", "--m", "4"],
    ["classify", "--poly", "1,,2"],
]


def test_corpus_exit_code_partition(capsys):
    for argv in CORPUS_OK:
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.out
    for argv in CORPUS_VIOLATED:
        assert main(argv) == 2, argv
        capsys.readouterr()
    for argv in CORPUS_ERROR:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error[")
        assert "\n" not in captured.err.strip()


# Recorded from the corpus runs above.  The radical families' output is pinned
# byte for byte; for the others only the integers, both flags and the verdict
# are pinned, because residual endpoints (and, for e-pow, e-rat with r > 0 and
# e-squared, the bound built from a coarse upper endpoint of the constant)
# depend on the enclosure kernel's internal precision.
SQRT_ROWS = [
    ("1", "1", "53/128", "1697/4096",
     "425/1024"),
    ("7", "5", "9311/131072", "2329/32768",
     "76765625/1073741824"),
    ("41", "29", "51125/4194304", "25577/2097152",
     "13865791015625/1125899906842624"),
    ("239", "169", "280747/134217728", "70229/33554432",
     "2504508502197265625/1180591620717411303424"),
    ("1393", "985", "1540687/4294967296", "192709/536870912",
     "452376848209381103515625/1237940039285380274899124224"),
    ("8119", "5741", "4230675/68719476736", "8467091/137438953472",
     "81710568207819461822509765625/1298074214633706907132624082305024"),
]
ROOT_CSV = """\
n,coeffs,residual_lo,residual_hi,bound,nonzero_ok,bound_ok
1,1;-2;1,290132905/4294967296,290198441/4294967296,71289/1048576,true,true
2,19;-5;-8,667717976447/562949953421312,166982255807/140737488355328,1356926446107/1125899906842624,true,true
3,1;100;-80,1537072330642059/73786976294838206464,384322621963411/18446744073709551616,25827959154211353441/1208925819614629174706176,true,true
4,-1079;583;217,28300508536332394249/77371252455336267181195264,7077611603170058593/19342813113834066795298816,491613584498601037846604883/1298074214633706907132624082305024,true,true
# verdict: nice
"""
# family -> (verdict, rows of integers, (nonzero_ok, bound_ok) of every row)
CORPUS_INTEGERS = {
    "e": ("nice", [("2", "1"), ("5", "2"), ("16", "6"), ("65", "24"), ("326", "120"),
                   ("1957", "720"), ("13700", "5040"), ("109601", "40320")], (True, True)),
    "inv-e": ("nice", [("0", "1"), ("1", "2"), ("2", "6"), ("9", "24"), ("44", "120"),
                       ("265", "720")], (True, True)),
    "e-squared": ("nice", [("5", "1"), ("65", "9"), ("1957", "265"), ("109601", "14833"),
                           ("9864101", "1334961")], (True, True)),
    "e-pow": ("nice", [("-5", "1"), ("39", "3"), ("-435", "-21"), ("6441", "321"),
                       ("-119853", "-5967")], (True, True)),
    "e-rat": ("nice", [("-6", "-10"), ("148", "244"), ("-5944", "-9800"),
                       ("333456", "549776"), ("-24032608", "-39623072")], (True, True)),
    "sin-inv": ("nice", [("23", "48"), ("309287", "645120"), ("39192849079", "81749606400"),
                         ("20543323773249479", "42849873690624000"),
                         ("30576354410924152553303", "63777066403145711616000")],
                (True, True)),
    "cos-inv": ("nice", [("1", "2"), ("389", "720"), ("1960649", "3628800"),
                         ("47102631757", "87178291200"),
                         ("3459217276234385", "6402373705728000")], (True, True)),
    "trig-angle": ("nice", [("-8", "-8", "2"), ("188", "188", "-48"),
                            ("-7488", "-7488", "1912"), ("418576", "418576", "-106880"),
                            ("-30107520", "-30107520", "7687712")], (True, True)),
    "e-squared-naive": ("violated:1", [("4", "1"), ("25", "4"), ("256", "36"),
                                       ("4225", "576"), ("106276", "14400"),
                                       ("3829849", "518400"), ("187690000", "25401600"),
                                       ("12012379201", "1625702400")], (True, False)),
}
_NOT_PINNED = {"n", "residual_lo", "residual_hi", "bound", "residual~", "bound~"}


def _pinned_fields(text):
    """(verdict, integer tuples, flag pairs) of a cert run in any output format."""
    text = text.strip()
    if text.startswith("{"):
        data = json.loads(text)
        rows, verdict = data["rows"], data["verdict"]
    else:
        lines = text.splitlines()
        verdict = lines[-1].split(": ", 1)[1]
        if lines[-1].startswith("# verdict: "):
            rows = list(csv.DictReader(lines[:-1]))
        else:
            header = lines[0].split()
            rows = [dict(zip(header, line.split())) for line in lines[1:-1]]
    integers = [tuple(v for k, v in row.items()
                      if k not in _NOT_PINNED and not k.endswith("_ok")) for row in rows]
    flags = [(row["nonzero_ok"] in (True, "true"), row["bound_ok"] in (True, "true"))
             for row in rows]
    return verdict, integers, flags


def test_corpus_radical_output_is_pinned(capsys):
    assert main(CORPUS_OK[0]) == 0
    rows = [{"n": n, "p": p, "q": q, "residual_lo": lo, "residual_hi": hi, "bound": bound,
             "nonzero_ok": True, "bound_ok": True}
            for n, (p, q, lo, hi, bound) in enumerate(SQRT_ROWS, start=1)]
    expected = json.dumps({"constant": "sqrt:2", "family": "sqrt", "rows": rows,
                           "verdict": "nice"}, indent=2) + "\n"
    assert capsys.readouterr().out == expected
    assert main(CORPUS_OK[1]) == 0
    assert capsys.readouterr().out == ROOT_CSV


def test_corpus_integers_flags_and_verdicts_are_pinned(capsys):
    runs = [argv for argv in CORPUS_OK + CORPUS_VIOLATED
            if argv[0] == "cert" and argv[2] not in ("sqrt", "root")]
    assert sorted(argv[2] for argv in runs) == sorted(CORPUS_INTEGERS)
    for argv in runs:
        main(argv)
        verdict, integers, flags = _pinned_fields(capsys.readouterr().out)
        expected_verdict, expected_integers, expected_flags = CORPUS_INTEGERS[argv[2]]
        assert verdict == expected_verdict, argv
        assert integers == expected_integers, argv
        assert flags == [expected_flags] * len(expected_integers), argv


def test_corpus_certificates_equal_the_json_dumps_text(capsys):
    # every corpus certificate, written as JSON, is what json.dumps(indent=2)
    # writes for its data
    runs = [argv for argv in CORPUS_OK + CORPUS_VIOLATED if argv[0] == "cert"]
    assert len(runs) == 11
    for argv in runs:
        flags = argv[:argv.index("--format")] if "--format" in argv else argv
        main(flags + ["--format", "json"])
        text = capsys.readouterr().out
        assert text == certificate_json(Certificate.from_json(text)) + "\n", argv


def test_json_output_round_trips(capsys):
    # one run per row layout: p/q, coeffs, a/c/d, and two with rounded series
    # residuals; the text written by hand is what json.dumps and csv.writer write
    for flags, constant, fields in (
            (["--family", "sqrt", "--m", "2"], "sqrt:2", ["p", "q"]),
            (["--family", "root", "--a", "2", "--m", "3"], "root:2,3", ["coeffs"]),
            (["--family", "trig-angle", "--angle", "1/3"], "cos:1/3", ["a", "c", "d"]),
            (["--family", "sin-inv", "--m", "4"], "sin-inv:4", ["p", "q"]),
            (["--family", "e-pow", "--k", "3"], "e-pow:3", ["p", "q"])):
        argv = ["cert", *flags, "--n-max", "8", "--format"]
        assert main(argv + ["json"]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), indent=2) + "\n", constant
        cert = Certificate.from_json(text)
        assert cert.to_json() + "\n" == text
        assert cert.verdict == "nice"
        assert cert.constant == constant
        assert len(cert.rows) == 8
        assert main(argv + ["csv"]) == 0
        text = capsys.readouterr().out
        *lines, verdict = text.splitlines(keepends=True)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(csv.reader(lines))
        assert text == out.getvalue() + verdict and verdict.startswith("# verdict: "), constant
        header = lines[0].rstrip("\n").split(",")
        assert header == ["n", *fields, "residual_lo", "residual_hi", "bound",
                          "nonzero_ok", "bound_ok"]


def test_csv_and_json_row_data_agree(capsys):
    # one request per layout; the root vector is one ';'-joined CSV cell
    for flags, fields in ((["--family", "e"], ["p", "q"]),
                          (["--family", "root", "--a", "7", "--m", "4"], ["coeffs"]),
                          (["--family", "trig-angle", "--angle", "1/3"], ["a", "c", "d"])):
        base = ["cert", *flags, "--n-max", "5"]
        assert main(base + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert main(base + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        body = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
        assert lines[-1] == "# verdict: nice"
        assert len(body) == len(data["rows"]) == 5
        for json_row, csv_row in zip(data["rows"], body):
            assert csv_row["n"] == str(json_row["n"])
            for name in fields:
                cell = csv_row[name].split(";") if name == "coeffs" else csv_row[name]
                assert cell == json_row[name]
            for name in ("residual_lo", "residual_hi", "bound"):
                assert csv_row[name] == json_row[name]
            for name in ("nonzero_ok", "bound_ok"):
                assert csv_row[name] == ("true" if json_row[name] else "false")


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    assert main(["cert", "--family", "sqrt", "--m", "3", "--n-max", "4",
                 "--format", "json", "--output", str(target)]) == 0
    capsys.readouterr()
    cert = Certificate.from_json(target.read_text())
    assert cert.constant == "sqrt:3"


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_writing_a_report_holds_about_two_copies_of_it(tmp_path, monkeypatch, fmt):
    # the rows are joined once with the header and footer, and a missing
    # newline is a second write, so the peak is the rows and the text, then
    # the text and its encoded bytes: 2.0x its length, against 3.1x when
    # the rows were joined, wrapped, and copied again to add the newline,
    # and 3.6x when the table's verdict line was added to its joined lines
    cert = certify("e", FAMILIES["e"].kind(), 1000)
    size = len(getattr(cert, f"to_{fmt}")())
    monkeypatch.setattr(cli, "certify", lambda *args, **kwargs: cert)
    argv = ["cert", "--family", "e", "--n-max", "1000", "--format", fmt,
            "--output", str(tmp_path / f"e.{fmt}")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 2_000_000
    assert peak < 2.5 * size


def test_output_flag_reports_unwritable_path(tmp_path, capsys):
    base = ["cert", "--family", "e", "--n-max", "3", "--format", "json", "--output"]
    for target, error in ((tmp_path / "missing" / "x.json", "FileNotFoundError"),
                          (tmp_path, "IsADirectoryError")):
        assert main(base + [str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[{error}]: ")
        assert captured.err.count("\n") == 1


def test_width_override(capsys):
    from fractions import Fraction
    assert main(["cert", "--family", "e", "--n-max", "3", "--format", "json",
                 "--width", "1/1000000000"]) == 0
    data = json.loads(capsys.readouterr().out)
    for row in data["rows"]:
        lo = Fraction(row["residual_lo"])
        hi = Fraction(row["residual_hi"])
        assert hi - lo <= Fraction(1, 10 ** 9)


def test_classify_output_lines(capsys):
    assert main(["classify", "--poly", "1,1,-5,2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("bracket (") for line in lines)
    assert all(line.endswith("irrational") for line in lines)
    assert main(["classify", "--poly=-4,0,1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith("rational -2")
    assert lines[1].endswith("rational 2")


def test_pigeonhole_subcommand(capsys):
    assert main(["pigeonhole", "--constant", "sqrt:2", "--n", "5",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["p"] == "7" and data["q"] == "5"
    assert main(["pigeonhole", "--constant", "sqrt:2", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "q: 3" in out and "p: 4" in out


def test_reduce_subcommand(capsys):
    assert main(["reduce", "--modulus=-2,0,0,1", "--coeffs", "0,0,0,1"]) == 0
    assert capsys.readouterr().out.strip() == "2,0,0"
    assert main(["reduce", "--modulus", "1,0,1", "--coeffs", "0,0,1"]) == 0
    assert capsys.readouterr().out.strip() == "-1,0"
    # non-monic modulus is a module error, not a crash
    assert main(["reduce", "--modulus", "1,2", "--coeffs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[NotMonicError]")
    # x^10000 = 9^5000 modulo x^2 - 9: 4,772 digits, past the interpreter's
    # default limit of 4,300 on int-to-str conversion
    assert main(["reduce", "--modulus=-9,0,1", "--coeffs=" + "0," * 10000 + "1"]) == 0
    high, low = capsys.readouterr().out.strip().split(",")
    assert (len(high), int(high[:40]), int(high[-40:]), low) == (
        4772, 9 ** 5000 // 10 ** 4732, 9 ** 5000 % 10 ** 40, "0")


def test_reduce_reads_integers_past_the_digit_limit(capsys):
    # 4,400 digits, past the interpreter's default limit of 4,300 on
    # str-to-int conversion; text that is not decimal keeps its usage error
    ones = "1" * 4400
    assert main(["reduce", "--modulus=-2,0,1", "--coeffs=" + ones]) == 0
    assert capsys.readouterr().out.strip() == ones + ",0"
    assert main(["reduce", "--modulus=-2,0,1", "--coeffs=" + ones + "x"]) == 1
    assert capsys.readouterr().err.startswith("error[usage]: --coeffs must be")


def test_pigeonhole_reads_a_constant_past_the_digit_limit(capsys):
    # under the lowest limit the interpreter allows, so that the radicand
    # stays small enough for a quick search
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on str-to-int digits")
    ones = "1" * 700
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["pigeonhole", "--constant=sqrt:" + ones, "--n", "5"]) == 0
        assert capsys.readouterr().out.startswith(f"constant: sqrt:{ones}\nn: 5\n")
        assert main(["pigeonhole", "--constant=root:" + ones + "x,3", "--n", "5"]) == 1
        err = capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.startswith("error[ValueError]: malformed constant spec")


def test_classify_prints_a_root_past_the_digit_limit(capsys):
    # x - N for N of 700 digits under the lowest limit the interpreter
    # allows, and of 4,400 digits under the default limit: str() of N would
    # raise.  Isolating the root halves (-N - 2, N + 2) about 3.3 times per
    # digit, on integers and past the first 64 halvings by a Newton jump
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int-to-str digits")
    for digits, limit in ((700, 640), (4400, sys.get_int_max_str_digits())):
        ones = "1" * digits
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert main(["classify", f"--poly=-{ones},1"]) == 0
            out = capsys.readouterr().out
        finally:
            sys.set_int_max_str_digits(saved)
        assert out.startswith("bracket (")
        assert out.endswith(f"): rational {ones}\n")
        assert out.count("\n") == 1


def test_a_rational_algebraic_root_is_placed_as_a_point(capsys):
    # 3 in (2, 17/5) and 3/2 in (1, 17/5): no bisection midpoint is the root,
    # so an interval around it would straddle a bin edge at every width
    start = time.perf_counter()
    assert main(["pigeonhole", "--constant", "algroot:-3,1@2,17/5", "--n", "5"]) == 0
    assert capsys.readouterr().out == (
        "constant: algroot:-3,1@2,17/5\nn: 5\nq: 1\np: 3\nresidual: [0/1, 0/1]\n"
        "residual ~ 0.0000000000  (|residual| < 1/5)\n")
    assert main(["fracpart", "--constant", "algroot:-3,1@2,17/5", "--q", "2"]) == 0
    assert capsys.readouterr().out == "{q*x}({q*x} - 1) in [0/1, 0/1]\nvalue ~ 0.0000000000\n"
    assert main(["fracpart", "--constant", "algroot:-3,2@1,17/5", "--q", "3"]) == 0
    assert capsys.readouterr().out == "{q*x}({q*x} - 1) in [-1/4, -1/4]\nvalue ~ -0.2500000000\n"
    assert time.perf_counter() - start < 1


def test_a_repeated_factor_outside_the_bracket_changes_no_output(capsys):
    # (x^2 - 2)(x - 5)^2 has the one root sqrt(2) in (1, 2), as x^2 - 2 has;
    # its bracket's Sturm count is made on the squarefree part
    outs = []
    for poly in ("-2,0,1", "-50,20,23,-10,1"):
        constant = f"algroot:{poly}@1,2"
        assert main(["pigeonhole", "--constant", constant, "--n", "50", "--format", "json"]) == 0
        pigeonhole = capsys.readouterr().out
        assert json.loads(pigeonhole)["constant"] == constant
        assert main(["fracpart", "--constant", constant, "--q", "12345"]) == 0
        outs.append((pigeonhole.replace(constant, "algroot"), capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert (json.loads(outs[0][0])["p"], json.loads(outs[0][0])["q"]) == ("41", "29")


def test_a_classify_bracket_past_the_digit_limit_feeds_pigeonhole(capsys):
    # the bracket printed for the root 11...1 of 4,400 digits, under the
    # default limit, read back as an algroot constant
    ones = "1" * 4400
    assert main(["classify", f"--poly=-{ones},1"]) == 0
    bracket = capsys.readouterr().out.split("(", 1)[1].split(")", 1)[0].replace(" ", "")
    constant = f"algroot:-{ones},1@{bracket}"
    assert main(["pigeonhole", "--constant", constant, "--n", "5", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["constant"] == constant
    assert (out["p"], out["q"], out["residual_lo"], out["residual_hi"]) == (ones, "1", "0/1", "0/1")


def test_fracpart_subcommand(capsys):
    assert main(["fracpart", "--constant", "e", "--q", "6"]) == 0
    out = capsys.readouterr().out
    assert "-0.21378" in out
    assert main(["fracpart", "--constant", "e", "--q", "0"]) == 1
    assert capsys.readouterr().err.startswith("error[ValueError]")


def test_seed_doc(capsys):
    for family in ("sqrt", "e", "trig-angle", "e-squared-naive"):
        assert main(["cert", "--family", family, "--seed-doc"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(family + ":")
        assert len(out) > 40


def test_missing_flags_are_usage_errors(capsys):
    assert main(["cert", "--family", "sqrt"]) == 1
    assert "requires --m" in capsys.readouterr().err
    assert main(["cert", "--family", "e-rat", "--r", "zebra"]) == 1
    assert "must be a rational" in capsys.readouterr().err
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err
    assert main(["cert", "--family", "trig-angle", "--angle", "22/7"]) == 1
    assert capsys.readouterr().err.startswith("error[AngleOutOfRangeError]")
    assert main(["classify", "--poly=1,x"]) == 1
    assert capsys.readouterr().err == (
        "error[usage]: --poly must be comma-separated integers, got '1,x'\n")
    assert main(["reduce", "--modulus=-2,0,1", "--coeffs=1,,2"]) == 1
    assert capsys.readouterr().err == (
        "error[usage]: --coeffs must be comma-separated integers, got '1,,2'\n")
    assert main(["reduce", "--modulus=-2,y,1", "--coeffs=1,2"]) == 1
    assert capsys.readouterr().err == (
        "error[usage]: --modulus must be comma-separated integers, got '-2,y,1'\n")


def test_memory_error_is_one_line(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "certify", exhausted)
    assert main(["cert", "--family", "e", "--n-max", "3"]) == 1
    assert capsys.readouterr() == ("", "error[MemoryError]: out of memory\n")


@pytest.mark.parametrize("angle, error", [("3141592/1000000", "AngleNearPiError"),
                                          ("355/113", "AngleNearPiError"),
                                          ("356/113", "AngleOutOfRangeError")])
def test_angles_at_the_near_pi_window_are_refused_in_one_line(capsys, angle, error):
    # 3141592/1000000 and 355/113 lie in (3.14159, 355/113], the refusal
    # window; 356/113 is past pi
    assert main(["cert", "--family", "trig-angle", "--angle", angle]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error[{error}]: ") and err.count("\n") == 1


def test_a_negative_angle_is_refused_in_one_line(capsys):
    assert main(["cert", "--family", "trig-angle", "--angle=-1/2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error[ValueError]: angle must be a ratio of positive integers, got -1/2\n"


def test_the_largest_angle_below_the_near_pi_window_is_certified(capsys):
    # every row of 3.14159 passes, but its residuals still grow at n = 10
    assert main(["cert", "--family", "trig-angle", "--angle", "314159/100000"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["n", "a", "c", "d"]
    assert len(lines) == 12 and lines[-1] == "verdict: violated:10"


# back-to-back requests across subcommands, with usage errors between them
PARSER_RUNS = [
    ["cert", "--family", "e", "--n-max", "3"],
    ["pigeonhole", "--constant", "sqrt:2", "--n", "20", "--format", "json"],
    ["pigeonhole", "--n", "3"],
    ["cert", "--family", "sqrt", "--m", "2", "--n-max", "3", "--format", "csv"],
    ["cert", "--family", "sqrt"],
    ["reduce", "--modulus=-2,0,1", "--coeffs", "1,2,3", "--bogus"],
    ["classify", "--poly", "1,1,-5,2"],
    [],
    ["fracpart", "--constant", "e", "--q", "7"],
    ["cert", "--family", "root", "--a", "2", "--m", "3", "--n-max", "2"],
]


# Each subcommand's argparse actions as recorded before the parser was built
# from cli._COMMANDS: (option strings, dest, type, choices, default,
# required, nargs, help).  The actions are pinned rather than the --help
# text, whose wording differs between Python versions.
_HELP = (("-h", "--help"), "help", None, None, "==SUPPRESS==", False, 0,
         "show this help message and exit")
PARSER_ACTIONS = {
    "cert": [
        _HELP,
        (("--family",), "family", None, ["cos-inv", "e", "e-pow", "e-rat", "e-squared",
                                         "e-squared-naive", "inv-e", "root", "sin-inv", "sqrt",
                                         "trig-angle"], None, True, None, "generator family"),
        (("--n-max",), "n_max", int, None, 10, False, None, "last row index (default 10)"),
        (("--m",), "m", int, None, None, False, None,
         "radicand (sqrt), root degree (root), or argument denominator (sin-inv, cos-inv)"),
        (("--a",), "a", int, None, None, False, None, "radicand for the root family"),
        (("--k",), "k", int, None, None, False, None, "integer exponent for e-pow"),
        (("--r",), "r", None, None, None, False, None, "rational exponent for e-rat, e.g. -1/2"),
        (("--angle",), "angle", None, None, None, False, None,
         "rational angle for trig-angle, e.g. 1/3"),
        (("--format",), "format", None, ["json", "csv", "table"], "table", False, None,
         "report format (default table)"),
        (("--output",), "output", None, None, None, False, None, "write the report to this path"),
        (("--width",), "width", None, None, None, False, None,
         "per-row verification width override"),
        (("--seed-doc",), "seed_doc", None, None, False, False, 0,
         "print the construction behind the family and exit"),
    ],
    "pigeonhole": [
        _HELP,
        (("--constant",), "constant", None, None, None, True, None, "constant text, e.g. sqrt:2"),
        (("--n",), "n", int, None, None, True, None, None),
        (("--format",), "format", None, ["json", "table"], "table", False, None, None),
    ],
    "reduce": [
        _HELP,
        (("--modulus",), "modulus", None, None, None, True, None,
         "monic modulus, ascending comma-separated, e.g. -2,0,1"),
        (("--coeffs",), "coeffs", None, None, None, True, None,
         "coefficient vector to reduce, ascending comma-separated"),
    ],
    "classify": [
        _HELP,
        (("--poly",), "poly", None, None, None, True, None,
         "integer polynomial, ascending comma-separated, e.g. 1,1,-5,2"),
    ],
    "fracpart": [
        _HELP,
        (("--constant",), "constant", None, None, None, True, None, None),
        (("--q",), "q", int, None, None, True, None, None),
        (("--width",), "width", None, None, None, False, None, "enclosure width (default 1/10^9)"),
    ],
}
SUBCOMMAND_HELP = [
    ("cert", "certificate table for one family"),
    ("pigeonhole", "bin-collision approximant for one n"),
    ("reduce", "reduce coefficients modulo a monic polynomial"),
    ("classify", "rational-or-irrational verdict per real root"),
    ("fracpart", "fractional-part product {qx}({qx}-1)"),
]


def test_the_parser_keeps_the_recorded_options():
    parser = cli._build_parser()
    assert (parser.prog, parser.description) == (
        "irratcert", "exact-arithmetic irrationality certificates")
    top = [(a.option_strings, a.dest, a.metavar) for a in parser._actions]
    assert top == [(["-h", "--help"], "help", None), ([], argparse.SUPPRESS, "command")]
    assert [(a.dest, a.help) for a in parser._actions[1]._choices_actions] == SUBCOMMAND_HELP
    actions = {name: [(tuple(a.option_strings), a.dest, a.type,
                       None if a.choices is None else list(a.choices), a.default, a.required,
                       a.nargs, a.help) for a in command._actions]
               for name, command in parser.commands.items()}
    assert actions == PARSER_ACTIONS
    handlers = {name: command.get_default("handler") for name, command in parser.commands.items()}
    assert handlers == {"cert": cli._cmd_cert, "pigeonhole": cli._cmd_pigeonhole,
                        "reduce": cli._cmd_reduce, "classify": cli._cmd_classify,
                        "fracpart": cli._cmd_fracpart}


def test_shared_parser_answers_like_a_fresh_one(capsys):
    def outcomes(fresh):
        seen = []
        for argv in PARSER_RUNS:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen
    shared = outcomes(fresh=False)
    assert shared == outcomes(fresh=True)
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 1, 1, 0, 1, 0, 0]
    assert cli._build_parser() is cli._build_parser()


# Paths no other test runs, recorded as (argv, exit code, stdout, stderr)
# before power forms reduced through intpoly's pseudo-division: a fracpart
# whose first try straddles an integer, three width and degree rejections,
# and the five malformed algroot brackets (degree 0, lo >= hi, an endpoint
# that is a root, no sign change, three roots).
EDGE_RUNS = [
    (["fracpart", "--constant", "sqrt:2", "--q", "2", "--width", "1"], 0,
     "{q*x}({q*x} - 1) in [-7/32, -3/32]\nvalue ~ -0.1562500000\n", ""),
    (["fracpart", "--constant", "e", "--q", "6", "--width", "0"], 1,
     "", "error[ValueError]: max_width must be positive\n"),
    (["cert", "--family", "e", "--width", "0"], 1,
     "", "error[ValueError]: width override must be positive\n"),
    (["cert", "--family", "e", "--n-max", "0"], 1,
     "", "error[ValueError]: n_max must be >= 1, got 0\n"),
    (["cert", "--family", "e", "--n-max", "100000000000000000000"], 1,
     "", f"error[ValueError]: n_max must be <= {sys.maxsize}\n"),
    (["reduce", "--modulus=1", "--coeffs", "1"], 1,
     "", "error[ValueError]: modulus must have degree >= 1\n"),
    (["pigeonhole", "--constant", "algroot:5@0,1", "--n", "5"], 1, "",
     "error[ValueError]: malformed constant spec 'algroot:5@0,1': "
     "polynomial must have degree >= 1\n"),
    (["pigeonhole", "--constant", "algroot:-2,0,1@2,1", "--n", "5"], 1, "",
     "error[ValueError]: malformed constant spec 'algroot:-2,0,1@2,1': "
     "bracket must satisfy lo < hi\n"),
    (["pigeonhole", "--constant", "algroot:-2,1@2,3", "--n", "5"], 1, "",
     "error[BracketAmbiguousError]: bracket endpoint is itself a root\n"),
    (["pigeonhole", "--constant", "algroot:-1,0,1@-2,2", "--n", "5"], 1, "",
     "error[BracketAmbiguousError]: no sign change over the bracket\n"),
    (["pigeonhole", "--constant", "algroot:0,-1,0,1@-2,2", "--n", "5"], 1, "",
     "error[BracketAmbiguousError]: bracket holds 3 roots, need exactly 1\n"),
]


@pytest.mark.parametrize("argv, code, out, err", EDGE_RUNS,
                         ids=[" ".join(run[0]) for run in EDGE_RUNS])
def test_edge_runs_are_pinned(capsys, argv, code, out, err):
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


# Witness golden corpus, recorded before the pigeonhole bin scan moved to
# integers.  Each pigeonhole case is (constant, n, p, q, residual_lo,
# residual_hi, decimal midpoint) and is run in both formats; the full stdout
# is compared.  sqrt:761 at 1500, root:41,5 at 50, e-pow:3 at 200, e-pow:6
# at 1500, sin:22/7 at 1 and cos:1/3 at 1 need more than one refine try.
# algroot:-1,2@0,1 is the exact root 1/2, which `enclose` must return as a
# point: any interval around it straddles a bin boundary.  e at 1500 is the
# witness PIGEONHOLE_PINS pins in tests/test_pigeonhole.py.
PIGEONHOLE_GOLDEN = [
    ("sqrt:2", 1, "1", "1", "3/8", "1/2", "0.4375000000"),
    ("sqrt:761", 1500, "800", "29", "10737409/17179869184", "42949665/68719476736",
     "0.0006249996.."),
    ("root:3,3", 3, "4", "3", "83/256", "169/512", "0.3271484375"),
    ("root:41,5", 50, "21", "10", "8557/524288", "17119/1048576", "0.0163235664.."),
    ("e", 7, "19", "7", "3328719/134217728", "3754977/134217728", "0.0263888239.."),
    ("e", 850, "1264", "465", "147784585573/140737488355328",
     "591228896857/562949953421312", "0.0010501530.."),
    ("e", 1500, "2721", "1001", "248289969909/2251799813685248",
     "62086350071/562949953421312", "0.0001102752.."),
    ("inv-e", 2, "0", "1", "191363/524288", "403705/1048576", "0.3749995231.."),
    ("inv-e", 533, "71", "193", "6439985553/8796093022208", "51524586483/70368744177664",
     "0.0007321750.."),
    ("e-pow:3", 200, "3053", "152", "28355375303/17592186044416",
     "28364319249/17592186044416", "0.0016120706.."),
    ("e-pow:6", 1500, "260615", "646", "687485095324223/1152921504606846976",
     "687495042275245/1152921504606846976", "0.0005963025.."),
    ("e-rat:-1/3", 1500, "91", "127", "-73685581849/140737488355328",
     "-2302587839/4398046511104", "-0.0005235577.."),
    ("e-rat:7/9", 50, "37", "17", "23177709/8589934592", "1454305/536870912",
     "0.0027035473.."),
    ("sin:-19/6", 850, "9", "359", "2825970361689/4503599627370496",
     "5652022404135/9007199254740992", "0.0006274960.."),
    ("sin:22/7", 1, "-1", "1", "66962503/67108864", "67025445/67108864", "0.9982880055.."),
    ("cos:1/3", 1, "0", "1", "123721/131072", "123859/131072", "0.9444427490.."),
    ("cos:1/3", 1500, "103", "109", "43227281011/140737488355328",
     "86454848801/281474976710656", "0.0003071488.."),
    ("algroot:-5,-2,0,1@2,3", 200, "155", "74", "-107071/33554432", "-106995/33554432",
     "-0.0031898319.."),
    ("algroot:-1,0,6@1/3,1/2", 1500, "198", "485", "10845797/25769803776",
     "5423141/12884901888", "0.0004208817.."),
    ("algroot:-1,2@0,1", 2, "1", "2", "0/1", "0/1", "0.0000000000"),
]


def test_pigeonhole_golden_stdout(capsys):
    for constant, n, p, q, lo, hi, mid in PIGEONHOLE_GOLDEN:
        argv = ["pigeonhole", "--constant", constant, "--n", str(n), "--format"]
        assert main(argv + ["json"]) == 0
        expected = json.dumps({"constant": constant, "n": n, "p": p, "q": q,
                               "residual_lo": lo, "residual_hi": hi}, indent=2) + "\n"
        assert capsys.readouterr().out == expected, (constant, n)
        assert main(argv + ["table"]) == 0
        expected = (f"constant: {constant}\nn: {n}\nq: {q}\np: {p}\n"
                    f"residual: [{lo}, {hi}]\nresidual ~ {mid}  (|residual| < 1/{n})\n")
        assert capsys.readouterr().out == expected, (constant, n)


# one constant of each kind, an algebraic root in a bracket with a rational
# end, and the rational root 2/3, which `enclose` returns as a point
JSON_CONSTANTS = ["sqrt:2", "root:7,4", "e", "inv-e", "e-pow:3", "e-rat:-7/3", "sin:-22/7",
                  "cos:1/3", "algroot:1,1,-5,2@2,5/2", "algroot:-2,3@0,1"]


@pytest.mark.parametrize("constant", JSON_CONSTANTS)
def test_pigeonhole_json_is_the_json_dumps_text(capsys, constant):
    for n in (1, 2, 40, 1500):
        argv = ["pigeonhole", "--constant", constant, "--n", str(n), "--format", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert out == json.dumps(data, indent=2) + "\n", (constant, n)
        assert list(data) == ["constant", "n", "p", "q", "residual_lo", "residual_hi"]
        assert (data["constant"], data["n"]) == (constant, n)
        for end in (data["residual_lo"], data["residual_hi"]):
            num, den = map(int, end.split("/"))
            assert den > 0 and math.gcd(num, den) == 1, (constant, n, end)


# (poly, exit code, stdout, stderr): degrees 2 to 8, with and without rational
# roots, the last of degree 8 with eight real roots, then a squared factor.
CLASSIFY_GOLDEN = [
    ("-3,5,2", 0, "bracket (-28/9, -26/9): rational -3\nbracket (4/9, 2/3): rational 1/2\n",
     ""),
    ("1,1,-5,2", 0, "bracket (-1/2, -1/4): irrational\nbracket (1/2, 3/4): irrational\n"
                    "bracket (2, 9/4): irrational\n", ""),
    ("2,-4,-7,2,3", 0, "bracket (-3/2, -4/3): irrational\n"
                       "bracket (-10/9, -8/9): rational -1\n"
                       "bracket (1/4, 1/2): rational 1/3\n"
                       "bracket (5/4, 3/2): irrational\n", ""),
    ("-1,-1,0,0,0,1", 0, "bracket (9/8, 21/16): irrational\n", ""),
    ("-18,-21,25,49,10,-12,16", 0, "bracket (-25/32, -5/8): rational -3/4\n"
                                   "bracket (5/8, 25/32): irrational\n", ""),
    ("9,8,6,9,5,-2,1,-1", 0, "bracket (143/64, 77/32): irrational\n", ""),
    ("0,-18,0,-18,15,-27,18,3,12", 0, "bracket (-4/81, 4/27): rational 0\n"
                                      "bracket (8/9, 10/9): irrational\n", ""),
    ("-12,-2,98,-59,-114,92,22,-31,6", 0,
     "bracket (-189/128, -21/16): irrational\n"
     "bracket (-147/128, -63/64): rational -1\n"
     "bracket (-63/128, -21/64): rational -1/3\n"
     "bracket (63/128, 21/32): rational 1/2\n"
     "bracket (63/64, 147/128): rational 1\n"
     "bracket (21/16, 189/128): irrational\n"
     "bracket (63/32, 273/128): rational 2\n"
     "bracket (189/64, 399/128): rational 3\n", ""),
    ("1,1,-7,-8,4", 1, "",
     "error[NotSquarefreeError]: repeated roots; divide out gcd(f, f') first\n"),
]


def test_classify_golden_stdout(capsys):
    for poly, code, out, err in CLASSIFY_GOLDEN:
        assert main(["classify", f"--poly={poly}"]) == code, poly
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err), poly


# An exponent, angle or root degree out of the kernel's reach overflows
# Python's integers; each request ends in one line and exit 1
OVERFLOW_RUNS = [
    ["cert", "--family", "e-rat", "--r=1e30", "--n-max", "2"],
    ["cert", "--family", "e-pow", "--k", "1000000000000000000000000000000", "--n-max", "2"],
    ["pigeonhole", "--constant", "sin:1e30", "--n", "5"],
    ["fracpart", "--constant", "e-pow:1000000000000000000000000000000", "--q", "3"],
    ["cert", "--family", "root", "--a", "2", "--m", "12345678901234567890", "--n-max", "1"],
]


@pytest.mark.parametrize("argv", OVERFLOW_RUNS, ids=" ".join)
def test_an_out_of_reach_constant_is_refused_in_one_line(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[OverflowError]") and err.count("\n") == 1


# Rational text whose exponent is past 4300 in magnitude, which Fraction would
# expand into a power of 10 of that many digits (a 20-digit exponent never
# ends), is refused in one line before anything is expanded
EXPONENT_RUNS = [
    (["cert", "--family", "e", "--width", "1e-4301", "--n-max", "2"],
     "error[usage]: --width must be a rational like 3/5, got '1e-4301'\n"),
    (["cert", "--family", "e", "--width", "1e-99999999999999999999", "--n-max", "2"],
     "error[usage]: --width must be a rational like 3/5, got '1e-99999999999999999999'\n"),
    (["cert", "--family", "e-rat", "--r=1E+4301", "--n-max", "2"],
     "error[usage]: --r must be a rational like 3/5, got '1E+4301'\n"),
    (["cert", "--family", "trig-angle", "--angle", "1e-4301", "--n-max", "2"],
     "error[usage]: --angle must be a rational like 3/5, got '1e-4301'\n"),
    (["fracpart", "--constant", "e-rat:1e-4301", "--q", "3"],
     "error[ValueError]: malformed constant spec 'e-rat:1e-4301': "
     "the exponent of '1e-4301' exceeds 4300 in magnitude\n"),
]


@pytest.mark.parametrize("argv, err", EXPONENT_RUNS, ids=[" ".join(run[0]) for run in EXPONENT_RUNS])
def test_an_exponent_past_the_cap_is_refused_in_one_line(capsys, argv, err):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", err)


def test_a_malformed_rational_in_certificate_json_is_refused(capsys):
    assert main(CORPUS_OK[0]) == 0
    text = capsys.readouterr().out
    for name in ("residual_lo", "residual_hi", "bound"):
        for value in ("abc", "1/0", "1e-4301"):
            data = json.loads(text)
            data["rows"][1][name] = value
            with pytest.raises(ValueError) as info:
                Certificate.from_json(json.dumps(data))
            assert str(info.value) == (f"certificate field {name!r} must be a rational "
                                       f"like 3/4, got {value!r}")


# family -> (flag, value) for each field of its constant kind, in field order
KIND_FLAGS = {
    "sqrt": [("--m", "2")], "root": [("--a", "2"), ("--m", "3")], "e-pow": [("--k", "1")],
    "e-rat": [("--r", "1/2")], "sin-inv": [("--m", "2")], "cos-inv": [("--m", "2")],
    "trig-angle": [("--angle", "1/3")],
}


def test_every_cert_flag_comes_from_its_kinds_fields(capsys):
    assert set(KIND_FLAGS) == {family for family, f in FAMILIES.items()
                               if isinstance(f.kind, type) and f.kind.__match_args__}
    for family, fields in KIND_FLAGS.items():
        given_flags = [f"{flag}={value}" for flag, value in fields]
        for i, (flag, _) in enumerate(fields):
            argv = ["cert", "--family", family, *given_flags[:i], *given_flags[i + 1:]]
            assert main(argv) == 1
            assert capsys.readouterr() == (
                "", f"error[usage]: family '{family}' requires {flag}\n")
        assert main(["cert", "--family", family, *given_flags, "--n-max", "1"]) == 0, family
        assert capsys.readouterr().err == ""
    assert main(["cert", "--family", "root"]) == 1
    assert capsys.readouterr().err == "error[usage]: family 'root' requires --a\n"


# Every request ends in an exit code: values at each flag's edges, unknown
# subcommands and families, and constant texts that are malformed, perfect
# powers or out of the kernel's reach.  None leaves an optional flag out.
# Each value is spelled --flag=value or --flag value, and a flag may repeat.
_INTS = ["2", "-7", "0", "1e30", "abc", "12345678901234567890", "3", None]
_RATIONALS = ["1/3", "-1/2", "0", "1e30", "3/0", "abc", "12345678901234567890", "2", None]
_CONSTANTS = ["sqrt:2", "e", "cos:1/3", "sqrt:", "sqrt:x", "root:2", "e-rat:0", "zeta",
              "algroot:1,2", "algroot:-2,0,1@2,1", "sqrt:4", "root:8,3", "sin:1e30",
              "e-rat:1e30", "e-pow:12345678901234567890", "root:2,12345678901234567890"]
_POLYS = ["-2,0,1", "1,1,-5,2", "0", "1,,2", "abc", "12345678901234567890,1"]
_REQUEST_FLAGS = {
    "cert": {"--family": [*FAMILIES, "frobnicate"], "--n-max": ["-1", "0", "1", "3", None],
             "--m": _INTS, "--a": _INTS, "--k": _INTS, "--r": _RATIONALS,
             "--angle": _RATIONALS, "--width": _RATIONALS,
             "--format": ["table", "xml", "json", "csv", None]},
    "pigeonhole": {"--constant": _CONSTANTS, "--n": ["-1", "0", "1", "40"],
                   "--format": ["json", "table", "csv", None]},
    "reduce": {"--modulus": _POLYS, "--coeffs": _POLYS},
    "classify": {"--poly": _POLYS},
    "fracpart": {"--constant": _CONSTANTS, "--q": _INTS[:-1], "--width": _RATIONALS},
    "frobnicate": {"--n": ["1"]},
}


@st.composite
def _requests(draw):
    command = draw(st.sampled_from([*_REQUEST_FLAGS, None]))
    argv = [] if command is None else [command]
    for flag, values in _REQUEST_FLAGS.get(command, {}).items():
        for _ in range(draw(st.integers(1, 2))):
            value = draw(st.sampled_from(values))
            if value is not None:
                argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=_requests())
@example(argv=["fracpart", "--constant", "e-rat:1e30", "--q=3"])
@example(argv=["cert", "--family=sqrt", "--m=12345678901234567890", "--width=1e30", "--n-max=3"])
@example(argv=["cert", "--family=trig-angle", "--angle=12345678901234567890", "--n-max=1"])
@example(argv=["classify", "--poly=--"])
@example(argv=["reduce", "--modulus=--", "--coeffs", "1"])
@example(argv=["pigeonhole", "--constant=--", "--n", "3"])
@example(argv=["fracpart", "--constant", "e", "--q", "3", "--width=--"])
@example(argv=["cert", "--family", "e-rat", "--r=--"])
@example(argv=["cert", "--family", "e", "--n-max=--"])
def test_every_request_ends_in_an_exit_code(argv):
    assert _ends_in_an_exit_code(argv) is None


def _ends_in_an_exit_code(argv):
    """None if main(argv) returns 0 or 2 with nothing on stderr, or 1 with one
    error[...] line; else what it did instead."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    if code == 1:
        return None if err.startswith("error[") and err.count("\n") == 1 else (argv, err)
    return None if code in (0, 2) and err == "" else (argv, code, err)


@pytest.mark.parametrize("argv, flag", [
    (["classify", "--poly=--"], "--poly"),
    (["reduce", "--modulus=--", "--coeffs", "1"], "--modulus"),
    (["pigeonhole", "--constant=--", "--n", "3"], "--constant"),
    (["fracpart", "--constant", "e", "--q", "3", "--width=--"], "--width"),
    (["cert", "--family", "e-rat", "--r=--"], "--r"),
])
def test_a_value_of_double_dash_is_a_usage_error(capsys, argv, flag):
    # argparse reads --flag=-- as [] on Python 3.10-3.12 and as "--" on 3.13
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error[usage]: argument {flag}: expected one argument\n")


# Argv fuzz: a fixed seed draws argv over the five subcommands (and, less
# often, frobnicate, -- or -): each flag of the subcommand given or not (a
# required one mostly), in either spelling, mostly with one of its values
# above and otherwise with text that argparse, int() or the handlers read
# oddly; then at most one stray flag or value.  n and n_max stay small.
_ODD = ["--", "", "-", "٣", "1_0", "-1_0", "9" * 40, "-" + "9" * 40, "1/0", "nan", "inf",
        "sqrt:", "sqrt:٣", "root:2,", "e-rat:1/0", "sin:nan", "algroot:1,2@", "algroot:@,",
        "-2,0,1", ",", "1,,2"]
_SMALL = ["--", "", "-", "٣", "1_0", "-1", "0", "2", "nan", "1/0"]
_REQUIRED = {"--family", "--constant", "--n", "--modulus", "--coeffs", "--poly", "--q"}
_FUZZ_SECONDS = 5


class _TooSlow(BaseException):
    pass


def _too_slow(signum, frame):
    raise _TooSlow


def _fuzzed(rng):
    command = rng.choices([*_REQUEST_FLAGS, "--", "-"], [6] * 5 + [1] * 3)[0]
    argv = [command]
    flags = _REQUEST_FLAGS.get(command, {})
    for flag, values in flags.items():
        odd = _SMALL if flag in ("--n", "--n-max") else _ODD
        value = rng.choice(odd if rng.random() < 0.15 else values)
        if value is not None and rng.random() < (0.9 if flag in _REQUIRED else 0.5):
            argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    if rng.random() < 0.2:
        argv.insert(rng.randint(1, len(argv)), rng.choice([*flags, "--seed-doc", "--zzz", *_ODD]))
    return argv


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_fuzzed_argv_end_in_an_exit_code():
    # every argv returns 0, 1 or 2 within the time cap, with no exception out of main
    rng = random.Random(42)
    previous = signal.signal(signal.SIGALRM, _too_slow)
    failures = []
    try:
        for _ in range(2000):
            argv = _fuzzed(rng)
            signal.setitimer(signal.ITIMER_REAL, _FUZZ_SECONDS)
            try:
                failure = _ends_in_an_exit_code(argv)
            except (Exception, SystemExit, _TooSlow) as exc:
                failure = (argv, repr(exc))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if failure is not None:
                failures.append(failure)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert failures == []


def _parsed(parse, argv):
    """(namespace, usage message, SystemExit code, stdout) of parse(argv)."""
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            return parse(argv), None, None, out.getvalue()
        except cli._UsageError as exc:
            return None, str(exc), None, out.getvalue()
        except SystemExit as exc:
            return None, None, exc.code, out.getvalue()


# main builds argv in one pass, or else parses it with the subcommand's own
# parser, when argv[0] names one; every request must parse, fail or print
# help as the whole parser would.  The examples after the first ten are
# each an argument the one pass leaves to argparse: an abbreviation, a
# separate value starting with -, an empty value, --seed-doc, -- and a
# value that is --, which argparse reads as none before 3.13; then ints
# that int() reads though they are not plain digits, and repeated flags
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=_requests())
@example(argv=[])
@example(argv=["-h"])
@example(argv=["--help"])
@example(argv=["cert", "--help"])
@example(argv=["frobnicate"])
@example(argv=["--n", "1", "cert"])
@example(argv=["cert", "--fam", "e", "--n-max", "3"])
@example(argv=["cert", "--family", "e", "junk"])
@example(argv=["cert", "--family", "e-rat", "--r=-1/2", "--n-max", "3"])
@example(argv=["pigeonhole", "--constant", "e"])
@example(argv=["cert", "--family", "e", "--n-m", "3"])
@example(argv=["cert", "--family", "e-pow", "--k", "-3"])
@example(argv=["reduce", "--modulus", "-2,0,1", "--coeffs", "1,2,3"])
@example(argv=["pigeonhole", "--constant=", "--n", "3"])
@example(argv=["cert", "--family", "e", "--n-max="])
@example(argv=["cert", "--family", "e", "--seed-doc"])
@example(argv=["cert", "--", "--family", "e"])
@example(argv=["classify", "--poly=--"])
@example(argv=["cert", "--family", "e", "--n-max", " 5"])
@example(argv=["cert", "--family", "e", "--n-max=1_0"])
@example(argv=["pigeonhole", "--constant", "e", "--n", "+3"])
@example(argv=["cert", "--family=frobnicate", "--family", "e", "--family=sqrt", "--m=2"])
@example(argv=["cert", "--family=e", "--family", "sqrt", "--m=2", "--m", "3"])
def test_dispatch_parses_like_the_whole_parser(argv):
    assert _parsed(cli._parse, argv) == _parsed(cli._build_parser().parse_args, argv)


def _joined(argv):
    """argv with each `--flag value` spelled `--flag=value`."""
    out = argv[:1]
    for arg in argv[1:]:
        if out[-1].startswith("--") and "=" not in out[-1] and not arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


# One documented request per subcommand, each spelled --flag value
DOCUMENTED = [
    ["cert", "--family", "e", "--n-max", "3", "--format", "csv"],
    ["pigeonhole", "--constant", "e", "--n", "40", "--format", "json"],
    ["reduce", "--modulus", "2,0,1", "--coeffs", "1,2,3"],
    ["classify", "--poly", "1,1,-5,2"],
    ["fracpart", "--constant", "sqrt:2", "--q", "5", "--width", "1/1000"],
]


def test_documented_spellings_are_parsed_without_argparse(capsys):
    # every corpus request, in either spelling, is built in one pass with no
    # parser built (a silent fall back to argparse would still parse it, only
    # slower), and so is one request per subcommand run through main; an
    # abbreviation, --help and a value of -- each build the parser once
    requests = [spell(argv) for argv in CORPUS_OK + CORPUS_VIOLATED for spell in (list, _joined)]
    assert all("=" in argv[1] for argv in requests[1::2])
    cli._build_parser.cache_clear()
    got = [cli._parse(argv) for argv in requests]
    assert [main(spell(argv)) for argv in DOCUMENTED for spell in (list, _joined)] == [0] * 10
    assert cli._build_parser.cache_info().currsize == 0
    assert got == [cli._build_parser().parse_args(argv) for argv in requests]
    for argv in (["pigeonhole", "--con", "e", "--n", "40"], ["fracpart", "--help"],
                 ["classify", "--poly=--"]):
        cli._build_parser.cache_clear()
        with suppress(SystemExit):      # argparse's --help exits
            main(argv)
        info = cli._build_parser.cache_info()
        assert (info.misses, info.currsize) == (1, 1), argv
    capsys.readouterr()
