"""Tests for the command-line interface: golden corpus, formats, exit codes."""

import csv
import json
import sys

import pytest

from irratcert import cli
from irratcert.cli import main
from irratcert.verify import Certificate

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


def test_json_output_round_trips(capsys):
    # one run per row layout: p/q, coeffs, a/c/d
    for flags, constant, fields in (
            (["--family", "sqrt", "--m", "2"], "sqrt:2", ["p", "q"]),
            (["--family", "root", "--a", "2", "--m", "3"], "root:2,3", ["coeffs"]),
            (["--family", "trig-angle", "--angle", "1/3"], "cos:1/3", ["a", "c", "d"])):
        argv = ["cert", *flags, "--n-max", "8", "--format"]
        assert main(argv + ["json"]) == 0
        text = capsys.readouterr().out
        cert = Certificate.from_json(text)
        assert cert.to_json() + "\n" == text
        assert cert.verdict == "nice"
        assert cert.constant == constant
        assert len(cert.rows) == 8
        assert main(argv + ["csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0].split(",")
        assert header == ["n", *fields, "residual_lo", "residual_hi", "bound",
                          "nonzero_ok", "bound_ok"]


def test_csv_and_json_row_data_agree(capsys):
    base = ["cert", "--family", "e", "--n-max", "5"]
    assert main(base + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert main(base + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    body = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
    assert lines[-1] == "# verdict: nice"
    for json_row, csv_row in zip(data["rows"], body):
        assert csv_row["p"] == json_row["p"]
        assert csv_row["q"] == json_row["q"]
        assert csv_row["residual_lo"] == json_row["residual_lo"]
        assert csv_row["bound"] == json_row["bound"]


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    assert main(["cert", "--family", "sqrt", "--m", "3", "--n-max", "4",
                 "--format", "json", "--output", str(target)]) == 0
    capsys.readouterr()
    cert = Certificate.from_json(target.read_text())
    assert cert.constant == "sqrt:3"


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


# Witness golden corpus, recorded before the pigeonhole bin scan moved to
# integers.  Each pigeonhole case is (constant, n, p, q, residual_lo,
# residual_hi, decimal midpoint) and is run in both formats; the full stdout
# is compared.  sqrt:761 at 1500, root:41,5 at 50, e-pow:3 at 200, e-pow:6
# at 1500, sin:22/7 at 1 and cos:1/3 at 1 need more than one refine try.
# algroot:-1,2@0,1 is the exact root 1/2, which `enclose` must return as a
# point: any interval around it straddles a bin boundary.
PIGEONHOLE_GOLDEN = [
    ("sqrt:2", 1, "1", "1", "3/8", "1/2", "0.4375000000"),
    ("sqrt:761", 1500, "800", "29", "10737409/17179869184", "42949665/68719476736",
     "0.0006249996.."),
    ("root:3,3", 3, "4", "3", "83/256", "169/512", "0.3271484375"),
    ("root:41,5", 50, "21", "10", "8557/524288", "17119/1048576", "0.0163235664.."),
    ("e", 7, "19", "7", "3328719/134217728", "3754977/134217728", "0.0263888239.."),
    ("e", 850, "1264", "465", "147784585573/140737488355328",
     "591228896857/562949953421312", "0.0010501530.."),
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
