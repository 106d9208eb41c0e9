"""Every CI check besides tier-1.  `python ci/checks.py`, after `pip install -e
'.[test]'`, runs each on the installed console script and this Python, prints
what each saw under its name, and exits 1 naming each that failed."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import traceback
from functools import partial
from importlib.metadata import requires
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTHON = (sys.executable,)
PY = sys.version_info[:2]


class Failed(Exception):
    """A check saw something other than what it requires."""


def expect(holds, message):
    if not holds:
        raise Failed(message)


def run(request, prog=("irratcert",), env=None, cap_kb=None, timeout=None):
    """prog on the request's whitespace-separated arguments, from the root, with
    no stdin, an address-space cap in KB as `ulimit -v` sets, and bytes out."""
    limit = cap_kb and (lambda: resource.setrlimit(resource.RLIMIT_AS, (cap_kb * 1024,) * 2))
    return subprocess.run([*prog, *request.split()], cwd=ROOT, env={**os.environ, **(env or {})},
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=timeout,
                          preexec_fn=limit)


def ok(request, **how):
    """A run that must exit 0."""
    proc = run(request, **how)
    expect(proc.returncode == 0, f"{request[:80]}: exit {proc.returncode}\n{proc.stderr.decode()}")
    return proc


def no_runtime_requirement():
    # irratcert runs on the standard library alone; test tools come by an extra
    runtime = [r for r in requires("irratcert") or [] if "extra ==" not in r]
    print("runtime requirements:", runtime)
    expect(not runtime, f"irratcert declares runtime requirements: {runtime}")


def import_without_warnings():
    # pytest fails only on a DeprecationWarning from irratcert; the first run
    # fails on any import-time warning, compile-time ones (3.12+) too, as
    # bytecode lives only under an empty prefix.  The second and fourth print
    # import times (us) with and without compiling; nothing gates on them
    with tempfile.TemporaryDirectory() as cache:
        for no_bytecode, flags in (("1", "-W error -X dev"), ("1", "-X importtime"),
                                   ("", ""), ("", "-X importtime")):
            env = {"PYTHONPATH": "src", "PYTHONPYCACHEPREFIX": cache,
                   "PYTHONDONTWRITEBYTECODE": no_bytecode}
            err = ok(f"{flags} -c __import__('irratcert.cli')", prog=PYTHON, env=env).stderr
            if "importtime" in flags:
                lines = [line for line in err.decode().splitlines() if "irratcert" in line]
                expect(lines, "-X importtime names no irratcert module")
                print(*lines, sep="\n")


def console_script():
    # the entry point and cli.py's __main__ block, run nowhere else, print the golden line
    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli import CLASSIFY_GOLDEN
    want = next(out for poly, _, out, _ in CLASSIFY_GOLDEN if poly == "1,1,-5,2")
    for prog in (("irratcert",), (*PYTHON, "-m", "irratcert.cli")):
        got = ok("classify --poly 1,1,-5,2", prog=prog).stdout.decode()
        print(got, end="")
        expect(got == want, f"{prog[-1]}: stdout differs from the golden line")


NO_REFINE = {"env": {"IRRATCERT_MAX_REFINE": "0"}}
# (request, error, how it runs): exit 1, no stdout, one error[...] line
ONE_LINE_ERRORS = {
    # an exponent out of the kernel's reach overflows Python's integers
    "Installed console script error path": [
        ("cert --family e-rat --r=1e30 --n-max 2", "OverflowError", {})],
    # Fraction would never finish 10^(20-digit exponent); the text is refused
    "Installed console script huge exponent": [
        ("cert --family e --width 1e-99999999999999999999 --n-max 2", "usage", {"timeout": 20})],
    # with no narrowing allowed, the decay check and pigeonhole bins give up
    "Installed console script budget exhaustion": [
        ("cert --family e-rat --r=-3/2 --n-max 2 --width 1", "PrecisionExhausted", NO_REFINE),
        ("pigeonhole --constant sin:22/7 --n 1", "PrecisionExhausted", NO_REFINE)],
    # certify builds all 60,000 rows before it settles row 1, which does not
    # fit in 800 MB.  The request relies on that eager row building, so
    # drawing rows lazily (ROADMAP item 3) must replace it
    "Memory-capped certificate": [
        ("cert --family e-pow --k 3 --n-max 60000", "MemoryError",
         {**NO_REFINE, "cap_kb": 800_000})],
}


def one_line_errors(rows):
    for request, error, how in rows:
        proc = run(request, **how)
        err = proc.stderr.decode()
        print(err, end="")
        got = (proc.returncode, proc.stdout, err.count("\n"), "Traceback" in err)
        expect(got == (1, b"", 1, False) and err.startswith(f"error[{error}]"),
               f"{request}: exit {proc.returncode}, want 1, no stdout, one error[{error}] line")


# each parser path main takes (the subcommand's, the top-level one, --help)
# keeps argparse's exit code and stream; its wording differs across 3.10-3.13,
# so a row pins the start, or the whole stream where it ends in a newline.
# --flag=-- is [] before 3.13 and "--" from 3.13: both one usage line
USAGE = [
    (1, "stderr", "error[usage]: pick a subcommand", ""),
    (0, "stdout", "usage: irratcert", "--help"),
    *((0, "stdout", f"usage: irratcert {name}", f"{name} --help")
      for name in ("cert", "pigeonhole", "reduce", "classify", "fracpart")),
    (1, "stderr", "error[usage]:", "frobnicate"),
    (1, "stderr", "error[usage]: unrecognized arguments: junk\n", "cert --family e --n-max 3 junk"),
    (1, "stderr", "error[usage]:", "classify --poly=--"),
    (1, "stderr", "error[usage]:", "pigeonhole --constant=-- --n 3"),
]


def usage_paths():
    for code, stream, start, request in USAGE:
        proc = run(request)
        text = getattr(proc, stream).decode()
        print(*text.splitlines()[:3], sep="\n")
        expect(proc.returncode == code, f"irratcert {request}: exit {proc.returncode}, want {code}")
        expect(text == start if start.endswith("\n") else text.startswith(start),
               f"irratcert {request}: {stream} does not start with {start}")


# --flag value and --flag=value are parsed in one pass, an abbreviation by
# argparse; each spelling must exit 0 with the same nonempty stdout
SPELLINGS = [
    ("cert --family e --n-max 5 --format json", "cert --family=e --n-max=5 --format=json",
     "cert --fam e --n-m 5 --form json"),
    ("pigeonhole --constant e --n 40 --format json",
     "pigeonhole --constant=e --n=40 --format=json", "pigeonhole --con e --n 40 --form json"),
    ("reduce --modulus 2,0,1 --coeffs 1,2,3", "reduce --modulus=2,0,1 --coeffs=1,2,3",
     "reduce --mod 2,0,1 --coe 1,2,3"),
    ("classify --poly 1,1,-5,2", "classify --poly=1,1,-5,2", "classify --pol 1,1,-5,2"),
    ("fracpart --constant sqrt:2 --q 5 --width 1/1000",
     "fracpart --constant=sqrt:2 --q=5 --width=1/1000", "fracpart --con sqrt:2 --q 5 --wid 1/1000"),
]


def argv_spellings():
    for spellings in SPELLINGS:
        outs = [ok(request).stdout for request in spellings]
        print(spellings[0].split()[0] + ":", *(hashlib.sha256(out).hexdigest() for out in outs))
        expect(all(outs) and outs.count(outs[0]) == 3, f"{spellings}: stdout differs or is empty")


def large_pigeonhole():
    # the shared bin's walk keeps a few integers, so n = 10^7 fits in 300 MB;
    # sorting the n+1 floors did not
    data = json.loads(ok("pigeonhole --constant e --n 10000000 --format json",
                         cap_kb=300_000).stdout)
    print(data)
    expect((data["p"], data["q"]) == ("14665106", "5394991"), "not 14665106/5394991")


def reduce_console_script():
    # x^40000 mod x^2 - 9 is 9^20000 (19,085 digits) and 0: under a second by
    # plain division by the monic modulus, minutes with a rescaling per step
    out = ok("reduce --modulus=-9,0,1 --coeffs " + "0," * 40000 + "1", timeout=30).stdout
    high, low = out.decode().strip().split(",")
    got = (len(high), int(high[:40]), int(high[-40:]), low)
    print(*got)
    expect(got == (19085, 9 ** 20000 // 10 ** 19045, 9 ** 20000 % 10 ** 40, "0"), "not 9^20000,0")


def cut(text, fields):
    """`cut -d, -f<fields>`, fields like 1-3,7-8; a comma-less line stays whole."""
    keep = {i for span in fields.split(",") for i in
            range(int(span.split("-")[0]), int(span.split("-")[-1]) + 1)}
    return b"".join((b",".join(cell for i, cell in enumerate(line.split(b","), 1) if i in keep)
                     if b"," in line else line) + b"\n"
                    for line in text.removesuffix(b"\n").split(b"\n"))


def read_back(out, what):
    """irratcert.certificate must write a JSON certificate it read back."""
    from irratcert.certificate import Certificate
    text = out.decode()
    cert = Certificate.from_json(text)
    print(f"read back {len(cert.rows)} rows, {len(text)} bytes")
    expect(cert.to_json() + "\n" == text, f"{what} read back by from_json writes other bytes")


# (request, the fields it is cut to, the sha256 of its stdout); JSON is read back
PINS = {
    # rows built by multiplying by (t - z)^m and folding t^m = a, bounds as
    # coprime pairs, pinned to n = 480 (the table is 1,578,648 bytes; JSON
    # integers pass the str digit limit).  Series endpoints may move: unpinned
    "Radical certificates at scale": [
        ("cert --family root --a 7 --m 4 --n-max 480 --format json", None,
         "d1b3bdf3f3ce14a99967d8ca4adbab0c9d17c1a4abceaa8ecd205c8e9126543e"),
        ("cert --family sqrt --m 2 --n-max 480 --format csv", None,
         "42067b961c1e96ea2b2ec21831b39ad9ef2f030024d071d1ee5e103b36eceb8d"),
        ("cert --family root --a 7 --m 4 --n-max 480", None,
         "16e12909f87e974b41aeaf097273fd02d29b91d5cb88106d112d295559dce40f")],
    # rows stepped by niven.functional_rows' recurrence: n, the integers, both
    # flags and the verdict to n = 480, not the series residual and bound
    "Niven certificates at scale": [
        ("cert --family e-pow --k 3 --n-max 480 --format csv", "1-3,7-8",
         "383b822a49b6d259da74a213ee34f2d6fcdf9f81e6e12216781b3425af86b84b"),
        ("cert --family e-rat --r=-1/2 --n-max 480 --format csv", "1-3,7-8",
         "b3bf086c38018739e617b6d669fb852b96f9d9fc960bb09bf583c00477e177f3"),
        ("cert --family trig-angle --angle 1/3 --n-max 480 --format csv", "1-4,8-9",
         "0f0f331f80a3390932072e945397d224e268659d689ea0a19b893b732454e9d8")],
}


def pins(rows):
    for request, fields, want in rows:
        out = ok(request).stdout
        got = hashlib.sha256(cut(out, fields) if fields else out).hexdigest()
        print(got, request)
        expect(got == want, f"{request} differs")
        if request.endswith("json"):
            read_back(out, request)


def certificate_json_size():
    # series residual ends are rounded to their row's deciding width (8.15 MB
    # unrounded, 2.98 MB rounded); its q runs past the str digit limit
    out = ok("cert --family cos-inv --m 3 --n-max 480 --format json").stdout
    print(f"cos-inv:3 n_max 480: {len(out)} bytes")
    expect(len(out) <= 4_000_000, "cos-inv:3 at n_max 480 is over 4,000,000 bytes")
    read_back(out, "cos-inv:3 at n_max 480")


def benchmark(flags=""):
    # run.py exits 0 even when its oracle rejects a request
    out = ok(f"perfbench/run.py --workload all --seed 1 --seconds 3 {flags}", prog=PYTHON)
    lines = out.stdout.decode().splitlines()
    print(*lines, sep="\n")
    expect(sum(line.startswith('{"correct": true,') for line in lines) == 3, "not all correct")
    return lines


def oracle_smoke_run():
    # output, not bounds (set on 3.11), so on 3.13 too; on 3.11 every row's
    # integers, flags and verdict are pinned by the seed-1 digests
    lines = benchmark()
    for digest in ("475704cffd1ebaffe49f538ff094df935250606a994e19a36454f1d93b328832",
                   "631c176d7aa20d2a135151f617e769ed2e8066aee3271a389367092d705aa555",
                   "0884c48b8dfc2b4ff8720321dd3ed9d5985dc45acb123c3519aecf385a3c53a6"
                   ) if PY == (3, 11) else ():
        expect(any(line.startswith(f"digest sha256:{digest} ") for line in lines),
               f"seed-1 digest {digest} is missing")


def traced_smoke_run():
    # the trace wraps the residual evaluators and the kernel, so bypassing
    # them or changing their results changes the counts (Niven rows settle on
    # one cache fill; witness's Sturm counts are the algroot brackets alone)
    names = ("constants.enclose.calls", "verify.residual.calls", "verify.rows",
             "intpoly.sturm.calls")
    want = {"cert-niven": (32, 383, 383, 0), "cert-closed": (26, 1266, 1264, 0),
            "witness": (104, 7, 7, 11)}
    lines = benchmark("--trace 1")
    workloads = [line.split()[1] for line in lines if line.startswith("workload ")]
    results = [json.loads(line)["metrics"] for line in lines if line.startswith('{"correct": ')]
    got = {workload: tuple(metrics[name]["value"] for name in names)
           for workload, metrics in zip(workloads, results)}
    print("traced", names, got)
    expect(got == want, f"traced counts differ from the seed-1 counts {want}")


def benchmark_self_test():
    # seeded request lists, the oracle on corrupted outputs, traced runs
    print(ok("perfbench/selftest.py", prog=PYTHON).stdout.decode(), end="")


CHECKS = {
    "No declared runtime requirement": no_runtime_requirement,
    "Import without warnings": import_without_warnings,
    "Installed console script": console_script,
    **{name: partial(one_line_errors, rows) for name, rows in ONE_LINE_ERRORS.items()},
    "Installed console script usage paths": usage_paths,
    "Installed console script argv spellings": argv_spellings,
    "Large pigeonhole in a small address space": large_pigeonhole,
    "Installed reduce console script": reduce_console_script,
    **{name: partial(pins, rows) for name, rows in PINS.items()},
    "Certificate JSON size": certificate_json_size,
    "Benchmark oracle smoke run": oracle_smoke_run,
    "Traced benchmark smoke run": traced_smoke_run,
    "Benchmark self-test": benchmark_self_test,
}
ONLY_ON = {"Benchmark oracle smoke run": {(3, 11), (3, 13)},
           "Traced benchmark smoke run": {(3, 11)}, "Benchmark self-test": {(3, 11)}}


def main():
    failed = []
    for name, check in CHECKS.items():
        print(f"== {name}", flush=True)
        if PY not in ONLY_ON.get(name, {PY}):
            print("runs only on", *sorted(f"{a}.{b}" for a, b in ONLY_ON[name]))
            continue
        try:
            check()
            print("ok", flush=True)
        except Exception as err:  # reported, and the next check runs
            print("FAILED:", err if isinstance(err, Failed) else traceback.format_exc())
            failed.append(name)
    print("failed:", *failed, sep="\n  ") if failed else print("every check passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
