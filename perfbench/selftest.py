"""Checks on the benchmark itself.

    python3 perfbench/selftest.py

1. The same seed gives the same request list; another seed does not.
2. The oracle accepts real outputs and fails hand-corrupted ones: one digit
   of `p`, one flag, or the verdict of a certificate, and the pair or the
   verdict of the witness subcommands.
3. Traced and untraced runs of one request list give the same digest,
   two traced runs give the same exact counts, and the tracing overhead
   is printed.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys

import oracle
import run
import workloads

EXACT = ("constants.enclose.calls", "verify.residual.calls", "verify.rows", "intpoly.sturm.calls")
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def argvs(workload, seed):
    return [req.argv for req in workloads.requests(workload, seed, 5)]


def rejects(req, code, out, err=""):
    try:
        oracle.check(req, code, out, err)
    except oracle.OracleError:
        return True
    return False


def corrupt_digit(text):
    """Change the last digit of a decimal string."""
    return text[:-1] + str((int(text[-1]) + 1) % 10)


def corruption_checks(main):
    cases = [
        workloads.cert_e_pow(0.4, 8),
        workloads.cert_sqrt(0.1, 6),
        workloads.cert_root(0.5, 5),
        workloads.cert_trig_angle(0.3, 6),
        workloads.cert_e_squared_naive(0.0, 6),
    ]
    for req in cases:
        o = run.send(main, req)
        check(o.ok, f"oracle accepts {' '.join(req.argv)}")
        data = json.loads(o_out(main, req))
        row = data["rows"][len(data["rows"]) // 2]
        key = "p" if "p" in row else ("coeffs" if "coeffs" in row else "a")
        original = json.dumps(data)
        if key == "coeffs":
            row["coeffs"][-1] = corrupt_digit(row["coeffs"][-1])
        else:
            row[key] = corrupt_digit(row[key])
        check(rejects(req, o.code, json.dumps(data)), f"one digit of {key} corrupted is caught")
        data = json.loads(original)
        data["rows"][1]["bound_ok"] = not data["rows"][1]["bound_ok"]
        check(rejects(req, o.code, json.dumps(data)), "one flipped flag is caught")
        data = json.loads(original)
        data["verdict"] = "violated:2" if data["verdict"] == "nice" else "nice"
        check(rejects(req, o.code, json.dumps(data)), "a changed verdict is caught")

    rng = workloads.random.Random(7)
    req = workloads.pigeonhole(rng, 300, "e-pow")
    data = json.loads(o_out(main, req))
    data["p"] = corrupt_digit(data["p"])
    check(rejects(req, 0, json.dumps(data)), "pigeonhole with one digit of p corrupted is caught")
    req = workloads.classify(rng, 3, 1)     # a linear factor: one root is rational
    lines = o_out(main, req).splitlines()
    i = next(i for i, line in enumerate(lines) if not line.endswith("irrational"))
    lines[i] = lines[i].split(": ")[0] + ": irrational"
    check(rejects(req, 0, "\n".join(lines) + "\n"), "classify with a rational root called irrational is caught")
    req = workloads.fracpart(rng, 30)
    out = o_out(main, req)
    check(rejects(req, 0, out.replace("in [-", "in [-1", 1)), "fracpart with a moved endpoint is caught")
    req = workloads.invalid(rng, 1)
    check(rejects(req, 0, ""), "an invalid request that exits 0 is caught")


def o_out(main, req):
    """Raw stdout of one request."""
    return run.call(main, req.argv)[1]


def trace_checks(workload, seed):
    reqs = workloads.requests(workload, seed, 3)
    plain = run.Run(reqs)
    plain.send_all(run.load_cli().main)
    plain_s = sum(e["latency_s"] for e in plain.entries())
    counts = []
    for _ in range(2):
        traced, tracer = run.run_traced(run.load_cli(), reqs, scaled=True)
        traced_s = sum(e["latency_s"] for e in traced.entries())
        check(run.digest(traced.entries()) == run.digest(plain.entries()),
              f"{workload}: traced and untraced digests agree")
        metrics = tracer.metrics(0)
        counts.append({k: metrics[k][0] for k in EXACT})
    check(counts[0] == counts[1], f"{workload}: exact counts repeat across traced runs {counts[0]}")
    print(f"     {workload}: tracing overhead {traced_s / plain_s - 1:+.1%} "
          f"({plain_s:.2f} s untraced, {traced_s:.2f} s traced, scaled request time)")


def main():
    for workload in workloads.WORKLOADS:
        check(argvs(workload, 11) == argvs(workload, 11), f"{workload}: seed 11 repeats its requests")
        check(argvs(workload, 11) != argvs(workload, 12), f"{workload}: seed 12 differs from 11")
    main_fn = run.load_cli().main
    corruption_checks(main_fn)
    for workload in workloads.WORKLOADS:
        trace_checks(workload, 5)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
