"""End-to-end benchmark of the irratcert command line.

    python3 perfbench/run.py --workload cert-niven --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one client, closed loop: seeded requests (workloads.py) go
through `irratcert.cli.main` in-process with stdout and stderr captured,
one at a time.  Each request is timed, then its output is checked by
oracle.py, untimed.  An output that fails the check, a traceback, or a
wrong exit code fails the request.

The request list is fixed by the workload, the seed and --seconds
(workloads.py sizes it to take about --seconds on a 2-core x86 box), so
every run of one seed, and every commit, does the same work.

--trace 0: the list is sent once.  Between requests a short pure-Python
integer loop is timed, and every time reported is scaled to a machine
on which that loop takes REF_NOMINAL_S: the shared machine this was
tuned on changes speed by up to half within seconds, which moves all
pure-Python code alike, while a change to irratcert moves the requests
alone.  The unscaled figures are printed too.

--trace 1: the list, plus a few cheap requests so that every layer is
reached, is sent once with spans around each layer (tracing.py), and the
per-layer metrics are printed.

Both modes print a digest of the list's integers, flags and verdicts, so
two commits or the two modes can be compared byte for byte.
Human-readable lines come first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The request
list and per-request latencies are written to perfbench/runs/ for replay.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from tracing import CLI_MAIN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_REPEATS = 11
DRIFT_LOOP = 3_000_000
# the speed reference: every reported time is scaled by REF_NOMINAL_S over
# the time of REF_LOOP iterations of the integer loop around it, i.e. given
# in seconds on a machine where that loop takes REF_NOMINAL_S (its typical
# time on the 2-core x86 box the bounds were set on)
REF_LOOP = 20_000
REF_NOMINAL_S = 0.0025
WARMUP = (
    ("cert", "--family", "e", "--n-max", "3", "--format", "json"),
    ("pigeonhole", "--constant", "sqrt:2", "--n", "20", "--format", "json"),
    ("fracpart", "--constant", "e", "--q", "7"),
    ("classify", "--poly=-2,0,1"),
)


class SetupError(Exception):
    pass


def load_cli():
    """Import irratcert.cli from this checkout's src/, fresh."""
    if not (SRC / "irratcert" / "cli.py").is_file():
        raise SetupError(f"irratcert sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "irratcert" or m.startswith("irratcert.")]:
        del sys.modules[name]
    cli = importlib.import_module("irratcert.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported irratcert from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Outcome:
    seconds: float
    code: int | None
    ok: bool
    record: str | None       # digest record, when the oracle accepted the output
    why: str | None          # reason for a failure
    scale: float = 1.0       # REF_NOMINAL_S over the reference loop's time around it


def call(main, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = main(list(argv))
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def send(main, req) -> Outcome:
    """Run one request and check its output."""
    start = perf_counter()
    try:
        code, out, err, elapsed = call(main, req.argv)
    except Exception as exc:            # a traceback is a failed request
        return Outcome(perf_counter() - start, None, False, None,
                       f"raised {type(exc).__name__}: {exc}")
    try:
        record = oracle.check(req, code, out, err)
    except Exception as exc:            # malformed output of any shape fails the request
        return Outcome(elapsed, code, False, None, f"{type(exc).__name__}: {exc}")
    return Outcome(elapsed, code, True, record, None)


def int_loop_s(iterations):
    """Time of a fixed pure-Python integer loop."""
    start = perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) & 0xFFFFFFFF
    return perf_counter() - start


def setup():
    """Median (scaled) time to import the CLI fresh and serve one request of
    each kind."""
    times = []
    for _ in range(SETUP_REPEATS):
        ref = int_loop_s(REF_LOOP)
        start = perf_counter()
        cli = load_cli()
        for argv in WARMUP:
            code, _, err, _ = call(cli.main, argv)
            if code != 0:
                raise SetupError(f"warm-up request {' '.join(argv)} gave exit {code}: {err}")
        elapsed = perf_counter() - start
        ref = (ref + int_loop_s(REF_LOOP)) / 2
        times.append(elapsed * REF_NOMINAL_S / ref)
    return cli, statistics.median(times)


class Run:
    """The requests sent and their outcomes."""

    def __init__(self, reqs):
        self.reqs = reqs
        self.outcomes = []

    def send_all(self, main, before=None, scaled=True):
        """Send every request.  When scaled, the reference loop runs between
        requests and each request is scaled by the median of the six loop
        times nearest to it."""
        refs = []
        for i, req in enumerate(self.reqs):
            if scaled:
                refs.append(int_loop_s(REF_LOOP))
            if before is not None:
                before(i)
            self.outcomes.append(send(main, req))
        if scaled:
            refs.append(int_loop_s(REF_LOOP))
            for i, o in enumerate(self.outcomes):
                o.scale = REF_NOMINAL_S / statistics.median(refs[max(0, i - 2):i + 4])

    def entries(self):
        """One summary per request, as written to the replay log."""
        return [{
            "kind": req.kind, "argv": list(req.argv),
            "latency_s": o.seconds * o.scale, "wall_s": o.seconds, "scale": o.scale,
            "exit": o.code, "ok": o.ok, "why": o.why,
            "rows": req.expect["n_max"] if req.kind == "cert" and o.ok else 0,
            "record": o.record,
        } for req, o in zip(self.reqs, self.outcomes)]


def digest(entries):
    lines = [e["record"] if e["ok"] else f"FAILED {' '.join(e['argv'])}" for e in entries]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def tail_percentile(n):
    """The highest whole percentile with at least 10 of n samples beyond it."""
    return max([p for p in range(50, 100) if n - math.ceil(p * n / 100) >= 10], default=50)


def percentile(xs, pct):
    """Linear interpolation between the order statistics around pct."""
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def end_to_end(entries, setup_s, workload):
    """End-to-end metrics, their notes, and the lines printed beside them."""
    lat = [e["latency_s"] for e in entries]
    busy = sum(lat)
    ok = sum(e["ok"] for e in entries)
    pct = tail_percentile(len(lat))
    tail_s = percentile(lat, pct)
    beyond = sum(x > tail_s for x in lat)
    rows = sum(e["rows"] for e in entries)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_s, "s"),
        "throughput_ops_s": (ok / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh imports + {len(WARMUP)} warm-up requests",
        "latency_p50_s": f"n={len(lat)}",
        "latency_tail_s": f"p{pct}, {beyond} samples beyond, n={len(lat)}",
        "throughput_ops_s": f"{ok} ok in {busy:.3f} s",
    }
    wall = [e["wall_s"] for e in entries]
    extra = [f"failed_ratio {(len(lat) - ok) / len(lat):.6g} "
             f"({len(lat) - ok} failed / {len(lat)} attempted)",
             f"unscaled: latency_p50 {statistics.median(wall):.6g} s, throughput "
             f"{ok / sum(wall):.6g} 1/s, median scale {statistics.median(e['scale'] for e in entries):.4g}"]
    if workload.startswith("cert-"):
        extra.append(f"cert_rows_s {rows / busy:.6g} rows/s ({rows} rows)")
    return metrics, notes, extra


def write_runs(workload, seed, trace, entries, tracer):
    RUNS.mkdir(exist_ok=True)
    stem = RUNS / f"{workload}-seed{seed}-trace{trace}"
    with open(f"{stem}.requests.jsonl", "w", encoding="utf-8") as fh:
        for i, e in enumerate(entries):
            record = e["record"]
            fh.write(json.dumps({
                "i": i, **{k: v for k, v in e.items() if k != "record"},
                "record_sha256": hashlib.sha256(record.encode()).hexdigest() if record else None,
            }) + "\n")
    if tracer is not None:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return stem


def run_traced(cli, reqs, scaled=False):
    tracer = Tracer()
    run = Run(reqs)
    tracer.install()
    try:
        run.send_all(tracer.span(CLI_MAIN, cli.main), before=tracer.start_request, scaled=scaled)
    finally:
        tracer.uninstall()
    return run, tracer


def bench(workload, seed, seconds, trace):
    try:
        cli, setup_s = setup()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    drift_before = int_loop_s(DRIFT_LOOP)
    reqs = workloads.requests(workload, seed, seconds)
    tracer = None
    if trace:
        run, tracer = run_traced(cli, reqs + workloads.coverage(workload, seed))
    else:
        run = Run(reqs)
        run.send_all(cli.main)
    drift_after = int_loop_s(DRIFT_LOOP)

    entries = run.entries()
    attempted = len(entries)
    failed = sum(not e["ok"] for e in entries)
    print(f"workload {workload} seed {seed} trace {trace}: {attempted} requests, {failed} failed")
    for e in entries:
        if not e["ok"]:
            print(f"FAILED {' '.join(e['argv'])}: {e['why']}")
    if tracer is None:
        metrics, notes, extra = end_to_end(entries, setup_s, workload)
    else:
        metrics = tracer.metrics(sum(e["exit"] == 1 for e in entries))
        notes = {"cli.errors": "requests that ended in error[...], exit 1"}
        extra = [f"traced {len(reqs)} requests + {len(entries) - len(reqs)} for coverage, "
                 f"{len(tracer.spans)} spans, {sum(e['latency_s'] for e in entries):.3f} s in requests"]
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    for line in extra:
        print(line)
    print(f"drift_loop_s {drift_before:.4f} before, {drift_after:.4f} after "
          f"({DRIFT_LOOP} iterations; reported, not gated)")
    print(f"digest sha256:{digest(entries[:len(reqs)])} ({len(reqs)} requests)")
    stem = write_runs(workload, seed, trace, entries, tracer)
    print(f"replay log {stem.relative_to(ROOT)}.requests.jsonl")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        return bench(args.workload, args.seed, args.seconds, args.trace)
    # each workload in its own process, so that peak RSS is its own
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
