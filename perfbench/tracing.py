"""Spans around the calls into irratcert's layers, recorded from outside.

Each traced function is replaced, for the duration of a traced run, by a
wrapper stored under the name the *calling* module looks it up by
(`verify.enclose`, `pigeonhole.enclose`, `cli.certify`, ...).  Nothing in
irratcert is edited.  `Enclosure` arithmetic is too fine-grained to wrap
without distorting the run, so its cost shows in its callers' self time.

A span is (request, span id, parent span id, layer, start, end).  Spans
are kept in memory and aggregated after the run: a layer's busy time sums
its outermost spans, and its self time is each span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# layer -> (module, attribute) pairs to wrap; the module is where the caller
# looks the name up, so intra-module calls are caught too
LAYERS = {
    "constants.enclose": [("verify", "enclose"), ("pigeonhole", "enclose"),
                          ("sequences", "enclose"), ("constants", "enclose")],
    "verify.residual": [("verify", "pair_residual"), ("verify", "power_form_residual"),
                        ("verify", "trig_residual")],
    "verify.certify": [("cli", "certify")],
    "verify.format": [("verify", "Certificate.to_json"), ("verify", "Certificate.to_csv"),
                      ("verify", "Certificate.to_table")],
    "sequences.gen": [("verify", name) for name in (
        "sqrt_approximant", "mth_root_form", "e_approximant", "inv_e_approximant",
        "e_squared_approximant", "sin_inv_m_approximant", "cos_inv_m_approximant")],
    "niven.gen": [("verify", "exp_functional_int"), ("verify", "exp_functional_rational"),
                  ("verify", "trig_functional")],
    "pigeonhole.approximant": [("cli", "pigeonhole_approximant")],
    "pigeonhole.fracpart": [("cli", "fractional_residual")],
    "algebraic.classify": [("cli", "classify_roots")],
    "algebraic.integer_root_test": [("algebraic", "integer_root_test")],
    "intpoly.sturm": [("algebraic", "count_roots_between"), ("constants", "count_roots_between")],
}

CLI_MAIN = "cli.main"


def _narrowness_bits(args, kwargs) -> float:
    """-log2 of the width an `enclose(spec, max_width)` call asks for."""
    w = Fraction(kwargs.get("max_width", args[1] if len(args) > 1 else 1))
    return math.log2(w.denominator) - math.log2(w.numerator)


class Tracer:
    def __init__(self):
        self.spans = []          # (request, id, parent, layer, start, end)
        self.request = -1
        self.bits_max = 0.0
        self.format_bytes = 0
        self.rows = 0
        self._stack = []
        self._patches = []

    def start_request(self, i):
        """Spans recorded from now on belong to request i."""
        self.request = i

    def span(self, layer, fn):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.request, sid, parent, layer, start, end)
            if layer == "constants.enclose":
                self.bits_max = max(self.bits_max, _narrowness_bits(args, kwargs))
            elif layer == "verify.format":
                self.format_bytes += len(result)
            elif layer == "verify.certify":
                self.rows += len(result.rows)
            return result
        return wrapper

    def install(self):
        for layer, sites in LAYERS.items():
            for module_name, attr in sites:
                owner = sys.modules[f"irratcert.{module_name}"]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self.span(layer, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, errors: int) -> dict:
        """Per-layer figures over every span recorded."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = defaultdict(float)
        layer_of = {}
        for _, sid, parent, layer, start, end in self.spans:
            layer_of[sid] = (layer, parent)
            calls[layer] += 1
            child[parent] += end - start
        self_time = defaultdict(float)
        for _, sid, parent, layer, start, end in self.spans:
            duration = end - start
            self_time[layer] += duration - child[sid]
            p = parent
            while p != -1 and layer_of[p][0] != layer:
                p = layer_of[p][1]
            if p == -1:
                busy[layer] += duration
        residual_calls = calls["verify.residual"]
        return {
            "constants.enclose.calls": (calls["constants.enclose"], "count"),
            "constants.enclose.busy_s": (busy["constants.enclose"], "s"),
            "constants.enclose.bits_max": (self.bits_max, "bits"),
            "verify.residual.calls": (residual_calls, "count"),
            "verify.residual.busy_s": (busy["verify.residual"], "s"),
            "verify.rows": (self.rows, "count"),
            "verify.residual.useful_ratio": (self.rows / residual_calls if residual_calls else 0.0,
                                             "ratio"),
            "verify.certify.self_s": (self_time["verify.certify"], "s"),
            "verify.format.busy_s": (busy["verify.format"], "s"),
            "verify.format.bytes": (self.format_bytes, "bytes"),
            "sequences.gen.calls": (calls["sequences.gen"], "count"),
            "sequences.gen.busy_s": (busy["sequences.gen"], "s"),
            "niven.gen.calls": (calls["niven.gen"], "count"),
            "niven.gen.busy_s": (busy["niven.gen"], "s"),
            "pigeonhole.approximant.busy_s": (busy["pigeonhole.approximant"], "s"),
            "pigeonhole.fracpart.busy_s": (busy["pigeonhole.fracpart"], "s"),
            "algebraic.classify.busy_s": (busy["algebraic.classify"], "s"),
            "algebraic.integer_root_test.busy_s": (busy["algebraic.integer_root_test"], "s"),
            "intpoly.sturm.calls": (calls["intpoly.sturm"], "count"),
            "intpoly.sturm.busy_s": (busy["intpoly.sturm"], "s"),
            "cli.main.self_s": (self_time[CLI_MAIN], "s"),
            "cli.errors": (errors, "count"),
        }
