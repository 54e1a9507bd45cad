"""Per-layer tracing from outside the program.

``install`` wraps public functions of cubicorbit and rebinds every name that
refers to them in any cubicorbit module (including dispatch tables such as
the case-solver map), so calls between modules are traced too.  Each wrapped
call is a span; a call into a layer from inside the same layer stays part of
the outer span.  A layer's self time is its spans' durations minus the time
covered by their child spans.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

LOG10_2 = math.log10(2)

# (layer, module, function names) -- plain functions.
FUNCTIONS = [
    ("zerosets.decide", "cubicorbit.zerosets",
     ("zero_set_member", "z0_member", "z1_member", "z2_member", "z3_member")),
    ("matrix.classify", "cubicorbit.matrix", ("classify",)),
    ("matrix.eigenvalues", "cubicorbit.matrix", ("eigenvalues",)),
    ("matrix.power", "cubicorbit.matrix", ("power",)),
    ("linearize.linear_orbit_seq", "cubicorbit.linearize", ("linear_orbit_seq",)),
    ("solve.solve", "cubicorbit.solve", ("solve",)),
    ("solve.case_solver", "cubicorbit.solve",
     ("solve_rank_deficient", "solve_repeated", "solve_distinct", "solve_antitrace")),
    ("solve.verify", "cubicorbit.solve", ("verify",)),
    ("solve.reconstruct_general", "cubicorbit.solve", ("reconstruct_general",)),
    ("solve.iterate_direct", "cubicorbit.solve", ("iterate_direct",)),
    ("cli.render", "cubicorbit.exact", ("format_rational",)),
]
# (layer, method name, is classmethod) on cubicorbit.exact.FactoredValue.
METHODS = [
    ("exact.build", "build", True),
    ("exact.expand", "expand", False),
    ("exact.canonical_key", "canonical_key", False),
    ("cli.render", "__str__", False),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.op = 0
        self.stack = []  # [layer, start, child time]
        self.spans = []  # (op, layer, parent layer, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def wrap(self, layer, fn, observe=None):
        stack = self.stack

        def traced(*args, **kwargs):
            if not self.active or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[2]
                parent = stack[-1] if stack else None
                if parent:
                    parent[2] += duration
                self.spans.append((self.op, layer, parent[0] if parent else None, frame[1], end))
            if observe:
                observe(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        return {
            "calls": dict(self.calls),
            "self_ms": {k: v * 1000 for k, v in self.self_s.items()},
            "counts": dict(self.counts),
        }


def _verdict(counts, args, kwargs, verdict):
    if verdict.status.value == "unknown-within-horizon":
        counts["zerosets.unknown"] += 1


def _steps(counts, args, kwargs, states):
    counts["linearize.linear_orbit_seq.steps"] += len(states) - 1


def _factors(counts, args, kwargs, value):
    counts["exact.build.factors"] += len(value.factors)


def _digits(counts, args, kwargs, r):
    bits = abs(r.numerator).bit_length() + r.denominator.bit_length()
    counts["exact.expand.digits"] += math.ceil(bits * LOG10_2)


def _rendered(counts, args, kwargs, text):
    counts["cli.render_digits"] += len(text)


OBSERVERS = {
    "zerosets.decide": _verdict,
    "linearize.linear_orbit_seq": _steps,
    "exact.build": _factors,
    "exact.expand": _digits,
    "cli.render": _rendered,
}


def install(tracer: Tracer):
    """Wrap every traced function; imports the whole cubicorbit package.
    Returns ``switch(on)``, which puts the wrappers (on) or the originals
    (off) in every place that holds them; the wrappers start on."""
    import importlib

    wrappers = {}  # id(original) -> (original, wrapper)
    for layer, module_name, names in FUNCTIONS:
        module = importlib.import_module(module_name)
        for name in names:
            original = getattr(module, name)
            wrappers[id(original)] = original, tracer.wrap(layer, original, OBSERVERS.get(layer))
    sites = []  # (namespace, key, original, wrapper): module globals and dicts in them
    for name, module in list(sys.modules.items()):
        if name == "cubicorbit" or name.startswith("cubicorbit."):
            spaces = [vars(module)] + [v for v in vars(module).values() if isinstance(v, dict)]
            for space in spaces:
                sites += [(space, key, *wrappers[id(item)])
                          for key, item in space.items() if id(item) in wrappers]
    fv = importlib.import_module("cubicorbit.exact").FactoredValue
    methods = []  # (name, original, wrapper) on FactoredValue
    for layer, name, is_classmethod in METHODS:
        original = vars(fv)[name]
        if is_classmethod:
            wrapped = classmethod(tracer.wrap(layer, original.__func__, OBSERVERS.get(layer)))
        else:
            wrapped = tracer.wrap(layer, original, OBSERVERS.get(layer))
        methods.append((name, original, wrapped))

    def switch(on: bool):
        for space, key, original, wrapped in sites:
            space[key] = wrapped if on else original
        for name, original, wrapped in methods:
            setattr(fv, name, wrapped if on else original)

    switch(True)
    return switch


def merge(total: dict, part: dict):
    """Add one summary() into another (for traced child processes)."""
    for key in ("calls", "self_ms", "counts"):
        into = total.setdefault(key, {})
        for k, v in part.get(key, {}).items():
            into[k] = into.get(k, 0) + v


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_per_solve", "_per_verify")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def per_layer(summary: dict, cli: dict, overhead_pct: float) -> dict:
    """The per-layer metrics, by name, from a merged summary."""
    calls, self_ms, counts = summary["calls"], summary["self_ms"], summary["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    decide = calls.get("zerosets.decide", 0)
    m = {
        "zerosets.decide.calls": decide,
        "zerosets.decide.self_ms": self_ms.get("zerosets.decide", 0.0),
        "zerosets.unknown": counts.get("zerosets.unknown", 0),
        "zerosets.decided_frac": ratio(decide - counts.get("zerosets.unknown", 0), decide),
        "zerosets.decide_per_solve": ratio(decide, calls.get("solve.solve", 0)),
    }
    for layer in ("matrix.classify", "matrix.eigenvalues", "matrix.power",
                  "linearize.linear_orbit_seq", "exact.build", "exact.expand",
                  "exact.canonical_key"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
    m["linearize.linear_orbit_seq.steps"] = counts.get("linearize.linear_orbit_seq.steps", 0)
    m["exact.build.factors"] = counts.get("exact.build.factors", 0)
    m["exact.expand.digits"] = counts.get("exact.expand.digits", 0)
    m["solve.solve.calls"] = calls.get("solve.solve", 0)
    for layer in ("solve.case_solver", "solve.verify", "solve.reconstruct_general",
                  "solve.iterate_direct"):
        m[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
    m["solve.orbit_builds_per_verify"] = ratio(
        calls.get("linearize.linear_orbit_seq", 0), calls.get("solve.verify", 0))
    m["cli.interp_start_ms"] = cli.get("interp_start_ms", 0.0)
    m["cli.import_ms"] = cli.get("import_ms", 0.0)
    m["cli.run_ms"] = cli.get("run_ms", 0.0)
    m["cli.render_ms"] = self_ms.get("cli.render", 0.0)
    m["cli.render_digits"] = counts.get("cli.render_digits", 0)
    m["trace.overhead_pct"] = overhead_pct
    return m


UNITS = {name: _unit(name) for name in per_layer({"calls": {}, "self_ms": {}, "counts": {}}, {}, 0.0)}
