"""Span tracing of the coupon_delay layers, installed from outside the package.

Each traced function is replaced, wherever a loaded ``coupon_delay`` module
binds it (module globals, and dicts of functions such as
``cli._SAMPLERS``), by a wrapper that records one span per call: its name,
start, end, parent span and the benchmark call it belongs to, plus a unit
count (replications, rows, points, iterations) and whether it raised.
Spans are kept in memory in flat arrays and written out with ``save``.
Self time is derived from the spans: a span's duration minus the durations
of its direct child spans.

Install the tracer after importing ``coupon_delay`` and before importing
``coupon_delay.cli``, so that the names ``cli`` binds at import time are
the wrappers; call ``install`` again after importing ``cli`` to wrap
``cli.main`` itself.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np


def _reps(args, result):
    return args[0].reps  # SimConfig


def _rows(args, result):
    return args[0].config.reps  # SampleBatch: one CSV row per replication


def _points(args, result):
    return np.size(args[1])


def _iterations(args, result):
    return result.iterations  # AlphaSolution


# (module, function, unit counter). The module name is the layer name used
# in metric names; the counter turns a call into a count of work units.
LAYERS = (
    ("special", "erlang_log_sf", None),
    ("moments", "delta_power_moment", None),
    ("moments", "mgf_delta", None),
    ("alpha", "solve_alpha", _iterations),
    ("limit_laws", "normalization", None),
    ("limit_laws", "target_cdf", _points),
    ("simulate", "sample_discrete", _reps),
    ("simulate", "sample_poissonized", _reps),
    ("simulate", "sample_coupled", _reps),
    ("simulate", "ks_distance", None),
    ("simulate", "write_samples_csv", _rows),
    ("cli", "main", None),
)

MODULES = ("special", "moments", "alpha", "limit_laws", "simulate", "cli")

COLUMNS = ("id", "name", "parent", "call", "start", "end", "units", "raised")


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn, _ in LAYERS]
        self.call_id = -1  # set by the caller before each benchmark call
        self._originals = {}  # id(original) -> (original, wrapper)
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span (for example after a warm-up pass)."""
        self._ids = itertools.count()
        self._rows = array("d")  # one row of len(COLUMNS) values per span

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer whose module is loaded, at every binding site."""
        for name_id, (mod, fn, units) in enumerate(LAYERS):
            module = sys.modules.get(f"coupon_delay.{mod}")
            if module is None:
                continue
            original = getattr(module, fn)
            if hasattr(original, "__wrapped__"):  # wrapped by an earlier install
                continue
            wrapper = self._wrap(name_id, original, units)
            self._originals[id(original)] = (original, wrapper)
        self._rebind({id(o): w for o, w in self._originals.values()})

    def uninstall(self) -> None:
        """Restore the original functions at every binding site."""
        self._rebind({id(w): o for o, w in self._originals.values()})
        self._originals.clear()

    @staticmethod
    def _rebind(mapping: dict) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "coupon_delay" or name.startswith("coupon_delay."))
        ]
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in mapping:
                    namespace[key] = mapping[id(value)]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in mapping:
                            value[k] = mapping[id(v)]

    def _wrap(self, name_id: int, fn, units):
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span)
            raised = 0
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                count = units(args, result) if units and not raised else 0
                # One extend holds the interpreter lock throughout, so rows
                # from different threads never interleave.
                self._rows.extend((span, name_id, parent, self.call_id, t0, t1, count, raised))

        return traced

    # -- results ------------------------------------------------------------

    def spans(self) -> dict:
        table = np.array(self._rows, dtype=np.float64).reshape(-1, len(COLUMNS))
        spans = dict(zip(COLUMNS, table.T))
        for key in ("id", "name", "parent", "call"):
            spans[key] = spans[key].astype(np.int64)
        return spans

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def summary(self) -> tuple[dict, int]:
        """Per layer {calls, self_s, units, errors}, and the number of
        erlang_log_sf spans whose parent is a delta_power_moment span."""
        s = self.spans()
        n = len(s["id"])
        dur = s["end"] - s["start"]
        pos = np.empty(n, dtype=np.int64)
        pos[s["id"]] = np.arange(n)
        has_parent = s["parent"] >= 0
        parent_pos = pos[s["parent"][has_parent]]
        child = np.bincount(parent_pos, weights=dur[has_parent], minlength=n)
        self_s = dur - child
        k = len(self.names)
        out = {
            "calls": np.bincount(s["name"], minlength=k),
            "self_s": np.bincount(s["name"], weights=self_s, minlength=k),
            "units": np.bincount(s["name"], weights=s["units"], minlength=k),
            "errors": np.bincount(s["name"], weights=s["raised"], minlength=k),
        }
        result = {
            name: {key: float(col[i]) for key, col in out.items()}
            for i, name in enumerate(self.names)
        }
        sf = self.names.index("special.erlang_log_sf")
        dpm = self.names.index("moments.delta_power_moment")
        parent_name = np.full(n, -1)
        parent_name[has_parent] = s["name"][parent_pos]
        return result, int(np.count_nonzero((s["name"] == sf) & (parent_name == dpm)))


def layer_metrics(
    summary: dict, sf_under_moment: int, overhead_s: float, untraced_s: float
) -> dict:
    """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}."""

    def get(name, key):
        return summary[name][key]

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    m = {}
    sf = "special.erlang_log_sf"
    m[f"{sf}.calls"] = (get(sf, "calls"), "count")
    m[f"{sf}.self_s"] = (get(sf, "self_s"), "s")
    m[f"{sf}.us_per_call"] = (ratio(get(sf, "self_s"), get(sf, "calls"), 1e6), "us")
    dpm = "moments.delta_power_moment"
    m[f"{dpm}.calls"] = (get(dpm, "calls"), "count")
    m[f"{dpm}.self_s"] = (get(dpm, "self_s"), "s")
    m["moments.sf_calls_per_moment"] = (
        ratio(sf_under_moment, get(dpm, "calls")),
        "count",
    )
    m["moments.mgf_delta.self_s"] = (get("moments.mgf_delta", "self_s"), "s")
    sa = "alpha.solve_alpha"
    m[f"{sa}.calls"] = (get(sa, "calls"), "count")
    m[f"{sa}.self_s"] = (get(sa, "self_s"), "s")
    m[f"{sa}.iterations_mean"] = (ratio(get(sa, "units"), get(sa, "calls")), "count")
    m["limit_laws.normalization.self_s"] = (get("limit_laws.normalization", "self_s"), "s")
    tc = "limit_laws.target_cdf"
    m[f"{tc}.self_s"] = (get(tc, "self_s"), "s")
    m[f"{tc}.points"] = (get(tc, "units"), "count")
    for mode in ("discrete", "poissonized", "coupled"):
        name = f"simulate.sample_{mode}"
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
        m[f"{name}.us_per_rep"] = (
            ratio(get(name, "self_s"), get(name, "units"), 1e6),
            "us",
        )
    m["simulate.ks_distance.self_s"] = (get("simulate.ks_distance", "self_s"), "s")
    wc = "simulate.write_samples_csv"
    m[f"{wc}.self_s"] = (get(wc, "self_s"), "s")
    m[f"{wc}.rows"] = (get(wc, "units"), "count")
    m["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    for mod in MODULES:
        m[f"{mod}.errors"] = (
            sum(v["errors"] for k, v in summary.items() if k.startswith(f"{mod}.")),
            "count",
        )
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_frac"] = (ratio(overhead_s, untraced_s), "1")
    return m
