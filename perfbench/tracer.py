"""Span tracer that wraps the package's functions from outside.

`Tracer.install()` replaces every public function of the traced modules
(plus `operators._leaf_entries`, which carries the banded fast path) by a
wrapper that records a span, and rebinds the name in every `folner_lab`
module that imported the function, because the package imports by name.
`uninstall()` puts the originals back, so untraced passes run the
unmodified program.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
from time import perf_counter

import numpy as np

LAYERS = ("cli", "specio", "operators", "diagnostics", "spectral", "szego", "traces",
          "tensor", "_util")
PRIVATE = {"operators": ("_leaf_entries",)}

# span fields
ID, PARENT, NAME, THREAD, T0, T1, SIZE, OUT, FLAG, TAG = range(10)


def _size(args) -> int:
    """d_n of the projection arguments (their product), operators x windows for
    a projection sequence, else the matrix order."""
    for a in args:
        if hasattr(a, "projections"):
            ops = next((b for b in args if isinstance(b, list)), [])
            return len(ops) * len(a.projections)
    ranks = [a.rank for a in args if hasattr(a, "rank") and hasattr(a, "index_array")]
    if ranks:
        return math.prod(ranks)
    for a in args:
        if isinstance(a, np.ndarray):
            return a.shape[0]
    return 0


def _out_size(out):
    """(bytes, rows) of an array result (or of the first array of a tuple);
    the length of a string result."""
    if isinstance(out, tuple) and out and isinstance(out[0], np.ndarray):
        out = out[0]
    if isinstance(out, np.ndarray):
        return out.nbytes, (out.shape[0] if out.ndim else 0)
    if isinstance(out, str):
        return len(out), 0
    return 0, 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._saved = []
        self.tag = -1  # index of the invocation being run

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread's first span belongs to the span that started the pool
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else -1)
            sid = next(tracer._ids)
            stack.append(sid)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, threading.get_ident(), t0, t1,
                                     _size(args), _out_size(out),
                                     bool(kwargs.get("check_residual")), tracer.tag))

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"folner_lab.{layer}"]
            for attr, val in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if public and inspect.isfunction(val) and val.__module__ == mod.__name__:
                    wrappers[id(val)] = (val, self._wrap(f"{layer.lstrip('_')}.{attr}", val))
        for name, mod in list(sys.modules.items()):
            if name != "folner_lab" and not name.startswith("folner_lab."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def write(self, path, commands):
        """Invocation k's argv as '# k <argv>' lines, then one tab-separated
        line per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, cmd in enumerate(commands):
                fh.write(f"# {k} {cmd}\n")
            fh.write("id\tparent\tname\tthread\tstart_s\tend_s\tsize\tout_bytes\tout_rows"
                     "\tinvocation\n")
            for s in self.spans:
                fh.write(f"{s[ID]}\t{s[PARENT]}\t{s[NAME]}\t{s[THREAD]}\t{s[T0]!r}\t{s[T1]!r}"
                         f"\t{s[SIZE]}\t{s[OUT][0]}\t{s[OUT][1]}\t{s[TAG]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _pieces(a: float, b: float, cover) -> list:
    """[a, b] minus the union of the intervals in `cover`."""
    out, cur = [], a
    for c0, c1 in sorted(cover):
        if c1 <= cur:
            continue
        if c0 > cur:
            out.append((cur, min(c0, b)))
        cur = max(cur, c1)
        if cur >= b:
            break
    if cur < b:
        out.append((cur, b))
    return [(x, y) for x, y in out if y > x]


def self_times(spans) -> dict:
    """span id -> wall-clock self time.

    A span's own intervals are its duration minus what its child spans cover
    (children in pool threads included).  Where own intervals of several
    threads overlap, each instant is shared evenly among them, so the self
    times of all spans add up to the wall time of the root spans.
    """
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[T0], s[T1]))
    own = {s[ID]: _pieces(s[T0], s[T1], children.get(s[ID], ())) for s in spans}
    events = sorted((t, d) for ps in own.values() for a, b in ps for t, d in ((a, 1), (b, -1)))
    share, acc, active, prev = {}, 0.0, 0, None
    for t, d in events:  # share[t] = integral of 1/active up to t
        if prev is not None and active > 0:
            acc += (t - prev) / active
        share[t] = acc
        active += d
        prev = t
    return {sid: sum(share[b] - share[a] for a, b in ps) for sid, ps in own.items()}


def _outermost(spans):
    """Spans not nested inside another span of the same function."""
    by_id = {s[ID]: s for s in spans}
    keep = []
    for s in spans:
        p = by_id.get(s[PARENT])
        while p is not None and p[NAME] != s[NAME]:
            p = by_id.get(p[PARENT])
        if p is None:
            keep.append(s)
    return keep


def fit_exponent(spans) -> float:
    """Log-log slope of median span time against size, over the sizes within a
    factor 16 of the largest; 0 when fewer than two such sizes ran."""
    by_size = {}
    for s in spans:
        if s[SIZE] > 0:
            by_size.setdefault(s[SIZE], []).append(s[T1] - s[T0])
    if not by_size:
        return 0.0
    top = max(by_size)
    pts = [(math.log(n), math.log(float(np.median(t)))) for n, t in by_size.items()
           if n * 16 >= top]
    if len(pts) < 2:
        return 0.0
    xs, ys = zip(*pts)
    return float(np.polyfit(xs, ys, 1)[0])


# metric -> (function span name, what): "s" inclusive time, "calls" count
FUNCTION_METRICS = {
    "cli.folner_s": ("cli.cmd_folner", "s"),
    "cli.szego_s": ("cli.cmd_szego", "s"),
    "cli.trace_s": ("cli.cmd_trace", "s"),
    "cli.tensor_s": ("cli.cmd_tensor", "s"),
    "cli.demo_shift_s": ("cli.cmd_demo_shift", "s"),
    "specio.load_s": ("specio.load_spec_file", "s"),
    "specio.files": ("specio.load_spec_file", "calls"),
    "operators.compress_s": ("operators.exact_entries", "s"),
    "operators.compress_calls": ("operators.exact_entries", "calls"),
    "operators.padded_compression_s": ("operators.padded_compression", "s"),
    "operators.padded_compression_calls": ("operators.padded_compression", "calls"),
    "operators.diagonal_entries_s": ("operators.diagonal_entries", "s"),
    "operators.pad_indices_s": ("operators.pad_indices", "s"),
    "diagnostics.folner_profile_s": ("diagnostics.folner_profile", "s"),
    "diagnostics.schatten_norm_s": ("diagnostics.schatten_norm", "s"),
    "diagnostics.schatten_norm_calls": ("diagnostics.schatten_norm", "calls"),
    "diagnostics.folner_ratio_s": ("diagnostics.folner_ratio", "s"),
    "diagnostics.qd_gap_s": ("diagnostics.qd_gap", "s"),
    "spectral.eigensolve_calls": ("spectral.eigenvalues_hermitian", "calls"),
    "spectral.empirical_measure_s": ("spectral.empirical_measure", "s"),
    "spectral.reference_pushforward_s": ("spectral.reference_pushforward", "s"),
    "spectral.integrate_s": ("spectral.integrate", "s"),
    "spectral.integrate_calls": ("spectral.integrate", "calls"),
    "spectral.kolmogorov_s": ("spectral.kolmogorov_distance", "s"),
    "szego.pair_test_s": ("szego.szego_pair_test", "s"),
    "szego.moments_reference_s": ("szego.moments_reference", "s"),
    "traces.trace_report_s": ("traces.trace_convergence_report", "s"),
    "traces.trace_estimate_s": ("traces.trace_estimate", "s"),
    "traces.trace_estimate_calls": ("traces.trace_estimate", "calls"),
    "traces.represent_nc_s": ("traces.represent_nc", "s"),
    "tensor.bound_check_s": ("tensor.tensor_bound_check", "s"),
    "tensor.bound_check_calls": ("tensor.tensor_bound_check", "calls"),
    "util.report_csv_s": ("util.report_csv", "s"),
}
LAYER_NAMES = tuple(layer.lstrip("_") for layer in LAYERS)


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass figures of the traced passes: name -> (value, unit)."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    outer = {name: _outermost(group) for name, group in by_name.items()}
    out = {}
    for metric, (fn, what) in FUNCTION_METRICS.items():
        if what == "calls":
            out[metric] = (len(by_name.get(fn, ())) / passes, "count")
        else:
            out[metric] = (sum(s[T1] - s[T0] for s in outer.get(fn, ())) / passes, "s")
    for layer in LAYER_NAMES:
        total = sum(selfs[s[ID]] for s in spans if s[NAME].split(".")[0] == layer)
        out[f"{layer}.self_s"] = (total / passes, "s")

    eig = by_name.get("spectral.eigenvalues_hermitian", [])
    out["spectral.eigensolve_s"] = (sum(selfs[s[ID]] for s in eig) / passes, "s")
    out["spectral.residual_check_calls"] = (sum(s[FLAG] for s in eig) / passes, "count")
    out["spectral.eigensolve_dim_max"] = (max((s[SIZE] for s in eig), default=0), "count")
    out["spectral.eigensolve_exponent"] = (fit_exponent(eig), "1")
    out["operators.compress_exponent"] = (fit_exponent(by_name.get("operators.exact_entries", [])), "1")
    out["tensor.bound_check_exponent"] = (fit_exponent(by_name.get("tensor.tensor_bound_check", [])), "1")

    produced = outer.get("operators.compress", []) + outer.get("operators.padded_compression", [])
    out["operators.dense_mb"] = (sum(s[OUT][0] for s in produced) / passes / 2**20, "MB")
    padded = by_name.get("operators.padded_compression", [])
    out["operators.padded_dim_max"] = (max((s[OUT][1] for s in padded), default=0), "count")
    grid = sum(s[SIZE] for s in by_name.get("diagnostics.folner_profile", []))
    out["diagnostics.grid_points"] = (grid / passes, "count")
    out["util.report_bytes"] = (sum(s[OUT][0] for s in by_name.get("util.report_csv", [])) / passes,
                                "bytes")
    return out
