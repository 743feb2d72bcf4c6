"""Outside-in tracing: spans around calls into the library's public functions.

The library sources are not edited.  Each public function is replaced, for the
duration of a traced pass, at the name its caller looks up: the library
modules import these names directly, so wrapping
``anisohardy.quadrature.integrate_2d`` alone would miss the calls that
``rayleigh`` makes through its own ``integrate_2d`` name.

Spans (name, start, end, parent, thread) are kept in memory and written out
when the pass ends.  Spans opened on ``_pmap`` worker threads, whose own
stack is empty, take the innermost span open on the main thread as parent,
which during a sweep is the sweep span.  A span's self time is its duration
minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = math.nan
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._main_stack:
            parent = self._main_stack[-1].sid
        else:
            parent = None
        with self._lock:
            span = Span(next(self._ids), name, time.perf_counter(), parent,
                        threading.get_ident())
            self.spans.append(span)
            self._by_id[span.sid] = span
        stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()

    def add_up(self, span: Span, key: str, amount: float):
        """Add to the counter of a span and of each of its ancestors."""
        with self._lock:
            target = span
            while target is not None:
                target.counts[key] = target.counts.get(key, 0) + amount
                target = self._by_id.get(target.parent)

    def peak(self, span: Span, key: str, value: float):
        """Keep the largest finite value seen for span.counts[key]."""
        if not math.isfinite(value):
            return
        with self._lock:
            span.counts[key] = max(span.counts.get(key, -math.inf), value)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "thread": s.thread, "error": s.error,
                        "counts": s.counts} for s in self.spans], handle)


# ------------------------------------------------------------- wrappers

def _rows(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim <= 1 else int(np.prod(arr.shape[:-1]))


def _counted(span: Span, key: str, fn, size):
    """The callable fn, adding size(args) of each call to span.counts[key].

    Only the thread that owns the span calls fn, so no lock is taken.
    """
    counts = span.counts
    counts.setdefault(key, 0)

    def inner(*args):
        counts[key] += size(args)
        return fn(*args)
    return inner


def _broadcast_size(args) -> int:
    return math.prod(np.broadcast_shapes(*(np.shape(a) for a in args)))


def _count_integrand(tracer, span, args, kwargs):
    return (_counted(span, "evals", args[0], _broadcast_size),) + tuple(args[1:]), kwargs


def _count_fields(tracer, span, args, kwargs):
    V, f = (_counted(span, "field_evals", g, lambda a: 1) for g in args[:2])
    return (V, f) + tuple(args[2:]), kwargs


def _count_points(tracer, span, args, kwargs):
    tracer.add_up(span, "points", _rows(args[0]))
    return args, kwargs


def _quad_error(tracer, span, result):
    tracer.peak(span, "err", result.err_estimate / max(abs(result.value), 1e-300))


def _grid_gap(tracer, span, report):
    diag = report.diagnostics
    tracer.peak(span, "grid_gap", float(diag.grid_value - diag.refined_value))


def _fit_residual(tracer, span, result):
    tracer.peak(span, "fit_residual",
                result.fit.residual / max(abs(result.extrapolated), 1e-300))


def _fit_residual_error(tracer, span, exc):
    if hasattr(exc, "residual"):
        tracer.peak(span, "fit_residual", exc.residual / max(abs(exc.value), 1e-300))


#: (span name, hooks, [(module, attribute), ...]).  Each attribute is the
#: name a caller looks up; a hook may wrap the arguments (pre), read the
#: result (post) or read a raised exception (error).
TARGETS = (
    ("closed_form.sharp_constant_p2", {}, [("closed_form", "sharp_constant_p2")]),
    ("closed_form.sharp_constant_general_p", {},
     [("closed_form", "sharp_constant_general_p"), ("identities", "sharp_constant_general_p")]),
    ("closed_form.sharp_constant_general_k_p2", {},
     [("closed_form", "sharp_constant_general_k_p2"),
      ("optimizer", "sharp_constant_general_k_p2")]),
    ("closed_form.ckn_constant", {}, [("closed_form", "ckn_constant")]),
    ("optimizer.maximize", {"post": _grid_gap}, [("optimizer", "maximize")]),
    ("weights.divergence_oracle", {"pre": _count_fields},
     [("weights", "divergence_oracle")]),
    ("weights.weight_p2", {"pre": _count_points},
     [("weights", "weight_p2"), ("identities", "weight_p2")]),
    ("weights.weight_general_p", {"pre": _count_points},
     [("weights", "weight_general_p"), ("identities", "weight_general_p")]),
    ("weights.axis_norms", {"pre": _count_points}, [("identities", "axis_norms")]),
    ("quadrature.integrate_1d", {"pre": _count_integrand, "post": _quad_error},
     [("rayleigh", "integrate_1d"), ("quadrature", "integrate_1d"),
      ("identities", "integrate_1d")]),
    ("quadrature.integrate_angular", {"pre": _count_integrand, "post": _quad_error},
     [("rayleigh", "integrate_angular"), ("quadrature", "integrate_angular")]),
    ("quadrature.integrate_2d", {"pre": _count_integrand}, [("rayleigh", "integrate_2d")]),
    ("rayleigh.quotient_p2", {}, [("rayleigh", "quotient_p2")]),
    ("rayleigh.quotient_general_p", {}, [("rayleigh", "quotient_general_p")]),
    ("rayleigh.sweep_and_extrapolate",
     {"post": _fit_residual, "error": _fit_residual_error},
     [("rayleigh", "sweep_and_extrapolate")]),
    ("identities.verify_E2", {}, [("identities", "verify_E2")]),
    ("identities.verify_Ep", {}, [("identities", "verify_Ep")]),
    ("identities.verify_CKNp", {}, [("identities", "verify_CKNp")]),
)


def _wrap(tracer: Tracer, name: str, hooks: dict, fn):
    pre, post, on_error = hooks.get("pre"), hooks.get("post"), hooks.get("error")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            if pre is not None:
                args, kwargs = pre(tracer, span, args, kwargs)
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            if on_error is not None:
                on_error(tracer, span, exc)
            raise
        finally:
            tracer.close(span)
        if post is not None:
            post(tracer, span, result)
        return result
    return wrapper


class installed:
    """Context manager that swaps the traced names in and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for name, hooks, sites in TARGETS:
            for mod_name, attr in sites:
                module = importlib.import_module("anisohardy." + mod_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, _wrap(self.tracer, name, hooks, original))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


# ----------------------------------------------------------- aggregation

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


#: per-layer metric -> (span name prefix, statistic).
_LAYER_STATS = {
    "closed_form": ("closed_form.", ("calls", "self_frac")),
    "optimizer.maximize": ("optimizer.maximize", ("calls", "self_frac", "stalled",
                                                  "grid_gap_max")),
    "weights.divergence_oracle": ("weights.divergence_oracle",
                                  ("calls", "self_frac", "field_evals")),
    "weights.weight_p2": ("weights.weight_p2", ("points", "self_frac")),
    "weights.weight_general_p": ("weights.weight_general_p", ("points", "self_frac")),
    "quadrature.integrate_1d": ("quadrature.integrate_1d",
                                ("calls", "self_frac", "evals", "not_converged", "err_max")),
    "quadrature.integrate_angular": ("quadrature.integrate_angular",
                                     ("calls", "self_frac", "evals", "err_max")),
    "quadrature.integrate_2d": ("quadrature.integrate_2d",
                                ("calls", "self_frac", "evals", "not_converged")),
    "rayleigh.quotient_p2": ("rayleigh.quotient_p2", ("calls", "self_frac")),
    "rayleigh.quotient_general_p": ("rayleigh.quotient_general_p",
                                    ("calls", "self_frac", "total_frac")),
    "rayleigh.sweep_and_extrapolate": ("rayleigh.sweep_and_extrapolate",
                                       ("calls", "self_frac", "fit_unstable",
                                        "fit_residual_max")),
    "identities.verify_E2": ("identities.verify_E2", ("calls", "self_frac", "points")),
    "identities.verify_Ep": ("identities.verify_Ep", ("calls", "self_frac", "points")),
    "identities.verify_CKNp": ("identities.verify_CKNp", ("calls", "self_frac", "points")),
}

_ERROR_STATS = {"stalled": "OptimizerStalledError", "not_converged": "NotConvergedError",
                "fit_unstable": "FitUnstableError"}
_PEAK_STATS = {"grid_gap_max": "grid_gap", "err_max": "err",
               "fit_residual_max": "fit_residual"}


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer statistics of a traced pass whose wall time was `wall`.

    Times are shares of `wall` (self_frac, total_frac); counts are totals;
    *_max statistics are maxima over the layer's spans (0 without spans):
    err_max is the largest relative quadrature error estimate, grid_gap_max
    the largest optimizer grid-minus-refined value and fit_residual_max the
    largest fit residual relative to the extrapolated constant.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer, (prefix, stats) in _LAYER_STATS.items():
        mine = [s for s in spans if s.name.startswith(prefix)]
        for stat in stats:
            if stat == "calls":
                value = len(mine)
            elif stat == "self_frac":
                value = sum(selfs[s.sid] for s in mine) / wall
            elif stat == "total_frac":
                value = sum(s.end - s.start for s in mine) / wall
            elif stat in _ERROR_STATS:
                value = sum(s.error == _ERROR_STATS[stat] for s in mine)
            elif stat in _PEAK_STATS:
                peaks = [s.counts[_PEAK_STATS[stat]] for s in mine
                         if _PEAK_STATS[stat] in s.counts]
                value = max(peaks) if peaks else 0.0
            else:
                value = sum(s.counts.get(stat, 0) for s in mine)
            out[f"{layer}.{stat}"] = value
    quotient = sum(s.end - s.start for s in spans if s.name.startswith("rayleigh.quotient_"))
    sweeps = sum(s.end - s.start for s in spans
                 if s.name == "rayleigh.sweep_and_extrapolate")
    out["rayleigh.row_concurrency"] = quotient / sweeps if sweeps > 0 else 0.0
    return out


_COUNT_STATS = {"calls", "evals", "points", "field_evals", "stalled", "not_converged",
                "fit_unstable"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric name."""
    stat = metric.rsplit(".", 1)[-1]
    if stat in _COUNT_STATS:
        return "count"
    if metric.startswith("setup."):
        return "s"
    if metric.startswith("gate."):
        return "frac"
    if stat == "grid_gap_max":
        return "1"
    if stat == "row_concurrency":
        return "threads"
    return "frac"
