"""Work and driver cost of the default sweeps pinned by TestGoldenSweeps.

For each of the three default sweeps (K > 1, K < 1 and general p = 3), and
the default sweep at the even p = 4, it prints, as JSON:

- integrand calls, radial nodes and row-nodes of its one tanh-sinh pass,
  and the polyfit calls of its fits: counts that do not depend on the
  machine;
- "profile_node_evals": the radial profiles (rows of rayleigh._g_and_prime,
  which forms g and g') times the nodes of each integrand call, summed
  over the pass, and "compute_K_calls", the calls of params.compute_K that
  the sweep makes through rayleigh;
- for the general-p sweeps, "bracket": the elements of the angular closed
  form (quadrature._bracket_angular) by the path that evaluates them, the
  steps of the rule that reads an element from a table ("table_steps"),
  and the (p, b) keys whose tables the sweep builds, with each build's
  wall time in ms.  The paths are the even-p sum of Beta terms ("sum",
  every element of an even-p call, whatever its value), the table on
  [1/16, 1] ("table"), the log2 x table below it ("log_table"), the
  leading terms below 2^_FLOOR_EXP ("floor"), and "zero_or_non_finite",
  the table elements with max(A, C) = 0 or a NaN ratio, which read the
  table at x = 1.  A checkout without log2 x tables
  counts its elements below 1/16, which sum their series, as "series";
- for the general-p sweeps also "caches": the entries and bytes of array
  held by each cache of the angular closed form after the sweep, from
  empty caches: quadrature._chebyshev_table (one key (p, b) each),
  _bracket_tables (the joined tables of one call's b values),
  _even_coefficients (the Beta coefficients of one call's b values at an
  even p) and, on a checkout where it is still a cache, _series_tables;
- driver_us: the median wall time, in microseconds, of the pass's
  integrate_rows with the integrand replaced by a lookup of the rows it
  returned on a recorded pass (a cached-rows replay), so that only the
  tanh-sinh driver runs.  Wall times depend on the machine and its load;
  compare them only within one run of the same machine.

Run from the repository root:

    python tools/sweep_work.py [--repeats N]

The library is imported from the src directory next to this script, so a
copy of the script in another checkout measures that checkout.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from anisohardy import HardyParams, quadrature, rayleigh  # noqa: E402

#: The sweeps of TestGoldenSweeps, with their default schedules.
SWEEPS = {
    "K>1": HardyParams(3, 2.0, -0.5, -0.5),
    "K<1": HardyParams(3, 2.0, 0.0, -0.05),
    "general_p": HardyParams(3, 3.0, 0.0, 0.5),
}
#: The general-p sweeps whose angular closed form is counted: the golden one
#: and its even-p counterpart.
BRACKET_SWEEPS = {"general_p": SWEEPS["general_p"], "general_p4": HardyParams(3, 4.0, 0.0, 0.5)}


def work_counts(params) -> dict:
    """Integrand calls, nodes, row-nodes, profile-node evaluations, polyfit
    calls and compute_K calls of one sweep."""
    calls, fits, profiles, regimes = [], [], [], []
    plain_rows, plain_fit = rayleigh.integrate_rows, np.polynomial.polynomial.polyfit
    plain_g, plain_K = rayleigh._g_and_prime, rayleigh.compute_K

    def counted_g(r, r2, eta, eta_prime, e2, ge):
        profiles.append(np.size(e2) * r.size)
        return plain_g(r, r2, eta, eta_prime, e2, ge)

    def counted_K(p):
        regimes.append(p)
        return plain_K(p)

    def counted_rows(f, *args):
        def f_counted(r):
            rows = f(r)
            # a checkout before one array per call returns a list of blocks
            calls.append((r.size, len(rows) if isinstance(rows, np.ndarray)
                           else sum(len(block) for block in rows)))
            return rows
        return plain_rows(f_counted, *args)

    def counted_fit(*args, **kwargs):
        fits.append(1)
        return plain_fit(*args, **kwargs)

    rayleigh.integrate_rows, np.polynomial.polynomial.polyfit = counted_rows, counted_fit
    rayleigh._g_and_prime, rayleigh.compute_K = counted_g, counted_K
    try:
        rayleigh.sweep_and_extrapolate(params)
    finally:
        rayleigh.integrate_rows, np.polynomial.polynomial.polyfit = plain_rows, plain_fit
        rayleigh._g_and_prime, rayleigh.compute_K = plain_g, plain_K
    return {"integrand_calls": len(calls), "nodes": sum(n for n, _ in calls),
            "row_nodes": sum(n * m for n, m in calls),
            "profile_node_evals": sum(profiles), "polyfit_calls": len(fits),
            "compute_K_calls": len(regimes)}


#: The caches of the angular closed form, by their names in quadrature; a
#: checkout counts those it has.
TABLE_CACHES = ("_series_tables", "_chebyshev_table", "_bracket_tables", "_even_coefficients")


def _nbytes(value) -> int:
    """Bytes of the arrays in a cached value: an array or a tuple of them."""
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return value.nbytes if isinstance(value, np.ndarray) else 0


def bracket_counts(params) -> dict:
    """Angular closed-form elements by path, the table rule's steps per
    element, the keys a sweep builds, and what each cache holds after it,
    from empty caches."""
    q = quadrature
    summed = hasattr(q, "_even_coefficients")
    plain = {name: getattr(q, name) for name in TABLE_CACHES
             if hasattr(getattr(q, name, None), "cache_clear")}
    for cached in plain.values():
        cached.cache_clear()
    paths, built, held = collections.Counter(), [], {name: {} for name in plain}
    plain_bracket = rayleigh._bracket_angular
    floor = 2.0 ** q._FLOOR_EXP if hasattr(q, "_FLOOR_EXP") else None

    def holding(name):
        cached = plain[name]

        def call(*key):
            misses, start = cached.cache_info().misses, time.perf_counter()
            out = held[name][key] = cached(*key)
            if name == "_chebyshev_table" and cached.cache_info().misses > misses:
                built.append({"p": key[0], "b": key[1],
                              "build_ms": round((time.perf_counter() - start) * 1e3, 2)})
            return out
        return call

    def counted(A, C, pw, bs):
        # a checkout before one p per call passes one p per row, all equal
        if np.ravel(pw)[0] == 2.0:
            return plain_bracket(A, C, pw, bs)
        if summed and np.ravel(pw)[0] % 2.0 == 0.0:
            paths["sum"] += int(np.size(A))
            return plain_bracket(A, C, pw, bs)
        with np.errstate(divide="ignore", invalid="ignore"):
            top = np.maximum(A, C)
            x = np.minimum(A, C) / top
        ok = (top > 0.0) & np.isfinite(x)
        below = ok & (x < q._X0)
        paths["zero_or_non_finite"] += int(np.count_nonzero(~ok))
        paths["table"] += int(np.count_nonzero(ok & (x >= q._X0)))
        if floor is None:
            paths["series"] += int(np.count_nonzero(below))
        else:
            paths["log_table"] += int(np.count_nonzero(below & (x >= floor)))
            paths["floor"] += int(np.count_nonzero(below & (x < floor)))
        return plain_bracket(A, C, pw, bs)

    rayleigh._bracket_angular = counted
    for name in plain:
        setattr(q, name, holding(name))
    try:
        rayleigh.sweep_and_extrapolate(params)
    finally:
        rayleigh._bracket_angular = plain_bracket
        for name, cached in plain.items():
            setattr(q, name, cached)
    caches = {name: {"entries": cached.cache_info().currsize,
                     "bytes": sum(_nbytes(v) for v in held[name].values())}
              for name, cached in plain.items()}
    return {"elements": dict(paths), "table_steps": q._DEGREE, "keys_built": built,
            "caches": caches}


def driver_us(params, repeats: int) -> float:
    """Median microseconds of the sweep's radial pass on cached rows."""
    families = rayleigh._plan_sweep(params, None, None)[3]
    spec = rayleigh._SWEEP_SPEC_1D if params.p == 2 else rayleigh._SWEEP_SPEC_P
    rows = rayleigh._rows(families, [rayleigh._exponents(f) for f in families])
    cached = []

    def recording(r):
        cached.append(rows(r))
        return cached[-1]

    def run(f):
        # a checkout before _RADIAL_END took the radial end 2 from the spec
        return rayleigh.integrate_rows(f, 0.0, getattr(rayleigh, "_RADIAL_END", 2.0), spec,
                                       rayleigh._RADIAL_BREAKS)

    expected = run(recording)
    times = []
    for _ in range(repeats):
        replay = iter(cached)
        start = time.perf_counter()
        got = run(lambda r: next(replay))
        times.append(time.perf_counter() - start)
        assert got == expected
    return statistics.median(times) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200,
                        help="timed replays per sweep (default 200)")
    args = parser.parse_args(argv)
    out = {name: {**work_counts(params), "driver_us": round(driver_us(params, args.repeats), 1)}
           for name, params in {**SWEEPS, **BRACKET_SWEEPS}.items()}
    for name, params in BRACKET_SWEEPS.items():
        out[name]["bracket"] = bracket_counts(params)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
