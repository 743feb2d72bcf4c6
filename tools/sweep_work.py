"""Work and driver cost of the default sweeps pinned by TestGoldenSweeps.

For each of the three default sweeps (K > 1, K < 1 and general p) it prints,
as JSON:

- integrand calls, radial nodes and row-nodes of its one tanh-sinh pass,
  and the polyfit calls of its fits: counts that do not depend on the
  machine;
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
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from anisohardy import HardyParams, rayleigh  # noqa: E402

#: The sweeps of TestGoldenSweeps, with their default schedules.
SWEEPS = {
    "K>1": HardyParams(3, 2.0, -0.5, -0.5),
    "K<1": HardyParams(3, 2.0, 0.0, -0.05),
    "general_p": HardyParams(3, 3.0, 0.0, 0.5),
}


def work_counts(params) -> dict:
    """Integrand calls, nodes, row-nodes and polyfit calls of one sweep."""
    calls, fits = [], []
    plain_rows, plain_fit = rayleigh.integrate_rows, np.polynomial.polynomial.polyfit

    def counted_rows(f, *args):
        def f_counted(r):
            blocks = f(r)
            calls.append((r.size, sum(len(block) for block in blocks)))
            return blocks
        return plain_rows(f_counted, *args)

    def counted_fit(*args, **kwargs):
        fits.append(1)
        return plain_fit(*args, **kwargs)

    rayleigh.integrate_rows, np.polynomial.polynomial.polyfit = counted_rows, counted_fit
    try:
        rayleigh.sweep_and_extrapolate(params)
    finally:
        rayleigh.integrate_rows, np.polynomial.polynomial.polyfit = plain_rows, plain_fit
    return {"integrand_calls": len(calls), "nodes": sum(n for n, _ in calls),
            "row_nodes": sum(n * m for n, m in calls), "polyfit_calls": len(fits)}


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
        return rayleigh.integrate_rows(f, 0.0, spec.truncation_radius, spec,
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
           for name, params in SWEEPS.items()}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
