"""Work and cost of the FD divergence oracle behind criterion 11.

For seeded oracle points at n = 2 to 5, with k = n - 1, it prints, as JSON,
one row per (p, n): p = 2 with an |x'|^theta |x|^lam spec, through
divergence_oracle, and p = 1.5 and 3 with an |x'|^gamma spec, through
divergence_oracle_p.  Each row gives:

- V_evals_per_call and f_evals_per_call: the evaluations of the fields V
  and f per oracle call, counted by wrapping the spec's fields;
- profiled_calls_per_call: the function calls per oracle call that
  cProfile records, numpy's Python wrappers and the builtins they reach
  included;
- median_us: the median wall time, in microseconds, of one oracle call
  over the repeats, after one warm-up call per point.

It also prints criterion_11_s, the median in-process wall time, in
seconds, of report.run_criterion_11 over three runs after one warm-up run.

The evaluation counts do not depend on the machine.  The profiled calls do
not depend on the machine, but they do depend on the numpy version, whose
wrappers make calls of their own; the output names it.  Wall times depend
on the machine and its load; compare them only within one run of the same
machine.

Run from the repository root:

    python tools/oracle_work.py [--repeats N]

The library is imported from the src directory next to this script, so a
copy of the script in another checkout measures that checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from anisohardy import ExponentPair, HardyParams, WeightSpec, report, weights  # noqa: E402

DIMS = (2, 3, 4, 5)
PS = (2.0, 1.5, 3.0)
#: Oracle points per (p, n) row.
POINTS = 4
SEED = 3500


def draw_case(rng, n: int, p: float):
    """A spec and POINTS points at (n, p): at p = 2 criterion 11's own
    instance and exponent draw, otherwise a gamma spec with k + p alpha and
    p (alpha + beta) + n above 0.1; points with |x'| > 0.3 and
    0.3 < |x| < 2.5, as criterion 11 takes them."""
    if p == 2.0:
        params = report.sample_admissible(rng, n_choices=(n,), span=1.5, margin=0.05)
        pair = ExponentPair(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
        spec = WeightSpec(params, exponents=pair)
    else:
        while True:
            a, b = (float(v) for v in rng.uniform(-0.7, 0.7, size=2))
            if n - 1 + p * a > 0.1 and p * (a + b) + n > 0.1:
                break
        spec = WeightSpec(HardyParams(n, p, a, b), gamma=float(rng.uniform(0.3, 1.0)))
    points = []
    while len(points) < POINTS:
        x = rng.uniform(-2.0, 2.0, size=n)
        s, r = np.linalg.norm(x[:n - 1]), np.linalg.norm(x)
        if s > 0.3 and 0.3 < r < 2.5:
            points.append(x)
    return spec, points


def oracle_call(p: float, V, f, x):
    """(oracle, arguments) of a row's call: divergence_oracle at p = 2, else
    divergence_oracle_p."""
    if p == 2.0:
        return weights.divergence_oracle, (V, f, x)
    return weights.divergence_oracle_p, (V, f, p, x)


def field_evals(spec, p: float, points) -> tuple[float, float]:
    """V and f evaluations per oracle call."""
    counts = [0, 0]

    def counted(field, slot):
        def call(x):
            counts[slot] += 1
            return field(x)
        return call

    for x in points:
        fn, args = oracle_call(p, counted(spec.V, 0), counted(spec.f, 1), x)
        fn(*args)
    return counts[0] / len(points), counts[1] / len(points)


def profiled_calls(spec, p: float, points) -> float:
    """cProfile's recorded function calls per oracle call."""
    profile = cProfile.Profile()
    for x in points:
        fn, args = oracle_call(p, spec.V, spec.f, x)
        profile.runcall(fn, *args)
    return pstats.Stats(profile).total_calls / len(points)


def median_us(spec, p: float, points, repeats: int) -> float:
    """Median microseconds of one oracle call, cycling through the points."""
    calls = [oracle_call(p, spec.V, spec.f, x) for x in points]
    for fn, args in calls:
        fn(*args)
    times = []
    for i in range(repeats):
        fn, args = calls[i % len(calls)]
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def criterion_11_s() -> float:
    """Median in-process seconds of run_criterion_11 over three runs."""
    report.run_criterion_11()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        report.run_criterion_11()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200,
                        help="timed oracle calls per row (default 200)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    rng = np.random.default_rng(SEED)
    rows = {}
    for p in PS:
        for n in DIMS:
            spec, points = draw_case(rng, n, p)
            v_evals, f_evals = field_evals(spec, p, points)
            rows[f"p={p:g} n={n}"] = {
                "V_evals_per_call": v_evals, "f_evals_per_call": f_evals,
                "profiled_calls_per_call": profiled_calls(spec, p, points),
                "median_us": round(median_us(spec, p, points, args.repeats), 1)}
    out = {"numpy": np.__version__, "rows": rows,
           "criterion_11_s": round(criterion_11_s(), 3)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
