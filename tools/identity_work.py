"""Work and cost of the identity checks behind criterion 8.

For the first check of each kind (E2, Ep, CKN) at n = 2 and at n = 3 that
criterion 8's samplers draw (report.sample_*_config at its base seeds), it
prints, as JSON:

- nodes: the rule's nodes at the order the check stopped at;
- passes: the check's passes over its rule nodes (_at_orders calls);
- norm_passes_per_pass: how often a pass forms |x'| and |x| at its nodes
  (axis_norms calls, the public weights' own included);
- grad_power_passes_per_pass: how often a pass forms |grad u|^2, the
  |grad u|^p of its left-hand side and of the remainder R (_dot calls on
  the bump gradient);
- spot_draws: the generator draws of the CKN flux-divergence spot check,
  from an empty draw cache, as in a fresh process, on the check's first run
  and on a second run;
- median_us: the median wall time, in microseconds, of one check over the
  repeats, after one warm-up run;
- traced_peak_kb: the peak of the memory that tracemalloc traces (numpy's
  arrays included) during the check's second run, in KiB;
- minor_faults: the minor page faults (ru_minflt of getrusage) of its third
  run.  The first run sizes the identity workspace and the second is the
  first to write its pages.

The counts and traced_peak_kb do not depend on the machine.  Wall times
depend on the machine and its load; compare them only within one run of
the same machine.  minor_faults depends on the machine's C allocator and on
what the process did before: freeing one large block raises glibc's mmap
and trim thresholds for the rest of the process, which hides the faults of
later checks.  For a count that does not depend on the checks measured
before it, run one check per process with --check, for example
--check "Ep n=3".

Run from the repository root:

    python tools/identity_work.py [--repeats N] [--check "KIND n=N"]

The library is imported from the src directory next to this script, so a
copy of the script in another checkout measures that checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from anisohardy import identities, report, weights  # noqa: E402

#: kind -> (check, config index -> (spec or CKN parameters, bump)), drawn
#: at criterion 8's base seeds as report.run_criterion_8 draws them.
_BASE = report.CRITERION_SEEDS[8]
KINDS = {
    "E2": (identities.verify_E2, lambda i: report.sample_e2_config(_BASE, i)),
    "Ep": (identities.verify_Ep,
           lambda i: report.sample_ep_config(_BASE + 1, i, report.EP_P_CYCLE[i % 4])),
    "CKN": (identities.verify_CKNp, lambda i: report.sample_ckn_config(_BASE + 2, i)),
}


def first_configs(sample, dims=(2, 3)) -> dict:
    """n -> (index, config) of the sampler's first config at each n."""
    found, i = {}, 0
    while len(found) < len(dims):
        config = sample(i)
        n = len(config[1].center)
        found.setdefault(n, (i, config))
        i += 1
    return found


class _Counter:
    """Counts norm passes, |grad u| passes, rule passes and spot-check draws
    of the checks run while it is installed."""

    def __init__(self):
        self.norms = self.grad = self.passes = self.draws = 0
        self._inside = False
        self._ugrad = None
        self._saved = []

    def _patch(self, module, name, make):
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def __enter__(self):
        def norms(plain):
            def counted(*args, **kwargs):
                self.norms += self._inside
                return plain(*args, **kwargs)
            return counted

        def at_orders(plain):
            def counted(*args):
                self.passes += 1
                self._inside = True
                try:
                    return plain(*args)
                finally:
                    self._inside = False
            return counted

        def bump_fields(plain):
            def recorded(u, x, *args):
                fields = plain(u, x, *args)
                self._ugrad = fields[1]
                return fields
            return recorded

        def dot(plain):
            def counted(a, b, *args):
                self.grad += a is self._ugrad and b is self._ugrad
                return plain(a, b, *args)
            return counted

        def default_rng(plain):
            counter = self

            class Drawn:
                def __init__(self, rng):
                    self._rng = rng

                def normal(self, *args, **kwargs):
                    counter.draws += 1
                    return self._rng.normal(*args, **kwargs)

                def uniform(self, *args, **kwargs):
                    counter.draws += 1
                    return self._rng.uniform(*args, **kwargs)
            return lambda *args, **kwargs: Drawn(plain(*args, **kwargs))

        for module in (identities, weights):
            self._patch(module, "axis_norms", norms)
        self._patch(identities, "_at_orders", at_orders)
        self._patch(identities, "_bump_fields", bump_fields)
        self._patch(identities, "_dot", dot)
        self._patch(np.random, "default_rng", default_rng)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        return False


def work_counts(check, config) -> dict:
    """Nodes and per-pass counts of one check, and the spot-check draws of
    its first and second run from an empty draw cache, as in a fresh
    process."""
    identities._spot_draws.cache_clear()
    with _Counter() as first:
        rep = check(*config)
    with _Counter() as second:
        check(*config)
    return {"order": rep.order, "nodes": rep.nodes, "passes": first.passes,
            "norm_passes_per_pass": first.norms / first.passes,
            "grad_power_passes_per_pass": first.grad / first.passes,
            "spot_draws": [first.draws, second.draws]}


def median_us(check, config, repeats: int) -> float:
    """Median microseconds of one check over repeats runs."""
    check(*config)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        check(*config)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def warm_memory(check, config) -> dict:
    """The traced peak, in KiB, of a check's second run and the minor page
    faults of its third."""
    check(*config)
    tracemalloc.start()
    try:
        check(*config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    check(*config)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return {"traced_peak_kb": round(peak / 1024, 1), "minor_faults": faults}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200,
                        help="timed runs per check (default 200)")
    parser.add_argument("--check", help='measure one check only, such as "Ep n=3"')
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    names = [f"{kind} n={n}" for kind in KINDS for n in (2, 3)]
    if args.check is not None and args.check not in names:
        parser.error(f"--check must be one of {', '.join(names)}")
    out = {}
    for kind, (check, sample) in KINDS.items():
        for n, (index, config) in sorted(first_configs(sample).items()):
            name = f"{kind} n={n}"
            if args.check not in (None, name):
                continue
            # memory first, right after the check's first runs as in a fresh
            # process: the counted runs below free more arrays
            memory = warm_memory(check, config)
            counts = work_counts(check, config)
            out[name] = {"index": index, **counts,
                         "median_us": round(median_us(check, config, args.repeats), 1),
                         **memory}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
