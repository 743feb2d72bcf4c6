"""Work and cost of the identity checks behind criterion 8.

For the first check of each kind (E2, Ep, CKN) at n = 2 and at n = 3 that
criterion 8's samplers draw (report.sample_*_config at its base seeds), it
prints, as JSON:

- nodes: the rule's nodes at the order the check stopped at;
- passes: the check's passes over its rule nodes (_at_orders calls);
- norm_passes_per_pass: how often a pass forms |x'| and |x| at its nodes
  (_norms and axis_norms calls, the public weights' own included);
- grad_power_passes_per_pass: how often a pass forms |grad u|^2, the
  |grad u|^p of its left-hand side and of the remainder R (_dot calls on
  the bump gradient);
- spot_draws: the generator draws of the CKN flux-divergence spot check,
  in a fresh process, on the check's first run and on a second run;
- median_us: the median wall time, in microseconds, of one check over the
  repeats, after one warm-up run.

The counts do not depend on the machine.  Wall times depend on the machine
and its load; compare them only within one run of the same machine.

Run from the repository root:

    python tools/identity_work.py [--repeats N]

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
            def counted(*args):
                self.norms += self._inside
                return plain(*args)
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
            def recorded(u, x):
                fields = plain(u, x)
                self._ugrad = fields[1]
                return fields
            return recorded

        def dot(plain):
            def counted(a, b):
                self.grad += a is self._ugrad and b is self._ugrad
                return plain(a, b)
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

        for module, name in ((identities, "axis_norms"), (weights, "axis_norms"),
                             (identities, "_norms")):
            self._patch(module, name, norms)
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
    its first and second run."""
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200,
                        help="timed runs per check (default 200)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    out = {}
    for kind, (check, sample) in KINDS.items():
        for n, (index, config) in sorted(first_configs(sample).items()):
            counts = work_counts(check, config)
            out[f"{kind} n={n}"] = {"index": index, **counts,
                                    "median_us": round(median_us(check, config,
                                                                 args.repeats), 1)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
