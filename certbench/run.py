"""Certification benchmark for anisohardy: one closed-loop client, four workloads.

    python3 certbench/run.py --workload {oracle,sweep_p2,sweep_p,identity}
        --seed N --seconds S --trace {0,1}

An op is one certification attempt; a cert is an op whose value met its gate
against the benchmark's own reference constants (reference.py).  Each op
starts when the previous one ends, in this one process; the library's sweep
thread pool keeps its default size.

--trace 0 runs the workload's certification set (a fixed number of whole
schedule blocks that every run completes), then keeps issuing whole blocks
until S seconds have passed, and reports the end-to-end metrics; cert_frac
and the outcome digest come from the certification set.  --trace 1 runs the
certification set once plain and once with the tracer installed, and
reports per-layer metrics from the traced pass.  Both modes first time
SETUP_REPEATS cold starts in fresh interpreters.  Reported times are
rescaled to a reference machine speed (see SpeedGauge).

The last stdout line is the result object; the line before it is a run
manifest (environment, raw wall times, op counts, outcome classes and a
digest of the certification set's per-op outcomes, which two runs of the
same code and seed must reproduce exactly).  Exit code 2 means the sources
to benchmark were not found next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".certbench_out")

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

SPEED_LOOP = 20_000      # iterations of the speed loop
SPEED_REPS = 5           # the loop time is the median of this many repetitions
SPEED_EVERY_S = 0.5      # time the loop again before an op after this long
SPEED_REF_S = 1.5e-3     # loop time on the reference machine (2-vCPU VM, CPython 3.11)
RSS_EVERY_S = 0.02


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle", "sweep_p2", "sweep_p", "identity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_library():
    """Import anisohardy from SRC, refusing any other copy on the path."""
    if not os.path.isfile(os.path.join(SRC, "anisohardy", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import anisohardy
    if os.path.dirname(os.path.dirname(os.path.abspath(anisohardy.__file__))) != SRC:
        return None
    return anisohardy


def _speed_loop_s() -> float:
    """Median time of SPEED_REPS runs of a fixed pure-Python loop."""
    times = []
    for _ in range(SPEED_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(SPEED_LOOP):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedGauge:
    """Rescales wall times to the speed of the reference machine.

    The benchmark runs on shared machines whose speed drifts, by up to half,
    over seconds to minutes.  A fixed pure-Python loop, timed between ops,
    follows that drift: on a 2-vCPU VM, 20 s windows of maximize and
    quotient_p2 calls moved by 19% and 29% (quartile spread over median)
    while their ratio to the loop time moved by 1.5% and 3%.  A reported
    time is wall time * SPEED_REF_S / (the latest loop time).  The loop is
    benchmark code, so a change to the library cannot move it; the manifest
    keeps the raw wall times and the loop times.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.factor = 1.0
        self._at = -math.inf

    def refresh(self, force: bool = False):
        if force or time.perf_counter() - self._at >= SPEED_EVERY_S:
            loop_s = _speed_loop_s()
            self.samples.append(loop_s)
            self.factor = SPEED_REF_S / loop_s
            self._at = time.perf_counter()


@dataclass(frozen=True)
class Record:
    op: object
    outcome: object
    raw_s: float       # wall time of the op
    seconds: float     # the same, rescaled to the reference speed


def _setup_probes(workload: str, seed: int, gauge: SpeedGauge) -> tuple[float, dict]:
    """Median rescaled cold-start time and stage times over SETUP_REPEATS probes."""
    probes = []
    for _ in range(SETUP_REPEATS):
        gauge.refresh(force=True)
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["total"] = doc.pop("ready") - start
        probes.append({key: value * gauge.factor for key, value in doc.items()})
    stages = {key: statistics.median(d[key] for d in probes) for key in probes[0]}
    return stages.pop("total"), stages


def _git_commit() -> str | None:
    """HEAD of ROOT's git checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _run_ops(workloads, workload, ops, gauge: SpeedGauge) -> list[Record]:
    """Execute ops in a closed loop, timing the speed loop between them."""
    done = []
    for op in ops:
        gauge.refresh()
        before = gauge.factor
        t0 = time.perf_counter()
        outcome = workloads.execute(workload, op)
        raw = time.perf_counter() - t0
        if raw >= SPEED_EVERY_S:
            # a long op spans more drift: average the loop before and after
            gauge.refresh(force=True)
            factor = 0.5 * (before + gauge.factor)
        else:
            factor = before
        done.append(Record(op, outcome, raw, raw * factor))
    return done


class RssSampler:
    """Resident set size of this process, sampled every RSS_EVERY_S on a thread.

    The peak (ru_maxrss, kept in the manifest) is one instant: on sweep_p it
    depends on whether both pool threads hold their largest temporaries at
    once, and it fell on 341, 449 or about 500 MB from run to run.  The
    median of the samples is the memory the workload holds while it runs,
    and it moved by about 5%.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def _run(self):
        with open("/proc/self/statm", encoding="ascii") as statm:
            while not self._stop.wait(RSS_EVERY_S):
                statm.seek(0)
                self.samples.append(int(statm.read().split()[1]) * self._page_mb)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


def _digest(records) -> str:
    rows = [[r.op.index, r.outcome.cls, f"{r.outcome.value:.9g}"] for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _count(keys) -> dict:
    counts: dict[str, int] = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def _p90(values) -> float:
    """90th percentile, interpolated between order statistics.

    With the six certs of a sweep_p run this averages the two slowest
    instead of reporting the single slowest.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _gate_stats(records) -> dict:
    """Share of ops that did not certify, and the largest error/gate ratio of a cert."""
    certified = [r.outcome for r in records if r.outcome.is_cert]
    return {"fail_frac": 1.0 - len(certified) / len(records),
            "tol_use_max": max((out.tol_use for out in certified), default=0.0)}


def _manifest(args, cert_records, records, gauge, numpy_version, extra):
    env_workers = os.environ.get("ANISOHARDY_WORKERS", "").strip()
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "workers": int(env_workers) if env_workers else os.cpu_count(),
        "ops_attempted": len(records), "ops_by_label": _count(r.op.label for r in records),
        "certs": sum(r.outcome.is_cert for r in records),
        "raw_busy_s": sum(r.raw_s for r in records),
        "speed_loop_s": {"median": statistics.median(gauge.samples),
                         "min": min(gauge.samples), "max": max(gauge.samples),
                         "samples": len(gauge.samples)},
        "cert_set": dict(_gate_stats(cert_records), ops=len(cert_records),
                         outcomes=_count(r.outcome.cls for r in cert_records),
                         digest=_digest(cert_records)),
        "outcomes": _count(r.outcome.cls for r in records),
    }
    doc.update(extra)
    return doc


def _measure(args, workloads, workload, cert_ops, gauge, setup_s):
    """Untraced run: the end-to-end metrics."""
    start = time.perf_counter()
    with RssSampler() as rss:
        records = _run_ops(workloads, workload, cert_ops, gauge)
        # Whole blocks only, so every run holds the schedule's exact op mix.
        while time.perf_counter() - start < args.seconds:
            index = len(records)
            records += _run_ops(workloads, workload,
                                workload.ops(args.seed, index, index + workload.block), gauge)
    certs = [r for r in records if r.outcome.is_cert]
    latencies = [r.seconds * 1e3 for r in certs]
    busy = sum(r.seconds for r in records)
    # Without a single cert every latency limit is missed: report the
    # whole run as the latency rather than a number that looks fast.
    p50 = statistics.median(latencies) if latencies else busy * 1e3
    p90 = _p90(latencies) if latencies else busy * 1e3
    cert_records = records[:len(cert_ops)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "certs_per_s": (len(certs) / busy, "1/s"),
        "cert_p50_ms": (p50, "ms"),
        "cert_p90_ms": (p90, "ms"),
        "cert_frac": (1.0 - _gate_stats(cert_records)["fail_frac"], "frac"),
        "rss_p50_mb": (statistics.median(rss.samples) if rss.samples else
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = [r.raw_s * 1e3 for r in certs]
    extra = {"blocks": len(records) // workload.block,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             "rss_samples": len(rss.samples),
             "raw_certs_per_s": len(certs) / sum(r.raw_s for r in records),
             "raw_cert_p50_ms": statistics.median(raw) if raw else None,
             "cert_p90_ms": p90 if len(latencies) >= 100 else None}
    return records, cert_records, metrics, extra


def _trace(args, workloads, workload, cert_ops, gauge, setup_stages):
    """The certification set plain, then traced: the per-layer metrics."""
    import layertrace
    plain = _run_ops(workloads, workload, cert_ops, gauge)
    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        start = time.perf_counter()
        traced = _run_ops(workloads, workload, cert_ops, gauge)
        wall = time.perf_counter() - start
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans_{args.workload}_{args.seed}.json"))
    layer = layertrace.layer_metrics(tracer.spans, wall)
    layer.update({f"setup.{k}": v for k, v in setup_stages.items()
                  if k != "generate_inputs_s"})
    layer.update({f"gate.{k}": v for k, v in _gate_stats(traced).items()})
    layer["trace.overhead_frac"] = (sum(r.seconds for r in traced)
                                    / sum(r.seconds for r in plain) - 1.0)
    metrics = {name: (value, layertrace.unit_of(name)) for name, value in layer.items()}
    # Both passes ran the same inputs, so their outcomes must match exactly.
    extra = {"traced_wall_s": wall, "deterministic": _digest(plain) == _digest(traced)}
    return plain + traced, traced, metrics, extra


def main(argv=None) -> int:
    args = _parse(argv)
    if _import_library() is None:
        print(f"certbench: no anisohardy sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import numpy
    import workloads
    workload = workloads.WORKLOADS[args.workload]

    gauge = SpeedGauge()
    setup_s, setup_stages = _setup_probes(args.workload, args.seed, gauge)
    cert_ops = workload.ops(args.seed, 0, workload.cert_ops)
    if args.trace == 0:
        records, cert_records, metrics, extra = _measure(
            args, workloads, workload, cert_ops, gauge, setup_s)
    else:
        records, cert_records, metrics, extra = _trace(
            args, workloads, workload, cert_ops, gauge, setup_stages)

    failed = sum(workloads.failed(workload, r.outcome) for r in records)
    extra.update(setup_s=setup_s, setup_stages=setup_stages)
    print(json.dumps({"certbench_manifest": _manifest(
        args, cert_records, records, gauge, numpy.__version__, extra)}, allow_nan=False))
    print(json.dumps({
        "correct": failed == 0 and extra.get("deterministic", True),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
