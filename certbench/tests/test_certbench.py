"""Self-tests of the certification benchmark.

    python3 -m pytest certbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layertrace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _plain(value):
    """Comparable form of a payload value (dataclasses, arrays, floats)."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    w = workloads.WORKLOADS[name]
    first = w.ops(7, 0, w.block + 1)
    again = w.ops(7, 0, w.block + 1)
    assert [(o.label, _plain(o.payload)) for o in first] == \
        [(o.label, _plain(o.payload)) for o in again]
    other = w.ops(8, 0, w.block + 1)
    assert [_plain(o.payload) for o in first] != [_plain(o.payload) for o in other]
    # the schedule, not the seed, fixes each slot's label
    assert [o.label for o in first] == [o.label for o in other]


def test_reference_reproduces_criteria_1_and_2():
    assert abs(reference.hardy_p2(3, -0.5, -0.5) - (2.0 * math.sqrt(3.0) - 3.0) / 4.0) <= 1e-12
    for n in range(3, 11):
        expected = (n * n - 6.0 * n + 6.0) / 4.0 + math.sqrt(2.0 * n - 3.0) / 2.0
        assert abs(reference.hardy_p2(n, -0.5, -0.5) - expected) <= 1e-12


def test_reference_forms_agree_where_they_overlap():
    for n, a, b in ((3, -0.5, -0.5), (4, 0.3, -1.2), (5, 0.1, 0.7)):
        assert reference.hardy_p2_general_axis(n, n - 1, a, b) == pytest.approx(
            reference.hardy_p2(n, a, b), abs=1e-12)
        assert reference.hardy_general_p(n, 2.0, a) == pytest.approx(
            reference.hardy_p2(n, a, 0.0), abs=1e-12)
    assert reference.ckn(3, 2.0, 0.0, -0.5) == 1.0  # criterion 9


#: a schedule slot that certifies today, per workload (slot 0 otherwise)
_CERT_SLOT = {"sweep_p": 2}


def _tiny(monkeypatch, name):
    """Shrink a workload to one-op blocks of one certifying slot, and one probe."""
    w = workloads.WORKLOADS[name]
    slot = _CERT_SLOT.get(name, 0)
    monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(
        w, block=1, cert_blocks=1, make=lambda rng, _: w.make(rng, slot)))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", os.path.join(ROOT, ".certbench_out", "tests"))


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    manifest = json.loads(lines[-2])["certbench_manifest"]
    return manifest, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(monkeypatch, capsys, name):
    _tiny(monkeypatch, name)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.01"]
    manifest, result = _result(capsys, argv + ["--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]) and got["value"] > 0
    assert manifest["seed"] == 3 and manifest["cert_set"]["digest"]

    _, traced = _result(capsys, argv + ["--trace", "1"])
    assert traced["correct"]
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_spans_nest_inside_their_parents():
    w = workloads.WORKLOADS["sweep_p2"]
    ops = w.ops(5, 0, 2)  # one K > 1 and one K < 1 sweep, rows on pool threads
    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        for op in ops:
            workloads.execute(w, op)
    spans = {s.sid: s for s in tracer.spans}
    quotients = [s for s in spans.values() if s.name == "rayleigh.quotient_p2"]
    assert quotients
    if (os.cpu_count() or 1) > 1 and not os.environ.get("ANISOHARDY_WORKERS"):
        main = threading.main_thread().ident
        assert any(q.thread != main for q in quotients)  # rows ran on the pool
    for s in spans.values():
        assert s.start <= s.end
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (s.name, parent.name)
    for q in quotients:
        assert spans[q.parent].name == "rayleigh.sweep_and_extrapolate"
    selfs = layertrace.self_times(tracer.spans)
    assert all(v >= -1e-9 for v in selfs.values())
    # the library names are restored once the tracer is removed
    import anisohardy.rayleigh
    assert not hasattr(anisohardy.rayleigh.quotient_p2, "__wrapped__")


def test_speed_gauge_rescales_to_the_reference():
    gauge = run.SpeedGauge()
    gauge.refresh()
    assert gauge.factor == pytest.approx(run.SPEED_REF_S / gauge.samples[-1])
    gauge.refresh()  # too soon: no new sample
    assert len(gauge.samples) == 1
    gauge.refresh(force=True)
    assert len(gauge.samples) == 2
