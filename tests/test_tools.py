"""The measurement scripts under tools/ run to the end, in process."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(name, argv, capsys):
    assert _load(name).main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_identity_work(capsys):
    out = _run("identity_work", ["--repeats", "1"], capsys)
    assert sorted(out) == sorted(f"{kind} n={n}" for kind in ("E2", "Ep", "CKN") for n in (2, 3))
    for name, row in out.items():
        assert row["passes"] >= 1 and row["nodes"] > 0 and row["median_us"] > 0
        assert row["norm_passes_per_pass"] == row["grad_power_passes_per_pass"] == 1.0
        assert row["minor_faults"] >= 0
        # a warm check takes no node-sized array: at n = 3 a row is 70 to
        # 128 KiB, and fresh arrays for every temporary take 1.7 to 3.5 MiB
        assert row["traced_peak_kb"] <= 512, name


def test_identity_work_one_check(capsys):
    out = _run("identity_work", ["--repeats", "1", "--check", "CKN n=3"], capsys)
    assert list(out) == ["CKN n=3"]
    with pytest.raises(SystemExit):
        _load("identity_work").main(["--check", "CKN n=4"])


def test_oracle_work(capsys):
    out = _run("oracle_work", ["--repeats", "1"], capsys)
    assert sorted(out["rows"]) == sorted(f"p={p} n={n}" for p in ("2", "1.5", "3")
                                         for n in (2, 3, 4, 5))
    for name, row in out["rows"].items():
        n = int(name[-1])
        # three stages of central differences, one flux per side and axis;
        # at p = 2 the flux takes one partial of f, else all n of them; then
        # f at the point, and at p < 2 first a check that the gradient does
        # not vanish, which stops at the first nonzero partial
        assert row["V_evals_per_call"] == 6 * n, name
        per_flux = 1 if name.startswith("p=2 ") else n
        assert row["f_evals_per_call"] == 6 * n * per_flux + 1 + name.startswith("p=1.5"), name
        assert row["profiled_calls_per_call"] > 0 and row["median_us"] > 0
    assert out["numpy"] and out["criterion_11_s"] > 0


def test_sweep_work(capsys):
    out = _run("sweep_work", ["--repeats", "20"], capsys)
    assert sorted(out) == ["K<1", "K>1", "general_p", "general_p4"]
    assert [out[k]["compute_K_calls"] for k in ("K>1", "K<1", "general_p")] == [1, 1, 0]
    for row in out.values():
        assert row["integrand_calls"] > 0 and row["driver_us"] > 0 and row["minor_faults"] >= 0
    assert out["general_p4"]["bracket"]["keys_built"] == []
    # each call passes each distinct radial node once: every node, with those
    # that round onto r = 1 or r = 2 repeated, took [394, 198, 394, 788]
    # (1,774) and [394, 198, 394] (986)
    names = ("K>1", "K<1", "general_p")
    assert [out[k]["nodes_per_call"] for k in names] == [
        [252, 151, 300, 597], [252, 151, 300, 597], [252, 151, 300]]
    assert [out[k]["nodes"] for k in names] == [1300, 1300, 703]
    # a node within about half an ulp of r = 1 or r = 2 is that radius, once
    # per call of its panel: 478 (430 and 48) and 287 (239 and 48) before
    assert [out[k]["panel_end_nodes"] for k in names] == [
        {"0.0": 0, "1.0": 4, "2.0": 1}, {"0.0": 0, "1.0": 4, "2.0": 1},
        {"0.0": 0, "1.0": 3, "2.0": 1}]
    # the rows of the members that own a live pair, after the first call:
    # every member at every call took 17,740, 70,960 and 39,440
    assert [out[k]["row_nodes"] for k in names] == [7624, 30_496, 23_320]
