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


def test_sweep_work(capsys):
    out = _run("sweep_work", [], capsys)
    assert sorted(out) == ["K<1", "K>1", "general_p", "general_p4"]
    assert [out[k]["compute_K_calls"] for k in ("K>1", "K<1", "general_p")] == [1, 1, 0]
    for row in out.values():
        assert row["integrand_calls"] > 0 and row["driver_us"] > 0
    assert out["general_p4"]["bracket"]["keys_built"] == []
