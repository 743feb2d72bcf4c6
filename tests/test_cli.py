import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from anisohardy.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out: str) -> dict:
    return json.loads(out)


class TestConstantCommand:
    def test_paper_vector(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "3", "--p", "2",
                               "--alpha", "-0.5", "--beta", "-0.5")
        assert code == 0
        doc = parse_json(out)
        assert doc["admissible"] is True
        assert doc["constant"] == pytest.approx((2 * math.sqrt(3) - 3) / 4,
                                                abs=1e-12)
        assert doc["kind"] == "sharp"
        assert doc["K"] == pytest.approx(3.0)
        assert doc["manifest"]["command"] == "constant"

    def test_general_p_constant(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "3", "--p", "3",
                               "--alpha", "0", "--beta", "0.5")
        assert code == 0
        doc = parse_json(out)
        assert doc["constant"] == pytest.approx((2 / 3) ** 3, rel=1e-12)
        assert doc["kind"] == "sharp"

    def test_inadmissible_names_the_condition(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "2", "--p", "2",
                               "--alpha", "-0.5", "--beta", "0")
        assert code == 2
        doc = parse_json(out)
        assert doc["admissible"] is False
        assert "k + p*alpha" in doc["violated"]

    def test_ckn_mode(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--ckn", "--n", "3",
                               "--p", "2", "--gamma1", "-0.5")
        assert code == 0
        doc = parse_json(out)
        assert doc["constant"] == pytest.approx(1.0)
        assert doc["integrable"] and doc["balanced"] and doc["normalized"]


class TestOptimizeCommand:
    def test_agreement_flag(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--n", "3",
                               "--alpha", "-0.5", "--beta", "-0.5", "--quiet")
        assert code == 0
        doc = parse_json(out)
        assert doc["agrees"] is True
        assert doc["abs_diff"] <= 1e-6
        assert doc["oracle"]["active_constraint"] is True


class TestRayleighCommand:
    ARGS = ("rayleigh", "--n", "3", "--alpha", "-0.5", "--beta", "-0.5",
            "--eps-list", "1e-2,1e-3,1e-4,1e-5,1e-6")

    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        assert rows[0] == ["epsilon", "sigma", "numerator", "denominator",
                           "quotient"]
        assert len(rows) == 6  # header + five sweep rows
        assert any(ln.startswith("# extrapolated") for ln in out.splitlines())

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        doc = parse_json(out)
        assert json.loads(json.dumps(doc)) == doc
        assert len(doc["rows"]) == 5
        assert doc["extrapolated"] == pytest.approx((2 * math.sqrt(3) - 3) / 4,
                                                    rel=0.02)

    def test_determinism_modulo_timestamp(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS, "--quiet")
        _, out2, _ = run_cli(capsys, *self.ARGS, "--quiet")
        d1, d2 = parse_json(out1), parse_json(out2)
        d1["manifest"].pop("timestamp")
        d2["manifest"].pop("timestamp")
        assert d1 == d2


class TestErrorExitCodes:
    def test_not_converged_sweep_is_a_failed_check(self, capsys):
        code, out, err = run_cli(capsys, "rayleigh", "--n", "3", "--p", "1.8",
                                 "--alpha", "0", "--beta", "0.5",
                                 "--eps-list", "1e-2,1e-3",
                                 "--sigma-list", "0.1,0.025")
        # two sigmas leave the sigma intercept without a spare degree
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        doc = json.loads(err)
        assert doc["type"] == "FitUnstableError"
        assert "residual" in doc and "value" in doc

    def test_sweep_below_p2_keeps_stderr_empty(self):
        # a fresh interpreter, where numpy warnings would reach stderr
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from anisohardy.cli import main; sys.exit(main(sys.argv[1:]))",
             "rayleigh", "--n", "3", "--p", "1.8", "--alpha", "0", "--beta", "0.5"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["extrapolated"] == pytest.approx(
            (2.0 / 1.8) ** 1.8, rel=0.02)

    def test_bad_input_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "constant", "--n", "3", "--k", "7")
        assert code == 2
        assert json.loads(err)["type"] == "ValueError"


class TestVerifyCommand:
    def test_lemma1_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--which", "lemma1",
                               "--seed", "7", "--quiet")
        assert code == 0
        doc = parse_json(out)
        assert doc["passes"] == doc["count"]
        assert doc["failures"] == []

    @pytest.mark.parametrize("which,count", [
        ("E2", 3), ("Ep", 2), ("CKNp", 2), ("weights", 2), ("leray", 5),
    ])
    def test_small_batches_pass(self, capsys, which, count):
        code, out, _ = run_cli(capsys, "verify", "--which", which,
                               "--count", str(count), "--quiet")
        assert code == 0
        doc = parse_json(out)
        assert doc["count"] == count and doc["passes"] == count


class TestCknCommand:
    def test_constant_and_extremal(self, capsys):
        code, out, _ = run_cli(capsys, "ckn", "--n", "3", "--p", "2",
                               "--gamma1", "-0.5", "--quiet")
        assert code == 0
        doc = parse_json(out)
        assert doc["constant"] == pytest.approx(1.0)
        assert doc["extremal"]["quotient"] == pytest.approx(1.0, abs=1e-3)
        assert doc["extremal"]["residual_R_max"] <= 1e-12

    def test_rejects_unbalanced(self, capsys):
        code, out, _ = run_cli(capsys, "ckn", "--n", "3", "--p", "2")
        assert code == 2


class TestReportCommand:
    def test_full_report_passes_and_writes_csv(self, tmp_path, capsys):
        csv_dir = tmp_path / "curves"
        code, out, err = run_cli(capsys, "report", "--csv-dir", str(csv_dir),
                                 "--quiet")
        assert code == 0
        doc = parse_json(out)
        assert doc["all_pass"] is True
        assert len(doc["criteria"]) == 11
        assert sorted(p.name for p in csv_dir.iterdir()) == [
            "sweep_k_gt_1.csv", "sweep_k_le_1.csv"]
        header = (csv_dir / "sweep_k_gt_1.csv").read_text().splitlines()[0]
        assert header == "epsilon,sigma,numerator,denominator,quotient"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nalpha = -0.5\nbeta = -0.5\n"
                       "eps_list = 1e-2,1e-3,1e-4,1e-5\n")
        code, out, _ = run_cli(capsys, "rayleigh", "--config", str(cfg),
                               "--n", "3", "--alpha", "-0.5", "--beta", "-0.5",
                               "--quiet")
        assert code == 0
        doc = parse_json(out)
        assert len(doc["rows"]) == 4  # eps list came from the config
        code, out, _ = run_cli(capsys, "rayleigh", "--config", str(cfg),
                               "--n", "3", "--alpha", "-0.5", "--beta", "-0.5",
                               "--eps-list", "1e-2,1e-3,1e-4", "--quiet")
        doc = parse_json(out)
        assert len(doc["rows"]) == 3  # explicit flag wins
