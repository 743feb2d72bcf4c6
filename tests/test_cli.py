import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisohardy.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out: str) -> dict:
    return json.loads(out)


def strict_json(text: str) -> dict:
    """Parse text, failing on NaN or Infinity."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"non-strict {name}"))


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

    @pytest.mark.parametrize("flags", [
        ["--gamma1", "-0.5"],                                   # sharp: with the extremal
        ["--alpha", "0.1", "--mu", "0.2", "--gamma1", "-0.5"],  # lower bound
        ["--alpha", "0.1"],                                     # not balanced: exit 2
    ])
    def test_ckn_mode_prints_the_ckn_document(self, capsys, flags):
        argv = ["--n", "3", "--p", "2", *flags, "--quiet"]
        code, out, _ = run_cli(capsys, "constant", "--ckn", *argv)
        ckn_code, ckn_out, _ = run_cli(capsys, "ckn", *argv)
        doc, ckn_doc = parse_json(out), parse_json(ckn_out)
        manifest, ckn_manifest = doc.pop("manifest"), ckn_doc.pop("manifest")
        assert (code, doc) == (ckn_code, ckn_doc)
        assert (manifest["command"], ckn_manifest["command"]) == ("constant", "ckn")
        assert manifest["params"] == {"ckn": True, **ckn_manifest["params"]}
        if code == 0:
            assert doc["branch"] == "ckn"
            assert ("extremal" in doc) == (doc["kind"] == "sharp")


class TestOptimizeCommand:
    def test_agreement_flag(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--n", "3",
                               "--alpha", "-0.5", "--beta", "-0.5", "--quiet")
        assert code == 0
        doc = parse_json(out)
        assert doc["agrees"] is True
        assert doc["abs_diff"] <= 1e-6
        assert doc["oracle"]["active_constraint"] is True


    @pytest.mark.parametrize("argv", [
        ["--n", "3", "--beta", "3e5"],
        ["--n", "5", "--k", "2", "--beta", "4e5"],
    ])
    def test_large_beta_returns(self, argv):
        # the golden-section bracket stalls at one ulp near lambda = -6e5,
        # wider than its 1e-10 tolerance; a fresh interpreter with a timeout
        # turns a hang into a failure
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from anisohardy.cli import main; sys.exit(main(sys.argv[1:]))",
             "optimize", *argv, "--quiet"],
            capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 0
        doc = strict_json(proc.stdout)
        assert doc["closed_form"]["value"] == 1.0
        assert doc["oracle"]["value"] == pytest.approx(1.0, abs=1e-6)


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
        assert all(0.0 < row["err_estimate"] < 1e-9 for row in doc["rows"])
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

    @pytest.mark.parametrize("argv", [
        ["--alpha", "-0.5", "--beta", "-0.5", "--eps-list", "1e-3"],
        ["--p", "3", "--beta", "0.5", "--sigma-list", "0.1"],
        ["--beta", "-0.05", "--sigma-list", "0.2"],
    ])
    def test_one_point_schedule_is_exit_2(self, argv):
        # a fresh interpreter, where a numpy warning of a one-point fit would
        # reach stderr
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from anisohardy.cli import main; sys.exit(main(sys.argv[1:]))",
             "rayleigh", "--n", "3", *argv],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert len(proc.stderr.splitlines()) == 1
        doc = strict_json(proc.stderr)
        assert doc["type"] == "ValueError" and "at least two entries" in doc["error"]

    def test_flux_divergence_mismatch_is_a_failed_check(self, capsys, monkeypatch):
        import anisohardy.identities as identities
        exact = identities._ckn_flux_divergence_fd
        monkeypatch.setattr(identities, "_ckn_flux_divergence_fd",
                            lambda ckn, x, h: 1.01 * exact(ckn, x, h))
        code, out, err = run_cli(capsys, "verify", "--which", "CKNp", "--count", "1")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        doc = strict_json(err)
        assert doc["type"] == "IllConditionedError"
        assert math.isfinite(doc["value"])
        assert doc["disagreement"] == pytest.approx(0.01, rel=0.1)

    def test_bad_input_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "constant", "--n", "3", "--k", "7")
        assert code == 2
        assert json.loads(err)["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ("constant", "--n", "3", "--p", "2", "--alpha", "inf", "--beta", "0"),
        ("constant", "--n", "3", "--p", "3", "--alpha", "0", "--beta", "inf"),
        ("constant", "--n", "3", "--p", "inf"),
        ("constant", "--n", "3", "--alpha", "nan"),
        ("optimize", "--n", "3", "--beta=-inf"),
        ("ckn", "--n", "3", "--p", "2", "--gamma1", "inf"),
        ("constant", "--ckn", "--n", "3", "--p", "2", "--mu=nan"),
    ])
    def test_non_finite_parameter_is_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        doc = strict_json(err)
        assert doc["type"] == "ValueError" and "finite" in doc["error"]

    @pytest.mark.parametrize("sigmas", ["0.1,0.1", "0.1,0,0.05", "0.1,-0.05"])
    def test_bad_sigma_list_is_exit_2(self, capsys, sigmas):
        code, out, err = run_cli(capsys, "rayleigh", "--n", "3", "--p", "2",
                                 "--alpha", "0", "--beta", "0.5",
                                 "--eps-list", "1e-2,1e-3", "--sigma-list", sigmas)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert strict_json(err)["type"] == "ValueError"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("constant", "--n", "x", "--p", "2"),
        ("constant", "--n", "3", "--p", "2", "--mu", "-inf", "--ckn"),
        ("rayleigh", "--p", "2"),
        ("constant", "--n", "3", "--bogus", "1"),
        ("verify", "--which", "nope"),
        (),
    ])
    def test_usage_error_is_one_json_document(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and "usage:" not in err
        assert strict_json(err)["type"] == "ValueError"

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["constant", "--help"])
        assert ei.value.code == 0
        assert capsys.readouterr().out.startswith("usage: anisohardy constant")

    def test_unreadable_config_is_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "rayleigh", "--n", "3",
                                 "--config", str(tmp_path / "absent.cfg"))
        assert code == 2
        assert out == ""
        assert strict_json(err)["type"] == "FileNotFoundError"

    def test_overflowing_sweep_leaves_only_the_error_document(self):
        # r^(nu - 1) with nu - 1 = -0.985 overflows at the subnormal radial
        # nodes in a fresh interpreter, where a numpy RuntimeWarning would
        # otherwise precede the document
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from anisohardy.cli import main; sys.exit(main(sys.argv[1:]))",
             "rayleigh", "--n", "2", "--p", "2", "--alpha", "0.6061986706952709",
             "--beta", "-1.5988105841255105"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert strict_json(proc.stderr)["type"] == "NotConvergedError"


def _float_flags():
    """(command, flag) for every float-typed flag of every command."""
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, flag) for name, sub in subs.choices.items()
            for action in sub._actions if action.type is float
            for flag in action.option_strings]


#: The least each command needs besides the flag under test; constant reads
#: its CKN flags only with --ckn, which reads all of its float flags.
_BASE_ARGV = {"constant": ["--n", "3", "--ckn"], "optimize": ["--n", "3"],
              "rayleigh": ["--n", "3"], "ckn": ["--n", "3"]}


class TestNegativeFloatFlags:
    def test_every_command_has_float_flags(self):
        assert {cmd for cmd, _ in _float_flags()} == set(_BASE_ARGV)

    @pytest.mark.parametrize("cmd,flag", _float_flags())
    @pytest.mark.parametrize("value", ["-1e-05", "-2.5E+3", "-.5e-3", "-1e5", "-0.25"])
    def test_separate_negative_value_parses_like_attached(self, cmd, flag, value):
        parse = build_parser().parse_args
        separate = vars(parse([cmd, *_BASE_ARGV[cmd], flag, value]))
        attached = vars(parse([cmd, *_BASE_ARGV[cmd], f"{flag}={value}"]))
        assert separate == attached
        assert separate[flag.lstrip("-").replace("-", "_")] == float(value)

    @pytest.mark.parametrize("cmd,flag", _float_flags())
    @pytest.mark.parametrize("value", ["-inf", "nan"])
    def test_non_finite_value_is_exit_2(self, capsys, cmd, flag, value):
        code, out, err = run_cli(capsys, cmd, *_BASE_ARGV[cmd], flag, value)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert strict_json(err)["type"] == "ValueError"

    @pytest.mark.parametrize("flag", ["--mu", "--gamma1", "--gamma2", "--gamma3"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_unused_ckn_flag_non_finite_is_exit_2(self, capsys, flag, value):
        # without --ckn, constant does not use its CKN flags but still checks them
        code, out, err = run_cli(capsys, "constant", "--n", "3", flag, value)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert strict_json(err)["type"] == "ValueError"

    def test_constant_with_exponent_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--n", "3", "--beta", "0",
                               "--alpha", "-1e-05")
        assert code == 0
        assert parse_json(out)["manifest"]["params"]["alpha"] == -1e-05


_NUMBERS = (
    st.one_of(st.sampled_from(["0", "-0.5", "0.3", "-0.25"]), st.floats(-1.0, 1.0).map(repr)),
    st.sampled_from(["1e308", "-1e-300", "inf", "-inf", "nan", "x", "", "1,2", "--"]))
_INTS = (st.sampled_from(["2", "3", "4"]),
         st.sampled_from(["0", "1", "-3", "1.5", "x", "", "inf", "-inf"]))


def _argv(command, flags, required="n"):
    """command and its flags, each as --flag value, --flag=value or absent.

    flags maps each flag to (well-formed values, malformed values).  Half of
    the vectors draw from the well-formed values only and always carry the
    required flag; the rest may mix in malformed values and drop any flag.
    """
    def vector(malformed):
        def flag(name, good, bad):
            values = st.one_of(good, bad) if malformed else good
            forms = [values.map(lambda v: [f"--{name}", v]),
                     values.map(lambda v: [f"--{name}={v}"])]
            if malformed or name != required:
                forms.append(st.just([]))
            return st.one_of(*forms)
        return st.tuples(*(flag(name, *vals) for name, vals in flags.items())).map(
            lambda parts: [command] + [a for part in parts for a in part])
    return st.one_of(vector(False), vector(True))


_CONSTANT_ARGV = st.tuples(
    _argv("constant", {"n": _INTS, "p": (st.sampled_from(["2", "3", "1.5"]), _NUMBERS[1]),
                       "alpha": _NUMBERS, "beta": _NUMBERS,
                       "k": (st.sampled_from(["1", "2"]), _INTS[1]),
                       "mu": _NUMBERS, "gamma1": _NUMBERS}),
    st.sampled_from([[], ["--ckn"], ["--quiet"]])).map(lambda t: t[0] + t[1])

# p = 2 or malformed: general-p sweeps cost up to seconds each
_RAYLEIGH_ARGV = _argv("rayleigh", {
    "n": _INTS, "p": (st.just("2"), st.sampled_from(["-2", "inf", "nan", "x"])),
    "alpha": _NUMBERS, "beta": _NUMBERS,
    "eps-list": (st.just("1e-2,1e-3"), st.sampled_from(["1e-3,1e-2", "x", "1e-2,-inf", ""])),
    "sigma-list": (st.just("0.1,0.05"), st.sampled_from(["0.1", "nan,0.1", "x", "0.1,0.1"]))})

_OPTIMIZE_ARGV = _argv("optimize", {
    "n": _INTS, "p": (st.sampled_from(["2", "3"]), _NUMBERS[1]),
    "alpha": _NUMBERS, "beta": _NUMBERS, "k": (st.sampled_from(["1", "2", "3"]), _INTS[1])})


@st.composite
def _normalized_ckn(draw):
    """ckn vectors with alpha = beta = mu and gamma1 on the normalized relation,
    which reach the constant and the extremal check unless not integrable."""
    p = draw(st.sampled_from([1.5, 2.0, 3.0, 4.0]))
    a, g2, g3 = (draw(st.floats(-0.3, 0.3)) for _ in range(3))
    values = {"alpha": a, "beta": a, "mu": a, "gamma1": (g3 * (p - 1.0) + g2 - 1.0) / p,
              "gamma2": g2, "gamma3": g3}
    return ["ckn", "--n", draw(_INTS[0]), f"--p={p!r}"] + [
        f"--{name}={v!r}" for name, v in values.items()]


_CKN_ARGV = _argv("ckn", {
    "n": _INTS, "p": (st.sampled_from(["2", "3", "1.5"]), _NUMBERS[1]),
    "alpha": _NUMBERS, "beta": _NUMBERS, "mu": _NUMBERS,
    "gamma1": _NUMBERS, "gamma2": _NUMBERS, "gamma3": _NUMBERS})

# --count is always given, as 0 to 2 or malformed: the default batches take
# up to a second each
_VERIFY_ARGV = st.tuples(
    _argv("verify", {
        "which": (st.sampled_from(["E2", "Ep", "CKNp", "weights", "leray", "lemma1"]),
                  st.sampled_from(["", "x", "e2", "--"])),
        "seed": (st.sampled_from(["0", "7", "303"]), st.sampled_from(["-1", "x", "1.5", ""]))},
        required="which"),
    st.sampled_from(["0", "1", "2", "-1", "x", ""])).map(lambda t: t[0] + ["--count", t[1]])


class TestCliProperties:
    """Any argument vector ends in exit 0, 1 or 2 with strict JSON or nothing
    on each stream, and never in a traceback."""

    @staticmethod
    def _check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:       # argparse's own exit, not a return
                raise AssertionError(f"SystemExit({exc.code})") from None
        assert code in (0, 1, 2)
        for text in (out.getvalue(), err.getvalue()):
            assert "Traceback" not in text
            if text:
                strict_json(text)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_CONSTANT_ARGV)
    def test_constant(self, argv):
        self._check(argv)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_RAYLEIGH_ARGV)
    def test_rayleigh(self, argv):
        self._check(argv)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_OPTIMIZE_ARGV)
    def test_optimize(self, argv):
        self._check(argv)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_CKN_ARGV)
    def test_ckn(self, argv):
        self._check(argv)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(_normalized_ckn())
    def test_ckn_normalized(self, argv):
        self._check(argv)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_VERIFY_ARGV)
    def test_verify(self, argv):
        self._check(argv)


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
        if which in ("E2", "Ep", "CKNp"):
            assert all(r["nodes"] > 0 and 0.0 <= r["err_estimate"] < 1e-4
                       for r in doc["reports"])


class TestVerifyCount:
    @pytest.mark.parametrize("which,count", [
        ("E2", "-3"), ("E2", "0"), ("leray", "0"), ("lemma1", "0"),
        ("lemma1", "1"), ("lemma1", "4"),
    ])
    def test_count_out_of_range_is_exit_2(self, capsys, which, count):
        code, out, err = run_cli(capsys, "verify", "--which", which, "--count", count)
        assert (code, out) == (2, "")
        doc = strict_json(err)
        assert doc["type"] == "ValueError" and "--count" in doc["error"]

    def test_count_from_config_is_checked_too(self, capsys, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("count = 0\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--which", "E2", "--config", str(cfg))
        assert (code, out) == (2, "")

    def test_lemma1_takes_its_own_count(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--which", "lemma1", "--count", "3",
                               "--quiet")
        doc = parse_json(out)
        assert code == 0
        assert doc["count"] == doc["manifest"]["params"]["count"] == len(doc["reports"]) == 3


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
        manifest = doc["manifest"]
        assert manifest["seed"] == {"3": 101, "4": 202, "8": 303, "10": 404, "11": 505}
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
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

    def test_config_values_reach_the_sweep(self, tmp_path, capsys):
        # n, p, alpha and beta come from the file as they do from typed flags
        cfg = tmp_path / "p3.cfg"
        cfg.write_text("n = 3\np = 3\nalpha = 0.2\nbeta = 0.5\neps_list = 1e-3,1e-4\n")
        code, out, err = run_cli(capsys, "rayleigh", "--config", str(cfg), "--quiet")
        typed = run_cli(capsys, "rayleigh", "--n", "3", "--p", "3", "--alpha", "0.2",
                        "--beta", "0.5", "--eps-list", "1e-3,1e-4", "--quiet")
        docs = [parse_json(text) for text in (out, typed[1])]
        for doc in docs:
            doc["manifest"].pop("timestamp")
        assert (code, err) == (typed[0], typed[2]) == (0, "")
        assert docs[0] == docs[1]
        assert docs[0]["manifest"]["params"]["p"] == 3.0

    def test_constant_reads_the_file_and_a_typed_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\nalpha = 0.2  # a comment\n")
        code, out, _ = run_cli(capsys, "constant", "--alpha", "0.1", "--config", str(cfg))
        assert code == 0
        assert parse_json(out)["manifest"]["params"] == {
            "n": 4, "p": 2.0, "alpha": 0.1, "beta": 0.0, "k": 3}

    @pytest.mark.parametrize("line", ["bogus = 1", "quiet = true", "seed = 7", "n"])
    def test_unknown_switch_or_malformed_line_is_exit_2(self, tmp_path, capsys, line):
        # seed: constant draws nothing, so it takes no --seed
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        code, out, err = run_cli(capsys, "constant", "--n", "3", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert strict_json(err)["type"] == "ValueError"

    def test_verify_reads_which_and_seed_from_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("which = leray\ncount = 2\nseed = 7\n")
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--quiet")
        assert code == 0
        manifest = parse_json(out)["manifest"]
        assert (manifest["params"], manifest["seed"]) == ({"which": "leray", "count": 2}, 7)
