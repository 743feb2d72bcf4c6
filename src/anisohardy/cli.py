"""Command-line surface: constant | optimize | rayleigh | verify | ckn | report.

Every invocation emits one JSON document (or a CSV table for sweeps) carrying
a run manifest (command, parameters, seed, the tool, Python and numpy
versions, timestamp).  All numeric work is deterministic for a fixed
manifest: sums accumulate in fixed index order and every random draw comes
from a generator seeded by (seed, index).

Exit codes: 0 success / all checks passed, 1 at least one check failed,
2 invalid or inadmissible input; an error maps to 1 or 2 through _EXIT_CODES.

Every command runs serially; there is no environment configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import platform
import re
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__, report as report_mod
from .closed_form import (ckn_constant, sharp_constant_general_k_p2,
                          sharp_constant_general_p)
from .errors import (FitUnstableError, IllConditionedError,
                     InadmissibleParamsError, NegativeRemainderError,
                     NotConvergedError, OptimizerStalledError, TruncationError)
from .identities import ckn_extremal_check, verify_CKNp, verify_E2, verify_Ep
from .optimizer import maximize
from .params import (CknParams, HardyParams, _check_finite, admissible_ckn,
                     admissible_hardy, compute_K)
from .quadrature import lemma1_check
from .rayleigh import sweep_and_extrapolate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

_CSV_COLUMNS = ("epsilon", "sigma", "numerator", "denominator", "quotient")

#: Exit code of each error a command may raise: 1 when a numerical check
#: failed, 2 when the input cannot be taken (every ValueError subclass in
#: anisohardy.errors is bad input, and so is a --config file that cannot be
#: read).
_EXIT_CODES = {
    NotConvergedError: EXIT_CHECK_FAILED,
    FitUnstableError: EXIT_CHECK_FAILED,
    IllConditionedError: EXIT_CHECK_FAILED,
    OptimizerStalledError: EXIT_CHECK_FAILED,
    TruncationError: EXIT_CHECK_FAILED,
    NegativeRemainderError: EXIT_CHECK_FAILED,
    ValueError: EXIT_BAD_INPUT,
    OSError: EXIT_BAD_INPUT,
}


@dataclass(frozen=True)
class RunManifest:
    """What a run did and where: seed is the base seed of its draws; for
    report, the base seed of each seeded criterion by criterion number."""

    command: str
    params: dict
    seed: int | dict
    tool_version: str
    python_version: str
    numpy_version: str
    timestamp: str


def _manifest(command: str, params: dict, seed: int | dict) -> dict:
    return asdict(RunManifest(
        command=command,
        params={k: v for k, v in params.items() if v is not None},
        seed=seed,
        tool_version=__version__,
        python_version=platform.python_version(),
        numpy_version=np.__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    ))


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(doc: dict, quiet: bool = False):
    """Print doc as strict JSON; a non-finite float raises ValueError."""
    text = json.dumps(doc, indent=None if quiet else 2, sort_keys=True,
                      default=_json_default, allow_nan=False)
    print(text)


def _fail(exc: Exception) -> int:
    """Print exc as one JSON document on stderr, with the numbers it carries
    (null when not finite); return its exit code."""
    code = next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
    doc = {"error": str(exc), "type": type(exc).__name__}
    for key in ("value", "residual", "err_estimate", "disagreement"):
        if hasattr(exc, key):
            val = float(getattr(exc, key))
            doc[key] = val if math.isfinite(val) else None
    print(json.dumps(doc, sort_keys=True, allow_nan=False), file=sys.stderr)
    return code


def _parse_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _load_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _merge_config(args: argparse.Namespace, keys: dict):
    """Fill argparse Namespace fields that are None from the config file."""
    if not getattr(args, "config", None):
        return
    cfg = _load_config(args.config)
    for key, cast in keys.items():
        if getattr(args, key, None) is None and key in cfg:
            setattr(args, key, cast(cfg[key]))


def _hardy_from_args(args) -> HardyParams:
    k = int(args.k) if args.k is not None else None
    return HardyParams(int(args.n), float(args.p), float(args.alpha),
                       float(args.beta), k)


def _named_admissibility_failure(params: HardyParams) -> str:
    conditions = []
    if not params.k + params.p * params.alpha > 0:
        conditions.append(
            f"k + p*alpha > 0 fails (k + p*alpha = {params.k + params.p * params.alpha})")
    if not params.p * (params.alpha + params.beta) > -params.n:
        conditions.append(
            f"p*(alpha+beta) > -n fails (p*(alpha+beta) = {params.p * (params.alpha + params.beta)})")
    return "; ".join(conditions) or "admissible"


# ------------------------------------------------------------- commands

def cmd_constant(args) -> int:
    if args.ckn:
        return _cmd_constant_ckn(args)
    # the CKN flags are unused here, but a non-finite one is still refused
    _check_finite(mu=args.mu, gamma1=args.gamma1, gamma2=args.gamma2, gamma3=args.gamma3)
    params = _hardy_from_args(args)
    manifest = _manifest("constant", asdict(params), args.seed or 0)
    if not admissible_hardy(params):
        _emit({"admissible": False,
               "violated": _named_admissibility_failure(params),
               "manifest": manifest}, args.quiet)
        return EXIT_BAD_INPUT
    regime = compute_K(params)
    if params.p == 2:
        result = sharp_constant_general_k_p2(params)
    else:
        result = sharp_constant_general_p(params)
    _emit({"admissible": True, "K": regime.k_value,
           "regime": regime.family.value, "constant": result.value,
           "kind": result.kind.value, "branch": result.branch.value,
           "manifest": manifest}, args.quiet)
    return EXIT_OK


def _ckn_from_args(args) -> CknParams:
    return CknParams(int(args.n), float(args.p), float(args.alpha),
                     float(args.beta), float(args.mu), float(args.gamma1),
                     float(args.gamma2), float(args.gamma3))


def _cmd_constant_ckn(args) -> int:
    ckn = _ckn_from_args(args)
    manifest = _manifest("constant", {"ckn": True, **asdict(ckn)}, args.seed or 0)
    flags = admissible_ckn(ckn)
    doc = {"integrable": flags.integrable, "balanced": flags.balanced,
           "normalized": flags.normalized, "manifest": manifest}
    if not flags.all_ok:
        _emit(doc, args.quiet)
        return EXIT_BAD_INPUT
    result = ckn_constant(ckn)
    doc.update({"constant": result.value, "kind": result.kind.value,
                "branch": result.branch.value})
    _emit(doc, args.quiet)
    return EXIT_OK


def cmd_optimize(args) -> int:
    params = _hardy_from_args(args)
    if not admissible_hardy(params):
        raise InadmissibleParamsError(_named_admissibility_failure(params))
    if params.p != 2:
        raise ValueError("the optimizer oracle requires p = 2")
    rep = maximize(params)
    closed = sharp_constant_general_k_p2(params)
    doc = {
        "oracle": {
            "value": rep.value,
            "theta": rep.argmax.theta,
            "lambda": rep.argmax.lam,
            "active_constraint": rep.active_constraint,
            "branch_guess": rep.branch_guess.value,
            "diagnostics": asdict(rep.diagnostics),
        },
        "closed_form": {"value": closed.value, "kind": closed.kind.value,
                        "branch": closed.branch.value},
        "abs_diff": abs(rep.value - closed.value),
        "agrees": abs(rep.value - closed.value) <= 1e-6 * (1.0 + abs(closed.value)),
        "manifest": _manifest("optimize", asdict(params), args.seed or 0),
    }
    _emit(doc, args.quiet)
    return EXIT_OK


def _sweep_rows_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        writer.writerow([repr(getattr(row, c)) for c in _CSV_COLUMNS])
    return buf.getvalue()


def cmd_rayleigh(args) -> int:
    _merge_config(args, {"n": int, "p": float, "alpha": float, "beta": float,
                         "eps_list": str, "sigma_list": str})
    params = _hardy_from_args(args)
    if not admissible_hardy(params):
        raise InadmissibleParamsError(_named_admissibility_failure(params))
    eps = _parse_list(args.eps_list) if args.eps_list else None
    sigma = _parse_list(args.sigma_list) if args.sigma_list else None
    res = sweep_and_extrapolate(params, eps_list=eps, sigma_list=sigma)
    manifest = _manifest("rayleigh", {**asdict(params), "eps_list": eps,
                                      "sigma_list": sigma}, args.seed or 0)
    if args.format == "csv":
        sys.stdout.write(_sweep_rows_csv(res.rows))
        print(f"# extrapolated {res.extrapolated!r} model {res.fit.model.value!r} "
              f"residual {res.fit.residual!r}")
        return EXIT_OK
    _emit({"rows": [asdict(r) for r in res.rows],
           "extrapolated": res.extrapolated,
           "fit": {"model": res.fit.model.value, "residual": res.fit.residual},
           "manifest": manifest}, args.quiet)
    return EXIT_OK


_VERIFY_CHOICES = ("E2", "Ep", "CKNp", "weights", "leray", "lemma1")


def _identity_row(rep) -> dict:
    return {"residual_rel": rep.residual_rel, "err_estimate": rep.err_estimate,
            "nodes": rep.nodes}


def _verify_e2(seed: int, count: int):
    results = []
    for i in range(count):
        spec, bump = report_mod.sample_e2_config(seed, i)
        rep = verify_E2(spec, bump)
        results.append({"index": i, **_identity_row(rep),
                        "pass": rep.residual_rel <= 1e-6})
    return results


def _verify_ep(seed: int, count: int):
    cycle = (1.5, 2.0, 3.0, 4.0)
    results = []
    for i in range(count):
        spec, bump = report_mod.sample_ep_config(seed, i, cycle[i % 4])
        rep = verify_Ep(spec, bump)
        results.append({"index": i, "p": cycle[i % 4], **_identity_row(rep),
                        "pass": rep.residual_rel <= 1e-5})
    return results


def _verify_cknp(seed: int, count: int):
    results = []
    for i in range(count):
        ckn, bump = report_mod.sample_ckn_config(seed, i)
        rep = verify_CKNp(ckn, bump)
        results.append({"index": i, **_identity_row(rep),
                        "pass": rep.residual_rel <= 1e-5})
    return results


def _verify_weights(seed: int, count: int):
    return [{"index": i, "worst_rel": worst, "pass": worst <= 1e-6}
            for i, worst in enumerate(report_mod.weight_errors(np.random.default_rng(seed),
                                                               count))]


def _verify_leray(seed: int, count: int):
    return [{"index": i, "rel_err": rel, "pass": rel <= 1e-6}
            for i, rel in enumerate(report_mod.leray_errors(np.random.default_rng(seed),
                                                            count))]


def _verify_lemma1(seed: int, count: int):
    eps = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    results = []
    for i, xi in enumerate(report_mod.LEMMA1_POSITIVE):
        rep = lemma1_check(xi, eps)
        results.append({"index": i, "a": xi.a, "b": xi.b, "control": "positive",
                        "slope": rep.slope_vs_log_eps, "max_abs": rep.max_abs,
                        "pass": abs(rep.slope_vs_log_eps) <= 1e-2})
    rep = lemma1_check(report_mod.LEMMA1_NEGATIVE, eps)
    results.append({"index": len(results), "a": report_mod.LEMMA1_NEGATIVE.a,
                    "b": report_mod.LEMMA1_NEGATIVE.b, "control": "negative",
                    "slope": rep.slope_vs_log_eps, "max_abs": rep.max_abs,
                    "pass": abs(rep.slope_vs_log_eps) >= 0.1})
    return results


_VERIFY_RUNNERS = {
    "E2": (_verify_e2, 20),
    "Ep": (_verify_ep, 20),
    "CKNp": (_verify_cknp, 10),
    "weights": (_verify_weights, 20),
    "leray": (_verify_leray, 50),
    "lemma1": (_verify_lemma1, 3),
}


def cmd_verify(args) -> int:
    _merge_config(args, {"which": str, "count": int, "seed": int})
    which = args.which
    if which not in _VERIFY_CHOICES:
        raise ValueError(f"--which must be one of {_VERIFY_CHOICES}")
    runner, default_count = _VERIFY_RUNNERS[which]
    count = int(args.count) if args.count is not None else default_count
    seed = args.seed or 0
    results = runner(seed, count)
    failures = [r for r in results if not r["pass"]]
    _emit({"which": which, "count": len(results),
           "passes": len(results) - len(failures),
           "failures": failures, "reports": results,
           "manifest": _manifest("verify", {"which": which, "count": count}, seed)},
          args.quiet)
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def cmd_ckn(args) -> int:
    ckn = _ckn_from_args(args)
    flags = admissible_ckn(ckn)
    doc = {"integrable": flags.integrable, "balanced": flags.balanced,
           "normalized": flags.normalized,
           "manifest": _manifest("ckn", asdict(ckn), args.seed or 0)}
    if not flags.all_ok:
        _emit(doc, args.quiet)
        return EXIT_BAD_INPUT
    result = ckn_constant(ckn)
    doc.update({"constant": result.value, "kind": result.kind.value})
    if ckn.symmetric and ckn.gamma3 - ckn.gamma2 + 1.0 > 0.0:
        rep = ckn_extremal_check(ckn)
        doc["extremal"] = {"quotient": rep.quotient, "constant": rep.constant,
                           "residual_R_max": rep.residual_R_max}
    _emit(doc, args.quiet)
    return EXIT_OK


def cmd_report(args) -> int:
    results = report_mod.run_all()
    doc = {"criteria": [{"id": r.cid, "description": r.description,
                         "pass": r.passed, "details": r.details}
                        for r in results],
           "all_pass": all(r.passed for r in results),
           "manifest": _manifest("report", {}, dict(report_mod.CRITERION_SEEDS))}
    if args.csv_dir:
        import os
        os.makedirs(args.csv_dir, exist_ok=True)
        for name, params in (("sweep_k_gt_1", HardyParams(3, 2.0, -0.5, -0.5)),
                             ("sweep_k_le_1", HardyParams(3, 2.0, 0.0, -0.05))):
            res = sweep_and_extrapolate(params)
            with open(os.path.join(args.csv_dir, f"{name}.csv"), "w",
                      encoding="utf-8") as handle:
                handle.write(_sweep_rows_csv(res.rows))
    if not args.quiet:
        for r in results:
            print(f"[{r.cid:2d}] {'PASS' if r.passed else 'FAIL'} {r.description}",
                  file=sys.stderr)
    _emit(doc, args.quiet)
    return EXIT_OK if doc["all_pass"] else EXIT_CHECK_FAILED


# ------------------------------------------------------------- parser

def _add_hardy_flags(sub, need_defaults=True):
    sub.add_argument("--n", type=int, required=need_defaults)
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--alpha", type=float, default=0.0)
    sub.add_argument("--beta", type=float, default=0.0)
    sub.add_argument("--k", type=int, default=None)


def _add_ckn_flags(sub):
    sub.add_argument("--mu", type=float, default=0.0)
    sub.add_argument("--gamma1", type=float, default=0.0)
    sub.add_argument("--gamma2", type=float, default=0.0)
    sub.add_argument("--gamma3", type=float, default=0.0)


#: A negative number, exponent notation included: argparse's own pattern
#: takes only -<digits> and -<digits>.<digits>, so it reads "--alpha -1e-05"
#: as a missing value followed by an option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError (exit 2 via _fail)
    instead of printing usage text and exiting, and which reads any negative
    number as a value (-inf stays an unknown option, and exits 2)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anisohardy",
        description="Sharp constants of anisotropic Hardy/CKN inequalities, "
                    "with optimizer, Rayleigh-sweep and identity certification.")
    parser.add_argument("--version", action="version", version=__version__)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", type=str, default=None,
                        help="flat key=value file; flags override file values")
    common.add_argument("--quiet", action="store_true")

    subs = parser.add_subparsers(dest="command", required=True)

    p_const = subs.add_parser("constant", parents=[common],
                              help="closed-form constant for an instance")
    _add_hardy_flags(p_const)
    p_const.add_argument("--ckn", action="store_true",
                         help="interpret flags as the six CKN exponents")
    _add_ckn_flags(p_const)
    p_const.set_defaults(func=cmd_constant)

    p_opt = subs.add_parser("optimize", parents=[common],
                            help="constrained-optimizer oracle vs closed form")
    _add_hardy_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_ray = subs.add_parser("rayleigh", parents=[common],
                            help="sharpness sweep with extrapolation")
    _add_hardy_flags(p_ray)
    p_ray.add_argument("--eps-list", type=str, default=None,
                       help="comma-separated decreasing epsilons")
    p_ray.add_argument("--sigma-list", type=str, default=None)
    p_ray.set_defaults(func=cmd_rayleigh)

    p_ver = subs.add_parser("verify", parents=[common],
                            help="identity/oracle verification batches")
    p_ver.add_argument("--which", choices=_VERIFY_CHOICES, required=True)
    p_ver.add_argument("--count", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_ckn = subs.add_parser("ckn", parents=[common],
                            help="CKN admissibility, constant and extremal check")
    p_ckn.add_argument("--n", type=int, required=True)
    p_ckn.add_argument("--p", type=float, default=2.0)
    p_ckn.add_argument("--alpha", type=float, default=0.0)
    p_ckn.add_argument("--beta", type=float, default=0.0)
    _add_ckn_flags(p_ckn)
    p_ckn.set_defaults(func=cmd_ckn)

    p_rep = subs.add_parser("report", parents=[common],
                            help="run every acceptance criterion")
    p_rep.add_argument("--csv-dir", type=str, default=None,
                       help="directory for plot-ready sweep CSV tables")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one command; every error, a usage error too, ends as _fail's document.

    Floating-point warnings are silenced: the numbers themselves carry
    overflow and invalid results, and stderr holds at most the one error
    document.
    """
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
