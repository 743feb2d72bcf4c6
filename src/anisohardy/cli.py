"""Command-line surface: constant | optimize | rayleigh | verify | ckn | report.

Every invocation emits one JSON document (or a CSV table for sweeps) carrying
a run manifest (command, parameters, seed, the tool, Python and numpy
versions, timestamp).  All numeric work is deterministic for a fixed
manifest: sums accumulate in fixed index order and every random draw comes
from a generator seeded by (seed, index).  Only verify draws from a seed it
is given, so only verify takes --seed; report records its criteria's fixed
seeds, and the commands that draw nothing record seed 0.

--config FILE, on every command, reads flat key = value lines: each becomes
--key=value ('_' read as '-') right after the command token, so the parser
types, range-checks and requires it like a typed flag, and a typed flag,
which comes later, wins.  An unknown key, or a switch such as quiet, is a
usage error.

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
from .closed_form import (Kind, ckn_constant, sharp_constant_general_k_p2,
                          sharp_constant_general_p)
from .errors import (FitUnstableError, IllConditionedError,
                     InadmissibleParamsError, NegativeRemainderError,
                     NotConvergedError, OptimizerStalledError)
from .identities import ckn_extremal_check
from .optimizer import maximize
from .params import (CknParams, HardyParams, _check_finite, admissible_ckn,
                     admissible_hardy, compute_K)
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


def _config_flags(path: str) -> list[str]:
    """--key=value for each key = value line of a config file, '_' read as '-'."""
    flags = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def _with_config(argv: list[str]) -> list[str]:
    """argv with its --config file's flags inserted after the command token,
    before every typed flag; argv itself when it names no config file."""
    finder = _Parser(prog="anisohardy", add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return argv
    i = next((i + 1 for i, tok in enumerate(argv) if not tok.startswith("-")), 0)
    return argv[:i] + _config_flags(path) + argv[i:]


def _hardy_from_args(args) -> HardyParams:
    return HardyParams(args.n, args.p, args.alpha, args.beta, args.k)


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
        return cmd_ckn(args)
    # the CKN flags are unused here, but a non-finite one is still refused
    _check_finite(mu=args.mu, gamma1=args.gamma1, gamma2=args.gamma2, gamma3=args.gamma3)
    params = _hardy_from_args(args)
    manifest = _manifest("constant", asdict(params), 0)
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
    return CknParams(args.n, args.p, args.alpha, args.beta, args.mu,
                     args.gamma1, args.gamma2, args.gamma3)


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
        "manifest": _manifest("optimize", asdict(params), 0),
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
    params = _hardy_from_args(args)
    if not admissible_hardy(params):
        raise InadmissibleParamsError(_named_admissibility_failure(params))
    eps = _parse_list(args.eps_list) if args.eps_list else None
    sigma = _parse_list(args.sigma_list) if args.sigma_list else None
    res = sweep_and_extrapolate(params, eps_list=eps, sigma_list=sigma)
    manifest = _manifest("rayleigh", {**asdict(params), "eps_list": eps,
                                      "sigma_list": sigma}, 0)
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


#: Default batch size of each verify check; lemma1 runs its three fixed kernels.
_VERIFY_COUNTS = {"E2": 20, "Ep": 20, "CKNp": 10, "weights": 20, "leray": 50, "lemma1": 3}


def _verify_rows(which: str, seed: int, count: int) -> list[dict]:
    """The rows of one verify batch, drawn by the report generators that serve
    the check's acceptance criterion, each with its index and pass flag."""
    gate = report_mod.GATES.get(which)
    if which == "lemma1":
        rows = [{"a": xi.a, "b": xi.b, "control": control, "slope": rep.slope_vs_log_eps,
                 "max_abs": rep.max_abs, "pass": ok}
                for xi, control, rep, ok in report_mod.lemma1_reports()]
    elif which == "weights":
        rows = [{"worst_rel": err, "pass": err <= gate}
                for err in report_mod.weight_errors(np.random.default_rng(seed), count)]
    elif which == "leray":
        rows = [{"rel_err": err, "pass": err <= gate}
                for err in report_mod.leray_errors(np.random.default_rng(seed), count)]
    else:
        reports = {"E2": report_mod.e2_reports, "Ep": report_mod.ep_reports,
                   "CKNp": report_mod.ckn_reports}[which](seed, count)
        rows = [{"residual_rel": rep.residual_rel, "err_estimate": rep.err_estimate,
                 "nodes": rep.nodes, "pass": rep.residual_rel <= gate} for rep in reports]
        if which == "Ep":
            for i, row in enumerate(rows):
                row["p"] = report_mod.EP_P_CYCLE[i % 4]
    return [{"index": i, **row} for i, row in enumerate(rows)]


def cmd_verify(args) -> int:
    which = args.which
    count = args.count if args.count is not None else _VERIFY_COUNTS[which]
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    if which == "lemma1" and count != _VERIFY_COUNTS["lemma1"]:
        raise ValueError(f"--count must be {_VERIFY_COUNTS['lemma1']} for lemma1, which "
                         f"runs its fixed kernels; got {count}")
    results = _verify_rows(which, args.seed, count)
    failures = [r for r in results if not r["pass"]]
    _emit({"which": which, "count": len(results),
           "passes": len(results) - len(failures),
           "failures": failures, "reports": results,
           "manifest": _manifest("verify", {"which": which, "count": count},
                                 args.seed)},
          args.quiet)
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def cmd_ckn(args) -> int:
    """The CKN gates, constant, kind and branch, and the extremal check where
    the constant is sharp; constant --ckn prints the same document."""
    ckn = _ckn_from_args(args)
    flags = admissible_ckn(ckn)
    params = asdict(ckn) if args.command == "ckn" else {"ckn": True, **asdict(ckn)}
    doc = {"integrable": flags.integrable, "balanced": flags.balanced,
           "normalized": flags.normalized,
           "manifest": _manifest(args.command, params, 0)}
    if not flags.all_ok:
        _emit(doc, args.quiet)
        return EXIT_BAD_INPUT
    result = ckn_constant(ckn)
    doc.update({"constant": result.value, "kind": result.kind.value,
                "branch": result.branch.value})
    if result.kind is Kind.SHARP:
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

def _add_hardy_flags(sub):
    sub.add_argument("--n", type=int, required=True)
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
    common.add_argument("--config", type=str, default=None,
                        help="flat key = value file of flags; typed flags win")
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
    p_ray.add_argument("--format", choices=("json", "csv"), default="json")
    p_ray.add_argument("--eps-list", type=str, default=None,
                       help="comma-separated decreasing epsilons")
    p_ray.add_argument("--sigma-list", type=str, default=None)
    p_ray.set_defaults(func=cmd_rayleigh)

    p_ver = subs.add_parser("verify", parents=[common],
                            help="identity/oracle verification batches")
    p_ver.add_argument("--which", choices=tuple(_VERIFY_COUNTS), required=True)
    p_ver.add_argument("--count", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
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
        argv = sys.argv[1:] if argv is None else list(argv)
        args = build_parser().parse_args(_with_config(argv))
        with np.errstate(all="ignore"):
            return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
