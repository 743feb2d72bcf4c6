"""Acceptance-criterion runners shared by the CLI report command and the tests.

Each runner executes one numbered check at its stated tolerance and returns a
CriterionResult with machine-readable details.  Random configurations are
drawn from generators seeded by (base seed, config index), so parallel and
serial runs produce identical results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .closed_form import sharp_constant_general_k_p2, sharp_constant_p2
from .identities import (BumpFunction, ckn_extremal_check, verify_CKNp,
                         verify_E2, verify_Ep)
from .optimizer import maximize
from .params import (CknParams, ExponentPair, HardyParams, admissible_ckn,
                     admissible_hardy)
from .quadrature import XiSpec, beta, lemma1_check, sin_power_integral
from .rayleigh import sweep_and_extrapolate
from .weights import WeightSpec, divergence_oracle, weight_p2

__all__ = ["CriterionResult", "ALL_CRITERIA", "run_all",
           "sample_admissible", "sample_e2_config", "sample_ep_config",
           "sample_ckn_config", "e2_reports", "ep_reports", "ckn_reports",
           "weight_errors", "leray_errors", "lemma1_reports", "GATES",
           "EP_P_CYCLE", "LEMMA1_POSITIVE", "LEMMA1_NEGATIVE", "LEMMA1_EPS"]


@dataclass
class CriterionResult:
    cid: int
    description: str
    passed: bool
    details: dict = field(default_factory=dict)


# ------------------------------------------------------------- samplers

def sample_admissible(rng, n_choices=(2, 3, 4, 5), k_rule="full", margin=1e-3,
                      span=2.0) -> HardyParams:
    """Random strictly admissible p = 2 instance; margin keeps float sanity."""
    while True:
        n = int(rng.choice(n_choices))
        if k_rule == "full":
            k = n - 1
        else:
            if n < 3:
                continue
            k = int(rng.integers(1, n - 1))
        a, b = rng.uniform(-span, span, size=2)
        params = HardyParams(n, 2.0, float(a), float(b), k)
        if (admissible_hardy(params)
                and k + 2.0 * a > margin and 2.0 * (a + b) + n > margin):
            return params


def _sample_bump(rng, n: int) -> BumpFunction:
    while True:
        center = rng.uniform(0.6, 1.6, size=n) * rng.choice([-1.0, 1.0], size=n)
        width = 0.08 * float(np.linalg.norm(center))
        cprime = float(np.linalg.norm(center[:n - 1])) if n > 1 else abs(center[0])
        if cprime <= 3.2 * width:
            continue
        degree = int(rng.integers(0, 4))
        coeffs = [1.0]
        span = 2.0 * width
        for d in range(1, degree + 1):
            coeffs.append(float(rng.uniform(-0.25, 0.25)) / span ** d)
        return BumpFunction(center=tuple(center), width=width,
                            polynomial_degree=degree, coefficients=tuple(coeffs))


def sample_e2_config(seed: int, index: int):
    """(WeightSpec with exponents, bump) for one E2 identity check."""
    rng = np.random.default_rng((seed, index))
    params = sample_admissible(rng, n_choices=(2, 3), span=1.2, margin=0.05)
    pair = ExponentPair(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
    return WeightSpec(params, exponents=pair), _sample_bump(rng, params.n)


def sample_ep_config(seed: int, index: int, p: float):
    """(WeightSpec with gamma, bump) for one p-identity check."""
    rng = np.random.default_rng((seed, index))
    while True:
        n = int(rng.choice((2, 3)))
        a, b = rng.uniform(-0.8, 0.8, size=2)
        params = HardyParams(n, p, float(a), float(b))
        if (admissible_hardy(params)
                and params.k + p * a > 0.05 and p * (a + b) + n > 0.05):
            break
    gamma = float(rng.uniform(0.2, 1.2) * rng.choice([-1.0, 1.0]))
    return WeightSpec(params, gamma=gamma), _sample_bump(rng, n)


def sample_ckn_config(seed: int, index: int):
    """(CknParams satisfying the normalized relation, bump)."""
    rng = np.random.default_rng((seed, index))
    while True:
        n = int(rng.choice((2, 3)))
        p = float(rng.choice((2.0, 3.0)))
        a, b = rng.uniform(-0.25, 0.25, size=2)
        mu = a * p - b * (p - 1.0)
        g2, g3 = rng.uniform(-0.25, 0.25, size=2)
        g1 = (g3 * (p - 1.0) + g2 - 1.0) / p
        ckn = CknParams(n, p, float(a), float(b), float(mu),
                        float(g1), float(g2), float(g3))
        if admissible_ckn(ckn).all_ok:
            return ckn, _sample_bump(rng, n)


#: Pass gate of each sampled check: the relative identity residual (E2, Ep,
#: CKNp) or FD-oracle error (weights, leray).
GATES = {"E2": 1e-6, "Ep": 1e-5, "CKNp": 1e-5, "weights": 1e-6, "leray": 1e-6}

#: The Ep check of index i runs at p = EP_P_CYCLE[i % 4].
EP_P_CYCLE = (1.5, 2.0, 3.0, 4.0)


def e2_reports(seed: int, count: int):
    """verify_E2 on sample_e2_config(seed, i), i = 0 .. count-1."""
    for i in range(count):
        yield verify_E2(*sample_e2_config(seed, i))


def ep_reports(seed: int, count: int):
    """verify_Ep on sample_ep_config(seed, i, p), p cycling through EP_P_CYCLE."""
    for i in range(count):
        yield verify_Ep(*sample_ep_config(seed, i, EP_P_CYCLE[i % 4]))


def ckn_reports(seed: int, count: int):
    """verify_CKNp on sample_ckn_config(seed, i), i = 0 .. count-1."""
    for i in range(count):
        yield verify_CKNp(*sample_ckn_config(seed, i))


#: Lemma check kernels: the K > 1 radial kernel of the (3, -1/2, -1/2)
#: instance (a = 2b - 1 + sqrt(K), b = -beta - sqrt(K)/2) and the canonical
#: t/(t^2+1); the third violates the hypothesis and must be detected.
LEMMA1_POSITIVE = (
    XiSpec(a=math.sqrt(3.0) - 2.0, b=(1.0 - math.sqrt(3.0)) / 2.0),
    XiSpec(a=1.0, b=-1.0),
)
LEMMA1_NEGATIVE = XiSpec(a=1.0, b=-0.6)
LEMMA1_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def lemma1_reports():
    """(kernel, control, lemma1_check report, pass) of the positive kernels,
    then the negative one: a positive control passes at |slope| <= 1e-2, the
    negative control at |slope| >= 0.1."""
    for xi in LEMMA1_POSITIVE:
        rep = lemma1_check(xi, LEMMA1_EPS)
        yield xi, "positive", rep, abs(rep.slope_vs_log_eps) <= 1e-2
    rep = lemma1_check(LEMMA1_NEGATIVE, LEMMA1_EPS)
    yield LEMMA1_NEGATIVE, "negative", rep, abs(rep.slope_vs_log_eps) >= 0.1


# ------------------------------------------------------------- criteria

#: Base seed of each seeded criterion, by criterion number: its runner's
#: default, which the report manifest records.
CRITERION_SEEDS = {3: 101, 4: 202, 8: 303, 10: 404, 11: 505}


def run_criterion_1() -> CriterionResult:
    params = HardyParams(3, 2.0, -0.5, -0.5)
    expected = (2.0 * math.sqrt(3.0) - 3.0) / 4.0
    sharp_constant_p2(params)  # warm up
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        result = sharp_constant_p2(params)
        best = min(best, time.perf_counter() - t0)
    err = abs(result.value - expected)
    passed = err <= 1e-12 and best < 1e-3
    return CriterionResult(1, "closed-form constant (2*sqrt(3)-3)/4 to 1e-12, under 1 ms",
                           passed, {"value": result.value, "expected": expected,
                                    "abs_err": err, "runtime_s": best})


def run_criterion_2() -> CriterionResult:
    worst = 0.0
    values = {}
    for n in range(3, 11):
        got = sharp_constant_p2(HardyParams(n, 2.0, -0.5, -0.5)).value
        ref = (n * n - 6.0 * n + 6.0) / 4.0 + math.sqrt(2.0 * n - 3.0) / 2.0
        worst = max(worst, abs(got - ref))
        values[str(n)] = got
    return CriterionResult(2, "alternate closed form for alpha=beta=-1/2, n=3..10, to 1e-12",
                           worst <= 1e-12, {"max_abs_err": worst, "values": values})


def run_criterion_3(count: int = 200, seed: int = CRITERION_SEEDS[3]) -> CriterionResult:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(count):
        params = sample_admissible(rng)
        closed = sharp_constant_p2(params).value
        oracle = maximize(params).value
        worst = max(worst, abs(oracle - closed) / (1.0 + closed))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-6 and elapsed < 60.0
    return CriterionResult(3, f"optimizer vs closed form on {count} random instances",
                           passed, {"worst_scaled_diff": worst, "runtime_s": elapsed})


def run_criterion_4(count: int = 100, seed: int = CRITERION_SEEDS[4]) -> CriterionResult:
    rng = np.random.default_rng(seed)
    mismatches = []
    worst = 0.0
    for i in range(count):
        params = sample_admissible(rng, n_choices=(3, 4, 5), k_rule="partial")
        conj = sharp_constant_general_k_p2(params).value
        oracle = maximize(params).value
        diff = abs(oracle - conj)
        worst = max(worst, diff)
        if diff > 1e-6:
            mismatches.append({"index": i, "n": params.n, "k": params.k,
                               "alpha": params.alpha, "beta": params.beta,
                               "conjectured": conj, "oracle": oracle})
    return CriterionResult(4, f"corrected general-axis formula vs optimizer on {count} instances",
                           not mismatches, {"worst_abs_diff": worst,
                                            "mismatches": mismatches})


def run_criterion_5() -> CriterionResult:
    params = HardyParams(3, 2.0, -0.5, -0.5)
    constant = sharp_constant_p2(params).value
    t0 = time.perf_counter()
    res = sweep_and_extrapolate(params, eps_list=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    elapsed = time.perf_counter() - t0
    quotients = [r.quotient for r in res.rows]
    above = all(q >= constant * (1.0 - 1e-6) for q in quotients)
    decreasing = all(b < a for a, b in zip(quotients, quotients[1:]))
    rel = abs(res.extrapolated - constant) / constant
    passed = above and decreasing and rel <= 0.02 and elapsed < 30.0
    return CriterionResult(5, "K > 1 sharpness sweep (above, decreasing, 2% limit)",
                           passed, {"extrapolated": res.extrapolated,
                                    "constant": constant, "rel_err": rel,
                                    "quotients": quotients, "runtime_s": elapsed})


def run_criterion_6() -> CriterionResult:
    params = HardyParams(3, 3.0, 0.0, 0.5)
    constant = (2.0 / 3.0) ** 3
    t0 = time.perf_counter()
    res = sweep_and_extrapolate(params, eps_list=(1e-3, 1e-4, 1e-5, 1e-6))
    elapsed = time.perf_counter() - t0
    rel = abs(res.extrapolated - constant) / constant
    passed = rel <= 0.02 and elapsed < 120.0
    return CriterionResult(6, "general-p sharpness sweep to (2/3)^3 within 2%",
                           passed, {"extrapolated": res.extrapolated,
                                    "constant": constant, "rel_err": rel,
                                    "runtime_s": elapsed})


def run_criterion_7() -> CriterionResult:
    params = HardyParams(3, 2.0, 0.0, -0.05)
    constant = 1.0
    res = sweep_and_extrapolate(params)
    rel = abs(res.extrapolated - constant) / constant
    return CriterionResult(7, "K <= 1 sharpness sweep to (n-1+2a)^2/4 within 2%",
                           rel <= 0.02, {"extrapolated": res.extrapolated,
                                         "constant": constant, "rel_err": rel})


def _worst(values):
    """max(values), or None (null in the report) if one is not finite: max() skips NaN."""
    values = [float(v) for v in values]
    return max(values, default=0.0) if all(map(math.isfinite, values)) else None


def run_criterion_8(seed: int = CRITERION_SEEDS[8]) -> CriterionResult:
    e2 = list(e2_reports(seed, 20))
    ep = list(ep_reports(seed + 1, 20))
    ckn = list(ckn_reports(seed + 2, 10))
    worst = {f"{name}_{what}": _worst(getattr(rep, attr) for rep in reps)
             for name, reps in (("e2", e2), ("ep", ep), ("ckn", ckn))
             for what, attr in (("worst", "residual_rel"), ("err_worst", "err_estimate"))}
    orders = [rep.order for rep in e2 + ep + ckn]
    # inequality direction: product side dominates the divergence term
    ckn_direction_ok = all(rep.lhs >= rep.rhs_terms["divergence_term"] - 1e-8 for rep in ckn)
    rng = np.random.default_rng(seed + 3)
    x = rng.normal(size=(100_000, 3))
    y = rng.normal(size=(100_000, 3))
    ps = rng.uniform(1.0 + 1e-6, 5.0, size=100_000)
    ny = np.linalg.norm(y, axis=1)
    nx = np.linalg.norm(x, axis=1)
    dot = np.sum(x * y, axis=1)
    rvals = (ps - 1.0) * ny ** ps + nx ** ps + ps * ny ** (ps - 2.0) * dot
    r_min = float(np.min(rvals))
    passed = (None not in worst.values() and worst["e2_worst"] <= GATES["E2"]
              and worst["ep_worst"] <= GATES["Ep"] and worst["ckn_worst"] <= GATES["CKNp"]
              and ckn_direction_ok and r_min >= -1e-12)
    return CriterionResult(8, "identity suite residuals and remainder positivity",
                           passed, {**worst,
                                    "stopped_at_12": orders.count(12),
                                    "stopped_at_16": orders.count(16),
                                    "ckn_direction_ok": bool(ckn_direction_ok),
                                    "r_min": r_min})


def run_criterion_9() -> CriterionResult:
    ckn = CknParams(3, 2.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0)
    rep = ckn_extremal_check(ckn)
    err = abs(rep.quotient - 1.0)
    passed = err <= 1e-3 and rep.residual_R_max <= 1e-12
    return CriterionResult(9, "CKN exponential extremal: quotient 1 to 1e-3, zero remainder",
                           passed, {"quotient": rep.quotient,
                                    "residual_R_max": rep.residual_R_max})


def run_criterion_10(seed: int = CRITERION_SEEDS[10]) -> CriterionResult:
    rng = np.random.default_rng(seed)
    rec_worst = 0.0
    for _ in range(1000):
        t, g = rng.uniform(0.05, 20.0, size=2)
        lhs = beta(t + 1.0, g)
        rhs = t / (t + g) * beta(t, g)
        rec_worst = max(rec_worst, abs(lhs - rhs) / rhs)
    sin_worst = 0.0
    for lam in np.linspace(-0.949, 10.0, 50):
        closed = sin_power_integral(float(lam))
        numeric = sin_power_integral(float(lam), numeric=True)
        sin_worst = max(sin_worst, abs(numeric - closed) / closed)
    *positive, negative = kernels = list(lemma1_reports())
    slopes = [rep.slope_vs_log_eps for _, _, rep, _ in positive]
    neg_slope = negative[2].slope_vs_log_eps
    passed = (rec_worst <= 1e-13 and sin_worst <= 1e-9
              and all(ok for *_, ok in kernels))
    return CriterionResult(10, "Beta recurrence, sin-power quadrature, log-extraction slopes",
                           passed, {"recurrence_worst": rec_worst,
                                    "sin_power_worst": sin_worst,
                                    "positive_slopes": slopes,
                                    "negative_slope": neg_slope})


def weight_errors(rng, count: int):
    """Per p = 2 weight instance, the largest relative FD-oracle error.

    Draws count instances (sample_admissible, exponents in [-1.5, 1.5]) and
    for each 50 points with |x'| > 0.3 and 0.3 < |x| < 2.5 where the
    closed weight is at least 1e-3 (relative error is meaningless near its
    zero set), and yields the largest |closed - FD| / |closed| of each.
    """
    for _ in range(count):
        params = sample_admissible(rng, span=1.5, margin=0.05)
        pair = ExponentPair(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
        spec = WeightSpec(params, exponents=pair)
        worst, done = 0.0, 0
        while done < 50:
            x = rng.uniform(-2.0, 2.0, size=params.n)
            s = float(np.linalg.norm(x[:params.k]))
            r = float(np.linalg.norm(x))
            if not (s > 0.3 and r > 0.3 and r < 2.5):
                continue
            closed = weight_p2(x, spec)
            if abs(closed) < 1e-3:
                continue
            done += 1
            fd = divergence_oracle(spec.V, spec.f, x)
            worst = max(worst, abs(closed - fd) / abs(closed))
        yield worst


def _leray_V(z):
    return abs(z[0]) / np.linalg.norm(z)


def _leray_f(z):
    # complex-analytic, as the oracle's complex step needs
    return np.sqrt(-np.log(np.sqrt(np.sum(z * z))))


def leray_errors(rng, count: int):
    """Relative FD-oracle errors of the punctured-disc identity
    -div(|x_1|/|x| grad sqrt(-ln|x|)) / sqrt(-ln|x|) = |x_1| / (4 |x|^3 ln^2|x|)
    at count points with 0.1 < |x| < 0.7 and |x_1| > 0.05."""
    for _ in range(count):
        while True:
            rr = float(rng.uniform(0.1, 0.7))
            psi = float(rng.uniform(0.15, math.pi - 0.15))
            x = np.array([rr * math.cos(psi), rr * math.sin(psi)])
            if abs(x[0]) > 0.05:
                break
        fd = divergence_oracle(_leray_V, _leray_f, x)
        expect = abs(x[0]) / (4.0 * rr ** 3 * math.log(rr) ** 2)
        yield abs(fd - expect) / expect


def run_criterion_11(seed: int = CRITERION_SEEDS[11]) -> CriterionResult:
    rng = np.random.default_rng(seed)
    weight_worst = max(weight_errors(rng, 20))
    leray_worst = max(leray_errors(rng, 50))
    passed = weight_worst <= GATES["weights"] and leray_worst <= GATES["leray"]
    return CriterionResult(11, "weight vs FD divergence (20x50) and punctured-disc identity",
                           passed, {"weight_worst": weight_worst,
                                    "leray_worst": leray_worst})


ALL_CRITERIA = (
    run_criterion_1, run_criterion_2, run_criterion_3, run_criterion_4,
    run_criterion_5, run_criterion_6, run_criterion_7, run_criterion_8,
    run_criterion_9, run_criterion_10, run_criterion_11,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
