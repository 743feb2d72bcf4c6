"""Closed-form sharp constants and the branch points of the case analysis.

For p = 2, k = n-1 the best constant is

    C = { (n-1+2a)^2 - [sqrt(max(K, 1)) - 1]^2 } / 4,   K = -4b(n+2a+b).

For general p and b >= 0 it is ((k+pa)/p)^p, and ((k+pa+pb)/p)^p is a lower
bound for b < 0 while k + p(a+b) > 0.  For p = 2 and 1 <= k < n-1 the
corrected general-axis formula

    { (k+2a)^2 - [sqrt(max(K, (n-k)^2)) - (n-k)]^2 } / 4

reduces to the k = n-1 constant and is reported as CONJECTURED; it must be
validated against the constrained-optimizer oracle.  (The printed source
formula is dimensionally inconsistent; this is the reading that reduces
correctly at k = n-1.)

Branch points returned by branch_candidates all lie on the constraint
{H2 = 0}; their H1 value equals H(theta) there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InadmissibleParamsError, UnsupportedRegimeError
from .params import (CknParams, ExponentPair, HardyParams, admissible_ckn,
                     admissible_hardy, compute_K)
from .weights import H

__all__ = [
    "Kind", "Branch", "ConstantResult",
    "sharp_constant_p2", "sharp_constant_general_p", "sharp_constant_general_k_p2",
    "branch_candidates", "ckn_constant",
]


class Kind(Enum):
    SHARP = "sharp"
    LOWER_BOUND = "lower_bound"
    CONJECTURED = "conjectured"


class Branch(Enum):
    K_LE_0 = "K<=0"
    K_IN_0_1 = "0<K<=1"
    K_GT_1 = "K>1"
    BETA_NONNEG = "beta>=0"
    BETA_NEG = "beta<0"
    CKN = "ckn"
    GENERAL_K = "general_k"


@dataclass(frozen=True)
class ConstantResult:
    """A constant plus its epistemic status, so bounds are never shown as sharp."""

    value: float
    kind: Kind
    branch: Branch


def _branch_of_k(k_value: float) -> Branch:
    if k_value > 1.0:
        return Branch.K_GT_1
    if k_value > 0.0:
        return Branch.K_IN_0_1
    return Branch.K_LE_0


def sharp_constant_p2(params: HardyParams) -> ConstantResult:
    """Best constant for p = 2, k = n-1 (SHARP on the whole admissible range)."""
    if params.p != 2:
        raise UnsupportedRegimeError(
            f"sharp_constant_p2 requires p = 2, got p = {params.p}")
    if not params.is_full_axis:
        raise UnsupportedRegimeError(
            "k < n-1: use sharp_constant_general_k_p2")
    regime = compute_K(params)  # validates admissibility
    n1a = params.n - 1.0 + 2.0 * params.alpha
    corr = math.sqrt(max(regime.k_value, 1.0)) - 1.0
    value = (n1a * n1a - corr * corr) / 4.0
    return ConstantResult(value, Kind.SHARP, _branch_of_k(regime.k_value))


def sharp_constant_general_p(params: HardyParams) -> ConstantResult:
    """Constant for general p >= 1: sharp for beta >= 0, a lower bound for beta < 0.

    beta < 0 with p = 2 and k = n-1 delegates to the sharp p = 2 formula.
    Signals UnsupportedRegimeError when beta < 0, p != 2 and k + p(a+b) <= 0,
    where no bound is available.
    """
    if not admissible_hardy(params):
        raise InadmissibleParamsError(f"inadmissible parameters: {params}")
    k, p, a, b = params.k, params.p, params.alpha, params.beta
    if b >= 0.0:
        return ConstantResult(((k + p * a) / p) ** p, Kind.SHARP, Branch.BETA_NONNEG)
    if p == 2 and params.is_full_axis:
        return sharp_constant_p2(params)
    if k + p * (a + b) > 0.0:
        return ConstantResult(((k + p * a + p * b) / p) ** p,
                              Kind.LOWER_BOUND, Branch.BETA_NEG)
    raise UnsupportedRegimeError(
        "no closed-form bound for beta < 0, p != 2, k + p(alpha+beta) <= 0")


def sharp_constant_general_k_p2(params: HardyParams) -> ConstantResult:
    """General-axis p = 2 constant; CONJECTURED for k < n-1, sharp at k = n-1."""
    if params.p != 2:
        raise UnsupportedRegimeError(
            f"sharp_constant_general_k_p2 requires p = 2, got p = {params.p}")
    if params.is_full_axis:
        return sharp_constant_p2(params)
    regime = compute_K(params)
    nk = float(params.n - params.k)
    ka = params.k + 2.0 * params.alpha
    corr = math.sqrt(max(regime.k_value, nk * nk)) - nk
    value = (ka * ka - corr * corr) / 4.0
    return ConstantResult(value, Kind.CONJECTURED, Branch.GENERAL_K)


def branch_candidates(params: HardyParams) -> list[tuple[ExponentPair, float]]:
    """Every branch point of the constrained maximization, with its H1 value.

    K <= 0:      (theta0, larger root of the constraint quadratic), value theta0^2.
    0 < K <= 1:  (theta0, lam0 = -b - (1+sqrt(1-K))/2), value theta0^2.
    K > 1:       (theta1, lam1 = -b - sqrt(K)/2) and (theta2, -b + sqrt(K)/2),
                 values H(theta1) > H(theta2).
    All pairs satisfy H2 = 0 exactly (to rounding).
    """
    if params.p != 2 or not params.is_full_axis:
        raise UnsupportedRegimeError("branch_candidates requires p = 2, k = n-1")
    regime = compute_K(params)
    K = regime.k_value
    n, a, b = params.n, params.alpha, params.beta
    a2 = n + 2.0 * a
    theta0 = (1.0 - n - 2.0 * a) / 2.0
    if K <= 0.0:
        # constraint quadratic in lam at theta0; larger root by convention
        bq = n + 2.0 * a + 2.0 * b + 2.0 * theta0
        disc = bq * bq - 8.0 * b * theta0
        lam = 0.5 * (-bq + math.sqrt(max(disc, 0.0)))
        return [(ExponentPair(theta0, lam), H(theta0, params))]
    if K <= 1.0:
        lam0 = -b - (1.0 + math.sqrt(1.0 - K)) / 2.0
        return [(ExponentPair(theta0, lam0), H(theta0, params))]
    s = math.sqrt(K)
    theta1, lam1 = (-a2 + s) / 2.0, -b - s / 2.0
    theta2, lam2 = (-a2 - s) / 2.0, -b + s / 2.0
    return [(ExponentPair(theta1, lam1), H(theta1, params)),
            (ExponentPair(theta2, lam2), H(theta2, params))]


def ckn_constant(params: CknParams) -> ConstantResult:
    """CKN product constant (n + p(alpha+gamma1))/p.

    SHARP when alpha = beta = mu and gamma3 - gamma2 + 1 > 0 (the exponential
    extremal family exists), LOWER_BOUND otherwise.  Requires all three
    admissibility gates.
    """
    flags = admissible_ckn(params)
    if not flags.all_ok:
        raise InadmissibleParamsError(
            f"CKN parameters rejected (integrable={flags.integrable}, "
            f"balanced={flags.balanced}, normalized={flags.normalized})")
    value = (params.n + params.p * (params.alpha + params.gamma1)) / params.p
    sharp = params.symmetric and params.gamma3 - params.gamma2 + 1.0 > 0.0
    return ConstantResult(value, Kind.SHARP if sharp else Kind.LOWER_BOUND, Branch.CKN)
