"""Rayleigh-quotient sweeps over the extremizing trial families.

Trial functions are v = h(|x'|) g(|x|) with h a power and
g(r) = (r^2 + eps^2)^(e) eta(r), eta the C^2 cutoff.  After spherical
reduction every p = 2 integral factors into an angular sin-power integral
and a radial integral over (0, 2).  The general-p gradient integrand does
not factor: it goes through integrate_2d, radial tanh-sinh of Gauss-Jacobi
sums in cos(phi) whose weight carries the sin(phi) power.  All quotients are
computed without the sphere-area prefactor (it cancels).

The families, per regime of K = -4b(n+2a+b):

    K > 1:    h = s^theta1,        g exponent lam1/2,          sigma = 0
    K = 1:    h = s^(theta0+sig),  g exponent (lam0-sig)/2,    lam0 = -b - 1/2
    K < 1:    h = s^(theta0+sig),  g exponent lam0/2,          lam0 = -b - (1+sqrt(1-K))/2,
              0 < sig < sqrt(1-K)/2
    p != 2, b >= 0:  v = |x'|^(g0+sig) g,  g exponent lam/2,   lam = -b - 1/p - sig

The quotient tends to the sharp constant as eps -> 0 (then sig -> 0 where a
sigma is present); the approach is C + c/|ln eps| because numerator and
denominator both grow like |ln eps|.  Extrapolation fits exactly that model.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (FitUnstableError, SingularParamsError,
                     UnsupportedRegimeError)
from .params import HardyParams, RegimeFamily, admissible_hardy, compute_K
from .quadrature import (QuadratureSpec, cutoff_eta, cutoff_eta_prime,
                         integrate_1d, integrate_2d, integrate_angular,
                         sin_power_integral)

__all__ = [
    "FamilyKind", "TrialFamily", "FitModel", "FitInfo", "SweepRow",
    "SweepResult", "QuotientParts", "make_family",
    "quotient_p2", "quotient_general_p", "sweep_and_extrapolate",
    "DEFAULT_EPS", "DEFAULT_SIGMA",
]

DEFAULT_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
DEFAULT_SIGMA = (0.2, 0.1, 0.05, 0.025)

_SWEEP_SPEC_1D = QuadratureSpec(levels=11, abs_tol=1e-14, rel_tol=1e-10)
_SWEEP_SPEC_2D = QuadratureSpec(levels=9, abs_tol=1e-12, rel_tol=5e-8)


class FamilyKind(Enum):
    P2_K_GT_1 = "p2_K>1"
    P2_K_EQ_1 = "p2_K=1"
    P2_K_LT_1 = "p2_K<1"
    GENERAL_P_BETA_NONNEG = "general_p"


@dataclass(frozen=True)
class TrialFamily:
    """One member (eps, sigma) of an extremizing family."""

    kind: FamilyKind
    params: HardyParams
    epsilon: float
    sigma: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        p = self.params
        if self.kind is FamilyKind.GENERAL_P_BETA_NONNEG:
            if p.beta < 0.0:
                raise ValueError("the general-p family requires beta >= 0")
            if not 0.0 < self.sigma < 1.0:
                raise ValueError("the general-p family requires sigma in (0, 1)")
        else:
            if p.p != 2:
                raise ValueError(f"{self.kind} requires p = 2")
            if self.kind is FamilyKind.P2_K_GT_1:
                if self.sigma != 0.0:
                    raise ValueError("the K > 1 family takes no sigma")
            elif self.kind is FamilyKind.P2_K_EQ_1:
                if not self.sigma > 0.0:
                    raise ValueError("the K = 1 family requires sigma > 0")
            else:
                bound = math.sqrt(max(1.0 - self._K(), 0.0)) / 2.0
                if not 0.0 < self.sigma < bound:
                    raise ValueError(
                        f"the K < 1 family requires 0 < sigma < {bound}")
        if not p.is_full_axis:
            raise ValueError("trial families are defined for k = n-1")
        if not admissible_hardy(p):
            raise ValueError(f"inadmissible parameters: {p}")

    def _K(self) -> float:
        return compute_K(self.params).k_value

    @property
    def h_exponent(self) -> float:
        """Power of |x'| in h."""
        p = self.params
        theta0 = (1.0 - p.n - 2.0 * p.alpha) / 2.0
        if self.kind is FamilyKind.P2_K_GT_1:
            return (-(p.n + 2.0 * p.alpha) + math.sqrt(self._K())) / 2.0
        if self.kind is FamilyKind.GENERAL_P_BETA_NONNEG:
            return -(p.n - 1.0 + p.p * p.alpha) / p.p + self.sigma
        return theta0 + self.sigma

    @property
    def g_exponent(self) -> float:
        """Exponent e of (r^2 + eps^2)^e inside g."""
        p = self.params
        if self.kind is FamilyKind.P2_K_GT_1:
            lam1 = -p.beta - math.sqrt(self._K()) / 2.0
            return lam1 / 2.0
        if self.kind is FamilyKind.P2_K_EQ_1:
            lam0 = -p.beta - 0.5
            return (lam0 - self.sigma) / 2.0
        if self.kind is FamilyKind.P2_K_LT_1:
            lam0 = -p.beta - (1.0 + math.sqrt(1.0 - self._K())) / 2.0
            return lam0 / 2.0
        lam = -p.beta - 1.0 / p.p - self.sigma
        return lam / 2.0

    def g(self, r):
        e2 = self.epsilon * self.epsilon
        return (r * r + e2) ** self.g_exponent * cutoff_eta(r)

    def g_prime(self, r):
        e2 = self.epsilon * self.epsilon
        ge = self.g_exponent
        return (2.0 * ge * r * (r * r + e2) ** (ge - 1.0) * cutoff_eta(r)
                + (r * r + e2) ** ge * cutoff_eta_prime(r))


def make_family(params: HardyParams, epsilon: float,
                sigma: float | None = None) -> TrialFamily:
    """Pick the regime-appropriate family for (params, epsilon, sigma)."""
    if params.p != 2:
        if params.beta < 0.0:
            raise UnsupportedRegimeError(
                "no sharpness family exists for beta < 0, p != 2")
        if sigma is None:
            raise ValueError("the general-p family needs a sigma")
        return TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, params, epsilon, sigma)
    regime = compute_K(params)
    if regime.family is RegimeFamily.K_GT_1:
        if sigma not in (None, 0.0):
            raise ValueError("the K > 1 family takes no sigma")
        return TrialFamily(FamilyKind.P2_K_GT_1, params, epsilon, 0.0)
    if sigma is None:
        raise ValueError("K <= 1 families need a sigma")
    kind = (FamilyKind.P2_K_EQ_1 if regime.family is RegimeFamily.K_EQ_1
            else FamilyKind.P2_K_LT_1)
    return TrialFamily(kind, params, epsilon, sigma)


@dataclass(frozen=True)
class QuotientParts:
    numerator: float
    denominator: float
    quotient: float
    j1: float = math.nan
    j2: float = math.nan
    j3: float = math.nan


def _check_exponent(value: float, what: str):
    if value <= -1.0:
        raise SingularParamsError(
            f"reduced {what} exponent {value} <= -1; integral diverges")


def quotient_p2(family: TrialFamily, spec: QuadratureSpec | None = None) -> QuotientParts:
    """Weighted Rayleigh quotient of a p = 2 family member by product quadrature.

    The gradient integral splits as J1 + J2 + J3 (h' g, h g', cross term);
    each is one angular sin-power factor times one radial integral.
    """
    if family.kind is FamilyKind.GENERAL_P_BETA_NONNEG:
        raise ValueError("quotient_p2 takes a p = 2 family")
    spec = spec or _SWEEP_SPEC_1D
    p = family.params
    theta = family.h_exponent
    mu = p.n + 2.0 * p.alpha + 2.0 * theta        # angular exponent of J2, J3
    nu = mu + 2.0 * p.beta                        # radial exponent base
    _check_exponent(mu - 2.0, "angular")
    _check_exponent(nu - 1.0, "radial")           # g is bounded at r = 0

    g, gp = family.g, family.g_prime
    ang_m2 = integrate_angular(lambda s: s ** (mu - 2.0), spec).value
    ang = integrate_angular(lambda s: s ** mu, spec).value
    rad_den = integrate_1d(lambda r: g(r) ** 2 * r ** (nu - 1.0),
                           0.0, spec.truncation_radius, spec).value
    rad_j2 = integrate_1d(lambda r: gp(r) ** 2 * r ** (nu + 1.0),
                          0.0, spec.truncation_radius, spec).value
    rad_j3 = integrate_1d(lambda r: g(r) * gp(r) * r ** nu,
                          0.0, spec.truncation_radius, spec).value

    j1 = theta * theta * ang_m2 * rad_den
    j2 = ang * rad_j2
    j3 = 2.0 * theta * ang * rad_j3
    den = ang_m2 * rad_den
    num = j1 + j2 + j3
    return QuotientParts(num, den, num / den, j1, j2, j3)


def _general_p_exponents(family: TrialFamily) -> tuple[float, float]:
    """(a_phi, a_r): powers of sin(phi) and r shared by numerator and denominator.

    a_phi = -1 + p*sigma and a_r = p*(beta + sigma) > 0 for this family.
    """
    p = family.params
    gam = family.h_exponent
    return (p.n - 2.0 + p.p * (p.alpha + gam),
            p.n - 1.0 + p.p * (p.alpha + p.beta + gam))


def _grad_integrand(family: TrialFamily):
    """Reduced gradient integrand f(r, cos phi) of the general-p numerator.

    With v = |x'|^gam g(|x|) and |x'| = r sin(phi),
    |grad v|^2 = |x'|^(2 gam - 2) (A(r) cos^2 phi + C(r) sin^2 phi) where
    A = gam^2 g^2 and C = (gam g + r g')^2.  A and C are computed on the r
    column with the radial weight r^a_r folded in as r^(2 a_r / p), which
    is safe because a_r > 0.  The bracket is a sum of non-negative terms, so
    its power is real; the factor sin(phi)^a_phi is the angular weight of
    integrate_2d and is not part of f.
    """
    pw = family.params.p
    gam = family.h_exponent
    _, a_r = _general_p_exponents(family)
    g, gp = family.g, family.g_prime

    def integrand(r, t):
        gv = g(r)
        fold = r ** (2.0 * a_r / pw)
        A = fold * (gam * gv) ** 2
        C = fold * (gam * gv + r * gp(r)) ** 2
        t2 = t * t
        out = A * t2
        out += C * (1.0 - t2)
        out **= pw / 2.0
        return out

    return integrand


def quotient_general_p(family: TrialFamily,
                       spec: QuadratureSpec | None = None) -> QuotientParts:
    """Rayleigh quotient of the general-p family.

    The gradient integrand couples r and phi through |x'| = r sin(phi) and
    cannot factor: it goes through integrate_2d, radial tanh-sinh against
    Gauss-Jacobi in cos(phi) with the weight sin(phi)^a_phi.  The
    denominator factors into the Beta closed form of that angular weight
    and one radial integral.
    """
    if family.kind is not FamilyKind.GENERAL_P_BETA_NONNEG:
        raise ValueError("quotient_general_p takes the general-p family")
    spec = spec or _SWEEP_SPEC_2D
    pw = family.params.p
    a_phi, a_r = _general_p_exponents(family)
    _check_exponent(a_phi, "angular")
    _check_exponent(a_r, "radial")

    num = integrate_2d(_grad_integrand(family), a_phi, spec).value
    e2 = family.epsilon ** 2
    lam = 2.0 * family.g_exponent
    rad = integrate_1d(
        lambda r: r ** a_r * (r * r + e2) ** (pw * lam / 2.0) * cutoff_eta(r) ** pw,
        0.0, spec.truncation_radius, spec).value
    den = sin_power_integral(a_phi) * rad
    return QuotientParts(num, den, num / den)


# ------------------------------------------------------------------ sweeps

class FitModel(Enum):
    INV_LOG_EPS = "C + c/|ln eps|"
    LINEAR_SIGMA = "linear sigma intercept"


@dataclass(frozen=True)
class FitInfo:
    model: FitModel
    residual: float


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    sigma: float
    numerator: float
    denominator: float
    quotient: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    extrapolated: float
    fit: FitInfo


def _fit_inv_log(eps, q):
    x = 1.0 / np.abs(np.log(np.asarray(eps, dtype=float)))
    coeffs = np.polynomial.polynomial.polyfit(x, np.asarray(q), 1)
    fitted = coeffs[0] + coeffs[1] * x
    rms = float(np.sqrt(np.mean((fitted - np.asarray(q)) ** 2)))
    return float(coeffs[0]), rms


def _extrapolate_eps(eps, rows, log_affine: bool):
    """eps -> 0 limit of the quotient for one sigma slice.

    For families whose numerator and denominator are each affine in |ln eps|
    (K > 1, K = 1, general-p), the limit is the ratio of the two fitted
    slopes; the plain intercept of quotient = C + c/|ln eps| carries an
    O(1/|ln eps|^2) window bias that the slope ratio does not.  The K < 1
    family has no log growth (its eps-power cancels in the quotient), so
    there the intercept fit is the right model.
    """
    q = [r.quotient for r in rows]
    if not log_affine:
        return _fit_inv_log(eps, q)
    L, cn, cd = _eps_lines(eps, rows)
    fitted = (cn[0] + cn[1] * L) / (cd[0] + cd[1] * L)
    rms = float(np.sqrt(np.mean((fitted - np.asarray(q)) ** 2)))
    return float(cn[1] / cd[1]), rms


def _eps_lines(eps, rows):
    """|ln eps| and the lines through numerator and denominator against it."""
    L = np.abs(np.log(np.asarray(eps, dtype=float)))
    cn = np.polynomial.polynomial.polyfit(L, [r.numerator for r in rows], 1)
    cd = np.polynomial.polynomial.polyfit(L, [r.denominator for r in rows], 1)
    return L, cn, cd


def _fit_sigma_intercept(x, y):
    """sigma -> 0 intercept of the per-sigma limits.

    The limits are analytic in sigma but carry an O(sigma) slope with visible
    curvature (the leading Beta factor behaves like 2/(p*sigma) + const), so
    a straight line through the default schedule overshoots badly.  A degree
    min(3, npts-1) polynomial intercept removes the curvature; the reported
    residual is the RMS misfit when the fit has spare degrees of freedom and
    otherwise the intercept shift from dropping one degree, which measures
    the same instability.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    deg = min(3, len(xa) - 1)
    coeffs = np.polynomial.polynomial.polyfit(xa, ya, deg)
    fitted = sum(coeffs[i] * xa ** i for i in range(deg + 1))
    rms = float(np.sqrt(np.mean((fitted - ya) ** 2)))
    intercept = float(coeffs[0])
    if len(xa) > deg + 1 or deg == 0:
        return intercept, rms
    lower = np.polynomial.polynomial.polyfit(xa, ya, deg - 1)
    return intercept, max(rms, abs(intercept - float(lower[0])))


def _fit_pole_ratio(x, num_slopes, den_slopes):
    """sigma -> 0 limit of the general-p slope ratios N(sigma) / D(sigma).

    N and D are the |ln eps| slopes of numerator and denominator: angular
    integrals against sin(phi)^(-1 + p*sigma), each with the simple pole
    2/(p*sigma).  Their ratio is singular already at sigma = -1/p, where
    sigma*D vanishes, so a polynomial through the ratios converges slowly;
    sigma*N and sigma*D are analytic out to sigma = -2/p.  The limit is the
    ratio of their degree min(3, npts-1) intercepts, and the residual is
    measured on the ratio as in _fit_sigma_intercept.
    """
    xa = np.asarray(x, dtype=float)
    yn = xa * np.asarray(num_slopes, dtype=float)
    yd = xa * np.asarray(den_slopes, dtype=float)
    fit = np.polynomial.polynomial.polyfit
    deg = min(3, len(xa) - 1)
    cn, cd = fit(xa, yn, deg), fit(xa, yd, deg)
    value = float(cn[0] / cd[0])
    fitted = (np.polynomial.polynomial.polyval(xa, cn)
              / np.polynomial.polynomial.polyval(xa, cd))
    rms = float(np.sqrt(np.mean((fitted - yn / yd) ** 2)))
    if len(xa) > deg + 1 or deg == 0:
        return value, rms
    lower = float(fit(xa, yn, deg - 1)[0] / fit(xa, yd, deg - 1)[0])
    return value, max(rms, abs(value - lower))


def _max_workers() -> int:
    env = os.environ.get("ANISOHARDY_WORKERS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _pmap(fn, items):
    """Order-preserving map, threaded when ANISOHARDY_WORKERS allows."""
    items = list(items)
    workers = min(_max_workers(), len(items)) if items else 1
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def sweep_and_extrapolate(params: HardyParams, eps_list=None, sigma_list=None,
                          spec: QuadratureSpec | None = None) -> SweepResult:
    """Sweep eps (and sigma), extrapolate the quotient to the sharp constant.

    K > 1: single-stage fit quotient = C + c/|ln eps|.  K <= 1 and general-p:
    per-sigma eps-extrapolation followed by a polynomial sigma intercept;
    general-p takes the intercepts of sigma times the two eps slopes
    (_fit_pole_ratio).  The default sigma schedule is DEFAULT_SIGMA, times
    2/p for general p.  Raises FitUnstableError (carrying the value) when
    the fitted constant or its residual is not finite, or the residual
    exceeds 5% of the constant.
    """
    eps_list = [float(e) for e in (eps_list if eps_list is not None else DEFAULT_EPS)]
    if not eps_list or any(not 0.0 < e < 1.0 for e in eps_list):
        raise ValueError("eps_list must be non-empty with entries in (0, 1)")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    if params.p == 2:
        regime = compute_K(params)
        two_stage = regime.family is not RegimeFamily.K_GT_1
    else:
        if params.beta < 0.0:
            raise UnsupportedRegimeError(
                "no sharpness family exists for beta < 0, p != 2")
        two_stage = True

    if not two_stage:
        if sigma_list:
            raise ValueError("sigma_list is forbidden for the K > 1 family")
        families = [make_family(params, e) for e in eps_list]
        parts = _pmap(lambda f: quotient_p2(f, spec), families)
        rows = tuple(SweepRow(f.epsilon, 0.0, q.numerator, q.denominator, q.quotient)
                     for f, q in zip(families, parts))
        extrapolated, resid = _extrapolate_eps(eps_list, rows, log_affine=True)
        fit = FitInfo(FitModel.INV_LOG_EPS, resid)
    else:
        if sigma_list is None:
            # the general-p family's angular exponent is -1 + p*sigma, so its
            # default schedule keeps p*sigma at the p = 2 values
            sigma_list = [s * 2.0 / params.p for s in DEFAULT_SIGMA]
        sigmas = [float(s) for s in sigma_list]
        if not sigmas:
            raise ValueError("sigma_list is required for this regime")
        if params.p != 2:
            kind = FamilyKind.GENERAL_P_BETA_NONNEG
        elif compute_K(params).family is RegimeFamily.K_EQ_1:
            kind = FamilyKind.P2_K_EQ_1
        else:
            bound = math.sqrt(1.0 - compute_K(params).k_value) / 2.0
            kept = [s for s in sigmas if s < bound]
            if len(kept) >= 2:
                sigmas, kind = kept, FamilyKind.P2_K_LT_1
            else:
                # too close to K = 1 for the K < 1 family; the K = 1 family
                # is the robust one at the boundary
                kind = FamilyKind.P2_K_EQ_1
        grid = [(s, e) for s in sigmas for e in eps_list]

        def one(se):
            s, e = se
            fam = TrialFamily(kind, params, e, s)
            q = (quotient_general_p(fam, spec)
                 if fam.kind is FamilyKind.GENERAL_P_BETA_NONNEG
                 else quotient_p2(fam, spec))
            return SweepRow(e, s, q.numerator, q.denominator, q.quotient)

        rows = tuple(_pmap(one, grid))
        slices = [[r for r in rows if r.sigma == s] for s in sigmas]
        if kind is FamilyKind.GENERAL_P_BETA_NONNEG:
            lines = [_eps_lines(eps_list, sl) for sl in slices]
            extrapolated, resid = _fit_pole_ratio(
                sigmas, [cn[1] for _, cn, _ in lines], [cd[1] for _, _, cd in lines])
        else:
            log_affine = kind is not FamilyKind.P2_K_LT_1
            limits = [_extrapolate_eps(eps_list, sl, log_affine)[0] for sl in slices]
            extrapolated, resid = _fit_sigma_intercept(sigmas, limits)
        fit = FitInfo(FitModel.LINEAR_SIGMA, resid)

    if not (math.isfinite(extrapolated) and math.isfinite(resid)):
        raise FitUnstableError(
            f"fit is not finite: value {extrapolated}, residual {resid}",
            value=extrapolated, residual=resid)
    if resid > 0.05 * abs(extrapolated):
        raise FitUnstableError(
            f"fit residual {resid} exceeds 5% of {extrapolated}",
            value=extrapolated, residual=resid)
    return SweepResult(rows, extrapolated, fit)
