"""Rayleigh-quotient sweeps over the extremizing trial families.

Trial functions are v = h(|x'|) g(|x|) with h a power and
g(r) = (r^2 + eps^2)^(e) eta(r), eta the C^2 cutoff.  After spherical
reduction every p = 2 integral factors into an angular sin-power integral,
taken from its Beta closed form, and a radial integral over (0, 2); a p = 2
sweep takes the radials of all its members in one tanh-sinh pass.  The
general-p gradient integrand does not factor: it goes through integrate_2d,
radial tanh-sinh of Gauss-Jacobi sums in cos(phi) whose weight carries the
sin(phi) power.  All quotients are computed without the sphere-area
prefactor (it cancels).

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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FitUnstableError, SingularParamsError, UnsupportedRegimeError
from .params import HardyParams, RegimeFamily, admissible_hardy, compute_K
# integrate_1d, integrate_2d and integrate_angular are no longer called here;
# certbench's layer tracer looks them up by these names.
from .quadrature import (QuadResult, QuadratureSpec, _integrate_2d_rows,  # noqa: F401
                         cutoff_eta, cutoff_eta_prime, integrate_1d,
                         integrate_2d, integrate_angular, integrate_rows,
                         sin_power_integral)

__all__ = [
    "FamilyKind", "TrialFamily", "FitModel", "FitInfo", "SweepRow",
    "SweepResult", "QuotientParts",
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
        if self.kind is FamilyKind.GENERAL_P_BETA_NONNEG:
            angular, radial = _general_p_exponents(self)
        else:
            _, mu, nu = _p2_exponents(self)
            angular, radial = mu - 2.0, nu - 1.0    # g is bounded at r = 0
        for what, value in (("angular", angular), ("radial", radial)):
            if value <= -1.0:
                raise SingularParamsError(
                    f"reduced {what} exponent {value} <= -1; integral diverges")

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

    def g_and_prime(self, r):
        """(g(r), g'(r)): r^2 + eps^2, its power and the cutoff are formed once."""
        return _g_and_prime(r, r * r, cutoff_eta(r), cutoff_eta_prime(r),
                            self.epsilon * self.epsilon, self.g_exponent)


#: Float exponents for which numpy's power squares, takes the square root or
#: the reciprocal: those can round differently from its general power, which
#: an exponent array may get instead.
_SHORTCUT_EXPONENTS = (2.0, 0.5, -1.0)


def _power(base, e):
    """base ** e for a float e, or for a column e of one exponent per row.

    Each row of a column power is raised as base_row ** float(e_row) would
    raise it alone, to the bit.
    """
    out = base ** e
    if isinstance(e, np.ndarray):
        for i, v in enumerate(e[:, 0].tolist()):
            if v in _SHORTCUT_EXPONENTS:
                out[i] = (base[i] if base.ndim > 1 else base) ** v
    return out


def _g_and_prime(r, r2, eta, eta_prime, e2, ge):
    """(g, g') at r from r^2 and the cutoff there; eps^2 and the exponent of g
    are floats, or columns of one per member that broadcast against r."""
    q = r2 + e2
    qe = _power(q, ge)
    return qe * eta, 2.0 * ge * r * _power(q, ge - 1.0) * eta + qe * eta_prime


@dataclass(frozen=True)
class QuotientParts:
    numerator: float
    denominator: float
    quotient: float
    j1: float = math.nan
    j2: float = math.nan
    j3: float = math.nan
    err_estimate: float = math.nan


def _rel_err(*results) -> float:
    """Largest relative error estimate among quadrature results."""
    return max(r.err_estimate / max(abs(r.value), 1e-300) for r in results)


def quotient_p2(family: TrialFamily) -> QuotientParts:
    """Weighted Rayleigh quotient of a p = 2 family member by product quadrature.

    The gradient integral splits as J1 + J2 + J3 (h' g, h g', cross term);
    each is one angular sin-power factor, its Beta closed form, times one
    radial integral, so err_estimate is the radials' alone.  The radial
    integrals of the denominator, J2 and J3 share their nodes and g, g'
    there: one integrate_rows pass computes all three.
    """
    return _quotients_p2((family,))[0]


#: Grid elements per block of members in the radial pass.
_BLOCK_ELEMENTS = 2 ** 12


def _quotients_p2(families) -> tuple[QuotientParts, ...]:
    """quotient_p2 of each member, all radial integrals in one pass.

    The angular pair is the Beta closed form sin_power_integral of mu - 2
    and mu.  The denominator, J2 and J3 radials of every member are the rows
    of one integrate_rows pass, member by member, so each level's nodes, r^2
    and cutoff serve them all.  Each result is the one quotient_p2 gives the
    member alone, to the bit, and a failure is the first radial failure met
    by quotient_p2 called on the members in turn.
    """
    if any(f.kind is FamilyKind.GENERAL_P_BETA_NONNEG for f in families):
        raise ValueError("quotient_p2 takes a p = 2 family")
    exponents = [_p2_exponents(f) for f in families]
    rads = integrate_rows(_radial_rows(families, [nu for _, _, nu in exponents]),
                          0.0, _SWEEP_SPEC_1D.truncation_radius, _SWEEP_SPEC_1D)

    parts = []
    for i, (theta, mu, _) in enumerate(exponents):
        ang_m2, ang = sin_power_integral(mu - 2.0), sin_power_integral(mu)
        rad = rads[3 * i:3 * i + 3]
        rad_den, rad_j2, rad_j3 = (r.value for r in rad)
        j1 = theta * theta * ang_m2 * rad_den
        j2 = ang * rad_j2
        j3 = 2.0 * theta * ang * rad_j3
        den = ang_m2 * rad_den
        num = j1 + j2 + j3
        parts.append(QuotientParts(num, den, num / den, j1, j2, j3, _rel_err(*rad)))
    return tuple(parts)


def _p2_exponents(family: TrialFamily) -> tuple[float, float, float]:
    """(theta, mu, nu): the power of |x'| in h, the angular exponent of J2
    and J3, and the radial exponent base mu + 2 beta."""
    p = family.params
    theta = family.h_exponent
    mu = p.n + 2.0 * p.alpha + 2.0 * theta
    return theta, mu, mu + 2.0 * p.beta


def _radial_rows(families, nus):
    """Integrand of the radial pass: den, J2 and J3 rows of each member in turn.

    Each level forms r^2 and the cutoff once and the powers of r once per
    distinct nu; g and g' go in blocks of members of about _BLOCK_ELEMENTS
    grid elements.  Every row is quotient_p2's expression for its member, so
    it equals the member's own evaluation to the bit.
    """
    e2 = np.array([[f.epsilon * f.epsilon] for f in families])
    ge = np.array([[f.g_exponent] for f in families])
    nu_keys, nu_of = np.unique(nus, return_inverse=True)
    nu = nu_keys[:, None]

    def rows(r):
        r2, eta, eta_prime = r * r, cutoff_eta(r), cutoff_eta_prime(r)
        r_terms = (_power(r, nu - 1.0), _power(r, nu + 1.0), _power(r, nu))
        step = max(1, _BLOCK_ELEMENTS // r.size)
        for i in range(0, len(families), step):
            m = slice(i, i + step)
            g, gp = _g_and_prime(r, r2, eta, eta_prime, e2[m], ge[m])
            block = np.empty((len(g), 3, r.size))
            for k, (g_term, r_term) in enumerate(zip((g ** 2, gp ** 2, g * gp), r_terms)):
                np.multiply(g_term, r_term[nu_of[m]], out=block[:, k])
            yield block.reshape(-1, r.size)
    return rows


def _general_p_exponents(family: TrialFamily) -> tuple[float, float]:
    """(a_phi, a_r): powers of sin(phi) and r shared by numerator and denominator.

    a_phi = -1 + p*sigma and a_r = p*(beta + sigma) > 0 for this family.
    """
    p = family.params
    gam = family.h_exponent
    return (p.n - 2.0 + p.p * (p.alpha + gam),
            p.n - 1.0 + p.p * (p.alpha + p.beta + gam))


def _grad_columns(family: TrialFamily):
    """r -> (A, C), the radial columns of the general-p gradient integrand.

    With v = |x'|^gam g(|x|) and |x'| = r sin(phi),
    |grad v|^2 = |x'|^(2 gam - 2) (A(r) cos^2 phi + C(r) sin^2 phi) where
    A = gam^2 g^2 and C = (gam g + r g')^2.  A and C carry the radial weight
    r^a_r folded in as r^(2 a_r / p), which is safe because a_r > 0.
    """
    pw = family.params.p
    gam = family.h_exponent
    _, a_r = _general_p_exponents(family)

    def columns(r):
        gv, gpv = family.g_and_prime(r)
        fold = r ** (2.0 * a_r / pw)
        return fold * (gam * gv) ** 2, fold * (gam * gv + r * gpv) ** 2
    return columns


def _bracket_power(A, C, t, pw: float):
    """(A t^2 + C (1 - t^2))^(p/2): a sum of non-negative terms, so its power is real."""
    t2 = t * t
    out = A * t2
    out += C * (1.0 - t2)
    out **= pw / 2.0
    return out


def _grad_integrand(family: TrialFamily):
    """Reduced gradient integrand f(r, cos phi) = (A cos^2 phi + C sin^2 phi)^(p/2)
    of the general-p numerator, for integrate_2d; the factor sin(phi)^a_phi
    is the rule's angular weight and is not part of f."""
    columns, pw = _grad_columns(family), family.params.p
    return lambda r, t: _bracket_power(*columns(r), t, pw)


def _grad_levels(family: TrialFamily):
    """_grad_integrand in the form of _integrate_2d_rows: the columns are
    formed once per radial level and serve every angular order."""
    columns, pw = _grad_columns(family), family.params.p

    def at_level(r):
        A, C = columns(r)
        return lambda rows, t: _bracket_power(A[rows, None], C[rows, None], t, pw)
    return at_level


def quotient_general_p(family: TrialFamily) -> QuotientParts:
    """Rayleigh quotient of the general-p family.

    The gradient integrand couples r and phi through |x'| = r sin(phi) and
    cannot factor: it is a 2-D integral, radial tanh-sinh against
    Gauss-Jacobi in cos(phi) with the weight sin(phi)^a_phi (integrate_2d).
    The denominator factors into the Beta closed form of that angular weight
    and one radial integral.  This is the one-member case of
    _quotients_general_p.
    """
    return _quotients_general_p((family,))[0]


def _quotients_general_p(families) -> tuple[QuotientParts, ...]:
    """quotient_general_p of each member: all numerators in one batched 2-D
    pass, all denominators in one radial pass.

    Each angular order integrates only the members still refining, and each
    member's radial columns are formed once per radial level.  Each result
    is the one quotient_general_p gives the member alone, to the bit, and a
    failure is the first one met by quotient_general_p called on the
    members in turn: the numerator and the denominator, member by member.
    Members after it do no further work.
    """
    if any(f.kind is not FamilyKind.GENERAL_P_BETA_NONNEG for f in families):
        raise ValueError("quotient_general_p takes the general-p family")
    exponents = [_general_p_exponents(f) for f in families]
    nums = _integrate_2d_rows([_grad_levels(f) for f in families],
                              [a_phi for a_phi, _ in exponents], _SWEEP_SPEC_2D)
    done = next((i for i, num in enumerate(nums) if not isinstance(num, QuadResult)),
                len(nums))
    members = families[:done]
    rads = (integrate_rows(_denominator_rows(members, [a_r for _, a_r in exponents]),
                           0.0, _SWEEP_SPEC_2D.truncation_radius, _SWEEP_SPEC_2D)
            if members else ())
    if done < len(nums):
        raise nums[done]

    parts = []
    for (a_phi, _), num, rad in zip(exponents, nums, rads):
        den = sin_power_integral(a_phi) * rad.value
        parts.append(QuotientParts(num.value, den, num.value / den,
                                   err_estimate=_rel_err(num, rad)))
    return tuple(parts)


def _denominator_rows(families, a_rs):
    """Integrand of the denominator pass, r^a_r g^p, one row per member.

    Each level forms r^2 once and r^a_r and the cutoff's power once per
    distinct value; every row is quotient_general_p's expression for its
    member, to the bit.
    """
    def rows(r):
        r2, eta = r * r, cutoff_eta(r)
        r_powers, eta_powers = {}, {}
        for family, a_r in zip(families, a_rs):
            pw = family.params.p
            if a_r not in r_powers:
                r_powers[a_r] = r ** a_r
            if pw not in eta_powers:
                eta_powers[pw] = eta ** pw
            lam = 2.0 * family.g_exponent
            yield (r_powers[a_r] * (r2 + family.epsilon ** 2) ** (pw * lam / 2.0)
                   * eta_powers[pw])
    return rows


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
    """One (eps, sigma) member's quotient; err_estimate is the largest
    relative quadrature error estimate among its radial (and general-p 2-D)
    integrals: the angular factors are Beta closed forms."""

    epsilon: float
    sigma: float
    numerator: float
    denominator: float
    quotient: float
    err_estimate: float


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
    if len(xa) > deg + 1:
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
    if len(xa) > deg + 1:
        return value, rms
    lower = float(fit(xa, yn, deg - 1)[0] / fit(xa, yd, deg - 1)[0])
    return value, max(rms, abs(value - lower))


def _plan_sweep(params: HardyParams, eps_list, sigma_list):
    """(kind, eps list, sigmas, families) of a sweep, every member built.

    Every refusal of a sweep is raised here, before any quadrature runs:
    the eps and sigma schedules, each of at least two entries since one
    point fixes no limit, the beta < 0 general-p regime, and each
    member's own checks in TrialFamily.  The family follows the regime: K > 1
    takes no sigma; near K = 1, where fewer than two sigmas lie below the
    K < 1 family's bound sqrt(1 - K)/2, the K = 1 family, which is the
    robust one at the boundary, takes them all.
    """
    eps_list = [float(e) for e in (eps_list if eps_list is not None else DEFAULT_EPS)]
    if not eps_list or any(not 0.0 < e < 1.0 for e in eps_list):
        raise ValueError("eps_list must be non-empty with entries in (0, 1)")
    if len(eps_list) < 2:
        raise ValueError("eps_list needs at least two entries to extrapolate")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    if params.p != 2 and params.beta < 0.0:
        raise UnsupportedRegimeError(
            "no sharpness family exists for beta < 0, p != 2")
    if params.p == 2 and compute_K(params).family is RegimeFamily.K_GT_1:
        if sigma_list:
            raise ValueError("sigma_list is forbidden for the K > 1 family")
        kind, sigmas = FamilyKind.P2_K_GT_1, [0.0]
    else:
        if sigma_list is None:
            # the general-p family's angular exponent is -1 + p*sigma, so its
            # default schedule keeps p*sigma at the p = 2 values
            sigma_list = [s * 2.0 / params.p for s in DEFAULT_SIGMA]
        sigmas = [float(s) for s in sigma_list]
        if len(sigmas) < 2:
            raise ValueError("sigma_list needs at least two entries to extrapolate")
        if any(not 0.0 < s < math.inf for s in sigmas) or len(set(sigmas)) < len(sigmas):
            raise ValueError("sigma_list entries must be distinct, positive and finite")
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
                kind = FamilyKind.P2_K_EQ_1
    families = [TrialFamily(kind, params, e, s) for s in sigmas for e in eps_list]
    return kind, eps_list, sigmas, families


def sweep_and_extrapolate(params: HardyParams, eps_list=None, sigma_list=None) -> SweepResult:
    """Sweep eps (and sigma), extrapolate the quotient to the sharp constant.

    K > 1: single-stage fit quotient = C + c/|ln eps|.  K <= 1 and general-p:
    per-sigma eps-extrapolation followed by a polynomial sigma intercept;
    general-p takes the intercepts of sigma times the two eps slopes
    (_fit_pole_ratio).  The default sigma schedule is DEFAULT_SIGMA, times
    2/p for general p.  Raises FitUnstableError (carrying the value) when
    the fitted constant or its residual is not finite, or the residual
    exceeds 5% of the constant.  Raises ValueError, before any quadrature,
    unless eps_list is strictly decreasing in (0, 1), the sigmas are
    distinct, positive and finite, each schedule has at least two entries,
    and every member is a valid TrialFamily.
    """
    kind, eps_list, sigmas, families = _plan_sweep(params, eps_list, sigma_list)
    quotients = (_quotients_general_p if kind is FamilyKind.GENERAL_P_BETA_NONNEG
                 else _quotients_p2)
    parts = quotients(families)
    rows = tuple(SweepRow(f.epsilon, f.sigma, q.numerator, q.denominator, q.quotient,
                          q.err_estimate) for f, q in zip(families, parts))
    if kind is FamilyKind.P2_K_GT_1:
        extrapolated, resid = _extrapolate_eps(eps_list, rows, log_affine=True)
        fit = FitInfo(FitModel.INV_LOG_EPS, resid)
    else:
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
