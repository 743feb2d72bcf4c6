"""Rayleigh-quotient sweeps over the extremizing trial families.

Trial functions are v = h(|x'|) g(|x|) with h a power and
g(r) = (r^2 + eps^2)^(e) eta(r), eta the C^2 cutoff.  After spherical
reduction the denominator of every member is a sin-power integral, taken
from its Beta closed form, times a radial integral over (0, 2).  The
gradient integrand couples r and the angle, but its angular integral at
each radial node is a closed form too: at an even p a sum of Beta terms in
the two terms of the gradient (linear at p = 2), Gauss hypergeometric
otherwise.  So every sweep, of any
family, takes the numerator and denominator radials of all its members in
one tanh-sinh pass.  Every radial integral runs on the panels (0, 1) and
(1, 2): eta leaves 1 at r = 1, a kink inside (0, 2) that would make tanh-sinh
converge only algebraically.  The panels change the values from those of
one-piece radials, within the error estimates; a batch of members still
gives each member the value it gets alone, to the bit.  All quotients are
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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (FitUnstableError, NotConvergedError, SingularParamsError,
                     UnsupportedRegimeError)
from .params import HardyParams, RegimeFamily, _k_value, admissible_hardy, compute_K
# integrate_1d, integrate_2d and integrate_angular are no longer called here;
# certbench's layer tracer looks them up by these names.
from .quadrature import (QuadratureSpec, _angular_resolved, _bracket_angular,  # noqa: F401
                         cutoff_eta, cutoff_eta_prime, integrate_1d, integrate_2d,
                         integrate_angular, integrate_rows, sin_power_integral)

__all__ = [
    "FamilyKind", "TrialFamily", "FitModel", "FitInfo", "SweepRow",
    "SweepResult", "quotient_p2", "quotient_general_p", "sweep_and_extrapolate",
    "DEFAULT_EPS", "DEFAULT_SIGMA",
]

DEFAULT_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
DEFAULT_SIGMA = (0.2, 0.1, 0.05, 0.025)

_SWEEP_SPEC_1D = QuadratureSpec(levels=11, abs_tol=1e-14, rel_tol=1e-10)
_SWEEP_SPEC_P = QuadratureSpec(levels=9, abs_tol=1e-12, rel_tol=5e-8)
#: The radial panels are (0, 1) and (1, _RADIAL_END): cutoff_eta leaves 1 at
#: r = 1, a C^2 kink of every radial integrand (C^1 where eta' enters), and
#: is 0 from r = 2 on.
_RADIAL_BREAKS, _RADIAL_END = (1.0,), 2.0


class FamilyKind(Enum):
    P2_K_GT_1 = "p2_K>1"
    P2_K_EQ_1 = "p2_K=1"
    P2_K_LT_1 = "p2_K<1"
    GENERAL_P_BETA_NONNEG = "general_p"


@dataclass(frozen=True)
class TrialFamily:
    """One member (eps, sigma) of an extremizing family.

    Its exponents are formed once, as the member is built: h_exponent, the
    power of |x'| in h, and exponents, the pair (a_phi, a_r) of _exponents.
    They take no part in equality or the repr.
    """

    kind: FamilyKind
    params: HardyParams
    epsilon: float
    sigma: float = 0.0
    h_exponent: float = field(init=False, repr=False, compare=False)
    exponents: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        p = self.params
        if not p.is_full_axis:
            raise ValueError("trial families are defined for k = n-1")
        if not admissible_hardy(p):                     # before K is read
            raise ValueError(f"inadmissible parameters: {p}")
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
                bound = math.sqrt(max(1.0 - self._K, 0.0)) / 2.0
                if not 0.0 < self.sigma < bound:
                    raise ValueError(
                        f"the K < 1 family requires 0 < sigma < {bound}")
        object.__setattr__(self, "h_exponent", self._h_exponent())
        object.__setattr__(self, "exponents", _exponents(self))
        for what, value in zip(("angular", "radial"), self.exponents):  # g(0) is finite
            if value <= -1.0:
                raise SingularParamsError(
                    f"reduced {what} exponent {value} <= -1; integral diverges")

    @cached_property
    def _K(self) -> float:
        """K of the member's parameters, by compute_K's expression of it, to
        the bit; the member checks admissibility itself."""
        return _k_value(self.params)

    def _h_exponent(self) -> float:
        """Power of |x'| in h."""
        p = self.params
        theta0 = (1.0 - p.n - 2.0 * p.alpha) / 2.0
        if self.kind is FamilyKind.P2_K_GT_1:
            return (-(p.n + 2.0 * p.alpha) + math.sqrt(self._K)) / 2.0
        if self.kind is FamilyKind.GENERAL_P_BETA_NONNEG:
            return -(p.n - 1.0 + p.p * p.alpha) / p.p + self.sigma
        return theta0 + self.sigma

    @property
    def g_exponent(self) -> float:
        """Exponent e of (r^2 + eps^2)^e inside g."""
        p = self.params
        if self.kind is FamilyKind.P2_K_GT_1:
            lam1 = -p.beta - math.sqrt(self._K) / 2.0
            return lam1 / 2.0
        if self.kind is FamilyKind.P2_K_EQ_1:
            lam0 = -p.beta - 0.5
            return (lam0 - self.sigma) / 2.0
        if self.kind is FamilyKind.P2_K_LT_1:
            lam0 = -p.beta - (1.0 + math.sqrt(1.0 - self._K)) / 2.0
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
    are floats, or columns of one per profile that broadcast against r."""
    q = r2 + e2
    qe = _power(q, ge)
    gp = 2.0 * ge * r
    gp *= _power(q, ge - 1.0)
    gp *= eta
    gp += qe * eta_prime
    qe *= eta
    return qe, gp


@dataclass(frozen=True)
class SweepRow:
    """One (eps, sigma) member's gradient integral (numerator), weighted L^p
    integral (denominator) and their quotient.  err_estimate is the larger
    relative quadrature error estimate of its two radial integrals: the
    angular factors are closed forms, a Beta function for the denominator
    and, for the numerator, a sum of p/2 + 1 Beta terms at an even p (a
    linear form at p = 2) and otherwise a Gauss hypergeometric function read
    from tables (quadrature._bracket_angular gives the accuracy of both)."""

    epsilon: float
    sigma: float
    numerator: float
    denominator: float
    quotient: float
    err_estimate: float


def _rel_err(*results) -> float:
    """Largest relative error estimate among quadrature results."""
    return max(r.err_estimate / max(abs(r.value), 1e-300) for r in results)


def quotient_p2(family: TrialFamily) -> SweepRow:
    """Weighted Rayleigh quotient of a p = 2 family member, as its SweepRow.

    The p = 2 case of the one radial pass (_quotients): the angular integral
    of the gradient bracket A cos^2 phi + C sin^2 phi is linear in A and C,
    A B(3/2, b) + C B(1/2, b + 1), and the denominator's is a Beta function,
    so err_estimate is the two radial integrals' alone.
    """
    if family.kind is FamilyKind.GENERAL_P_BETA_NONNEG:
        raise ValueError("quotient_p2 takes a p = 2 family")
    return _quotients((family,))[0]


def quotient_general_p(family: TrialFamily) -> SweepRow:
    """Rayleigh quotient of a general-p family member, as its SweepRow.

    The gradient integrand couples r and phi through |x'| = r sin(phi), but
    its angular integral against the weight sin(phi)^a_phi is a closed form
    at each radial node: at an even p a sum of p/2 + 1 Beta terms, and
    otherwise a Gauss hypergeometric function read from tables built once
    per (p, b) (quadrature._bracket_angular gives the accuracy of both); the
    denominator's is a Beta function.  err_estimate is the two radial
    integrals' alone.  A (p, b) that the closed form does not resolve (a
    p that is not even whose tables fail their checks, or an even p past
    the sum's range) raises NotConvergedError before any integrand is
    evaluated.  This is the one-member case of _quotients.
    """
    if family.kind is not FamilyKind.GENERAL_P_BETA_NONNEG:
        raise ValueError("quotient_general_p takes the general-p family")
    return _quotients((family,))[0]


def _exponents(family: TrialFamily) -> tuple[float, float]:
    """(a_phi, a_r): powers of sin(phi) and r shared by numerator and denominator.

    With h = s^theta and mu = n + 2 alpha + 2 theta they are mu - 2 and
    mu + 2 beta - 1 for the p = 2 families; for the general-p family
    a_phi = -1 + p*sigma and a_r = p*(beta + sigma) > 0.  The general-p
    a_phi is formed from p and sigma alone, so that the sweeps of one
    (p, sigma) share the cached tables of their angular closed form.
    """
    p, theta = family.params, family.h_exponent
    if family.kind is FamilyKind.GENERAL_P_BETA_NONNEG:
        return -1.0 + p.p * family.sigma, p.n - 1.0 + p.p * (p.alpha + p.beta + theta)
    mu = p.n + 2.0 * p.alpha + 2.0 * theta
    return mu - 2.0, mu + 2.0 * p.beta - 1.0


def _quotients(families) -> tuple[SweepRow, ...]:
    """The SweepRow of each member, all radial integrals in one pass.

    The members share one p, as _plan_sweep makes them.  The rows of the
    pass are the numerator and denominator of each member in turn (_rows),
    on the panels (0, 1) and (1, 2), to _SWEEP_SPEC_1D at p = 2 and
    _SWEEP_SPEC_P otherwise.  Each result is the one the member gets alone,
    to the bit, and a failure the first one met on the members in turn.  A
    (p, b) whose angular closed form is not resolved (_angular_resolved)
    raises NotConvergedError before any integrand is evaluated.
    """
    pw, exponents = families[0].params.p, [f.exponents for f in families]
    for b in dict.fromkeys((a_phi + 1.0) / 2.0 for a_phi, _ in exponents):
        if not _angular_resolved(pw, b):
            raise NotConvergedError(f"the angular closed form at (p, b) = ({pw}, {b}) is not "
                                    "resolved: its Chebyshev tables failed their checks, or "
                                    "its even p is past the Beta sum's range")
    spec = _SWEEP_SPEC_1D if pw == 2 else _SWEEP_SPEC_P
    rads = integrate_rows(_rows(families, exponents), 0.0, _RADIAL_END, spec, _RADIAL_BREAKS)

    rows = []
    for f, (a_phi, _), num, rad in zip(families, exponents, rads[0::2], rads[1::2]):
        den = sin_power_integral(a_phi) * rad.value
        rows.append(SweepRow(f.epsilon, f.sigma, num.value, den, num.value / den,
                             _rel_err(num, rad)))
    return tuple(rows)


#: Grid elements per block of members in the radial pass: small blocks keep
#: a level's temporaries in cache.
_BLOCK_ELEMENTS = 2 ** 12


def _rows(families, exponents):
    """Integrand of the radial pass: an array of shape (2 * members, nodes),
    the numerator and denominator rows of each member in turn, filled in
    blocks of members of about _BLOCK_ELEMENTS grid elements.

    |grad v|^2 = |x'|^(2 theta - 2) (A cos^2 phi + C sin^2 phi) for
    v = |x'|^theta g(|x|), with A = theta^2 g^2 and C = (theta g + r g')^2;
    both carry the radial weight r^a_r as r^(2 a_r / p).  The numerator row
    is _bracket_angular of A and C at the members' one p and each member's
    b = (a_phi + 1)/2: a sum of Beta terms at an even p, two products and a
    sum at p = 2, and otherwise a read of its tables.  The denominator row
    is r^a_r g^p.

    Each level forms r^2 and the cutoff once, and each distinct power of r
    once.  g depends on a member only through its radial profile, the pair
    (eps^2, g exponent), so g and r g' are formed once per profile, into
    (profiles, nodes) arrays that the members read: the 20 members of a
    default K < 1 sweep share 5 profiles, since its g exponent does not
    depend on sigma, and every other family has one profile per member.
    The profiles are numbered in the order the members first use them, so
    each block of members forms the profiles its members are the first to
    use and reads the others.  g^p is formed per member: at p = 2, the one
    p with shared profiles, it is a square, no dearer than reading a stored
    row.  A power that overflows, as r^a_r with a_r near -1 does at
    subnormal nodes, makes its row non-finite, which fails its member, and
    raises no warning.
    """
    pw = families[0].params.p
    bs = [(a_phi + 1.0) / 2.0 for a_phi, _ in exponents]
    r_keys, r_of = np.unique([e for _, a_r in exponents for e in (2.0 * a_r / pw, a_r)],
                             return_inverse=True)
    fold_of, den_of = r_of[0::2], r_of[1::2]
    # profile_of[i] is member i's profile, and the members up to i use the
    # first formed[i] profiles
    profiles, profile_of, formed = {}, [], []
    for f in families:
        profile_of.append(profiles.setdefault((f.epsilon * f.epsilon, f.g_exponent),
                                              len(profiles)))
        formed.append(len(profiles))
    profile_of = np.array(profile_of)
    e2, ge = (np.array(col)[:, None] for col in zip(*profiles))
    theta = np.array([f.h_exponent for f in families])[:, None]

    def rows(r):
        r2, eta, eta_prime = r * r, cutoff_eta(r), cutoff_eta_prime(r)
        step, out = max(1, _BLOCK_ELEMENTS // r.size), np.empty((2 * len(families), r.size))
        g, r_gp = np.empty((2, len(profiles), r.size))
        done = 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_pow = _power(r, r_keys[:, None])
            for i in range(0, len(families), step):
                m, block = slice(i, i + step), out[2 * i:2 * (i + step)]
                new = slice(done, formed[m][-1])
                if new.start < new.stop:         # else every profile it reads is formed
                    g[new], gp = _g_and_prime(r, r2, eta, eta_prime, e2[new], ge[new])
                    np.multiply(r, gp, out=r_gp[new])
                done, own = new.stop, profile_of[m]
                g_own, fold = g.take(own, axis=0), r_pow.take(fold_of[m], axis=0)
                np.multiply(r_pow.take(den_of[m], axis=0), g_own ** pw, out=block[1::2])
                A = np.multiply(theta[m], g_own, out=g_own)      # theta g
                C = r_gp.take(own, axis=0)
                C += A                                           # theta g + r g'
                for part in (A, C):
                    np.square(part, out=part)
                    part *= fold
                block[0::2] = _bracket_angular(A, C, pw, bs[m])
        return out
    return rows


# ------------------------------------------------------------------ sweeps

class FitModel(Enum):
    INV_LOG_EPS = "ratio of the |ln eps| slopes of numerator and denominator"
    LINEAR_SIGMA = ("sigma = 0 intercept of degree min(3, n_sigma - 1) polynomials of the "
                    "eps limits (general p: of sigma times the |ln eps| slopes)")


@dataclass(frozen=True)
class FitInfo:
    model: FitModel
    residual: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    extrapolated: float
    fit: FitInfo


def _fit_inv_log(eps, slices):
    """eps -> 0 limit of each sigma slice's quotients under
    quotient = C + c/|ln eps|: the intercepts C, all slices in one polyfit,
    a column per slice."""
    x = 1.0 / np.abs(np.log(np.asarray(eps, dtype=float)))
    q = np.array([[r.quotient for r in sl] for sl in slices]).T
    return np.polynomial.polynomial.polyfit(x, q, 1)[0]


def _eps_lines(eps, slices):
    """|ln eps| and, per sigma slice, the lines through its numerators and
    denominators against it: columns (intercept, slope) of cn and cd, one per
    slice, all slices in one polyfit with a numerator and a denominator
    column each.

    For families whose numerator and denominator are each affine in |ln eps|
    (K > 1, K = 1, general-p), a slice's eps -> 0 limit is the ratio of the
    two slopes; the plain intercept of quotient = C + c/|ln eps| carries an
    O(1/|ln eps|^2) window bias that the slope ratio does not.  The K < 1
    family has no log growth (its eps-power cancels in the quotient), so
    there the intercept fit (_fit_inv_log) is the right model.
    """
    L = np.abs(np.log(np.asarray(eps, dtype=float)))
    lines = np.polynomial.polynomial.polyfit(
        L, [[v for sl in slices for v in (sl[i].numerator, sl[i].denominator)]
            for i in range(len(L))], 1)
    return L, lines[:, 0::2], lines[:, 1::2]


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
    y = xa[:, None] * np.asarray([num_slopes, den_slopes], dtype=float).T
    yn, yd = y.T
    deg = min(3, len(xa) - 1)
    cn, cd = np.polynomial.polynomial.polyfit(xa, y, deg).T
    value = float(cn[0] / cd[0])
    fitted = (np.polynomial.polynomial.polyval(xa, cn)
              / np.polynomial.polynomial.polyval(xa, cd))
    rms = float(np.sqrt(np.mean((fitted - yn / yd) ** 2)))
    if len(xa) > deg + 1:
        return value, rms
    lower_n, lower_d = np.polynomial.polynomial.polyfit(xa, y, deg - 1)[0]
    return value, max(rms, abs(value - float(lower_n / lower_d)))


def _plan_sweep(params: HardyParams, eps_list, sigma_list):
    """(kind, eps list, sigmas, families) of a sweep, every member built.

    Every refusal of a sweep is raised here, before any quadrature runs:
    the eps and sigma schedules, each of at least two entries since one
    point fixes no limit, and at least three eps for the K > 1 family, whose
    eps-only fit would otherwise pass exactly through its points with a
    residual of 0; the beta < 0 general-p regime; and each member's own
    checks in TrialFamily.  The family follows the regime: K > 1
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
    regime = compute_K(params) if params.p == 2 else None
    if regime is not None and regime.family is RegimeFamily.K_GT_1:
        if sigma_list:
            raise ValueError("sigma_list is forbidden for the K > 1 family")
        if len(eps_list) < 3:
            raise ValueError("eps_list needs at least three entries for the K > 1 family: "
                             "its fit is in eps alone, and a line through two points "
                             "has no residual")
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
        elif regime.family is RegimeFamily.K_EQ_1:
            kind = FamilyKind.P2_K_EQ_1
        else:
            bound = math.sqrt(1.0 - regime.k_value) / 2.0
            kept = [s for s in sigmas if s < bound]
            if len(kept) >= 2:
                sigmas, kind = kept, FamilyKind.P2_K_LT_1
            else:
                kind = FamilyKind.P2_K_EQ_1
    families = [TrialFamily(kind, params, e, s) for s in sigmas for e in eps_list]
    return kind, eps_list, sigmas, families


def sweep_and_extrapolate(params: HardyParams, eps_list=None, sigma_list=None) -> SweepResult:
    """Sweep eps (and sigma), extrapolate the quotient to the sharp constant.

    K > 1: one eps stage, the ratio of the |ln eps| slopes of numerator and
    denominator (FitModel.INV_LOG_EPS).  K <= 1 and general-p: per-sigma
    eps-extrapolation, then a polynomial sigma intercept (LINEAR_SIGMA);
    general-p takes the intercepts of sigma times the two eps slopes
    (_fit_pole_ratio).  The default sigma schedule is DEFAULT_SIGMA, times
    2/p for general p.  Raises FitUnstableError (carrying the value) when
    the fitted constant or its residual is not finite, or the residual
    exceeds 5% of the constant.  Raises ValueError, before any quadrature,
    unless eps_list is strictly decreasing in (0, 1), the sigmas are
    distinct, positive and finite, each schedule has at least two entries
    (three eps for K > 1), and every member is a valid TrialFamily.
    """
    kind, eps_list, sigmas, families = _plan_sweep(params, eps_list, sigma_list)
    rows = _quotients(families)
    slices = [[r for r in rows if r.sigma == s] for s in sigmas]
    if kind is FamilyKind.P2_K_LT_1:
        extrapolated, resid = _fit_sigma_intercept(sigmas, _fit_inv_log(eps_list, slices))
    else:
        L, cn, cd = _eps_lines(eps_list, slices)
        if kind is FamilyKind.P2_K_GT_1:
            (n0, n1), (d0, d1) = cn[:, 0], cd[:, 0]
            fitted = (n0 + n1 * L) / (d0 + d1 * L)
            q = np.asarray([r.quotient for r in rows])
            extrapolated, resid = float(n1 / d1), float(np.sqrt(np.mean((fitted - q) ** 2)))
        elif kind is FamilyKind.GENERAL_P_BETA_NONNEG:
            extrapolated, resid = _fit_pole_ratio(sigmas, cn[1], cd[1])
        else:
            extrapolated, resid = _fit_sigma_intercept(sigmas, cn[1] / cd[1])
    fit = FitInfo(FitModel.INV_LOG_EPS if kind is FamilyKind.P2_K_GT_1
                  else FitModel.LINEAR_SIGMA, resid)

    if not (math.isfinite(extrapolated) and math.isfinite(resid)):
        raise FitUnstableError(
            f"fit is not finite: value {extrapolated}, residual {resid}",
            value=extrapolated, residual=resid)
    if resid > 0.05 * abs(extrapolated):
        raise FitUnstableError(
            f"fit residual {resid} exceeds 5% of {extrapolated}",
            value=extrapolated, residual=resid)
    return SweepResult(rows, extrapolated, fit)
