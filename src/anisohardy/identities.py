"""Quadrature certification of the divergence identities behind the inequalities.

The engine identity for p = 2,

    int V |grad u|^2 = -int div(V grad f)/f u^2 + int V f^2 |grad(u/f)|^2,

its p-version with the Picone-type remainder R, and the CKN product identity
are checked on compactly supported bumps placed away from the singular set.
Bump gradients and grad log f are analytic, so quadrature error is isolated
from differentiation error; finite differences are left only in the
pointwise spot check of the CKN flux divergence.

Integrals run over the bump's support ball B(c, 2w) with a product rule in
spherical coordinates about its centre c (Stroud 1971): Gauss-Legendre in
the radius on [0, w] and on [w, 2w], split at the cutoff's C^2 seam, times
a rule on the sphere S^(n-1) (trapezoid in the azimuth, Gauss-Gegenbauer in
each further polar angle).  The integrands are smooth on each radial piece.
Every check runs at orders 16 and 12; it reports the order-16 residual and
takes the largest term difference between the orders as its error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_form import sharp_constant_general_p
from .errors import (EmptyInputError, IllConditionedError, NegativeRemainderError,
                     SupportViolationError, TruncationError)
from .params import CknParams, HardyParams, admissible_ckn
from .quadrature import (QuadratureSpec, cutoff_eta, cutoff_eta_prime, gauss_jacobi,
                         integrate_1d)
from .weights import WeightSpec, axis_norms, weight_general_p, weight_p2

__all__ = [
    "BumpFunction", "IdentityReport", "ExtremalReport", "SpotTestReport",
    "r_functional", "verify_E2", "verify_Ep", "verify_CKNp",
    "ckn_extremal_check", "hardy_spot_test",
]

_CLAMP_REL = 1e-12


def r_functional(X, Y, p: float) -> float:
    """Picone-type remainder R(X, Y) = (p-1)|Y|^p + |X|^p + p|Y|^(p-2) <Y, X>.

    Nonnegative for p > 1 by Young's inequality.  R is a cancelling sum, so
    negatives down to -1e-12 times (p-1)|Y|^p + |X|^p + |p|Y|^(p-2) <Y, X>|
    are rounding and are clamped to zero; anything lower raises
    NegativeRemainderError because it indicates a bug, not a mathematical case.
    """
    if p <= 1:
        raise ValueError(f"r_functional requires p > 1, got {p}")
    xv = np.asarray(X, dtype=float).reshape(1, -1)
    yv = np.asarray(Y, dtype=float).reshape(1, -1)
    return float(_r_rows(xv, yv, p)[0])


def _r_rows(X, Y, p: float, relative: bool = False):
    """Row-wise r_functional for (N, n) arrays, with the same clamping.

    At Y = 0 the cross term |Y|^(p-1) <Y/|Y|, X> tends to 0 for p > 1.
    With relative=True each R is divided by the size of its terms, the
    scale of its floor (0 where every term vanishes).
    """
    nx = np.linalg.norm(X, axis=-1)
    ny = np.linalg.norm(Y, axis=-1)
    dot = np.sum(X * Y, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(ny > 0.0, p * ny ** (p - 2.0) * dot, 0.0)
    sizes = (p - 1.0) * ny ** p + nx ** p
    value = sizes + cross
    low = value < -_CLAMP_REL * (sizes + np.abs(cross))
    if np.any(low):
        raise NegativeRemainderError(
            f"R(X, Y) reached {float(np.min(value[low]))}, below -1e-12 times "
            "the size of its terms")
    value = np.maximum(value, 0.0)
    if relative:
        size = sizes + np.abs(cross)
        return np.divide(value, size, out=np.zeros_like(value), where=size > 0.0)
    return value


@dataclass(frozen=True)
class BumpFunction:
    """u(x) = P((x - center) . direction) * eta(|x - center| / width).

    P is a polynomial of degree <= 3; u vanishes outside the ball of radius
    2*width.  The placement rule |center'| > 3*width keeps a one-width margin
    from {x' = 0} (and from the origin, since |center| >= |center'|).
    """

    center: tuple
    width: float
    polynomial_degree: int = 0
    coefficients: tuple = (1.0,)
    direction: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if self.width <= 0:
            raise ValueError("width must be positive")
        if not 0 <= self.polynomial_degree <= 3:
            raise ValueError("polynomial_degree must lie in 0..3")
        if len(self.coefficients) != self.polynomial_degree + 1:
            raise ValueError("need polynomial_degree + 1 coefficients")
        if self.direction is None:
            d = (1.0,) + (0.0,) * (len(self.center) - 1)
            object.__setattr__(self, "direction", d)
        else:
            d = np.asarray(self.direction, dtype=float)
            if d.shape != (len(self.center),) or not np.linalg.norm(d) > 0:
                raise ValueError("direction must be a nonzero vector matching center")
            object.__setattr__(self, "direction",
                               tuple(float(x) for x in d / np.linalg.norm(d)))
        cprime = math.hypot(*self.center[:-1]) if len(self.center) > 1 else abs(self.center[0])
        if not cprime > 3.0 * self.width:
            raise SupportViolationError(
                f"|center'| = {cprime} must exceed 3*width = {3 * self.width}")

    @property
    def support_radius(self) -> float:
        return 2.0 * self.width

    def _poly(self, q):
        out = np.zeros_like(q)
        for c in reversed(self.coefficients):
            out = out * q + c
        return out

    def _poly_prime(self, q):
        out = np.zeros_like(q)
        deg = self.polynomial_degree
        for i, c in enumerate(self.coefficients[1:], start=1):
            out = out + i * c * q ** (i - 1)
        return out if deg >= 1 else np.zeros_like(q)

    def value(self, x):
        arr = np.asarray(x, dtype=float)
        z = arr - np.asarray(self.center)
        q = z @ np.asarray(self.direction)
        rho = np.linalg.norm(z, axis=-1)
        return self._poly(q) * cutoff_eta(rho / self.width)

    def gradient(self, x):
        arr = np.asarray(x, dtype=float)
        z = arr - np.asarray(self.center)
        dirv = np.asarray(self.direction)
        q = z @ dirv
        rho = np.linalg.norm(z, axis=-1)
        eta = cutoff_eta(rho / self.width)
        etap = cutoff_eta_prime(rho / self.width)
        safe_rho = np.where(rho > 0.0, rho, 1.0)
        radial = (self._poly(q) * etap / self.width / safe_rho)[..., None] * z
        return self._poly_prime(q)[..., None] * dirv * eta[..., None] + radial


@dataclass(frozen=True)
class IdentityReport:
    """lhs and rhs terms at rule order 16, and |lhs - sum(rhs)| relative to
    |lhs| + sum|rhs|.  nodes counts the order-16 rule; err_estimate is the
    largest change of lhs or a term from order 12, over the same denominator."""

    lhs: float
    rhs_terms: dict
    residual_rel: float
    nodes: int = 0
    err_estimate: float = 0.0


#: Rule orders: the report comes from the first, the error estimate from
#: its difference to the second.
_ORDERS = (16, 12)


@lru_cache(maxsize=16)
def _sphere_rule(n: int, m: int):
    """Product rule on the unit sphere S^(n-1) of R^n: (directions, weights).

    The 2m-point trapezoid rule in the azimuth of the first two coordinates
    makes S^1.  S^(d-1), d = 3..n, is sliced at heights x_d = t, which scale
    S^(d-2) by sqrt(1 - t^2) and carry the measure (1 - t^2)^((d-3)/2) dt:
    the m-point Gauss-Gegenbauer rule.  Read-only and cached.
    """
    phi = np.pi * np.arange(2 * m) / m
    dirs = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    wts = np.full(2 * m, np.pi / m)
    for d in range(3, n + 1):
        t, w = gauss_jacobi(m, 0.5 * (d - 3), 0.5 * (d - 3))
        ring = np.sqrt(1.0 - t * t)[:, None, None] * dirs
        dirs = np.concatenate([ring.reshape(-1, d - 1),
                               np.repeat(t, len(wts))[:, None]], axis=1)
        wts = np.outer(w, wts).ravel()
    dirs.setflags(write=False)
    wts.setflags(write=False)
    return dirs, wts


def _ball_nodes(u, m: int):
    """Order-m product rule on the support ball B(center, 2 width) of u.

    Gauss-Legendre radii on [0, w] and [w, 2w] with the Jacobian rho^(n-1),
    times _sphere_rule(n, m): 2m * 2m * m^(n-2) nodes.
    """
    n = len(u.center)
    t, w = gauss_jacobi(m, 0.0, 0.0)
    half = 0.5 * u.width
    rho = np.concatenate([half * (t + 1.0), half * (t + 3.0)])
    w_rho = half * np.concatenate([w, w]) * rho ** (n - 1)
    dirs, w_dir = _sphere_rule(n, m)
    pts = np.asarray(u.center) + (rho[:, None, None] * dirs).reshape(-1, n)
    return pts, np.outer(w_rho, w_dir).ravel()


def _two_orders(u, terms) -> IdentityReport:
    """Report terms(pts, wts) -> (lhs, rhs_terms) at both rule orders."""
    fine, coarse = (_ball_nodes(u, m) for m in _ORDERS)
    lhs, rhs = terms(*fine)
    lhs_c, rhs_c = terms(*coarse)
    denom = abs(lhs) + sum(abs(v) for v in rhs.values()) + 1e-300
    change = max([abs(lhs - lhs_c)] + [abs(rhs[k] - rhs_c[k]) for k in rhs])
    return IdentityReport(lhs, rhs, abs(lhs - sum(rhs.values())) / denom,
                          nodes=len(fine[1]), err_estimate=change / denom)


def _check_support_clear(u, k: int):
    c = np.asarray(u.center, dtype=float)
    cprime = float(np.linalg.norm(c[:k]))
    cfull = float(np.linalg.norm(c))
    if cprime <= 3.0 * u.width or cfull <= 3.0 * u.width:
        raise SupportViolationError(
            "bump support reaches into the singular-set margin "
            f"(|center'|={cprime}, |center|={cfull}, width={u.width})")


def _log_f_gradient(spec: WeightSpec, pts):
    """grad log f = theta x'/|x'|^2 + lam x/|x|^2 (theta = gamma, lam = 0 on the gamma path)."""
    k = spec.params.k
    if spec.exponents is None:
        theta, lam = spec.gamma, 0.0
    else:
        theta, lam = spec.exponents.theta, spec.exponents.lam
    s = np.linalg.norm(pts[:, :k], axis=-1)
    r = np.linalg.norm(pts, axis=-1)
    grad = lam * pts / (r * r)[:, None]
    grad[:, :k] += theta * pts[:, :k] / (s * s)[:, None]
    return grad


def verify_E2(spec: WeightSpec, u) -> IdentityReport:
    """Check int V|grad u|^2 = int W u^2 + int V f^2 |grad(u/f)|^2 on a bump.

    W is the closed-form weight and V f^2 |grad(u/f)|^2 = V |grad u - u grad log f|^2
    is analytic, so the residual is quadrature-limited, expected at or below 1e-6.
    """
    params = spec.params
    if params.p != 2 or spec.exponents is None:
        raise ValueError("verify_E2 needs a p = 2 WeightSpec with exponents")
    _check_support_clear(u, params.k)

    def terms(pts, wts):
        uval = u.value(pts)
        ugrad = u.gradient(pts)
        v = spec.V(pts)
        w_closed = weight_p2(pts, spec)
        lhs = float(np.sum(wts * v * np.sum(ugrad * ugrad, axis=-1)))
        t_weight = float(np.sum(wts * w_closed * uval * uval))
        f_ratio_grad = ugrad - uval[:, None] * _log_f_gradient(spec, pts)
        t_remainder = float(np.sum(wts * v * np.sum(f_ratio_grad * f_ratio_grad, axis=-1)))
        return lhs, {"weight_term": t_weight, "remainder_term": t_remainder}

    return _two_orders(u, terms)


def verify_Ep(spec: WeightSpec, u) -> IdentityReport:
    """Check the p-version with the Picone remainder R(grad u, -u grad f / f).

    The trial function is f = |x'|^gamma, whose logarithmic gradient
    gamma x'/|x'|^2 is analytic, so only quadrature error enters; residual
    expected at or below 1e-5.
    """
    params = spec.params
    if spec.gamma is None:
        raise ValueError("verify_Ep needs a WeightSpec with gamma")
    p = params.p
    if p <= 1:
        raise ValueError("verify_Ep requires p > 1")
    if p < 2 and spec.gamma == 0.0:
        raise ValueError("p < 2 requires |grad f| > 0, so gamma != 0")
    _check_support_clear(u, params.k)

    def terms(pts, wts):
        uval = u.value(pts)
        ugrad = u.gradient(pts)
        v = spec.V(pts)
        w_closed = weight_general_p(pts, spec)
        lhs = float(np.sum(wts * v * np.linalg.norm(ugrad, axis=-1) ** p))
        t_weight = float(np.sum(wts * w_closed * np.abs(uval) ** p))
        rvals = _r_rows(ugrad, -uval[:, None] * _log_f_gradient(spec, pts), p)
        t_remainder = float(np.sum(wts * v * rvals))
        return lhs, {"weight_term": t_weight, "remainder_term": t_remainder}

    return _two_orders(u, terms)


# ------------------------------------------------------------------- CKN

def _ckn_fields(ckn: CknParams, pts):
    """(V, F, |F|, closed-form div(V |F|^(p-2) F)) at the given points."""
    s, r = axis_norms(pts, ckn.n - 1)
    V = s ** (ckn.p * ckn.mu) * r ** (ckn.p * ckn.gamma2)
    fmag = s ** (ckn.beta - ckn.mu) * r ** (ckn.gamma3 - ckn.gamma2)
    F = (s ** (ckn.beta - ckn.mu) * r ** (ckn.gamma3 - ckn.gamma2 - 1.0))[..., None] * pts
    div_closed = ((ckn.n + ckn.p * (ckn.alpha + ckn.gamma1))
                  * s ** (ckn.alpha * ckn.p) * r ** (ckn.gamma1 * ckn.p))
    return V, F, fmag, div_closed


def _ckn_flux_divergence_fd(ckn: CknParams, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """FD divergence of the flux V |F|^(p-2) F at the rows of x, Richardson pair.

    V |F|^(p-2) F = |x'|^(b(p-1)+mu) |x|^(g3(p-1)+g2-1) x.  Row j takes central
    differences with steps h[j] and h[j]/2 along each axis; every shifted
    point is evaluated in one array pass.
    """
    n = ckn.n
    steps = np.multiply.outer([1.0, 0.5], h)                        # (2, N)
    signed = np.stack([steps, -steps])[:, :, None, :]               # (2, 2, 1, N)
    # z[sign, level, axis i, row] = x[row] + sign * step * e_i
    z = x + signed[..., None] * np.eye(n)[:, None, :]
    s, r = axis_norms(z, n - 1)
    mag = (s ** (ckn.beta * (ckn.p - 1.0) + ckn.mu)
           * r ** (ckn.gamma3 * (ckn.p - 1.0) + ckn.gamma2 - 1.0))
    flux = mag * (x.T + signed)                                     # component i of z
    div = np.sum((flux[0] - flux[1]) / (2.0 * steps[:, None, :]), axis=1)
    return (4.0 * div[1] - div[0]) / 3.0


def _ckn_divergence_spot_check(ckn: CknParams, u, seed: int, count: int) -> float:
    """Largest relative error of the closed-form flux divergence against finite
    differences at count points drawn in the annulus 0.2 w < |x - c| < 1.5 w;
    IllConditionedError when it exceeds 1e-6."""
    rng = np.random.default_rng(seed)
    center = np.asarray(u.center)
    x = np.empty((count, ckn.n))
    for j in range(count):
        direction = rng.normal(size=ckn.n)
        direction /= np.linalg.norm(direction)
        x[j] = center + rng.uniform(0.2, 1.5) * u.width * direction
    fd = _ckn_flux_divergence_fd(ckn, x, 1e-4 * (1.0 + np.linalg.norm(x, axis=-1)))
    closed = _ckn_fields(ckn, x)[3]
    errors = np.abs(fd - closed) / np.maximum(np.abs(closed), 1e-300)
    worst = float(np.max(errors, initial=0.0))
    if not worst <= 1e-6:
        j = int(np.argmax(errors))
        raise IllConditionedError(
            f"closed-form flux divergence disagrees with finite differences "
            f"(relative error {worst:.3e})", value=float(fd[j]), disagreement=worst)
    return worst


def verify_CKNp(ckn: CknParams, u, seed: int = 0, n_div_points: int = 20) -> IdentityReport:
    """Check the CKN product identity with kappa0 taken from the integrals.

    Also spot-checks the closed-form flux divergence
    [n + p(alpha+gamma1)] |x'|^(alpha p) |x|^(gamma1 p) against finite
    differences at n_div_points support points (relative error <= 1e-6
    required, IllConditionedError otherwise).
    """
    flags = admissible_ckn(ckn)
    if not flags.normalized:
        raise ValueError("verify_CKNp requires the normalized exponent relation")
    _check_support_clear(u, ckn.n - 1)
    p = ckn.p

    def terms(pts, wts):
        V, F, fmag, div_closed = _ckn_fields(ckn, pts)
        uval = u.value(pts)
        ugrad = u.gradient(pts)
        i_grad = float(np.sum(wts * V * np.linalg.norm(ugrad, axis=-1) ** p))
        i_field = float(np.sum(wts * V * fmag ** p * np.abs(uval) ** p))
        if i_grad == 0.0 or i_field == 0.0:
            return 0.0, {"divergence_term": 0.0, "remainder_term": 0.0}
        kappa0 = (i_grad / i_field) ** ((p - 1.0) / p)
        lhs = i_grad ** (1.0 / p) * i_field ** ((p - 1.0) / p)
        t_div = float(np.sum(wts * div_closed * np.abs(uval) ** p)) / p
        rvals = _r_rows(ugrad, (uval * kappa0 ** (1.0 / (p - 1.0)))[:, None] * F, p)
        t_rem = float(np.sum(wts * V / (p * kappa0) * rvals))
        return lhs, {"divergence_term": t_div, "remainder_term": t_rem}

    report = _two_orders(u, terms)
    _ckn_divergence_spot_check(ckn, u, seed, n_div_points)
    return report


@dataclass(frozen=True)
class ExtremalReport:
    quotient: float
    constant: float
    residual_R_max: float


def ckn_extremal_check(ckn: CknParams, kappa0: float = 1.0,
                       delta: float = 1e-6) -> ExtremalReport:
    """Evaluate the CKN quotient on the exponential extremal u0 = exp(-c |x|^m).

    m = gamma3 - gamma2 + 1 > 0 and c = kappa0^(1/(p-1))/m make
    grad u0 = -u0 kappa0^(1/(p-1)) F exactly, so the remainder R vanishes and
    the quotient must hit (n + p(alpha+gamma1))/p.  Radial integrals run over
    (0, R) by tanh-sinh, which takes the r^a singularity at 0 (a > -1), with
    R doubled until the tail is negligible; delta is the smallest radius of
    the pointwise remainder check.  residual_R_max is the largest remainder
    there relative to the size of its terms, the scale r_functional floors
    it on: the terms grow like r^(p(m-1)) as r -> 0, so an absolute R reads
    their rounding.
    """
    flags = admissible_ckn(ckn)
    if not flags.all_ok:
        raise ValueError("ckn_extremal_check requires an admissible CKN instance")
    if not ckn.symmetric:
        raise ValueError("the extremal family needs alpha = beta = mu")
    m = ckn.gamma3 - ckn.gamma2 + 1.0
    if not m > 0.0:
        raise ValueError("the extremal family needs gamma3 - gamma2 + 1 > 0")
    p = ckn.p
    c = kappa0 ** (1.0 / (p - 1.0)) / m

    a_grad = ckn.n - 1.0 + p * ckn.alpha + p * ckn.gamma2 + (m - 1.0) * p
    a_field = ckn.n - 1.0 + p * ckn.alpha + p * ckn.gamma3
    a_den = ckn.n - 1.0 + p * ckn.alpha + p * ckn.gamma1

    spec = QuadratureSpec(levels=9, abs_tol=1e-15, rel_tol=1e-12)

    def segment(a_exp, lo, hi):
        return integrate_1d(
            lambda r: r ** a_exp * np.exp(-p * c * r ** m), lo, hi, spec).value

    totals = {"grad": 0.0, "field": 0.0, "den": 0.0}
    exps = {"grad": a_grad, "field": a_field, "den": a_den}
    lo, hi = 0.0, 2.0
    for _ in range(24):
        last = {k: segment(e, lo, hi) for k, e in exps.items()}
        for k in totals:
            totals[k] += last[k]
        if all(abs(last[k]) <= 1e-9 * max(abs(totals[k]), 1e-300) for k in totals):
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise TruncationError(
            f"radial tail still above tolerance at R = {hi}")

    i_grad = (c * m) ** p * totals["grad"]
    quotient = (i_grad ** (1.0 / p) * totals["field"] ** ((p - 1.0) / p)
                / totals["den"])
    constant = (ckn.n + p * (ckn.alpha + ckn.gamma1)) / p

    radii = np.geomspace(delta, hi, 64)
    grad = np.zeros((radii.size, ckn.n))
    grad[:, 0] = -c * m * radii ** (m - 1.0) * np.exp(-c * radii ** m)
    worst = float(np.max(_r_rows(grad, -grad, p, relative=True)))
    return ExtremalReport(float(quotient), float(constant), worst)


@dataclass(frozen=True)
class SpotTestReport:
    min_quotient: float
    constant: float


def hardy_spot_test(params: HardyParams, bumps) -> SpotTestReport:
    """Rayleigh quotients of arbitrary bumps must dominate the closed constant."""
    bumps = list(bumps)
    if not bumps:
        raise EmptyInputError("hardy_spot_test needs at least one bump")
    p = params.p
    best = math.inf
    for u in bumps:
        _check_support_clear(u, params.k)
        pts, wts = _ball_nodes(u, _ORDERS[0])
        s, r = axis_norms(pts, params.k)
        v = s ** (p * (params.alpha + 1.0)) * r ** (p * params.beta)
        num = float(np.sum(wts * v * np.linalg.norm(u.gradient(pts), axis=-1) ** p))
        den = float(np.sum(wts * v * s ** (-p) * np.abs(u.value(pts)) ** p))
        best = min(best, num / den)
    return SpotTestReport(best, sharp_constant_general_p(params).value)
