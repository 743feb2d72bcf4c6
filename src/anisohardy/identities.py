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

The rule's nodes are coordinate-major: an (n, N) array whose coordinate
rows are contiguous, so each operation runs once over all N nodes instead
of over the n coordinates of each node.  At each order the bump's geometry
(z = x - c, q = z . direction, rho = |z|, eta(rho/w), eta'(rho/w)) is
formed once for u and grad u, and |x'| and |x| once for all of a check's
terms.  A sum over coordinates adds the rows in coordinate order, which
gives the bits of numpy's sum over the last axis of the row-major (N, n)
array.  Functions of (..., n) points (weight_p2, weight_general_p,
axis_norms, and the value and gradient of a bump that is not a
BumpFunction) take the (N, n) view x.T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_form import sharp_constant_general_p
from .errors import (EmptyInputError, IllConditionedError, NegativeRemainderError,
                     SupportViolationError)
from .params import CknParams, HardyParams, admissible_ckn
# integrate_1d is no longer called here; certbench's layer tracer looks it up
# by this name.
from .quadrature import (cutoff_eta, cutoff_eta_prime, gauss_jacobi,  # noqa: F401
                         integrate_1d, log_gamma)
from .weights import WeightSpec, axis_norms, weight_general_p, weight_p2

__all__ = [
    "BumpFunction", "IdentityReport", "ExtremalReport", "SpotTestReport",
    "r_functional", "verify_E2", "verify_Ep", "verify_CKNp",
    "ckn_extremal_check", "hardy_spot_test",
]

_CLAMP_REL = 1e-12


def _dot(a, b):
    """sum_i a_i b_i over the coordinate rows of a and b, in coordinate order:
    the bits of np.sum(a * b, axis=-1) on the row-major transposes."""
    total = a[0] * b[0]
    for i in range(1, len(a)):
        total += a[i] * b[i]
    return total


def _norms(x, k: int):
    """(|x'|, |x|) at coordinate-major points x (n, ...), x' the first k rows;
    the bits of axis_norms(x.T, k)."""
    sq = x[0] * x[0]
    for i in range(1, k):
        sq += x[i] * x[i]
    s = np.sqrt(sq)
    for i in range(k, len(x)):
        sq += x[i] * x[i]
    return s, np.sqrt(sq)


def r_functional(X, Y, p: float) -> float:
    """Picone-type remainder R(X, Y) = (p-1)|Y|^p + |X|^p + p|Y|^(p-2) <Y, X>.

    Nonnegative for p > 1 by Young's inequality.  R is a cancelling sum, so
    negatives down to -1e-12 times (p-1)|Y|^p + |X|^p + |p|Y|^(p-2) <Y, X>|
    are rounding and are clamped to zero; anything lower raises
    NegativeRemainderError because it indicates a bug, not a mathematical case.
    """
    if p <= 1:
        raise ValueError(f"r_functional requires p > 1, got {p}")
    xv = np.asarray(X, dtype=float).reshape(-1, 1)
    yv = np.asarray(Y, dtype=float).reshape(-1, 1)
    return float(_r_rows(xv, yv, p)[0])


def _r_rows(X, Y, p: float, relative: bool = False):
    """r_functional at every node of coordinate-major (n, N) arrays, with the
    same clamping.

    At Y = 0 the cross term |Y|^(p-1) <Y/|Y|, X> tends to 0 for p > 1.
    With relative=True each R is divided by the size of its terms, the
    scale of its floor (0 where every term vanishes).
    """
    nx = np.sqrt(_dot(X, X))
    ny = np.sqrt(_dot(Y, Y))
    dot = _dot(X, Y)
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
        """u at points x of shape (n,) or (..., n)."""
        return self._fields(_coordinate_major(x))[0]

    def gradient(self, x):
        """grad u at points x of shape (n,) or (..., n), in the same shape."""
        return np.moveaxis(self._fields(_coordinate_major(x))[1], 0, -1)

    def _fields(self, x):
        """(u, grad u) at coordinate-major points x of shape (n, ...); the
        gradient is coordinate-major too.  z = x - center, q = z . direction,
        rho = |z| and the cutoff's eta and eta' are formed once for both."""
        center = np.asarray(self.center).reshape((-1,) + (1,) * (np.ndim(x) - 1))
        z = x - center
        # q is the row-major matrix-vector product, not a sum over rows: BLAS
        # rounds it with fused multiply-adds.
        q = np.stack(tuple(z), axis=-1) @ np.asarray(self.direction)
        rho = np.sqrt(_dot(z, z))
        t = rho / self.width
        eta = cutoff_eta(t)
        etap = cutoff_eta_prime(t)
        poly = self._poly(q)
        radial = poly * etap / self.width / np.where(rho > 0.0, rho, 1.0)
        slope = self._poly_prime(q)
        grad = radial * z
        for i, d in enumerate(self.direction):
            grad[i] += slope * d * eta
        return poly * eta, grad


def _coordinate_major(x):
    """Points (..., n) as a coordinate-major view (n, ...)."""
    return np.moveaxis(np.asarray(x, dtype=float), -1, 0)


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
    """Product rule on the unit sphere S^(n-1) of R^n: coordinate-major
    directions (n, M) and weights (M,).

    The 2m-point trapezoid rule in the azimuth of the first two coordinates
    makes S^1.  S^(d-1), d = 3..n, is sliced at heights x_d = t, which scale
    S^(d-2) by sqrt(1 - t^2) and carry the measure (1 - t^2)^((d-3)/2) dt:
    the m-point Gauss-Gegenbauer rule.  Read-only and cached.
    """
    phi = np.pi * np.arange(2 * m) / m
    dirs = np.stack([np.cos(phi), np.sin(phi)])
    wts = np.full(2 * m, np.pi / m)
    for d in range(3, n + 1):
        t, w = gauss_jacobi(m, 0.5 * (d - 3), 0.5 * (d - 3))
        ring = dirs[:, None, :] * np.sqrt(1.0 - t * t)[:, None]
        dirs = np.concatenate([ring.reshape(d - 1, -1), np.repeat(t, len(wts))[None]])
        wts = np.outer(w, wts).ravel()
    dirs.setflags(write=False)
    wts.setflags(write=False)
    return dirs, wts


def _ball_nodes(u, m: int):
    """Order-m product rule on the support ball B(center, 2 width) of u:
    coordinate-major nodes (n, N) and weights (N,).

    Gauss-Legendre radii on [0, w] and [w, 2w] with the Jacobian rho^(n-1),
    times _sphere_rule(n, m): N = 2m * 2m * m^(n-2) nodes, radius-major.
    """
    n = len(u.center)
    t, w = gauss_jacobi(m, 0.0, 0.0)
    half = 0.5 * u.width
    rho = np.concatenate([half * (t + 1.0), half * (t + 3.0)])
    w_rho = half * np.concatenate([w, w]) * rho ** (n - 1)
    dirs, w_dir = _sphere_rule(n, m)
    x = (dirs[:, None, :] * rho[:, None]).reshape(n, -1)
    x += np.asarray(u.center)[:, None]
    return x, np.outer(w_rho, w_dir).ravel()


def _bump_fields(u, x):
    """(u, grad u) at coordinate-major nodes x, the gradient coordinate-major.

    A BumpFunction forms its geometry once for both; any other bump is
    evaluated through its value and gradient on the (N, n) view.
    """
    if isinstance(u, BumpFunction):
        return u._fields(x)
    return u.value(x.T), np.moveaxis(u.gradient(x.T), -1, 0)


def _two_orders(u, terms) -> IdentityReport:
    """Report terms(x, wts, u, grad u) -> (lhs, rhs_terms) at both rule orders."""
    found = []
    for m in _ORDERS:
        x, wts = _ball_nodes(u, m)
        lhs, rhs = terms(x, wts, *_bump_fields(u, x))
        found.append((lhs, rhs, wts.size))
    (lhs, rhs, nodes), (lhs_c, rhs_c, _) = found
    denom = abs(lhs) + sum(abs(v) for v in rhs.values()) + 1e-300
    change = max([abs(lhs - lhs_c)] + [abs(rhs[k] - rhs_c[k]) for k in rhs])
    return IdentityReport(lhs, rhs, abs(lhs - sum(rhs.values())) / denom,
                          nodes=nodes, err_estimate=change / denom)


def _check_support_clear(u, k: int):
    c = np.asarray(u.center, dtype=float)
    cprime = float(np.linalg.norm(c[:k]))
    cfull = float(np.linalg.norm(c))
    if cprime <= 3.0 * u.width or cfull <= 3.0 * u.width:
        raise SupportViolationError(
            "bump support reaches into the singular-set margin "
            f"(|center'|={cprime}, |center|={cfull}, width={u.width})")


def _hardy_v(params: HardyParams, s, r):
    """V = |x'|^(p(alpha+1)) |x|^(p beta), the expression of WeightSpec.V."""
    return s ** (params.p * (params.alpha + 1.0)) * r ** (params.p * params.beta)


def _log_f_gradient(spec: WeightSpec, x, s, r):
    """grad log f = theta x'/|x'|^2 + lam x/|x|^2 (theta = gamma, lam = 0 on the
    gamma path) at coordinate-major points x with norms s = |x'|, r = |x|."""
    k = spec.params.k
    if spec.exponents is None:
        theta, lam = spec.gamma, 0.0
    else:
        theta, lam = spec.exponents.theta, spec.exponents.lam
    grad = lam * x / (r * r)
    grad[:k] += theta * x[:k] / (s * s)
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

    def terms(x, wts, uval, ugrad):
        s, r = _norms(x, params.k)
        v = _hardy_v(params, s, r)
        w_closed = weight_p2(x.T, spec)
        lhs = float(np.sum(wts * v * _dot(ugrad, ugrad)))
        t_weight = float(np.sum(wts * w_closed * uval * uval))
        f_ratio_grad = ugrad - uval * _log_f_gradient(spec, x, s, r)
        t_remainder = float(np.sum(wts * v * _dot(f_ratio_grad, f_ratio_grad)))
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

    def terms(x, wts, uval, ugrad):
        s, r = _norms(x, params.k)
        v = _hardy_v(params, s, r)
        w_closed = weight_general_p(x.T, spec)
        lhs = float(np.sum(wts * v * np.sqrt(_dot(ugrad, ugrad)) ** p))
        t_weight = float(np.sum(wts * w_closed * np.abs(uval) ** p))
        rvals = _r_rows(ugrad, -uval * _log_f_gradient(spec, x, s, r), p)
        t_remainder = float(np.sum(wts * v * rvals))
        return lhs, {"weight_term": t_weight, "remainder_term": t_remainder}

    return _two_orders(u, terms)


# ------------------------------------------------------------------- CKN

def _ckn_fields(ckn: CknParams, x):
    """(V, F, |F|, closed-form div(V |F|^(p-2) F)) at coordinate-major points
    x (n, N); F is coordinate-major too.  |x'| and |x| come from axis_norms,
    whose calls certbench's tracer counts as the CKN check's points."""
    s, r = axis_norms(x.T, ckn.n - 1)
    V = s ** (ckn.p * ckn.mu) * r ** (ckn.p * ckn.gamma2)
    s_field = s ** (ckn.beta - ckn.mu)
    fmag = s_field * r ** (ckn.gamma3 - ckn.gamma2)
    F = s_field * r ** (ckn.gamma3 - ckn.gamma2 - 1.0) * x
    div_closed = ((ckn.n + ckn.p * (ckn.alpha + ckn.gamma1))
                  * s ** (ckn.alpha * ckn.p) * r ** (ckn.gamma1 * ckn.p))
    return V, F, fmag, div_closed


def _ckn_flux_divergence_fd(ckn: CknParams, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """FD divergence of the flux V |F|^(p-2) F at coordinate-major points x
    (n, N), Richardson pair.

    V |F|^(p-2) F = |x'|^(b(p-1)+mu) |x|^(g3(p-1)+g2-1) x.  Point j takes
    central differences with steps h[j] and h[j]/2 along each axis; every
    shifted point is evaluated in one array pass.
    """
    n = ckn.n
    steps = np.multiply.outer([1.0, 0.5], h)                        # (2, N)
    signed = np.stack([steps, -steps])[:, :, None, :]               # (2, 2, 1, N)
    # z[coordinate j, sign, level, axis i, point] = x[j] + sign * step * [i == j]
    z = x[:, None, None, None, :] + signed * np.eye(n)[:, None, None, :, None]
    s, r = axis_norms(np.moveaxis(z, 0, -1), n - 1)
    mag = (s ** (ckn.beta * (ckn.p - 1.0) + ckn.mu)
           * r ** (ckn.gamma3 * (ckn.p - 1.0) + ckn.gamma2 - 1.0))
    flux = mag * (x + signed)                                       # component i of z
    div = np.sum((flux[0] - flux[1]) / (2.0 * steps[:, None, :]), axis=1)
    return (4.0 * div[1] - div[0]) / 3.0


#: Points of the CKN flux-divergence spot check, drawn by default_rng(0).
_SPOT_POINTS = 20


def _ckn_divergence_spot_check(ckn: CknParams, u) -> float:
    """Largest relative error of the closed-form flux divergence against finite
    differences at _SPOT_POINTS points drawn in the annulus
    0.2 w < |x - c| < 1.5 w; IllConditionedError when it exceeds 1e-6."""
    rng = np.random.default_rng(0)
    center = np.asarray(u.center)
    x = np.empty((ckn.n, _SPOT_POINTS))
    for j in range(_SPOT_POINTS):
        direction = rng.normal(size=ckn.n)
        direction /= np.linalg.norm(direction)
        x[:, j] = center + rng.uniform(0.2, 1.5) * u.width * direction
    fd = _ckn_flux_divergence_fd(ckn, x, 1e-4 * (1.0 + np.sqrt(_dot(x, x))))
    closed = _ckn_fields(ckn, x)[3]
    errors = np.abs(fd - closed) / np.maximum(np.abs(closed), 1e-300)
    worst = float(np.max(errors, initial=0.0))
    if not worst <= 1e-6:
        j = int(np.argmax(errors))
        raise IllConditionedError(
            f"closed-form flux divergence disagrees with finite differences "
            f"(relative error {worst:.3e})", value=float(fd[j]), disagreement=worst)
    return worst


def verify_CKNp(ckn: CknParams, u) -> IdentityReport:
    """Check the CKN product identity with kappa0 taken from the integrals.

    Also spot-checks the closed-form flux divergence
    [n + p(alpha+gamma1)] |x'|^(alpha p) |x|^(gamma1 p) against finite
    differences at _SPOT_POINTS support points (relative error <= 1e-6
    required, IllConditionedError otherwise).
    """
    flags = admissible_ckn(ckn)
    if not flags.normalized:
        raise ValueError("verify_CKNp requires the normalized exponent relation")
    _check_support_clear(u, ckn.n - 1)
    p = ckn.p

    def terms(x, wts, uval, ugrad):
        V, F, fmag, div_closed = _ckn_fields(ckn, x)
        u_p = np.abs(uval) ** p
        i_grad = float(np.sum(wts * V * np.sqrt(_dot(ugrad, ugrad)) ** p))
        i_field = float(np.sum(wts * V * fmag ** p * u_p))
        if i_grad == 0.0 or i_field == 0.0:
            return 0.0, {"divergence_term": 0.0, "remainder_term": 0.0}
        kappa0 = (i_grad / i_field) ** ((p - 1.0) / p)
        lhs = i_grad ** (1.0 / p) * i_field ** ((p - 1.0) / p)
        t_div = float(np.sum(wts * div_closed * u_p)) / p
        rvals = _r_rows(ugrad, uval * kappa0 ** (1.0 / (p - 1.0)) * F, p)
        t_rem = float(np.sum(wts * V / (p * kappa0) * rvals))
        return lhs, {"divergence_term": t_div, "remainder_term": t_rem}

    report = _two_orders(u, terms)
    _ckn_divergence_spot_check(ckn, u)
    return report


@dataclass(frozen=True)
class ExtremalReport:
    quotient: float
    constant: float
    residual_R_max: float


#: The remainder check of ckn_extremal_check samples radii from _R_MIN up to
#: where the extremal's factor exp(-p c r^m) has fallen to exp(-_DECAY),
#: about 4e-18.
_R_MIN = 1e-6
_DECAY = 40.0


def ckn_extremal_check(ckn: CknParams, kappa0: float = 1.0) -> ExtremalReport:
    """Evaluate the CKN quotient on the exponential extremal u0 = exp(-c |x|^m).

    m = gamma3 - gamma2 + 1 > 0 and c = kappa0^(1/(p-1))/m make
    grad u0 = -u0 kappa0^(1/(p-1)) F exactly, so the remainder R vanishes and
    the quotient must hit (n + p(alpha+gamma1))/p.  Each radial integral is
    a ratio of Gamma functions,

        int_0^inf r^a exp(-p c r^m) dr = Gamma((a+1)/m) / (m (pc)^((a+1)/m)),

    taken in logarithms (admissibility gives a > -1 for all three).  The
    pointwise remainder check samples 64 radii from _R_MIN up to the decay
    radius (_DECAY / (p c))^(1/m).  residual_R_max is the largest remainder
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
    if not kappa0 > 0.0:
        raise ValueError(f"kappa0 must be positive, got {kappa0!r}")
    p = ckn.p
    c = kappa0 ** (1.0 / (p - 1.0)) / m

    def log_moment(a):
        t = (a + 1.0) / m
        return log_gamma(t) - math.log(m) - t * math.log(p * c)

    log_grad = p * math.log(c * m) + log_moment(
        ckn.n - 1.0 + p * ckn.alpha + p * ckn.gamma2 + (m - 1.0) * p)
    log_field = log_moment(ckn.n - 1.0 + p * ckn.alpha + p * ckn.gamma3)
    log_den = log_moment(ckn.n - 1.0 + p * ckn.alpha + p * ckn.gamma1)
    quotient = math.exp(log_grad / p + (p - 1.0) / p * log_field - log_den)
    constant = (ckn.n + p * (ckn.alpha + ckn.gamma1)) / p

    radii = np.geomspace(_R_MIN, (_DECAY / (p * c)) ** (1.0 / m), 64)
    grad = np.zeros((ckn.n, radii.size))
    grad[0] = -c * m * radii ** (m - 1.0) * np.exp(-c * radii ** m)
    worst = float(np.max(_r_rows(grad, -grad, p, relative=True)))
    return ExtremalReport(quotient, float(constant), worst)


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
        x, wts = _ball_nodes(u, _ORDERS[0])
        uval, ugrad = _bump_fields(u, x)
        s, r = _norms(x, params.k)
        v = _hardy_v(params, s, r)
        num = float(np.sum(wts * v * np.sqrt(_dot(ugrad, ugrad)) ** p))
        den = float(np.sum(wts * v * s ** (-p) * np.abs(uval) ** p))
        best = min(best, num / den)
    return SpotTestReport(best, sharp_constant_general_p(params).value)
