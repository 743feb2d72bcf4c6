"""Special functions, the smooth cutoff, and singularity-aware quadrature.

Integration defaults to tanh-sinh (double-exponential): endpoint algebraic
singularities t^c with c > -1 become regular for the transformed trapezoid
sum, which is exactly the class produced by the spherical reduction of the
weighted integrals here.  Levels halve the trapezoid step and the error
estimate is the difference between consecutive levels.

Nodes are represented by their distance d from the nearer endpoint, so an
integrand can be evaluated at machine-accurate offsets like b - 1e-290.  For
integrals over (0, pi) of functions of sin(phi), use integrate_angular: it
feeds the integrand sin(pi*d) computed from the endpoint distance, avoiding
the catastrophic cancellation of sin(pi - tiny).

Reduced integrals are computed WITHOUT the sphere-area prefactor of the
residual angles; it cancels in every quotient.  sphere_area exists for
absolute reporting only.

Exponent caveat: the fixed tanh-sinh window resolves endpoint exponents
c > -0.95 to full double precision; for c in (-1, -0.95] a tail below the
subnormal floor is lost (about d^(1+c) with d ~ 5e-324).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NotConvergedError

__all__ = [
    "QuadMethod", "QuadratureSpec", "QuadResult", "XiSpec", "Lemma1Report",
    "log_gamma", "beta", "sin_power_integral", "sphere_area",
    "cutoff_eta", "cutoff_eta_prime",
    "integrate_1d", "integrate_angular", "integrate_2d", "integrate_2d_product",
    "lemma1_check",
]


# --------------------------------------------------------------- specials

def log_gamma(t: float) -> float:
    """log Gamma(t) for t > 0."""
    if t <= 0:
        raise ValueError(f"log_gamma requires a positive argument, got {t}")
    return math.lgamma(t)


def beta(t: float, g: float) -> float:
    """Euler Beta function B(t, g) = exp(lgamma(t) + lgamma(g) - lgamma(t+g)).

    Relative error is a few ulp for arguments in [1e-3, 50].
    """
    if t <= 0 or g <= 0:
        raise ValueError(f"beta requires positive arguments, got ({t}, {g})")
    return math.exp(math.lgamma(t) + math.lgamma(g) - math.lgamma(t + g))


def sphere_area(m: int) -> float:
    """Surface measure of the unit sphere in R^m: 2 pi^(m/2) / Gamma(m/2).

    m = 1 gives 2 (two points), m = 2 gives 2*pi, m = 3 gives 4*pi.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"sphere_area requires an integer m >= 1, got {m!r}")
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


def sin_power_integral(lam: float, numeric: bool = False,
                       spec: "QuadratureSpec | None" = None) -> float:
    """int_0^pi (sin s)^lam ds = B((lam+1)/2, 1/2), for lam > -1.

    With numeric=True the integral is evaluated by tanh-sinh quadrature
    instead of the Beta closed form; the two routes are independent.
    """
    if lam <= -1:
        raise ValueError(f"sin_power_integral requires lam > -1, got {lam}")
    if not numeric:
        return beta((lam + 1.0) / 2.0, 0.5)
    res = integrate_angular(lambda s: s ** lam, spec)
    return res.value


# ----------------------------------------------------------------- cutoff

def _smoothstep(u):
    # quintic ramp, C^2 with S(0)=0, S(1)=1, S'(0)=S'(1)=S''(0)=S''(1)=0
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def cutoff_eta(t):
    """C^2 cutoff: identically 1 on (-inf, 1], 0 on [2, inf), quintic ramp between.

    Accepts scalars or arrays.  |eta'| <= 15/8 everywhere.  Evaluated as
    S(2 - t) through the ramp's symmetry 1 - S(u) = S(1 - u): S(v) >= 0 for
    every v >= 0, whereas 1 - S(t - 1) rounds to about -1e-15 just below 2
    and makes eta ** p NaN for non-integer p.
    """
    arr = np.asarray(t, dtype=float)
    out = _smoothstep(np.clip(2.0 - arr, 0.0, 1.0))
    return float(out) if arr.ndim == 0 else out


def cutoff_eta_prime(t):
    """Derivative of cutoff_eta: -30 u^2 (1-u)^2 on the ramp, 0 elsewhere."""
    arr = np.asarray(t, dtype=float)
    u = np.clip(arr - 1.0, 0.0, 1.0)
    out = -30.0 * u * u * (1.0 - u) ** 2
    return float(out) if arr.ndim == 0 else out


# ------------------------------------------------------------- quadrature

class QuadMethod(Enum):
    TANH_SINH = "tanh_sinh"
    GAUSS_LEGENDRE_COMPOSITE = "gauss_legendre_composite"


@dataclass(frozen=True)
class QuadratureSpec:
    """Method, refinement depth and tolerances for the 1D/2D integrators.

    truncation_radius is the upper end of radial integrals (the cutoff
    support ends at 2).
    """

    method: QuadMethod = QuadMethod.TANH_SINH
    levels: int = 10
    abs_tol: float = 1e-13
    rel_tol: float = 1e-10
    truncation_radius: float = 2.0

    def __post_init__(self):
        if self.levels < 3:
            raise ValueError(f"levels must be >= 3, got {self.levels}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("abs_tol and rel_tol must be positive")
        if self.truncation_radius <= 0:
            raise ValueError("truncation_radius must be positive")


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float


_DEFAULT_SPEC = QuadratureSpec()

# Window of the double-exponential map.  Nodes past |t| ~ 6.16 underflow to
# zero endpoint distance and are dropped; their true contribution is below
# 1e-16 for endpoint exponents c > -0.95.
_TMAX = 6.56


@lru_cache(maxsize=64)
def _ts_level(level: int):
    """New tanh-sinh nodes at trapezoid step 2^-level on the unit interval.

    Returns (t, d, w): abscissa in the transform variable, distance from the
    nearer endpoint, and the step-weighted quadrature weight.  Level 0 holds
    all integer abscissae; higher levels hold the odd multiples only.
    """
    h = 2.0 ** (-level)
    if level == 0:
        t = np.arange(-int(_TMAX), int(_TMAX) + 1, dtype=float)
    else:
        m = int(_TMAX / h)
        j = np.arange(-m, m + 1)
        t = j[j % 2 != 0] * h
    u = 0.5 * np.pi * np.sinh(t)
    e = np.exp(-2.0 * np.abs(u))
    d = e / (1.0 + e)
    w = h * np.pi * np.cosh(t) * e / (1.0 + e) ** 2
    keep = (d > 0.0) & (w > 0.0) & np.isfinite(w)
    return t[keep], d[keep], w[keep]


@lru_cache(maxsize=64)
def _ts_full(level: int):
    """All tanh-sinh nodes of the full rule at step 2^-level (cumulative)."""
    ts, ds, ws = [], [], []
    for lev in range(level + 1):
        t, d, w = _ts_level(lev)
        ts.append(t)
        ds.append(d)
        ws.append(w * 2.0 ** (lev - level))  # earlier levels carry the finer step
    return np.concatenate(ts), np.concatenate(ds), np.concatenate(ws)


def _eval_vectorized(f, x):
    fx = f(x)
    arr = np.asarray(fx, dtype=float)
    if arr.shape != x.shape:
        # scalar-only callable; fall back to an elementwise loop
        arr = np.array([float(f(xi)) for xi in x])
    return arr


def _converged(total: float, err: float, spec: QuadratureSpec) -> bool:
    """Level difference within tolerance.  A non-finite total never counts:
    an infinite one would otherwise meet its own infinite relative tolerance."""
    return math.isfinite(total) and err <= max(spec.abs_tol, spec.rel_tol * abs(total))


def _ts_integrate(f, a: float, b: float, spec: QuadratureSpec) -> QuadResult:
    scale = b - a
    total = 0.0
    prev = 0.0
    err = float("inf")
    for level in range(spec.levels + 1):
        t, d, w = _ts_level(level)
        x = np.where(t <= 0.0, a + scale * d, b - scale * d)
        fx = _eval_vectorized(f, x)
        s_new = float(np.sum(w * fx)) * scale
        total = s_new if level == 0 else 0.5 * total + s_new
        if level >= 2:
            err = abs(total - prev)
            if _converged(total, err, spec):
                return QuadResult(total, err)
        prev = total
    raise NotConvergedError(
        f"tanh-sinh did not converge on ({a}, {b}) within {spec.levels} levels",
        value=total, err_estimate=err)


@lru_cache(maxsize=8)
def _leggauss(degree: int = 20):
    x, w = np.polynomial.legendre.leggauss(degree)
    return x, w


def _gl_integrate(f, a: float, b: float, spec: QuadratureSpec) -> QuadResult:
    x0, w0 = _leggauss()
    prev = None
    err = float("inf")
    total = 0.0
    for level in range(spec.levels + 1):
        panels = 2 ** level
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
        w = (half[:, None] * w0[None, :]).ravel()
        total = float(np.sum(w * _eval_vectorized(f, x)))
        if prev is not None:
            err = abs(total - prev)
            if _converged(total, err, spec):
                return QuadResult(total, err)
        prev = total
    raise NotConvergedError(
        f"composite Gauss-Legendre did not converge on ({a}, {b})",
        value=total, err_estimate=err)


def integrate_1d(f: Callable, a: float, b: float,
                 spec: QuadratureSpec | None = None) -> QuadResult:
    """Integrate f over (a, b); algebraic endpoint singularities allowed.

    f is evaluated on numpy arrays of interior points (scalar-only callables
    are looped over as a fallback).  Converged when the level difference is
    at most max(abs_tol, rel_tol*|value|); otherwise NotConvergedError
    carrying the best value.
    """
    spec = spec or _DEFAULT_SPEC
    if not b > a:
        raise ValueError(f"need b > a, got ({a}, {b})")
    if spec.method is QuadMethod.TANH_SINH:
        return _ts_integrate(f, a, b, spec)
    return _gl_integrate(f, a, b, spec)


def integrate_angular(f_of_sin: Callable, spec: QuadratureSpec | None = None) -> QuadResult:
    """int_0^pi f(sin phi) dphi for integrands depending on phi through sin phi.

    sin(phi) at a node distance d from either endpoint is computed as
    sin(pi*d), which is exact in the sense of never cancelling against pi.
    Handles algebraic blow-up of f at sin phi -> 0 with rate > -1.
    """
    spec = spec or _DEFAULT_SPEC
    total = 0.0
    prev = 0.0
    err = float("inf")
    for level in range(spec.levels + 1):
        _, d, w = _ts_level(level)
        s = np.sin(np.pi * d)
        fx = _eval_vectorized(f_of_sin, s)
        s_new = float(np.sum(w * fx)) * math.pi
        total = s_new if level == 0 else 0.5 * total + s_new
        if level >= 2:
            err = abs(total - prev)
            if _converged(total, err, spec):
                return QuadResult(total, err)
        prev = total
    raise NotConvergedError(
        f"angular tanh-sinh did not converge within {spec.levels} levels",
        value=total, err_estimate=err)


def integrate_2d_product(fr: Callable, fphi: Callable,
                         spec: QuadratureSpec | None = None) -> float:
    """Product-form integral over (0, truncation_radius) x (0, pi).

    fr(r) is the radial factor, fphi(s) the angular factor as a function of
    s = sin(phi).  Two 1D passes; quadrature failures propagate.
    """
    spec = spec or _DEFAULT_SPEC
    radial = integrate_1d(fr, 0.0, spec.truncation_radius, spec)
    angular = integrate_angular(fphi, spec)
    return radial.value * angular.value


#: Grid elements handed to a tensor integrand per call: small enough that the
#: block and the integrand's temporaries stay in cache.
_BLOCK = 2 ** 16


def _tensor_sum(f, r, wr, s, ws) -> float:
    """sum_ij wr_i ws_j f(r_i, s_j), evaluated in row blocks of about _BLOCK elements."""
    rows = max(1, _BLOCK // s.size)
    total = 0.0
    for i in range(0, r.size, rows):
        block = np.asarray(f(r[i:i + rows, None], s[None, :]), dtype=float)
        total += float(wr[i:i + rows] @ block @ ws)
    return total


def integrate_2d(f: Callable, spec: QuadratureSpec | None = None) -> float:
    """Tensor tanh-sinh integral of f(r, s) over (0, truncation_radius) x (0, pi).

    The integrand receives broadcastable arrays (r[:, None], s[None, :]) with
    s = sin(phi) computed from the endpoint distance.  Admissible
    singularities: r = 0 and phi in {0, pi} at algebraic rates above -1.

    Levels are nested: the level-L rule holds every level L-1 node with half
    its weight in each variable, so the old node pairs contribute exactly a
    quarter of the level L-1 total.  Each level therefore evaluates f only on
    the pairs it adds (new r x all phi, old r x new phi), about 3/4 of its
    grid, in row blocks of about _BLOCK elements.
    """
    spec = spec or _DEFAULT_SPEC
    R = spec.truncation_radius
    prev = None
    err = float("inf")
    total = 0.0
    old = 0
    for level in range(2, spec.levels + 1):
        t, d, w = _ts_full(level)      # ordered by level: the first `old` are the old nodes
        r = np.where(t <= 0.0, R * d, R * (1.0 - d))
        s = np.sin(np.pi * d)
        wr, ws = R * w, math.pi * w
        total = (0.25 * total
                 + _tensor_sum(f, r[old:], wr[old:], s, ws)
                 + _tensor_sum(f, r[:old], wr[:old], s[old:], ws[old:]))
        old = t.size
        if not math.isfinite(total):
            break                      # and so it stays at every finer level
        if prev is not None:
            err = abs(total - prev)
            if _converged(total, err, spec):
                return total
        prev = total
    raise NotConvergedError(
        f"tensor tanh-sinh did not converge within {spec.levels} levels "
        f"(last sum {total})",
        value=total, err_estimate=err)


# ------------------------------------------------------------ Lemma check

@dataclass(frozen=True)
class XiSpec:
    """Kernel xi(t) = t^a (t^2 + 1)^b.

    Integrable near zero iff a > -1.  The log-extraction hypothesis
    (xi(s) - 1/s integrable on [1, inf)) holds iff a + 2b = -1.
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a <= -1:
            raise ValueError(f"xi(t) = t^a (t^2+1)^b needs a > -1, got a={self.a}")

    def xi(self, t):
        return t ** self.a * (t * t + 1.0) ** self.b

    @property
    def satisfies_hypothesis(self) -> bool:
        return abs(self.a + 2.0 * self.b + 1.0) <= 1e-12


@dataclass(frozen=True)
class Lemma1Report:
    values: tuple
    max_abs: float
    slope_vs_log_eps: float


def lemma1_check(xi: XiSpec, eps_list, spec: QuadratureSpec | None = None) -> Lemma1Report:
    """Evaluate q(eps) = int_0^inf xi(t) eta(eps t) dt + ln eps on a grid of eps.

    Under the hypothesis a + 2b = -1 the values are bounded and their
    least-squares slope against ln eps vanishes; a violating kernel produces
    a markedly nonzero slope (the negative control).

    The integral is split at t = 1; the far part is computed in u = ln t,
    where the kernel is a bounded smooth profile regardless of eps.
    """
    spec = spec or _DEFAULT_SPEC
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr:
        raise ValueError("eps_list must be non-empty")
    if any(not 0.0 < e < 1.0 for e in eps_arr):
        raise ValueError("all eps must lie in (0, 1)")

    # eta(eps*t) == 1 on [0,1] whenever eps <= 1/2; that part is eps-independent
    near_plain = integrate_1d(xi.xi, 0.0, 1.0, spec).value
    values = []
    for e in eps_arr:
        if e <= 0.5:
            near_val = near_plain
        else:
            near_val = integrate_1d(lambda t: xi.xi(t) * cutoff_eta(e * t), 0.0, 1.0, spec).value
        top = math.log(2.0 / e)

        def far(u, _e=e):
            t = np.exp(u)
            return xi.xi(t) * t * cutoff_eta(_e * t)

        far_val = integrate_1d(far, 0.0, top, spec).value
        values.append(near_val + far_val + math.log(e))

    logs = np.log(np.asarray(eps_arr))
    vals = np.asarray(values)
    if len(eps_arr) >= 2:
        slope = float(np.polyfit(logs, vals, 1)[0])
    else:
        slope = 0.0
    return Lemma1Report(tuple(float(v) for v in vals), float(np.max(np.abs(vals))), slope)
