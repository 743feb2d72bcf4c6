"""Special functions, the smooth cutoff, and singularity-aware quadrature.

Integration is tanh-sinh (double-exponential): endpoint algebraic
singularities t^c with c > -1 become regular for the transformed trapezoid
sum, which is exactly the class produced by the spherical reduction of the
weighted integrals here.  Levels halve the trapezoid step and the error
estimate is the difference between consecutive levels.  integrate_rows
integrates several integrands on the same nodes from one evaluation per
level; integrate_1d is its one-row case.

Nodes are represented by their distance d from the nearer endpoint, so an
integrand can be evaluated at machine-accurate offsets like b - 1e-290.  For
integrals over (0, pi) of functions of sin(phi), use integrate_angular: it
feeds the integrand sin(pi*d) computed from the endpoint distance, avoiding
the catastrophic cancellation of sin(pi - tiny).

integrate_2d integrates f(r, cos phi) sin(phi)^c over (0, R) x (0, pi):
radial tanh-sinh of angular Gauss-Jacobi sums (gauss_jacobi, Golub-Welsch)
whose weight carries sin(phi)^c, so that factor is never evaluated.  Its
angular orders double, and consecutive orders are compared.  One driver,
_refine, runs the convergence loop for the 1D, angular and 2D integrators.

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
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NotConvergedError

__all__ = [
    "QuadratureSpec", "QuadResult", "XiSpec", "Lemma1Report",
    "log_gamma", "beta", "sin_power_integral", "sphere_area",
    "cutoff_eta", "cutoff_eta_prime", "gauss_jacobi",
    "integrate_1d", "integrate_rows", "integrate_angular", "integrate_2d",
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
    return integrate_angular(lambda s: s ** lam, spec).value


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

@dataclass(frozen=True)
class QuadratureSpec:
    """Refinement depth and tolerances for the 1D/2D integrators.

    truncation_radius is the upper end of radial integrals (the cutoff
    support ends at 2).
    """

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


def _refine(totals, spec: QuadratureSpec, what: str) -> tuple[QuadResult, ...]:
    """Drive rows of refined totals (levels or orders) to convergence.

    totals yields, per refinement, one total for each of m rows that share
    it.  A row is converged when two consecutive totals differ by at most
    max(abs_tol, rel_tol*|total|); that difference is its error estimate,
    and the row keeps that result while the others refine.  A row stops at
    its first non-finite total: it stays non-finite at every finer
    refinement, and an infinite total would meet its own infinite relative
    tolerance.  Rows are settled in order, as if each were driven alone in
    turn: the first row that fails raises NotConvergedError carrying its
    last total, and refinement ends as soon as that is decided.
    """
    done = None     # per row: None while refining, False once failed, else its result
    for row_totals in totals:
        if done is None:
            m = len(row_totals)
            prev, err, last, done = [None] * m, [math.inf] * m, [math.nan] * m, [None] * m
        for i, total in enumerate(row_totals):
            if done[i] is not None:
                continue
            last[i] = total
            if not math.isfinite(total):
                done[i] = False
                continue
            if prev[i] is not None:
                err[i] = abs(total - prev[i])
                if err[i] <= max(spec.abs_tol, spec.rel_tol * abs(total)):
                    done[i] = QuadResult(total, err[i])
                    continue
            prev[i] = total
        for i, state in enumerate(done):
            if state is None:
                break
            if state is False:
                raise _not_converged(what, last[i], err[i])
        else:
            return tuple(done)
    i = next(i for i, state in enumerate(done) if not state)
    raise _not_converged(what, last[i], err[i])


def _not_converged(what: str, total: float, err: float) -> NotConvergedError:
    return NotConvergedError(f"{what} did not converge (last sum {total})",
                             value=total, err_estimate=err)


def _ts_totals(f, nodes, scale: float, levels: int):
    """Running tanh-sinh totals of the rows of f over an interval of length scale.

    nodes(t, d) maps the transform abscissae and endpoint distances of the
    unit interval to the points f is evaluated at; f returns a sequence of
    row values there, each an array of the points' shape or a value that
    broadcasts to it, or a 2-D block of such rows, one per line.  A block's
    lines are summed as single rows are, so each total is the same to the
    bit either way.  Each level evaluates f only at its new nodes and halves
    the previous totals; levels 1..levels are yielded as tuples of the m row
    totals, level 0 only seeds the first.
    """
    totals = None
    for level in range(levels + 1):
        t, d, w = _ts_level(level)
        x = nodes(t, d)
        sums = []
        for row in f(x):
            fx = np.asarray(row, dtype=float)
            if fx.ndim > x.ndim:
                sums.extend(float(s) * scale for s in np.sum(w * fx, axis=-1))
                continue
            if fx.shape != x.shape:
                fx = np.broadcast_to(fx, x.shape)
            sums.append(float(np.sum(w * fx)) * scale)
        totals = sums if level == 0 else [0.5 * a + b for a, b in zip(totals, sums)]
        if level:
            yield tuple(totals)


def integrate_rows(f: Callable, a: float, b: float,
                   spec: QuadratureSpec | None = None) -> tuple[QuadResult, ...]:
    """Integrate the m rows of f over (a, b) on shared tanh-sinh nodes.

    f is evaluated once per level on a numpy array of interior points and
    returns a sequence of values there (arrays of the points' shape, values
    that broadcast to it, or 2-D blocks of such rows, whose lines count as
    rows in order), so work shared by the rows is done once.
    Each row is summed, converged and frozen exactly as integrate_1d would
    integrate it alone, so its QuadResult is the same to the bit; the first
    row, in order, that does not converge raises NotConvergedError with its
    best value.
    """
    spec = spec or _DEFAULT_SPEC
    if not b > a:
        raise ValueError(f"need b > a, got ({a}, {b})")
    scale = b - a
    totals = _ts_totals(
        f, lambda t, d: np.where(t <= 0.0, a + scale * d, b - scale * d),
        scale, spec.levels)
    return _refine(totals, spec, f"tanh-sinh on ({a}, {b}) within {spec.levels} levels")


def integrate_1d(f: Callable, a: float, b: float,
                 spec: QuadratureSpec | None = None) -> QuadResult:
    """Integrate f over (a, b); algebraic endpoint singularities allowed.

    f is evaluated on numpy arrays of interior points and returns an array
    of the same shape (or a value that broadcasts to it).  Converged when
    the level difference is at most max(abs_tol, rel_tol*|value|);
    otherwise NotConvergedError carrying the best value.  This is the
    one-row case of integrate_rows.
    """
    return integrate_rows(lambda x: (f(x),), a, b, spec)[0]


def integrate_angular(f_of_sin: Callable, spec: QuadratureSpec | None = None) -> QuadResult:
    """int_0^pi f(sin phi) dphi for integrands depending on phi through sin phi.

    sin(phi) at a node distance d from either endpoint is computed as
    sin(pi*d), which is exact in the sense of never cancelling against pi.
    Handles algebraic blow-up of f at sin phi -> 0 with rate > -1.
    """
    spec = spec or _DEFAULT_SPEC
    totals = _ts_totals(lambda s: (f_of_sin(s),), lambda t, d: np.sin(np.pi * d),
                        math.pi, spec.levels)
    return _refine(totals, spec, f"angular tanh-sinh within {spec.levels} levels")[0]


@lru_cache(maxsize=128)
def gauss_jacobi(m: int, a: float, b: float):
    """m-point Gauss-Jacobi rule for int_-1^1 f(t) (1 - t)^a (1 + t)^b dt.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the three-term recurrence and the weights are mu0 times the
    squared first eigenvector components, mu0 = 2^(a+b+1) B(a+1, b+1).
    Exact for polynomials of degree 2m - 1; a, b > -1.  Returns read-only
    (nodes, weights) with the nodes ascending; the rule is cached.
    """
    if m < 1 or a <= -1 or b <= -1:
        raise ValueError(f"gauss_jacobi needs m >= 1 and a, b > -1, got ({m}, {a}, {b})")
    k = np.arange(m, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
        kk, sk = k[1:], s[1:]
        off = np.sqrt(4.0 * kk * (kk + a) * (kk + b) * (kk + a + b)
                      / (sk * sk * (sk + 1.0) * (sk - 1.0)))
    diag[0] = (b - a) / (a + b + 2.0)      # removable 0/0 at a + b = 0
    if m > 1:                              # removable 0/0 at a + b = -1
        off[0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b) / ((a + b + 2.0) ** 2 * (a + b + 3.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 ** (a + b + 1.0) * beta(a + 1.0, b + 1.0) * vecs[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


#: Angular orders of integrate_2d; NotConvergedError past the last.
_ORDERS = (32, 64, 128, 256, 512, 1024)


def _angular_sums(f, t, w):
    """r -> sum_j w_j f(r, t_j), in row blocks of about 2^14 grid elements."""
    rows = max(1, 2 ** 14 // t.size)

    def sums(r):
        out = np.empty(r.shape)
        for i in range(0, r.size, rows):
            out[i:i + rows] = f(r[i:i + rows, None], t[None, :]) @ w
        return out
    return sums


def integrate_2d(f: Callable, c: float, spec: QuadratureSpec | None = None) -> QuadResult:
    """int_0^R int_0^pi f(r, cos phi) sin(phi)^c dphi dr, for f even in cos phi.

    R is spec.truncation_radius and c > -1.  With t = cos(phi) the angular
    integral is int_-1^1 f(r, t) (1 - t^2)^((c-1)/2) dt: a Gauss-Jacobi rule
    carries the singular factor in its weight, so it is never evaluated, and
    evenness halves the rule to its m/2 positive nodes with doubled weights.
    The integrand receives broadcastable arrays (r[:, None], t[None, :]) in
    row blocks of about 2^14 elements and returns the block.

    Each angular order m = 32, 64, ..., 1024 is one integrate_1d radial
    integral of the m-point angular sums; consecutive orders are compared by
    the shared refinement driver.  The error estimate is the larger of the
    last order difference and that order's radial error.  NotConvergedError
    past the last order carries its total.
    """
    spec = spec or _DEFAULT_SPEC
    radial_err = 0.0

    def order_totals():
        nonlocal radial_err
        for m in _ORDERS:
            t, w = gauss_jacobi(m, (c - 1.0) / 2.0, (c - 1.0) / 2.0)
            res = integrate_1d(_angular_sums(f, t[m // 2:], 2.0 * w[m // 2:]),
                               0.0, spec.truncation_radius, spec)
            radial_err = res.err_estimate
            yield (res.value,)

    res, = _refine(order_totals(), spec, f"Gauss-Jacobi within order {_ORDERS[-1]}")
    return QuadResult(res.value, max(res.err_estimate, radial_err))


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
