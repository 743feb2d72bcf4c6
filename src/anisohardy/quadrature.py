"""Special functions, the smooth cutoff, and singularity-aware quadrature.

Integration is tanh-sinh (double-exponential): endpoint algebraic
singularities t^c with c > -1 become regular for the transformed trapezoid
sum, which is exactly the class produced by the spherical reduction of the
weighted integrals here.  Levels halve the trapezoid step and the error
estimate is the difference between consecutive levels.  integrate_rows
integrates several integrands on the same nodes from one evaluation per
level; integrate_1d is its one-row case.

Tanh-sinh converges exponentially only for integrands analytic inside the
interval; at an interior kink it converges algebraically, and the level
difference can understate the error.  Break points split the interval into
panels, each with its own rule, so that a kink becomes a panel endpoint.
Each level evaluates the integrand once, on the new nodes of every panel
that a row still refines on, concatenated; each (row, panel) pair
converges on its own, and a row's value and error estimate are the sums
over its panels.  One interval is the one-panel case.  The radial
integrals of the sweeps break at r = 1, where cutoff_eta leaves 1: its
quintic ramp is C^2 there, and an integrand with eta' only C^1.

Nodes are represented by their distance d from the nearer endpoint, so an
integrand can be evaluated at machine-accurate offsets like b - 1e-290.  For
integrals over (0, pi) of functions of sin(phi), use integrate_angular: it
feeds the integrand sin(pi*d) computed from the endpoint distance, avoiding
the catastrophic cancellation of sin(pi - tiny).  It is the numeric route of
sin_power_integral, whose Beta closed form the sweeps use.

integrate_2d (radial tanh-sinh of angular Gauss-Jacobi sums) is a plain
reference; the sweeps take that angular integral in closed form.  _refine
alone runs the convergence loop of the 1D, angular and 2D integrators, with
one outcome per row; the public integrators raise the first row's failure.

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


def sin_power_integral(lam: float, numeric: bool = False) -> float:
    """int_0^pi (sin s)^lam ds = B((lam+1)/2, 1/2), for lam > -1.

    With numeric=True the integral is evaluated by tanh-sinh quadrature at
    the default QuadratureSpec instead of the Beta closed form; the two
    routes are independent.
    """
    if lam <= -1:
        raise ValueError(f"sin_power_integral requires lam > -1, got {lam}")
    if not numeric:
        return beta((lam + 1.0) / 2.0, 0.5)
    return integrate_angular(lambda s: s ** lam).value


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
    """Refinement depth and tolerances for the integrators: tanh-sinh levels
    (integrate_2d's angular orders are the module constant _ORDERS).

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


def _refine(totals, spec: QuadratureSpec, what: str, panels: int = 1) -> tuple:
    """Drive rows of refined totals (levels or orders) to convergence.

    totals is a generator that yields, per refinement, one total for each
    (row, panel) pair of m rows with panels pairs each, row-major, and is
    sent the indices of the pairs still live before it makes the next
    refinement; a pair that is not live may get any placeholder.  A pair is
    converged when two consecutive totals differ by at most
    max(abs_tol, rel_tol*|total|); that difference is its error estimate,
    and the pair keeps that result while the others refine.  A pair fails
    at its first non-finite total: it stays non-finite at every finer
    refinement, and an infinite total would meet its own infinite relative
    tolerance.

    Returns one outcome per row: a QuadResult whose value and error
    estimate are the sums of its pairs', a NotConvergedError carrying the
    sums of its pairs' last totals and estimates, or None for a row after
    the first failed row.  Pairs are settled in order, as if each row were
    driven alone in turn: a failed row and the rows after it refine no
    further, and refinement ends once every row before it is decided.
    """
    live, out = None, None
    while True:
        try:
            pair_totals = totals.send(live)
        except StopIteration:
            break
        values = np.asarray(pair_totals, dtype=float)
        if out is None:
            m = len(values)
            prev, err, last, out = (np.full(m, math.nan), np.full(m, math.inf),
                                    np.full(m, math.nan), [None] * m)
        todo = np.arange(m) if live is None else live
        bad = ~np.isfinite(values[todo])
        stop = int(np.argmax(bad)) if bad.any() else len(todo)
        done = todo[:stop]
        total = last[done] = values[done]
        seen = ~np.isnan(prev[done])
        diff = np.abs(total - prev[done])
        err[done[seen]] = diff[seen]
        converged = seen & (diff <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total)))
        for j in done[converged].tolist():
            out[j] = QuadResult(float(values[j]), float(err[j]))
        prev[done] = total
        live = done[~converged]
        if stop < len(todo):        # pair j fails, and its row is decided
            j = int(todo[stop])
            row = j - j % panels
            out[j] = _not_converged(what, float(values[j]), float(err[j]))
            rest = todo[stop:]
            rest = rest[rest < row + panels]
            last[rest] = values[rest]
            live = live[live < row]
        if not live.size:
            break
    if live.size:
        j = int(live[0])
        out[j] = _not_converged(what, float(last[j]), float(err[j]))

    rows = []
    for row in range(0, len(out), panels):
        pairs = out[row:row + panels]
        if any(isinstance(res, NotConvergedError) for res in pairs):
            rows.append(_not_converged(what, float(np.sum(last[row:row + panels])),
                                       float(np.sum(err[row:row + panels]))))
        elif None in pairs:
            rows.append(None)
        else:
            rows.append(QuadResult(sum((res.value for res in pairs[1:]), pairs[0].value),
                                   sum((res.err_estimate for res in pairs[1:]),
                                       pairs[0].err_estimate)))
    return tuple(rows)


def _settled(outcomes) -> tuple[QuadResult, ...]:
    """The results of _refine's outcomes; raises the first row's failure."""
    for res in outcomes:
        if not isinstance(res, QuadResult):
            raise res
    return outcomes


def _not_converged(what: str, total: float, err: float) -> NotConvergedError:
    return NotConvergedError(f"{what} did not converge (last sum {total})",
                             value=total, err_estimate=err)


def _ts_totals(f, panels, levels: int):
    """Running tanh-sinh totals of the rows of f over panels, row-major.

    panels is a sequence of (nodes, scale): nodes(t, d) maps the transform
    abscissae and endpoint distances of the unit interval to the points of
    the panel, and scale is its length.  Each level calls f once, on x, the
    level's new nodes of every panel that still has a live pair (per the
    indices _refine sent), concatenated.  f returns a sequence of row
    values at x, each an array of its shape or a value that broadcasts to
    it, or a 2-D block of such rows, one per line.  A line's total on a
    panel is the sum over that panel's slice of x, so a row's panel totals
    do not depend on the other panels or rows.  Each level halves the
    previous totals; levels 1..levels are yielded as arrays of the
    (row, panel) totals, level 0 only seeds the first.
    """
    n = len(panels)
    totals, live = None, None
    for level in range(levels + 1):
        t, d, w = _ts_level(level)
        ks = range(n) if live is None else np.unique(live % n).tolist()
        xs = [panels[k][0](t, d) for k in ks]
        x = xs[0] if len(xs) == 1 else np.concatenate(xs)
        sums = []
        for row in f(x):
            fx = np.asarray(row, dtype=float)
            if fx.ndim <= x.ndim:
                fx = (fx if fx.shape == x.shape else np.broadcast_to(fx, x.shape))[None]
            by_panel = np.full((len(fx), n), math.nan)
            for i, k in enumerate(ks):
                part = fx[:, i * t.size:(i + 1) * t.size]
                by_panel[:, k] = np.add.reduce(w * part, axis=-1) * panels[k][1]
            sums.append(by_panel)
        sums = np.concatenate(sums).ravel()
        totals = sums if level == 0 else 0.5 * totals + sums
        if level:
            live = yield totals


def _ts_rows(f, edges, spec: QuadratureSpec) -> tuple:
    """_refine's outcomes for the rows of f over the panels between
    consecutive edges (a, e1, ..., b)."""
    if any(not hi > lo for lo, hi in zip(edges, edges[1:])):
        raise ValueError(f"need a < break points < b, increasing, got {tuple(edges)}")

    def panel(lo, hi):
        return lambda t, d: np.where(t <= 0.0, lo + (hi - lo) * d, hi - (hi - lo) * d), hi - lo

    totals = _ts_totals(f, [panel(lo, hi) for lo, hi in zip(edges, edges[1:])], spec.levels)
    return _refine(totals, spec,
                   f"tanh-sinh on ({edges[0]}, {edges[-1]}) within {spec.levels} levels",
                   len(edges) - 1)


def integrate_rows(f: Callable, a: float, b: float, spec: QuadratureSpec | None = None,
                   breaks: tuple = ()) -> tuple[QuadResult, ...]:
    """Integrate the m rows of f over (a, b) on shared tanh-sinh nodes.

    f is evaluated once per level on a numpy array of interior points and
    returns a sequence of values there (arrays of the points' shape, values
    that broadcast to it, or 2-D blocks of such rows, whose lines count as
    rows in order), so work shared by the rows is done once.  breaks, points
    strictly inside (a, b) in increasing order, split the interval into
    panels, each with its own tanh-sinh rule: a kink of the integrand at a
    break is then an endpoint of two panels, where the rule keeps its
    exponential convergence, instead of an interior point, where it
    converges only algebraically.  Each level evaluates f once, on the new
    nodes of every panel that a row still refines on; each (row, panel)
    converges on its own, and a row's value and error estimate are the sums
    of its panels'.  Each row is summed, converged and frozen exactly as
    integrate_1d would integrate it alone, so its QuadResult is the same to
    the bit; the first row, in order, that does not converge raises
    NotConvergedError with its best value.
    """
    return _settled(_ts_rows(f, (a, *breaks, b), spec or _DEFAULT_SPEC))


def integrate_1d(f: Callable, a: float, b: float, spec: QuadratureSpec | None = None,
                 breaks: tuple = ()) -> QuadResult:
    """Integrate f over (a, b); algebraic endpoint singularities allowed.

    f is evaluated on numpy arrays of interior points and returns an array
    of the same shape (or a value that broadcasts to it).  Converged when
    the level difference is at most max(abs_tol, rel_tol*|value|) on every
    panel between the breaks (see integrate_rows); otherwise
    NotConvergedError carrying the best value.  This is the one-row case of
    integrate_rows.
    """
    return integrate_rows(lambda x: (f(x),), a, b, spec, breaks)[0]


def integrate_angular(f_of_sin: Callable, spec: QuadratureSpec | None = None) -> QuadResult:
    """int_0^pi f(sin phi) dphi for integrands depending on phi through sin phi.

    sin(phi) at a node distance d from either endpoint is computed as
    sin(pi*d), which is exact in the sense of never cancelling against pi.
    Handles algebraic blow-up of f at sin phi -> 0 with rate > -1.
    """
    spec = spec or _DEFAULT_SPEC
    totals = _ts_totals(lambda s: (f_of_sin(s),),
                        [(lambda t, d: np.sin(np.pi * d), math.pi)], spec.levels)
    return _settled(_refine(totals, spec, f"angular tanh-sinh within {spec.levels} levels"))[0]


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


def integrate_2d(f: Callable, c: float, spec: QuadratureSpec | None = None,
                 breaks: tuple = ()) -> QuadResult:
    """int_0^R int_0^pi f(r, cos phi) sin(phi)^c dphi dr, for f even in cos phi.

    R is spec.truncation_radius and c > -1.  Each order m = 32, ..., 1024
    is one integrate_1d of the sums f(r[:, None], t[None, :]) @ w of the
    m-point Gauss-Jacobi rule for the weight (1 - t^2)^((c-1)/2), t = cos phi,
    halved to its positive nodes by evenness.  The error estimate is the
    larger of the last order difference and that order's radial error; past
    the last order NotConvergedError carries its total.
    """
    spec, radial = spec or _DEFAULT_SPEC, []

    def order_totals():
        for m in _ORDERS:
            t, w = gauss_jacobi(m, (c - 1.0) / 2.0, (c - 1.0) / 2.0)
            radial.append(integrate_1d(lambda r: f(r[:, None], t[None, m // 2:]) @ w[m // 2:],
                                       0.0, spec.truncation_radius, spec, breaks))
            yield (2.0 * radial[-1].value,)

    res, = _settled(_refine(order_totals(), spec, f"Gauss-Jacobi within order {_ORDERS[-1]}"))
    return QuadResult(res.value, max(res.err_estimate, 2.0 * radial[-1].err_estimate))


# ------------------------------------------------- angular closed form

#: Series terms at most, enough for p up to about 200; each element stops
#: at its first term below _SERIES_REL of its own sum.
_SERIES_TERMS, _SERIES_REL = 320, 2e-17
#: Near an integer k, m = c - a - b is interpolated linearly in a, at fixed
#: c, between the log case at k and the connection formula at k +- _M_GAP.
_M_GAP = 1e-5
_NONE = np.zeros(_SERIES_TERMS)


def _digamma(x):
    """psi(x), x > 0: the recurrence up to 10, then the asymptotic series."""
    x, acc = np.asarray(x), 0.0
    for _ in range(10):
        acc, x = acc - np.where(x < 10.0, 1.0 / x, 0.0), np.where(x < 10.0, x + 1.0, x)
    u = 1.0 / (x * x)
    return (acc + np.log(x) - 0.5 / x
            - u * (1 / 12 - u * (1 / 120 - u * (1 / 252 - u * (1 / 240 - u / 132)))))


def _gamma_ratio(num, den) -> float:
    """prod Gamma(num) / prod Gamma(den), real arguments; a pole in den gives 0."""
    if any(x <= 0.0 and x == round(x) for x in den):
        return 0.0
    args = [(x, 1.0) for x in num] + [(x, -1.0) for x in den]
    sign = (-1.0) ** sum(x < 0.0 and math.floor(-x) % 2 == 0 for x, _ in args)
    return sign * math.exp(sum(s * math.lgamma(x) for x, s in args))


def _pochhammer_series(ups, downs, n: int = _SERIES_TERMS):
    """prod_u (u)_j / prod_d (d)_j for j < n."""
    j = np.arange(n - 1, dtype=float)
    ratio = np.prod([u + j for u in ups], axis=0) / np.prod([d + j for d in downs], axis=0)
    return np.concatenate(([1.0], np.cumprod(ratio)))


def _connection(a, bb, m, scale=1.0, near=True) -> list:
    """F(a, bb; a + bb + m; 1 - x) as components (scale, P, Q, e), each
    scale x^e sum_n (P_n ln x + Q_n) x^n: Abramowitz & Stegun 15.3.6, or
    15.3.11 (the log case) at an integer m >= 1, interpolated within _M_GAP."""
    c, k = a + bb + m, round(m)
    if near and 0.0 < abs(m - k) < _M_GAP:
        far = k + math.copysign(_M_GAP, m - k)
        w = (m - k) / (far - k)
        return (_connection(a + (m - k), bb, k, scale * (1.0 - w), False)
                + _connection(a + (m - far), bb, far, scale * w, False))
    if m != k:
        return [(scale * _gamma_ratio((c, m), (bb + m, a + m)), _NONE,
                 _pochhammer_series((a, bb), (1.0 - m, 1.0)), 0.0),
                (scale * _gamma_ratio((c, -m), (a, bb)), _NONE,
                 _pochhammer_series((bb + m, a + m), (1.0 + m, 1.0)), m)]
    n = np.arange(_SERIES_TERMS, dtype=float)
    finite = np.concatenate([_pochhammer_series((a, bb), (1.0, 1.0 - k), k), _NONE[k:]])
    t = _pochhammer_series((a + k, bb + k), (1.0, k + 1.0)) / math.factorial(k)
    psi = _digamma(n + 1.0) + _digamma(n + k + 1.0) - _digamma(a + n + k) - _digamma(bb + n + k)
    return [(scale * _gamma_ratio((k, c), (a + k, bb + k)), _NONE, finite, 0.0),
            (-(-1.0) ** k * scale * _gamma_ratio((c,), (a, bb)), t, -t * psi, float(k))]


@lru_cache(maxsize=64)
def _bracket_tables(keys: tuple):
    """(P, Q, scale, e, has P, B(1/2, b) by key): four components of F, zero
    padded, per (p, b) key, branch and region x >= 1/2, x < 1/2.  Branch 0,
    C >= A, is F(-p/2, 1/2; b + 1/2; 1 - A/C), m = b + p/2, and branch 1
    F(-p/2, b; b + 1/2; 1 - C/A), m = (p + 1)/2, each m formed as this sum.
    For x >= 1/2 F is its Gauss series in 1 - x or, above p = 8, where those
    terms cancel by up to 3^(p/2), Euler's x^m F(bb + m, a + m; c; 1 - x).
    """
    rows = []
    for pw, b in keys:
        a, c = -pw / 2.0, b + 0.5
        for bb, m in ((0.5, b + pw / 2.0), (b, (pw + 1.0) / 2.0)):
            gauss = ((a, bb), 0.0) if pw <= 8.0 else ((bb + m, a + m), m)
            for comps in ([(1.0, _NONE, _pochhammer_series(gauss[0], (c, 1.0)), gauss[1])],
                          _connection(a, bb, m)):
                rows += comps + [(0.0, _NONE, _NONE, 0.0)] * (4 - len(comps))
    scale, P, Q, e = (np.array(col) for col in zip(*rows))
    betas = np.array([beta(0.5, b) for _, b in keys])
    return P.T.copy(), Q.T.copy(), scale, e, P.any(axis=1), betas


def _series_sums(P, Q, rows, y, L):
    """sum_n (P[n, row] L + Q[n, row]) y^n per entry, each stopping at its
    first term n >= 1 below _SERIES_REL of its own sum, so that it depends on
    itself alone; stopped entries are dropped once a quarter of the rest."""
    total = np.take(Q[0], rows) + np.take(P[0], rows) * L
    out, live, power = total.copy(), np.arange(y.size), np.ones_like(y)
    summing, logs = np.ones(y.size, dtype=bool), L.any()
    for n in range(1, P.shape[0]):
        power *= y
        coef = np.take(Q[n], rows)
        term = (coef + np.take(P[n], rows) * L if logs else coef) * power
        total += term
        stop = np.abs(term) <= _SERIES_REL * np.abs(total)
        stop &= summing
        if stop.any():
            out[live[stop]] = total[stop]
            summing ^= stop
            if 4 * np.count_nonzero(summing) <= 3 * live.size:
                live, rows, y, L, power, total, summing = (
                    v[summing] for v in (live, rows, y, L, power, total, summing))
                if not live.size:
                    break
    out[live[summing]] = total[summing]
    return out


@lru_cache(maxsize=64)
def _linear_betas(bs: tuple):
    """Read-only columns B(3/2, b) and B(1/2, b + 1), one row per b: at
    p = 2 the coefficients of A and C in _bracket_angular."""
    columns = np.array([[[beta(1.5, b)] for b in bs], [[beta(0.5, b + 1.0)] for b in bs]])
    columns.setflags(write=False)
    return columns


def _bracket_angular(A, C, pws, bs):
    """int_-1^1 (A t^2 + C (1 - t^2))^(p/2) (1 - t^2)^(b-1) dt, elementwise.

    A and C are (rows, nodes) blocks of values >= 0, pws and bs one p >= 1
    and b > 0 per row.  At p = 2 the integral is linear, A B(3/2, b) +
    C B(1/2, b + 1).  Otherwise, with M = max(A, C) and x = min/M, it is
    M^(p/2) B(1/2, b) F(x), F hypergeometric (_bracket_tables), summed in
    powers of at most 1/2 by each element alone: relative error about 1e-12
    for p up to about 200.  M = 0 gives 0, a non-finite A or C a non-finite
    value.
    """
    linear = [pw == 2.0 for pw in pws]
    if any(linear):
        of_A, of_C = _linear_betas(tuple(bs))
        with np.errstate(over="ignore"):
            F = A * of_A + C * of_C
        series = np.flatnonzero(np.logical_not(linear))
        if series.size:
            F[series] = _bracket_angular(A[series], C[series], [pws[i] for i in series],
                                         [bs[i] for i in series])
        return F
    keys = tuple(dict.fromkeys(zip(pws, bs)))
    key_of_row = np.array([keys.index(key) for key in zip(pws, bs)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        P, Q, scale, e, logs, betas = _bracket_tables(keys)
        top = np.maximum(A, C)
        x = np.minimum(A, C) / top
        todo = np.flatnonzero((top > 0.0) & np.isfinite(x))
        plan = (4 * key_of_row[:, None] + 2 * (A > C) + (x < 0.5)).ravel()[todo]
        owner, slot = np.nonzero(scale[4 * plan[:, None] + np.arange(4)])
        comp = 4 * plan[owner] + slot
        xs = x.ravel()[todo][owner]
        y = np.where(xs < 0.5, xs, 1.0 - xs)
        L = np.where(logs[comp] & (xs > 0.0), np.log(xs), 0.0)
        values = scale[comp] * _series_sums(P, Q, comp, y, L) * xs ** e[comp]
        F = np.where(top > 0.0, math.nan, 0.0)
        F.flat[todo] = np.bincount(owner, weights=values, minlength=todo.size)
        F *= betas[key_of_row][:, None]
        for pw in set(pws):
            mine = np.array(pws) == pw
            F[mine] *= top[mine] ** (pw / 2.0)
    return F


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


def lemma1_check(xi: XiSpec, eps_list) -> Lemma1Report:
    """Evaluate q(eps) = int_0^inf xi(t) eta(eps t) dt + ln eps on a grid of eps.

    Under the hypothesis a + 2b = -1 the values are bounded and their
    least-squares slope against ln eps vanishes; a violating kernel produces
    a markedly nonzero slope (the negative control).  The slope needs at
    least two eps.

    The integral is split at t = 1, where eta(eps t) is still 1, so the near
    part does not depend on eps.  The far part is computed in u = ln t,
    where the kernel is a bounded smooth profile regardless of eps, with a
    panel break at u = ln(1/eps), where the cutoff leaves 1.  Every integral
    runs at the default QuadratureSpec.
    """
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) < 2:
        raise ValueError("eps_list needs at least two entries to fit a slope")
    if any(not 0.0 < e < 1.0 for e in eps_arr):
        raise ValueError("all eps must lie in (0, 1)")

    near = integrate_1d(xi.xi, 0.0, 1.0).value
    values = []
    for e in eps_arr:
        def far(u, _e=e):
            t = np.exp(u)
            return xi.xi(t) * t * cutoff_eta(_e * t)

        far_val = integrate_1d(far, 0.0, math.log(2.0 / e), breaks=(-math.log(e),)).value
        values.append(near + far_val + math.log(e))

    vals = np.asarray(values)
    slope = float(np.polyfit(np.log(np.asarray(eps_arr)), vals, 1)[0])
    return Lemma1Report(tuple(float(v) for v in vals), float(np.max(np.abs(vals))), slope)
