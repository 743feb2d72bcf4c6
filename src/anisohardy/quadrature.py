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
the catastrophic cancellation of sin(pi - tiny).  It is the numeric route of
sin_power_integral, whose Beta closed form the sweeps use.

integrate_2d integrates f(r, cos phi) sin(phi)^c over (0, R) x (0, pi):
radial tanh-sinh of angular Gauss-Jacobi sums (gauss_jacobi, Golub-Welsch)
whose weight carries sin(phi)^c, so that factor is never evaluated.  Its
angular orders double, and consecutive orders are compared.
_integrate_2d_rows integrates several such integrands together: each order
is one radial pass over the integrands still refining, and each integrand's
radial part is evaluated once per level for every order; integrate_2d is
its one-integrand case.  One driver, _refine, runs the convergence loop for
the 1D, angular and 2D integrators: it reports one outcome per row, and the
public integrators raise the first row's failure.

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


def _refine(totals, spec: QuadratureSpec, what: str) -> tuple:
    """Drive rows of refined totals (levels or orders) to convergence.

    totals is a generator that yields, per refinement, one total for each of
    m rows, and is sent the indices of the rows still live before it makes
    the next refinement; a row that is not live may get any placeholder.  A
    row is converged when two consecutive totals differ by at most
    max(abs_tol, rel_tol*|total|); that difference is its error estimate,
    and the row keeps that result while the others refine.  A row fails at
    its first non-finite total: it stays non-finite at every finer
    refinement, and an infinite total would meet its own infinite relative
    tolerance.  A total may also be the NotConvergedError of a row that
    failed inside its refinement (an angular order's radial pass); that is
    the row's outcome.

    Returns one outcome per row: its QuadResult, its NotConvergedError
    (carrying its last total), or None for a row after the first failed
    row.  Rows are settled in order, as if each were driven alone in turn:
    rows after the first failure refine no further, and refinement ends
    once every row before it is decided.
    """
    live, out = None, None
    while True:
        try:
            row_totals = totals.send(live)
        except StopIteration:
            break
        if out is None:
            m = len(row_totals)
            prev, err, last, out = [None] * m, [math.inf] * m, [math.nan] * m, [None] * m
        still = []
        for i in range(m) if live is None else live:
            total = row_totals[i]
            if isinstance(total, NotConvergedError):
                out[i] = total
                break
            last[i] = total
            if not math.isfinite(total):
                out[i] = _not_converged(what, total, err[i])
                break
            if prev[i] is not None:
                err[i] = abs(total - prev[i])
                if err[i] <= max(spec.abs_tol, spec.rel_tol * abs(total)):
                    out[i] = QuadResult(total, err[i])
                    continue
            prev[i] = total
            still.append(i)
        live = still
        if not live:
            return tuple(out)
    out[live[0]] = _not_converged(what, last[live[0]], err[live[0]])
    return tuple(out)


def _settled(outcomes) -> tuple[QuadResult, ...]:
    """The results of _refine's outcomes; raises the first row's failure."""
    for res in outcomes:
        if not isinstance(res, QuadResult):
            raise res
    return outcomes


def _not_converged(what: str, total: float, err: float) -> NotConvergedError:
    return NotConvergedError(f"{what} did not converge (last sum {total})",
                             value=total, err_estimate=err)


def _ts_totals(f, nodes, scale: float, levels: int):
    """Running tanh-sinh totals of the rows of f over an interval of length scale.

    nodes(t, d) maps the transform abscissae and endpoint distances of the
    unit interval to the points x f is evaluated at.  f(x, level, live)
    returns a sequence of row values there, each an array of the points'
    shape or a value that broadcasts to it, or a 2-D block of such rows, one
    per line; live is None while every row refines, then the indices _refine
    sent, and a row outside it may be None.  A block's lines are summed as
    single rows are, so each total is the same to the bit either way.  Each
    level evaluates f only at its new nodes and halves the previous totals;
    levels 1..levels are yielded as tuples of the m row totals, level 0 only
    seeds the first.
    """
    totals, live = None, None
    for level in range(levels + 1):
        t, d, w = _ts_level(level)
        x = nodes(t, d)
        sums = []
        for row in f(x, level, live):
            if row is None:
                sums.append(math.nan)
                continue
            fx = np.asarray(row, dtype=float)
            if fx.ndim > x.ndim:
                sums.extend(float(s) * scale for s in np.sum(w * fx, axis=-1))
                continue
            if fx.shape != x.shape:
                fx = np.broadcast_to(fx, x.shape)
            sums.append(float(np.sum(w * fx)) * scale)
        totals = sums if level == 0 else [0.5 * a + b for a, b in zip(totals, sums)]
        if level:
            live = yield tuple(totals)


def _ts_rows(f, a: float, b: float, spec: QuadratureSpec) -> tuple:
    """_refine's outcomes for the rows of f(x, level, live) over (a, b)."""
    if not b > a:
        raise ValueError(f"need b > a, got ({a}, {b})")
    scale = b - a
    totals = _ts_totals(
        f, lambda t, d: np.where(t <= 0.0, a + scale * d, b - scale * d),
        scale, spec.levels)
    return _refine(totals, spec, f"tanh-sinh on ({a}, {b}) within {spec.levels} levels")


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
    return _settled(_ts_rows(lambda x, level, live: f(x), a, b, spec or _DEFAULT_SPEC))


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
    totals = _ts_totals(lambda s, level, live: (f_of_sin(s),),
                        lambda t, d: np.sin(np.pi * d), math.pi, spec.levels)
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


def _angular_sums(block, size: int, t, w):
    """sum_j w_j f(r_i, t_j) at the size radial nodes of a level, in row
    blocks of about 2^14 grid elements; block(rows, t) is f on the nodes in
    the slice rows against t[None, :]."""
    step = max(1, 2 ** 14 // t.size)
    out = np.empty(size)
    for i in range(0, size, step):
        out[i:i + step] = block(slice(i, i + step), t[None, :]) @ w
    return out


def integrate_2d(f: Callable, c: float, spec: QuadratureSpec | None = None) -> QuadResult:
    """int_0^R int_0^pi f(r, cos phi) sin(phi)^c dphi dr, for f even in cos phi.

    R is spec.truncation_radius and c > -1.  With t = cos(phi) the angular
    integral is int_-1^1 f(r, t) (1 - t^2)^((c-1)/2) dt: a Gauss-Jacobi rule
    carries the singular factor in its weight, so it is never evaluated, and
    evenness halves the rule to its m/2 positive nodes with doubled weights.
    The integrand receives broadcastable arrays (r[:, None], t[None, :]) in
    row blocks of about 2^14 elements and returns the block.

    Each angular order m = 32, 64, ..., 1024 is one radial tanh-sinh
    integral of the m-point angular sums; consecutive orders are compared by
    the shared refinement driver.  The error estimate is the larger of the
    last order difference and that order's radial error.  NotConvergedError
    past the last order carries its total, and a radial integral that does
    not converge raises its own.  This is the one-integrand case of
    _integrate_2d_rows.
    """
    return _settled(_integrate_2d_rows(
        [lambda r: lambda rows, t: f(r[rows, None], t)], [c], spec))[0]


def _integrate_2d_rows(integrands, cs, spec: QuadratureSpec | None = None) -> tuple:
    """integrate_2d of several integrands, as _refine's outcomes, one per integrand.

    integrands[i](r) takes the radial nodes r of one tanh-sinh level and
    returns block(rows, t), integrand i on r[rows] x t for a slice rows and
    angular nodes t[None, :]; it is called once per level, and its block
    serves every angular order, so radial work is done once per node.  cs[i]
    is the sin power of integrand i.  Each order runs one radial tanh-sinh
    pass whose rows are the integrands still refining over the orders, with
    the angular sums in the row blocks integrate_2d uses, so every outcome
    is the one integrate_2d gives its integrand alone, to the bit: a
    QuadResult, the NotConvergedError it would raise, or None after the
    first failed row.
    """
    spec = spec or _DEFAULT_SPEC
    blocks = {}                     # (row, level) -> the row's block at that level
    radial_err = [0.0] * len(integrands)

    def order_totals():
        live = range(len(integrands))
        for m in _ORDERS:
            rows = list(live)
            rules = {}
            for i in rows:
                if cs[i] not in rules:
                    t, w = gauss_jacobi(m, (cs[i] - 1.0) / 2.0, (cs[i] - 1.0) / 2.0)
                    rules[cs[i]] = t[m // 2:], 2.0 * w[m // 2:]

            def sums(r, level, running):
                running = range(len(rows)) if running is None else set(running)
                for j, i in enumerate(rows):
                    if j not in running:
                        yield None
                        continue
                    block = blocks.get((i, level))
                    if block is None:
                        block = blocks[i, level] = integrands[i](r)
                    yield _angular_sums(block, r.size, *rules[cs[i]])

            totals = [math.nan] * len(integrands)
            for i, res in zip(rows, _ts_rows(sums, 0.0, spec.truncation_radius, spec)):
                if isinstance(res, QuadResult):
                    totals[i], radial_err[i] = res.value, res.err_estimate
                elif res is not None:
                    totals[i] = res
            live = yield tuple(totals)

    outcomes = _refine(order_totals(), spec, f"Gauss-Jacobi within order {_ORDERS[-1]}")
    return tuple(QuadResult(res.value, max(res.err_estimate, radial_err[i]))
                 if isinstance(res, QuadResult) else res
                 for i, res in enumerate(outcomes))


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
    a markedly nonzero slope (the negative control).

    The integral is split at t = 1; the far part is computed in u = ln t,
    where the kernel is a bounded smooth profile regardless of eps.  Every
    integral runs at the default QuadratureSpec.
    """
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr:
        raise ValueError("eps_list must be non-empty")
    if any(not 0.0 < e < 1.0 for e in eps_arr):
        raise ValueError("all eps must lie in (0, 1)")

    # eta(eps*t) == 1 on [0,1] whenever eps <= 1/2; that part is eps-independent
    near_plain = integrate_1d(xi.xi, 0.0, 1.0).value
    values = []
    for e in eps_arr:
        if e <= 0.5:
            near_val = near_plain
        else:
            near_val = integrate_1d(lambda t: xi.xi(t) * cutoff_eta(e * t), 0.0, 1.0).value
        top = math.log(2.0 / e)

        def far(u, _e=e):
            t = np.exp(u)
            return xi.xi(t) * t * cutoff_eta(_e * t)

        far_val = integrate_1d(far, 0.0, top).value
        values.append(near_val + far_val + math.log(e))

    logs = np.log(np.asarray(eps_arr))
    vals = np.asarray(values)
    if len(eps_arr) >= 2:
        slope = float(np.polyfit(logs, vals, 1)[0])
    else:
        slope = 0.0
    return Lemma1Report(tuple(float(v) for v in vals), float(np.max(np.abs(vals))), slope)
