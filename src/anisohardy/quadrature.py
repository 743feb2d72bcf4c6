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

integrate_2d integrates f(r, cos phi) sin(phi)^c over (0, R) x (0, pi):
radial tanh-sinh of angular Gauss-Jacobi sums (gauss_jacobi, Golub-Welsch)
whose weight carries sin(phi)^c, so that factor is never evaluated.  Its
angular orders double, and consecutive orders are compared; its radial
integral takes break points as integrate_rows does.  _integrate_2d_rows
integrates several such integrands together: each order is one radial pass
over the integrands still refining, and their radial work, shared or
their own, is done once per panel and level for every order; integrate_2d
is its one-integrand case.  One driver, _refine, runs the convergence loop
for the 1D, angular and 2D integrators: it reports one outcome per row,
and the public integrators raise the first row's failure.

Reduced integrals are computed WITHOUT the sphere-area prefactor of the
residual angles; it cancels in every quotient.  sphere_area exists for
absolute reporting only.

Exponent caveat: the fixed tanh-sinh window resolves endpoint exponents
c > -0.95 to full double precision; for c in (-1, -0.95] a tail below the
subnormal floor is lost (about d^(1+c) with d ~ 5e-324).

Tail window of the 2-D passes: the weights decay double-exponentially in
the transform abscissa t, so most radial nodes of a panel carry far less
than a rounding unit of its total, yet each costs m/2 angular elements.
Level 0 of each order's radial pass sets, per integrand and panel, a
window from the angular sums S at its 13 integer-t nodes: one unit of t
past the outermost node on each side whose |w S| is at least _TAIL_REL
(1e-20) times their total.  Past level 0 a node outside the window adds an
exact 0 and gets no angular sum.  An integrand with a non-finite level-0
sum on any panel keeps the full rule on every panel, so its failure is
still seen.  The window depends on the integrand's own sums alone, so a
batch gives each integrand the value it gets alone, to the bit.  The 1-D
integrators keep the full rule.
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
    tolerance.  With one panel a total may also be the NotConvergedError of
    a row that failed inside its refinement (an angular order's radial
    pass); that is the row's outcome.

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
        values = pair_totals if isinstance(pair_totals, np.ndarray) else np.array(
            [math.nan if isinstance(total, NotConvergedError) else total
             for total in pair_totals], dtype=float)
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
            out[j] = (pair_totals[j] if isinstance(pair_totals[j], NotConvergedError)
                      else _not_converged(what, float(values[j]), float(err[j])))
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
        failed = next((res for res in pairs if isinstance(res, NotConvergedError)), None)
        if failed is not None:
            rows.append(failed if panels == 1 else _not_converged(
                what, float(np.sum(last[row:row + panels])),
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
    the panel, and scale is its length.  Each level calls f once, as
    f(x, level, live, segments): x holds the level's new nodes of every
    panel that still has a live pair, concatenated, and segments the
    (panel, slice of x) of each.  f returns a sequence of row values at x,
    each an array of its shape or a value that broadcasts to it, or a 2-D
    block of such rows, one per line; live is None while every row refines,
    then the rows with a pair in the indices _refine sent, and a row outside
    it may be None.  A line's total on a panel is the sum over its slice, so
    a row's panel totals do not depend on the other panels or rows in x.
    Each level halves the previous totals; levels 1..levels are yielded as
    arrays of the (row, panel) totals, level 0 only seeds the first.
    """
    n = len(panels)
    totals, live = None, None
    for level in range(levels + 1):
        t, d, w = _ts_level(level)
        if live is None:
            ks, rows = range(n), None
        else:
            ks, rows = np.unique(live % n).tolist(), np.unique(live // n).tolist()
        xs = [panels[k][0](t, d) for k in ks]
        x = xs[0] if len(xs) == 1 else np.concatenate(xs)
        segments = tuple((k, slice(i * t.size, (i + 1) * t.size)) for i, k in enumerate(ks))
        sums = []
        for row in f(x, level, rows, segments):
            fx = np.asarray(math.nan if row is None else row, dtype=float)
            if fx.ndim <= x.ndim:
                fx = (fx if fx.shape == x.shape else np.broadcast_to(fx, x.shape))[None]
            by_panel = np.full((len(fx), n), math.nan)
            for k, part in segments:
                by_panel[:, k] = np.add.reduce(w * fx[:, part], axis=-1) * panels[k][1]
            sums.append(by_panel)
        sums = np.concatenate(sums).ravel()
        totals = sums if level == 0 else 0.5 * totals + sums
        if level:
            live = yield totals


def _ts_rows(f, edges, spec: QuadratureSpec) -> tuple:
    """_refine's outcomes for the rows of f(x, level, live, segments) over
    the panels between consecutive edges (a, e1, ..., b)."""
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
    return _settled(_ts_rows(lambda x, level, live, segments: f(x), (a, *breaks, b),
                             spec or _DEFAULT_SPEC))


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
    totals = _ts_totals(lambda s, level, live, segments: (f_of_sin(s),),
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

#: Tail window of the 2-D radial passes: a panel's nodes past the outermost
#: level-0 node whose share |w S| of the level-0 sum reaches this fraction,
#: plus one unit of the transform abscissa, get no angular sum.
_TAIL_REL = 1e-20
#: The integer abscissa past every node of the transform window; the window
#: (-_T_EDGE, _T_EDGE) keeps every node.
_T_EDGE = int(_TMAX) + 1


@lru_cache(maxsize=64)
def _window_cuts(level: int) -> tuple:
    """Index of the first node of a level past each integer abscissa
    -_T_EDGE, ..., _T_EDGE."""
    return tuple(np.searchsorted(_ts_level(level)[0],
                                 np.arange(-_T_EDGE, _T_EDGE + 1)).tolist())


def _tail_window(level0_sums) -> tuple[int, int]:
    """(lo, hi), the integer abscissae bounding a panel's tail window, from
    the angular sums S at its level-0 nodes: one unit past the outermost
    node on each side whose |w S| is at least _TAIL_REL times their total.
    An all-zero panel keeps every node.  The threshold is summed from the
    scaled terms, so that it stays finite when the total would overflow."""
    t, _, w = _ts_level(0)
    mass = np.abs(w * level0_sums)
    kept = t[mass >= np.sum(_TAIL_REL * mass)]
    return int(kept[0]) - 1, int(kept[-1]) + 1


def _angular_sums(block, i: int, start: int, size: int, t, w):
    """sum_j w_j f_i(r_k, t_j) at the size radial nodes from index start on,
    in row blocks of about 2^14 grid elements; block(i, rows, t) is
    integrand i on the nodes in the slice rows against t[None, :]."""
    step = max(1, 2 ** 14 // t.size)
    out = np.empty(size)
    for k in range(0, size, step):
        rows = slice(start + k, start + min(k + step, size))
        out[k:k + step] = block(i, rows, t[None, :]) @ w
    return out


def integrate_2d(f: Callable, c: float, spec: QuadratureSpec | None = None,
                 breaks: tuple = ()) -> QuadResult:
    """int_0^R int_0^pi f(r, cos phi) sin(phi)^c dphi dr, for f even in cos phi.

    R is spec.truncation_radius and c > -1.  With t = cos(phi) the angular
    integral is int_-1^1 f(r, t) (1 - t^2)^((c-1)/2) dt: a Gauss-Jacobi rule
    carries the singular factor in its weight, so it is never evaluated, and
    evenness halves the rule to its m/2 positive nodes with doubled weights.
    The integrand receives broadcastable arrays (r[:, None], t[None, :]) in
    row blocks of about 2^14 elements and returns the block.

    Each angular order m = 32, 64, ..., 1024 is one radial tanh-sinh
    integral of the m-point angular sums over (0, R), split at the radial
    breaks into panels as integrate_rows splits; consecutive orders are
    compared by the shared refinement driver.  Past level 0 each panel
    takes only the radial nodes of its tail window, set from its level-0
    sums (see the module docstring): the nodes outside add exactly 0.  The
    error estimate is the larger of the last order difference and that
    order's radial error.  NotConvergedError past the last order carries
    its total, and a radial integral that does not converge raises its own.
    This is the one-integrand case of _integrate_2d_rows.
    """
    return _settled(_integrate_2d_rows(
        lambda r: lambda i, rows, t: f(r[rows, None], t), [c], spec, breaks))[0]


def _integrate_2d_rows(levels, cs, spec: QuadratureSpec | None = None,
                       breaks: tuple = ()) -> tuple:
    """integrate_2d of several integrands, as _refine's outcomes, one per integrand.

    levels(r) takes the radial nodes r of one tanh-sinh level, the panels'
    nodes concatenated, and returns block(i, rows, t), integrand i on
    r[rows] x t for a slice rows and angular nodes t[None, :]; work that
    the integrands share at a level is done once in levels(r).  Its block
    serves every order: levels is called again at a level only for a panel
    that no earlier call covered.  cs[i] is the sin power of integrand i.
    Each order runs one radial tanh-sinh pass over the panels between the
    breaks, whose rows are the integrands still refining over the orders.  Level 0 sets each row's tail window on each panel
    from its own angular sums there, or keeps the full rule on every panel
    if one of them is not finite; later levels sum only the nodes inside.
    The angular sums of each panel run in the row blocks integrate_2d uses,
    so every outcome is the one integrate_2d gives its integrand alone, to
    the bit: a QuadResult, the NotConvergedError it would raise, or None
    after the first failed row.
    """
    spec = spec or _DEFAULT_SPEC
    blocks = {}     # (panel, level) -> the level's block and the panel's first index
    radial_err = [0.0] * len(cs)
    edges = (0.0, *breaks, spec.truncation_radius)
    full = (-_T_EDGE, _T_EDGE)

    def order_totals():
        live = range(len(cs))
        for m in _ORDERS:
            rows = list(live)
            rules = {}
            for i in rows:
                if cs[i] not in rules:
                    t, w = gauss_jacobi(m, (cs[i] - 1.0) / 2.0, (cs[i] - 1.0) / 2.0)
                    rules[cs[i]] = t[m // 2:], 2.0 * w[m // 2:]
            windows = {}    # (row, panel) -> (lo, hi) of its tail window

            def sums(r, level, running, segments):
                for k, part in segments:
                    if (k, level) not in blocks:
                        block = levels(r)
                        for k_new, part_new in segments:
                            blocks.setdefault((k_new, level), (block, part_new.start))
                cuts = _window_cuts(level)
                out = np.zeros((len(rows), r.size))
                for j in range(len(rows)) if running is None else running:
                    i = rows[j]
                    for k, part in segments:
                        block, start = blocks[k, level]
                        t_lo, t_hi = windows.get((j, k), full)
                        lo, hi = cuts[t_lo + _T_EDGE], cuts[t_hi + _T_EDGE]
                        out[j, part.start + lo:part.start + hi] = _angular_sums(
                            block, i, start + lo, hi - lo, *rules[cs[i]])
                    if not level:
                        finite = np.isfinite(out[j]).all()
                        for k, part in segments:
                            windows[j, k] = _tail_window(out[j, part]) if finite else full
                return (out,)

            totals = [math.nan] * len(cs)
            for i, res in zip(rows, _ts_rows(sums, edges, spec)):
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
