"""Special functions, the smooth cutoff, and singularity-aware quadrature.

Integration is tanh-sinh (double-exponential): endpoint algebraic
singularities t^c with c > -1 become regular for the transformed trapezoid
sum, which is exactly the class produced by the spherical reduction of the
weighted integrals here.  Levels halve the trapezoid step and the error
estimate is the difference between consecutive levels.  integrate_rows
integrates several integrands on the same nodes from one evaluation per
level, which returns one (rows, nodes) array; integrate_1d is its one-row
case.

Tanh-sinh converges exponentially only for integrands analytic inside the
interval; at an interior kink it converges algebraically, and the level
difference can understate the error.  Break points split the interval into
panels, each with its own rule, so that a kink becomes a panel endpoint.
The first integrand call takes levels 0 to 4 of every panel, each later
call one level, on the new nodes of every panel that a row still refines
on, concatenated; each level is summed from its own slice of the call, and
each (row, panel) pair converges on its own, so a row's value and error
estimate, the sums over its panels, are those of one call per level.  The
integrand sees each distinct node of a call once, the panel ends that many
nodes round onto among them (below), and an integrand that takes rows is
asked only for the rows that still refine.  One interval is the one-panel
case.  The radial integrals of the sweeps break
at r = 1, where cutoff_eta leaves 1: its quintic ramp is C^2 there, and an
integrand with eta' only C^1.

Nodes are made from their distance d to the nearer panel end: an
integrand gets x = lo + (hi - lo) d or hi - (hi - lo) d, and where d is
below about half an ulp of that end, x rounds onto it.  So x holds every
panel end other than 0; only at an end at 0 is x = +-(hi - lo) d never the
end (short of underflow), and an endpoint singularity is integrable there
alone.  For integrals over (0, pi) of functions of sin(phi), use
integrate_angular: it feeds the integrand sin(pi*d) computed from the
endpoint distance, which avoids the catastrophic cancellation of
sin(pi - tiny) and never reaches 0.  It is the numeric route of
sin_power_integral, whose Beta closed form the sweeps use.

integrate_2d (radial tanh-sinh of angular Gauss-Jacobi sums) is a plain
reference; the sweeps take that angular integral in closed form.  _refine
alone runs the convergence loop of the 1D, angular and 2D integrators; it
returns a result per row, or raises the failure of the first row, in
order, that does not converge.

The closed form (_bracket_angular; one p per call, one b per row) is, at
an even p = 2m, a sum of m + 1 positive Beta terms (Abramowitz & Stegun
6.2.1), A B(3/2, b) + C B(1/2, b + 1) at p = 2, with coefficients cached
per (m, b values).  At any other p it is a Gauss hypergeometric F(x) of
x = min(A, C)/max(A, C) in [0, 1], one F per branch.  Per (p, b) that F is
tabulated once, lazily, from its series: Chebyshev interpolants of degree
12 on 64 equal panels of [1/16, 1], and below 1/16 in u = log2 x on two
panels per octave down to 2^-110, where F's x^m and log singularity at 0
is analytic in u, each checked in the Chebyshev basis and then stored as
power coefficients in the panel variable.  An element reads its panel by
Horner's rule of 12 steps, whichever table holds it; below 2^-110 it takes
the leading term of each series component.  No element sums a series, and
each is evaluated alone, so a batch of rows gives each row the values it
gets alone, to the bit.  _bracket_angular gives its accuracy against
40-digit mpmath.  A (p, b) whose tables are not resolved (a panel's last
two coefficients above 1e-10 of its coefficient sum, two series that
disagree at x = 1/2, or a sample whose series does not converge, as with b
far above p or p past about 280) is NaN at every element, and a sweep of
it raises NotConvergedError before its radial pass; an even p takes no
table and is resolved at every b up to p = 2000 (_EVEN_P_MAX), past which
it is refused in the same way.

Reduced integrals are computed WITHOUT the sphere-area prefactor of the
residual angles; it cancels in every quotient.

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
    "log_gamma", "beta", "sin_power_integral",
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

def _pow(base, e, out=None):
    """base ** e, into out when it is given.  For arrays numpy's power with
    out= rounds as ** does; a numpy scalar base with out=None keeps the
    scalar ** of the C library, which can round differently."""
    return base ** e if out is None else np.power(base, e, out=out)


def _smoothstep(u, out=None):
    """Quintic ramp S(u) = u^3 (10 + u (-15 + 6 u)), C^2 with S(0) = 0,
    S(1) = 1, S'(0) = S'(1) = S''(0) = S''(1) = 0.  out: None, or (S, scratch),
    two arrays shaped like u."""
    res, tmp = (None, None) if out is None else out
    s = np.multiply(6.0, u, out=tmp)
    s = np.add(-15.0, s, out=tmp)
    s = np.multiply(u, s, out=tmp)
    s = np.add(10.0, s, out=tmp)
    cube = np.multiply(u, u, out=res)
    cube = np.multiply(cube, u, out=res)
    return np.multiply(cube, s, out=res)


def cutoff_eta(t, out=None):
    """C^2 cutoff: identically 1 on (-inf, 1], 0 on [2, inf), quintic ramp between.

    Accepts scalars or arrays.  |eta'| <= 15/8 everywhere.  Evaluated as
    S(2 - t) through the ramp's symmetry 1 - S(u) = S(1 - u): S(v) >= 0 for
    every v >= 0, whereas 1 - S(t - 1) rounds to about -1e-15 just below 2
    and makes eta ** p NaN for non-integer p.  out: None, or (eta, scratch,
    scratch), three arrays shaped like t; eta is written into the first.
    """
    arr = np.asarray(t, dtype=float)
    res, u, tmp = (None,) * 3 if out is None else out
    u = np.clip(np.subtract(2.0, arr, out=u), 0.0, 1.0, out=u)
    value = _smoothstep(u, (res, tmp))
    return float(value) if arr.ndim == 0 else value


def cutoff_eta_prime(t, out=None):
    """Derivative of cutoff_eta: -30 u^2 (1-u)^2 on the ramp, 0 elsewhere.
    out: None, or (eta', scratch), two arrays shaped like t."""
    arr = np.asarray(t, dtype=float)
    res, tmp = (None, None) if out is None else out
    u = np.clip(np.subtract(arr, 1.0, out=tmp), 0.0, 1.0, out=tmp)
    value = np.multiply(-30.0, u, out=res)
    value = np.multiply(value, u, out=res)
    fall = _pow(np.subtract(1.0, u, out=tmp), 2, tmp)
    value = np.multiply(value, fall, out=res)
    return float(value) if arr.ndim == 0 else value


# ------------------------------------------------------------- quadrature

@dataclass(frozen=True)
class QuadratureSpec:
    """Refinement depth and tolerances for the integrators: tanh-sinh levels
    (integrate_2d's angular orders are the module constant _ORDERS).  The
    interval is the caller's; integrate_2d's radial one is (0, 2), the
    support of cutoff_eta.
    """

    levels: int = 10
    abs_tol: float = 1e-13
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.levels < 3:
            raise ValueError(f"levels must be >= 3, got {self.levels}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("abs_tol and rel_tol must be positive")


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


def _refine(totals, spec: QuadratureSpec, what: str, panels: int = 1) -> tuple[QuadResult, ...]:
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

    Returns a QuadResult per row, whose value and error estimate are the
    sums of its pairs'.  Pairs are settled in order, as if each row were
    driven alone in turn: a failed row and the rows after it refine no
    further, and refinement ends once every row before it is decided.  The
    first row that does not converge then raises NotConvergedError carrying
    the sums of its pairs' last totals and estimates.
    """
    live, prev = None, None
    while True:
        try:
            values = np.asarray(totals.send(live), dtype=float)
        except StopIteration:
            break
        if live is None:        # per pair: last total, estimate, converged
            last, err = np.full(values.size, math.nan), np.full(values.size, math.inf)
            converged, live = np.zeros(values.size, dtype=bool), np.arange(values.size)
        total = values[live]
        bad = ~np.isfinite(total)
        stop = int(np.argmax(bad)) if bad.any() else live.size
        done, total = live[:stop], total[:stop]
        last[done] = total
        if prev is None:        # the first totals of every pair
            keep = np.ones(stop, dtype=bool)
        else:
            diff = np.abs(total - prev[:stop])
            err[done] = diff
            keep = diff > np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
            converged[done[~keep]] = True
        rest = live[stop:]
        live, prev = done[keep], total[keep]
        if rest.size:           # pair rest[0] fails, and its row is decided
            row = int(rest[0]) - int(rest[0]) % panels
            rest = rest[rest < row + panels]
            last[rest] = values[rest]
            prev = prev[live < row]
            live = live[live < row]
        if not live.size:
            break

    failed = np.flatnonzero(~converged.reshape(-1, panels).all(axis=1))
    if failed.size:
        pairs = slice(failed[0] * panels, (failed[0] + 1) * panels)
        total = float(np.sum(last[pairs]))
        raise NotConvergedError(f"{what} did not converge (last sum {total})",
                                value=total, err_estimate=float(np.sum(err[pairs])))
    value, estimate = last[0::panels].copy(), err[0::panels].copy()
    for k in range(1, panels):      # left to right, as a row's own sum
        value += last[k::panels]
        estimate += err[k::panels]
    return tuple(QuadResult(v, e) for v, e in zip(value.tolist(), estimate.tolist()))


#: Levels 0 to _FIRST_CALL_LEVELS of every panel share the integrand's first
#: call: each call of a sweep's integrand carries a fixed setup cost, and on
#: the default schedules and certbench's certification sets no panel of a
#: pass is done before level 4 (a few general-p pairs leave at level 3, each
#: beside pairs of its panel that need level 4), so there the call evaluates
#: no node that one call per level would not.
_FIRST_CALL_LEVELS = 4


@lru_cache(maxsize=128)
def _panel_nodes(lo: float, hi: float, level: int):
    """Read-only nodes of tanh-sinh level `level` (_ts_level) on the panel
    (lo, hi), each from its distance to the nearer endpoint."""
    t, d, _ = _ts_level(level)
    x = np.where(t <= 0.0, lo + (hi - lo) * d, hi - (hi - lo) * d)
    x.setflags(write=False)
    return x


@lru_cache(maxsize=16)
def _angular_nodes(lo: float, hi: float, level: int):
    """Read-only sin(phi) at the nodes of tanh-sinh level `level` on
    (0, pi), as sin(pi d) from the distance d to the nearer endpoint; lo and
    hi are 0 and pi."""
    x = np.sin(np.pi * _ts_level(level)[1])
    x.setflags(write=False)
    return x


@lru_cache(maxsize=128)
def _call_plan(nodes, edges: tuple, levels: range, ks: tuple):
    """(x, expand, weights, slots) of one integrand call on levels of the
    panels ks: the call's distinct nodes in first-seen order, read-only; the
    index that expands f's values at them back to the full node list,
    level-major and then by panel, or None when every node is distinct;
    that list's weights, read-only; and per (level, panel) slot of the list
    the triple (level, panel, size).  nodes(lo, hi, level) gives a level's
    nodes on the panel (lo, hi)."""
    slots = tuple((level, k, _ts_level(level)[2].size) for level in levels for k in ks)
    x = np.concatenate([nodes(edges[k], edges[k + 1], level) for level, k, _ in slots])
    weights = np.concatenate([_ts_level(level)[2] for level, _, _ in slots])
    _, first, inverse = np.unique(x, return_index=True, return_inverse=True)
    expand = None
    if first.size < x.size:
        order = np.argsort(first)
        x, expand = x[first[order]], np.argsort(order)[inverse]
    for array in (x, weights):
        array.setflags(write=False)
    return x, expand, weights, slots


def _takes_rows(f) -> bool:
    """Whether the integrand f is a function with a parameter named rows
    (see _ts_totals); any other callable is called with x alone."""
    code = getattr(f, "__code__", None)
    return code is not None and "rows" in code.co_varnames[:code.co_argcount
                                                            + code.co_kwonlyargcount]


def _ts_totals(f, nodes, edges: tuple, levels: int, by_rows: bool = False):
    """Running tanh-sinh totals of the rows of f over panels, row-major.

    The panels are (edges[k], edges[k + 1]); nodes(lo, hi, level) gives the
    new points of a level (_ts_level) in the panel (lo, hi), and a panel's
    scale is its length.  A call of f covers the new nodes of a run of
    levels of every panel that still has a live pair (per the indices
    _refine sent), concatenated level-major: the first call covers levels 0
    to _FIRST_CALL_LEVELS of every panel, each later call one level.  f's
    value at a node may depend on that node alone: f is called once per
    call on the call's distinct nodes, in first-seen order (_call_plan),
    and returns one float array of shape (rows, nodes).  Its values are
    expanded back to the full node list in a new array, which is weighted
    in place, so the array f returned is never written, and each level's
    pairwise sums see the array the full node list would give.  With by_rows
    f is called as f(x, rows=None) first, for every row, and from the second
    call on with rows, the sorted indices of the rows that own a live pair;
    it then returns those rows alone, and the others keep NaN placeholders.
    A row's total on a panel at a level is the sum of its weighted values
    over that level's and panel's slice of the node list, times the panel's
    scale, so a row's panel totals do not depend on the other panels, rows
    or levels of the call.  The sums of every level go into one array, NaN
    on the panels a call skips.  Each level halves the previous totals;
    levels 1..levels are yielded in turn as arrays of the (row, panel)
    totals, level 0 only seeds the first.
    """
    n, first = len(edges) - 1, min(_FIRST_CALL_LEVELS, levels)
    scales = np.array([hi - lo for lo, hi in zip(edges, edges[1:])], dtype=float)
    ks, rows, sums, totals = tuple(range(n)), None, None, None
    for run in [range(first + 1), *(range(level, level + 1)
                                    for level in range(first + 1, levels + 1))]:
        x, expand, weights, slots = _call_plan(nodes, edges, run, ks)
        fx = f(x, rows=rows) if by_rows else f(x)
        if expand is None:
            wfx = np.multiply(fx, weights)
        else:
            wfx = np.take(np.asarray(fx, dtype=float), expand, axis=1)
            np.multiply(wfx, weights, out=wfx)
        if sums is None:
            sums = np.full((levels + 1, len(wfx), n), math.nan)
        start = 0
        for level, k, size in slots:
            part = wfx[:, start:start + size]
            if rows is None:
                np.add.reduce(part, axis=-1, out=sums[level, :, k])
            else:
                sums[level, rows, k] = np.add.reduce(part, axis=-1)
            start += size
        sums[run.start:run.stop] *= scales
        for level in run:
            new = sums[level].ravel()
            totals = new if level == 0 else 0.5 * totals + new
            if level:
                live = yield totals
        pairs = live.tolist()
        ks = tuple(sorted({i % n for i in pairs}))
        if by_rows:             # live is increasing
            rows = np.array(list(dict.fromkeys(i // n for i in pairs)))


def integrate_rows(f: Callable, a: float, b: float, spec: QuadratureSpec | None = None,
                   breaks: tuple = ()) -> tuple[QuadResult, ...]:
    """Integrate the m rows of f over (a, b) on shared tanh-sinh nodes.

    f is evaluated on a 1-D numpy array x of distinct nodes, once for levels
    0 to 4 and then once per level, and returns one float array of shape
    (m, x.size), a row per integrand (a tuple of m rows of x's shape is read
    as that array), so work shared by the rows is done once.  f's value at a
    node may depend on that node alone: a node that two slots of a call
    share, as a panel end that several levels round onto, is passed once
    and its value used for each.  A function f with a parameter named rows
    is called as f(x, rows=None) first, for every row, and from then on as
    f(x, rows=rows), rows the increasing indices of the rows that still
    refine; it then returns those rows alone, in that order, and need not
    compute the others.
    breaks, points strictly inside (a, b) in increasing order, split the
    interval into panels, each with its own tanh-sinh rule: a kink of the
    integrand at a break is then an endpoint of two panels, where the rule
    keeps its exponential convergence, instead of an interior point, where
    it converges only algebraically.  Each call of f takes the new nodes of
    every panel that a row still refines on (_ts_totals); each (row, panel)
    converges on its own, and a row's value and error estimate are the sums
    of its panels' (_refine).  The nodes lie inside their panels in exact
    arithmetic, but those within about half an ulp of a panel end round onto
    it (see the module docstring): on the panels (0, 1) and (1, 2), 1,152
    of the 3,154 nodes of levels 0 to 7 are 1.0 or 2.0 exactly, so f must
    be finite at every panel end other than 0.  Each row is summed,
    converged and frozen exactly as integrate_1d would integrate it alone,
    on the same values in the same order, so its QuadResult is
    the same to the bit; the first row, in order, that does not converge
    raises NotConvergedError with its best value.  An f that returns an
    array of shape (0, x.size) gives ().
    """
    spec, edges = spec or _DEFAULT_SPEC, (a, *breaks, b)
    if any(not hi > lo for lo, hi in zip(edges, edges[1:])):
        raise ValueError(f"need a < break points < b, increasing, got {edges}")
    return _refine(_ts_totals(f, _panel_nodes, edges, spec.levels, _takes_rows(f)), spec,
                   f"tanh-sinh on ({a}, {b}) within {spec.levels} levels", len(edges) - 1)


def integrate_1d(f: Callable, a: float, b: float, spec: QuadratureSpec | None = None,
                 breaks: tuple = ()) -> QuadResult:
    """Integrate f over (a, b); an algebraic singularity is allowed at an end 0.

    f is evaluated on numpy arrays of distinct nodes and returns an array of
    the same shape (or a value that broadcasts to it); its value at a node
    may depend on that node alone.  Nodes next to a panel end other than 0
    round onto it (see integrate_rows), so an f that is infinite there
    gives a non-finite sum and NotConvergedError: take
    int_0^1 (1 - x)^-0.5 dx as int_0^1 x^-0.5 dx, with the singularity at
    0.  Converged when the level difference is at most
    max(abs_tol, rel_tol*|value|) on every panel between the breaks (see
    integrate_rows); otherwise NotConvergedError carrying the best value.
    This is the one-row case of integrate_rows: f's values are its (1, N)
    array.
    """
    return integrate_rows(_one_row(f), a, b, spec, breaks)[0]


def _one_row(f):
    """f as an integrand of one row: its values at x, or a value that
    broadcasts to x's shape, as a (1, x.size) array."""
    return lambda x: np.broadcast_to(f(x), x.shape)[None]


def integrate_angular(f_of_sin: Callable, spec: QuadratureSpec | None = None) -> QuadResult:
    """int_0^pi f(sin phi) dphi for integrands depending on phi through sin phi.

    sin(phi) at a node distance d from either endpoint is computed as
    sin(pi*d), which is exact in the sense of never cancelling against pi.
    Handles algebraic blow-up of f at sin phi -> 0 with rate > -1.
    """
    spec = spec or _DEFAULT_SPEC
    totals = _ts_totals(_one_row(f_of_sin), _angular_nodes, (0.0, math.pi), spec.levels)
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


def integrate_2d(f: Callable, c: float, spec: QuadratureSpec | None = None,
                 breaks: tuple = ()) -> QuadResult:
    """int_0^2 int_0^pi f(r, cos phi) sin(phi)^c dphi dr, for f even in cos phi.

    (0, 2) is the support of cutoff_eta, and c > -1.  Each order m = 32,
    ..., 1024 is one integrate_1d of the sums f(r[:, None], t[None, :]) @ w
    of the m-point Gauss-Jacobi rule for the weight (1 - t^2)^((c-1)/2),
    t = cos phi, halved to its positive nodes by evenness.  The error
    estimate is the larger of the last order difference and that order's
    radial error; past the last order NotConvergedError carries its total.
    """
    spec, radial = spec or _DEFAULT_SPEC, []

    def order_totals():
        for m in _ORDERS:
            t, w = gauss_jacobi(m, (c - 1.0) / 2.0, (c - 1.0) / 2.0)
            radial.append(integrate_1d(lambda r: f(r[:, None], t[None, m // 2:]) @ w[m // 2:],
                                       0.0, 2.0, spec, breaks))
            yield (2.0 * radial[-1].value,)

    res, = _refine(order_totals(), spec, f"Gauss-Jacobi within order {_ORDERS[-1]}")
    return QuadResult(res.value, max(res.err_estimate, 2.0 * radial[-1].err_estimate))


# ------------------------------------------------- angular closed form

#: Series terms at most, enough for p up to 250; each table sample stops at
#: its first term below _SERIES_REL of its own sum, and one that never does
#: is NaN, which refuses its key.
_SERIES_TERMS, _SERIES_REL = 320, 2e-17
#: Near an integer k, m = c - a - b is interpolated linearly in a, at fixed
#: c, between the log case at k and the connection formula at k +- _M_GAP.
_M_GAP = 1e-5
_NONE = np.zeros(_SERIES_TERMS)
#: F is read from Chebyshev interpolants of degree _DEGREE (_chebyshev_table):
#: on _PANELS equal panels of [_X0, 1], and below _X0 = 2^-4 on _PER_OCTAVE
#: equal panels per octave in u = log2 x, down to 2^_FLOOR_EXP; below that,
#: from the leading term of each component of its series.  A key with a
#: panel whose last two coefficients pass _TAIL of its coefficient sum, or
#: whose two series differ by more than _SEAM relative at x = 1/2, is NaN
#: everywhere.
_X0, _PANELS, _DEGREE, _TAIL, _SEAM = 1.0 / 16.0, 64, 12, 1e-10, 1e-12
_PER_OCTAVE, _FLOOR_EXP = 2, -110
#: Table columns per branch: the panels of [2^_FLOOR_EXP, _X0] in log2 x,
#: then those of [_X0, 1].
_LOG_PANELS = _PER_OCTAVE * (-4 - _FLOOR_EXP)
_COLUMNS = _LOG_PANELS + _PANELS


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


def _connection(a, bb, m, am, scale=1.0, near=True) -> list:
    """F(a, bb; a + bb + m; 1 - x) as components (scale, P, Q, e), each
    scale x^e sum_n (P_n ln x + Q_n) x^n: Abramowitz & Stegun 15.3.6, or
    15.3.11 (the log case) at an integer m >= 1, interpolated within _M_GAP.
    am is a + m, given exactly: formed from a rounded m it errs by an ulp of
    m, which Gamma(a + m) turns into 1e-10 relative at a + m = 1e-6."""
    c, k = a + bb + m, round(m)
    if near and 0.0 < abs(m - k) < _M_GAP:
        far = k + math.copysign(_M_GAP, m - k)
        w = (m - k) / (far - k)
        return (_connection(a + (m - k), bb, k, am, scale * (1.0 - w), False)
                + _connection(a + (m - far), bb, far, am, scale * w, False))
    if m != k:
        return [(scale * _gamma_ratio((c, m), (bb + m, am)), _NONE,
                 _pochhammer_series((a, bb), (1.0 - m, 1.0)), 0.0),
                (scale * _gamma_ratio((c, -m), (a, bb)), _NONE,
                 _pochhammer_series((bb + m, am), (1.0 + m, 1.0)), m)]
    n = np.arange(_SERIES_TERMS, dtype=float)
    finite = np.concatenate([_pochhammer_series((a, bb), (1.0, 1.0 - k), k), _NONE[k:]])
    t = _pochhammer_series((am, bb + k), (1.0, k + 1.0)) / math.factorial(k)
    psi = _digamma(n + 1.0) + _digamma(n + k + 1.0) - _digamma(am + n) - _digamma(bb + n + k)
    return [(scale * _gamma_ratio((k, c), (am, bb + k)), _NONE, finite, 0.0),
            (-(-1.0) ** k * scale * _gamma_ratio((c,), (a, bb)), t, -t * psi, float(k))]


def _series_tables(pw: float, b: float):
    """(P, Q, scale, e, has P) of one (p, b) key: four components of F, zero
    padded, per branch and region x >= 1/2, x < 1/2.  Branch 0, C >= A, is
    F(-p/2, 1/2; b + 1/2; 1 - A/C), m = b + p/2, and branch 1
    F(-p/2, b; b + 1/2; 1 - C/A), m = (p + 1)/2, each m formed as this sum,
    and a + m = c - bb exactly b and 1/2.  For x >= 1/2 F is its Gauss series
    in 1 - x or, above p = 8, where those terms cancel by up to 3^(p/2),
    Euler's x^m F(bb + m, a + m; c; 1 - x).
    """
    rows, a, c = [], -pw / 2.0, b + 0.5
    try:
        for bb, m, am in ((0.5, b + pw / 2.0, b), (b, (pw + 1.0) / 2.0, 0.5)):
            gauss = ((a, bb), 0.0) if pw <= 8.0 else ((bb + m, am), m)
            for comps in ([(1.0, _NONE, _pochhammer_series(gauss[0], (c, 1.0)), gauss[1])],
                          _connection(a, bb, m, am)):
                rows += comps + [(0.0, _NONE, _NONE, 0.0)] * (4 - len(comps))
    except OverflowError:       # a factorial or Gamma ratio past p of about 340
        rows = [(math.nan, _NONE, _NONE, 0.0)] * 16
    scale, P, Q, e = (np.array(col) for col in zip(*rows))
    return P.T.copy(), Q.T.copy(), scale, e, P.any(axis=1)


def _series_sums(P, Q, rows, y, L):
    """sum_n (P[n, row] L + Q[n, row]) y^n per entry, each stopping at its
    first term n >= 1 below _SERIES_REL of its own sum, so that it depends on
    itself alone, or NaN if it never does within _SERIES_TERMS; stopped
    entries are dropped once a quarter of the rest."""
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
    out[live[summing]] = math.nan
    return out


def _series_F(tables, plan, x):
    """F at each x in [0, 1] by its series: tables as _series_tables gives
    them, plan the 2 branch + region of each x."""
    P, Q, scale, e, logs = tables[:5]
    owner, slot = np.nonzero(scale[4 * plan[:, None] + np.arange(4)])
    comp = 4 * plan[owner] + slot
    xs = x[owner]
    y = np.where(xs < 0.5, xs, 1.0 - xs)
    L = np.where(logs[comp] & (xs > 0.0), np.log(xs), 0.0)
    values = scale[comp] * _series_sums(P, Q, comp, y, L) * xs ** e[comp]
    return np.bincount(owner, weights=values, minlength=x.size)


@lru_cache(maxsize=64)
def _chebyshev_table(pw: float, b: float):
    """(coefficients, leading terms) of B(1/2, b) F for one (p, b) key, p
    not even, both read-only.  The coefficients are a (_DEGREE + 1,
    2 _COLUMNS) array, a row per power of the panel variable t in [-1, 1]
    and a column per branch and panel, branch-major: per branch the
    _LOG_PANELS panels of [2^_FLOOR_EXP, _X0], equal in u = log2 x, then the
    _PANELS equal panels of [_X0, 1], each from the series (_series_F) at
    its _DEGREE + 1 Chebyshev points, all in one call.  In u, F is analytic
    in |Im u| < pi/ln 2, so its x^m and log singularity at x = 0 costs
    nothing; half an octave per panel resolves F where a large x^m component
    dominates it, as x^4.5 does below 1/16 at (9, 1e-4).  The leading terms
    are a (4, 2, 4) array: scale, e, Q_0 and P_0 of each branch's four
    components below x = 1/2, for x below 2^_FLOOR_EXP.  Both are all NaN
    when a column's last two Chebyshev coefficients are not within _TAIL of
    its coefficient sum, or when a branch's series in 1 - x and connection
    formula in x, which its samples switch between at x = 1/2, differ there
    by more than _SEAM relative.  The Chebyshev coefficients that pass are
    then turned into power coefficients in t, once per key, for Horner's
    rule (_chebyshev_F).  On the sweeps' keys (p up to 99, sigma up to 0.2)
    the tails are within 9.4e-15 and the seams within 6.7e-14.  With b far
    above p, or past p of about 280, the panels or the series are not
    resolved: at (2.5, 20) and (3, 20) the tails pass, but the connection
    formula has lost digits, and the seams differ by 6.8e-11 and 3.3e-12."""
    nodes = _DEGREE + 1
    # cos(k theta_j), theta_j = pi (2j + 1) / (2 nodes), from the angle reduced
    # exactly: cos(k * theta_j) in floats errs by k ulp of the angle, enough to
    # put noise of 1e-15 into the high coefficients
    cosines = np.cos(np.pi / (2 * nodes) * (np.outer(2 * np.arange(nodes) + 1, np.arange(nodes))
                                            % (4 * nodes)))
    unit = 0.5 * (1.0 + cosines[:, 1])
    logs = 2.0 ** (_FLOOR_EXP + (np.arange(_LOG_PANELS)[:, None] + unit) / _PER_OCTAVE)
    panels = _X0 + (1.0 - _X0) / _PANELS * (np.arange(_PANELS)[:, None] + unit)
    x = np.tile(np.concatenate([logs.ravel(), panels.ravel()]), 2)
    plan = np.repeat([0, 2], x.size // 2) + (x < 0.5)
    # then F at x = 1/2 from both regions of each branch: the seam.  Past p of
    # about 250 the series may overflow, which refuses the key below
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _series_tables(pw, b)
        F = _series_F(tables, np.concatenate([plan, np.arange(4)]),
                      np.concatenate([x, np.full(4, 0.5)]))
        coef = np.ascontiguousarray((F[:-4].reshape(2 * _COLUMNS, nodes) @ cosines).T)
    seam = F[-4:]
    coef *= 2.0 / nodes * beta(0.5, b)
    coef[0] *= 0.5
    P, Q, scale, e, _ = tables
    low = np.add.outer([4, 12], np.arange(4))       # each branch's x < 1/2 components
    lead = np.array([scale[low] * beta(0.5, b), e[low], Q[0, low], P[0, low]])
    if not ((np.abs(coef[-2:]).sum(axis=0) <= _TAIL * np.abs(coef).sum(axis=0)).all()
            and (np.abs(seam[0::2] - seam[1::2]) <= _SEAM * np.abs(seam[0::2])).all()):
        coef[:], lead[:] = math.nan, math.nan
    # row k of basis: the power coefficients of T_k, from
    # T_(k+1) = 2 t T_k - T_(k-1); integers, exact in floats
    basis = np.eye(nodes)
    for k in range(2, nodes):
        basis[k, 1:] = 2.0 * basis[k - 1, :-1]
        basis[k] -= basis[k - 2]
    coef = basis.T @ coef
    coef.setflags(write=False)
    lead.setflags(write=False)
    return coef, lead


@lru_cache(maxsize=64)
def _bracket_tables(pw: float, bs: tuple):
    """(coefficients, leading terms) of the keys (p, b), b in bs, in turn
    (_chebyshev_table), joined along their branch axes, so that table
    2 i + branch of the i-th b owns coefficient columns from _COLUMNS times
    its index; a new combination of built keys joins their tables and
    builds none."""
    parts = [_chebyshev_table(pw, b) for b in bs]
    return (np.concatenate([coef for coef, _ in parts], axis=1),
            np.concatenate([lead for _, lead in parts], axis=1))


def _angular_resolved(pw: float, b: float) -> bool:
    """Whether _bracket_angular resolves the key (p, b): at an even p, which
    takes no table, when p is at most _EVEN_P_MAX, and otherwise when
    _chebyshev_table is not NaN."""
    if pw % 2.0 == 0.0:
        return pw <= _EVEN_P_MAX
    return not math.isnan(_chebyshev_table(pw, b)[0][0, 0])


def _chebyshev_F(coef, columns, t):
    """Horner's rule at each t in [-1, 1] on the power coefficients in t of
    the column of coef that columns names for it: _DEGREE steps of one
    multiply and one add.  The columns are gathered into one array, a row
    per power, whose last row then holds the running value."""
    c = coef.take(columns, axis=1)
    F = c[-1]
    for k in range(len(c) - 2, -1, -1):
        F *= t
        F += c[k]
    return F


def _leading_F(lead, tables, x):
    """The leading term of each series component below x = 1/2, summed:
    scale x^e (Q_0 + P_0 ln x) for each x, with ln 0 read as 0 where only
    x^e = 0 multiplies it; tables holds each x's 2 key + branch."""
    scale, e, Q0, P0 = lead[:, tables]
    L = np.log(np.where(x > 0.0, x, 1.0))[:, None]
    return (scale * x[:, None] ** e * (Q0 + P0 * L)).sum(axis=1)


#: The largest even p that _bracket_angular sums, the largest it is tested
#: at against 40-digit mpmath; the sum takes p/2 steps per element, and a
#: larger even p is NaN at every element, as an unresolved table is.
_EVEN_P_MAX = 2000.0


@lru_cache(maxsize=64)
def _even_coefficients(m: int, bs: tuple):
    """Read-only (m + 1, rows, 1) array: at p = 2m, the coefficient
    binom(m, j) B(j + 1/2, m - j + b) of A^j C^(m - j) in _bracket_angular,
    one row per b.  The ends are the p = 2 ones, B(1/2, b + 1) and B(3/2, b)
    as beta gives them, carried up to B(1/2, b + m) and B(m + 1/2, b) by
    B(1/2, y + 1) = B(1/2, y) y / (y + 1/2) and B(x + 1, b) = B(x, b) x / (x + b);
    the others follow from the first by
    co_(j+1) = co_j (m - j)(j + 1/2) / ((j + 1)(m - j - 1 + b)).  Every step
    multiplies by a ratio of positive floats, with no lgamma difference, so
    the error grows by a few ulp per step."""
    b = np.array(bs, dtype=float)[:, None]
    co = np.empty((m + 1, len(bs), 1))
    co[0] = [[beta(0.5, v + 1.0)] for v in bs]
    co[m] = [[beta(1.5, v)] for v in bs]
    for i in range(1, m):
        co[0] *= (b + i) / (b + (i + 0.5))
        co[m] *= (i + 0.5) / (b + (i + 0.5))
    for j in range(m - 1):
        co[j + 1] = co[j] * ((m - j) * (j + 0.5)) / ((j + 1) * (m - j - 1 + b))
    co.setflags(write=False)
    return co


def _bracket_angular(A, C, pw: float, bs, keys=None):
    """int_-1^1 (A t^2 + C (1 - t^2))^(p/2) (1 - t^2)^(b-1) dt, elementwise.

    A and C are (rows, nodes) blocks of values >= 0, pw the one p >= 1 of
    every row and bs one b > 0 per row.  At an even p = 2m the bracket is a
    polynomial in A and C, so the integral is the sum over j of
    binom(m, j) A^j C^(m - j) B(j + 1/2, m - j + b), every term positive
    (_even_coefficients); Horner's rule in A, with the powers of C formed as
    it goes, takes m steps.  At p = 2 that is A B(3/2, b) + C B(1/2, b + 1),
    two products and a sum.  Against the same sum in 40-digit mpmath, for b
    from 1e-6 to 0.4, it is within 6e-14 relative for p up to 100 (2.7e-15
    measured), and within 1e-12 at p = 1000 and 2000 (3.1e-14 measured);
    against 40-digit hyp2f1 at every panel edge of the tables below, within
    8.6e-15 for p up to 100.  It takes no table and is resolved at every
    b; its cost grows with p, and an even p above _EVEN_P_MAX is NaN at
    every element.  Otherwise, with M = max(A, C) and
    x = min/M, it is M^(p/2) B(1/2, b) F(x), F hypergeometric
    (_series_tables), read from the tables of its (p, b) (_chebyshev_table):
    every element with x at least 2^_FLOOR_EXP by Horner's rule of _DEGREE
    steps on its panel, in x on [1/16, 1] and in log2 x below, and the few
    below that from the leading terms of the series.  Against 40-digit
    mpmath at every panel edge, for b from 1e-6 to 0.4, the value is within
    6e-14 relative for p up to 31 (1.3e-14 measured) and 2.5e-13 at p = 99
    (6.4e-14 measured), and within 3e-11 where m lies within 1e-4 of an
    integer; Horner's rule reads within 8.6e-16 relative of Clenshaw's
    recurrence on the Chebyshev coefficients, for p from 1 to 99.  On
    either path M = 0 gives 0 and a non-finite A or C a non-finite value; on
    the tables a NaN ratio x, as 0/0 gives, reads F(1).  A (p, b) whose
    tables are not resolved (_angular_resolved) is NaN at every element.
    keys, the distinct b whose tables (or Beta coefficients) the call joins,
    in order, default to those of bs; a caller whose calls hold different
    subsets of its b values passes them all, so that every call reads one
    cached join.  The values do not depend on keys.
    """
    keys = tuple(dict.fromkeys(bs)) if keys is None else keys
    index = [keys.index(b) for b in bs]
    if pw % 2.0 == 0.0:
        if pw > _EVEN_P_MAX:
            return np.full(np.shape(A), math.nan)
        co = _even_coefficients(int(pw) // 2, keys).take(index, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            total, power = co[-1] * A, C
            for j in range(len(co) - 2, -1, -1):
                total += co[j] * power
                if j:
                    total *= A
                    power = power * C
        return total
    coef, lead = _bracket_tables(pw, keys)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.maximum(A, C)
        # a NaN ratio (0/0, inf/inf or a NaN column) reads F(1), which top
        # then turns into 0 or a non-finite value
        x = np.fmin(np.minimum(A, C) / top, 1.0).ravel()
        tables = (2 * np.array(index)[:, None] + (A > C)).ravel()
        # per element: the first column of its range of panels, and its
        # coordinate u there in panel widths
        u = (x - _X0) * (_PANELS / (1.0 - _X0))
        first = _COLUMNS * tables + _LOG_PANELS
        near = np.flatnonzero(x < _X0)
        if near.size:           # octave [2^(k-1), 2^k) of x = f 2^k, f in [1/2, 1)
            f, k = np.frexp(np.maximum(x[near], 2.0 ** _FLOOR_EXP))
            u[near] = _PER_OCTAVE * (np.log2(f) + 1.0)
            first[near] = _COLUMNS * tables[near] + _PER_OCTAVE * (k - 1 - _FLOOR_EXP)
        panel = np.minimum(u.astype(int), _PANELS - 1)
        F = _chebyshev_F(coef, first + panel, 2.0 * (u - panel) - 1.0)
        low = near[x[near] < 2.0 ** _FLOOR_EXP]
        if low.size:
            F[low] = _leading_F(lead, tables[low], x[low])
        np.power(top, pw / 2.0, out=top)
        top *= F.reshape(top.shape)
    return top


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
