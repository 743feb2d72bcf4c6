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
each further polar angle).  The cutoff is smooth on each radial piece.
Every check climbs the order ladder 8 -> 12 -> 16.  It evaluates orders 8
and 12 (and 10 where p is not an even integer, see _ladder); when the
largest term change between them, relative to the size of the order-12
terms, is at most _ERR_TARGET (1e-6, the tightest identity gate), it
reports the order-12 terms with that change as its error estimate.
Otherwise it evaluates order 16 and reports the order-16 terms with their
change from order 12.

The rule's nodes are coordinate-major: an (n, N) array whose coordinate
rows are contiguous, so each operation runs once over all N nodes instead
of over the n coordinates of each node.  Each pass forms every per-node
quantity once: the bump's geometry (z = x - c, q = z . direction,
rho = |z|, eta(rho/w), eta'(rho/w)) for u and grad u; |x'| and |x| in one
axis_norms call, from which V and the closed-form weight (the norm helpers
behind weight_p2 and weight_general_p) follow; and |grad u|^p for the
left-hand side and the remainder R.  A sum over coordinates adds the rows
in coordinate order, which gives the bits of numpy's sum over the last
axis of the row-major (N, n) array.  Functions of (..., n) points
(axis_norms, and the value and gradient of a bump that is not a
BumpFunction) take the (N, n) view x.T.  What does not depend on the bump
is formed once and cached: the sphere rule of each dimension and order,
and the CKN spot check's sample radii and directions of each dimension.

A pass evaluates into one float64 workspace per thread (threading.local),
viewed as rows of the pass's N nodes (_Rows): the ball rule's nodes and
weights, the bump fields, the norms, V, the closed-form weight, grad log f,
R and the integrands are written into its rows with out=, and a helper's
temporaries are rows above its results that it gives back before it
returns.  Once warm a pass allocates no node-sized array, so an n = 3 check
hands no temporaries back to the C allocator, whose heap trimming would
page-fault them in again on the next check.  The
workspace is sized, the first time a pass at dimension n outgrows it, for
the rows that pass used on the ladder's largest pass at n (orders 8, 10
and 12 together, or 16 alone), and it grows only when a larger pass
arrives; it is never shared between threads, and a pass must not start
another pass in the same thread.  Every operation keeps its operands and
their order, so every report keeps the bits of fresh-array evaluation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .closed_form import sharp_constant_general_p
from .errors import (EmptyInputError, IllConditionedError, NegativeRemainderError,
                     SupportViolationError)
from .params import CknParams, HardyParams, admissible_ckn
# integrate_1d is no longer called here; certbench's layer tracer looks it up
# by this name.
from .quadrature import (_pow, cutoff_eta, cutoff_eta_prime, gauss_jacobi,  # noqa: F401
                         integrate_1d, log_gamma)
# weight_p2 and weight_general_p are no longer called here (the checks take
# their formulas from _weight_p2 and _weight_general_p); certbench's layer
# tracer looks them up by these names.
from .weights import (WeightSpec, _hardy_v, _weight_general_p, _weight_p2,  # noqa: F401
                      axis_norms, weight_general_p, weight_p2)

__all__ = [
    "BumpFunction", "IdentityReport", "ExtremalReport", "SpotTestReport",
    "r_functional", "verify_E2", "verify_Ep", "verify_CKNp",
    "ckn_extremal_check", "hardy_spot_test",
]

_CLAMP_REL = 1e-12

#: The thread's workspace, in its attribute buf (see _Rows and _at_orders).
_local = threading.local()


class _Rows:
    """Rows of one node shape, taken in turn: the rows of a rule pass in the
    thread's workspace, a flat float64 buffer viewed as rows of the pass's N
    nodes, or fresh arrays where there is no buffer (the public calls).

    rows() takes one uninitialised row and rows(k) a (k, ...) block; a helper
    gives back the rows it took after its results by setting top back.  A
    row past the buffer's end is a fresh array, and peak records the rows
    the pass reached, so that the workspace can grow to them.
    """

    __slots__ = ("shape", "grid", "size", "top", "peak")

    def __init__(self, shape, buf=None):
        self.shape = shape
        self.grid = (None if buf is None
                     else buf[:buf.size - buf.size % shape[0]].reshape(-1, shape[0]))
        self.size = 0 if buf is None else len(self.grid)
        self.top = self.peak = 0

    def __call__(self, count=None):
        """A row, or a block of count rows, taken."""
        rows = self.spare(count)
        self.top += 1 if count is None else count
        return rows

    def spare(self, count=None):
        """A row, or a block of count rows, above the top and not taken:
        scratch for a call that takes no rows."""
        start = self.top
        end = start + (1 if count is None else count)
        if end <= self.size:
            return self.grid[start] if count is None else self.grid[start:end]
        self.peak = max(self.peak, end)
        return np.empty(self.shape if count is None else (count,) + self.shape)

    def mask(self):
        """A boolean array of the node shape, in the bytes of a row taken."""
        row = self()
        return row.reshape(-1).view(np.bool_)[:row.size].reshape(row.shape)


def _dot(a, b, rows=None):
    """sum_i a_i b_i over the coordinate rows of a and b, in coordinate order:
    the bits of np.sum(a * b, axis=-1) on the row-major transposes.  The sum
    is a row taken from rows (a fresh array when None)."""
    if rows is None:
        rows = _Rows(np.shape(a[0]))
    total = np.multiply(a[0], b[0], out=rows())
    term = rows.spare()
    for i in range(1, len(a)):
        total += np.multiply(a[i], b[i], out=term)
    return total


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


def _r_rows(X, Y, p: float, relative: bool = False, _nx_p=None, rows=None):
    """r_functional at every node of coordinate-major (n, N) arrays, with the
    same clamping.

    At Y = 0 the cross term |Y|^(p-1) <Y/|Y|, X> tends to 0 for p > 1.
    With relative=True each R is divided by the size of its terms, the
    scale of its floor (0 where every term vanishes).  _nx_p, when given, is
    np.sqrt(_dot(X, X)) ** p, already formed by the caller.  R is a row
    taken from rows (a fresh array when None).
    """
    if rows is None:
        rows = _Rows(np.shape(X[0]))
    value = rows()
    top = rows.top
    if _nx_p is None:
        _nx_p = _dot(X, X, rows)
        _pow(np.sqrt(_nx_p, out=_nx_p), p, _nx_p)
    ny = _dot(Y, Y, rows)
    np.sqrt(ny, out=ny)
    dot = _dot(X, Y, rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        # p |Y|^(p-2) <Y, X> where |Y| > 0, else 0
        cross = _pow(ny, p - 2.0, rows())
        np.multiply(p, cross, out=cross)
        np.multiply(cross, dot, out=cross)
    zero = np.greater(ny, 0.0, out=rows.mask())
    np.copyto(cross, 0.0, where=np.logical_not(zero, out=zero))
    sizes = np.add(np.multiply(p - 1.0, _pow(ny, p, dot), out=dot), _nx_p, out=dot)
    np.add(sizes, cross, out=value)
    size = np.add(sizes, np.abs(cross, out=cross), out=cross)
    low = np.less(value, np.multiply(-_CLAMP_REL, size, out=sizes), out=sizes)
    if np.any(low):
        raise NegativeRemainderError(
            f"R(X, Y) reached {float(np.min(value[low != 0]))}, below -1e-12 times "
            "the size of its terms")
    np.maximum(value, 0.0, out=value)
    rows.top = top
    if relative:
        return np.divide(value, size, out=np.zeros_like(value), where=size > 0.0)
    return value


@dataclass(frozen=True)
class BumpFunction:
    """u(x) = P((x - center) . direction) * eta(|x - center| / width).

    P is a nonzero polynomial of degree <= 3; u vanishes outside the ball of
    radius 2*width.  The placement rule |center'| > 3*width keeps a one-width
    margin from {x' = 0} (and from the origin, since |center| >= |center'|).
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
        if not any(self.coefficients):
            raise ValueError("coefficients are all zero: u = 0 makes every identity "
                             "term 0, a check that tests nothing")
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

    def _poly(self, q, rows=None):
        """P(q) by Horner's rule from 0, in a row taken from rows (a fresh
        array when None)."""
        if rows is None:
            rows = _Rows(np.shape(q))
        out = rows()
        out.fill(0.0)
        for c in reversed(self.coefficients):
            np.add(np.multiply(out, q, out=out), c, out=out)
        return out

    def _poly_prime(self, q, rows=None):
        """P'(q) = sum_i i c_i q^(i-1) from 0, in a row taken from rows (a
        fresh array when None)."""
        if rows is None:
            rows = _Rows(np.shape(q))
        out, term = rows(), rows.spare()
        out.fill(0.0)
        for i, c in enumerate(self.coefficients[1:], start=1):
            out += np.multiply(i * c, _pow(q, i - 1, term), out=term)
        return out

    def value(self, x):
        """u at points x of shape (n,) or (..., n)."""
        return self._fields(_coordinate_major(x))[0][()]

    def gradient(self, x):
        """grad u at points x of shape (n,) or (..., n), in the same shape."""
        return np.moveaxis(self._fields(_coordinate_major(x))[1], 0, -1)

    def _fields(self, x, rows=None):
        """(u, grad u) at coordinate-major points x of shape (n, ...); the
        gradient is coordinate-major too.  z = x - center, q = z . direction,
        rho = |z| and the cutoff's eta and eta' are formed once for both.
        u and grad u are rows taken from rows (fresh arrays when None), which
        gets back every temporary."""
        if rows is None:
            rows = _Rows(np.shape(x)[1:])
        n = len(x)
        value, grad = rows(), rows(n)
        top = rows.top
        center = np.asarray(self.center).reshape((-1,) + (1,) * (np.ndim(x) - 1))
        z = np.subtract(x, center, out=rows(n))
        # q is the row-major matrix-vector product, not a sum over rows: BLAS
        # rounds it with fused multiply-adds.
        q = rows()
        row_major = rows.spare(n).reshape(q.shape + (n,))
        np.copyto(np.moveaxis(row_major, -1, 0), z)
        np.matmul(row_major, np.asarray(self.direction), out=q)
        rho = _dot(z, z, rows)
        np.sqrt(rho, out=rho)
        eta, etap, t, scratch = rows(), rows(), rows(), rows()
        np.divide(rho, self.width, out=t)
        cutoff_eta(t, (eta, scratch, rows.spare()))
        cutoff_eta_prime(t, (etap, scratch))
        poly = self._poly(q, rows)
        # poly eta' / w / rho, where rho > 0 (the division by 1.0 elsewhere
        # changes nothing)
        radial = np.divide(np.multiply(poly, etap, out=t), self.width, out=t)
        np.divide(radial, rho, out=radial, where=np.greater(rho, 0.0, out=rows.mask()))
        slope = self._poly_prime(q, rows)
        np.multiply(radial, z, out=grad)
        term = rows.spare()
        for i, d in enumerate(self.direction):
            grad[i] += np.multiply(np.multiply(slope, d, out=term), eta, out=term)
        np.multiply(poly, eta, out=value)
        rows.top = top
        return value, grad


def _coordinate_major(x):
    """Points (..., n) as a coordinate-major view (n, ...)."""
    return np.moveaxis(np.asarray(x, dtype=float), -1, 0)


@dataclass(frozen=True)
class IdentityReport:
    """lhs and rhs terms at the rule order the ladder stopped at (12 or 16),
    and |lhs - sum(rhs)| relative to |lhs| + sum|rhs|.  nodes counts that
    order's rule; err_estimate is the largest change of lhs or a term from
    the orders below it (8, and 10 where p is not an even integer, for order
    12; 12 for order 16), over the same denominator."""

    lhs: float
    rhs_terms: dict
    residual_rel: float
    nodes: int = 0
    err_estimate: float = 0.0
    order: int = 0


#: A check stops at rule order 12 when its terms moved from order 8 (and,
#: for integrands with kinks, from order 10) by at most this, relative to
#: the size of the order-12 terms; otherwise it goes on to order 16.  E2's
#: gate in report.GATES, the tightest identity gate.
_ERR_TARGET = 1e-6


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


def _rule_nodes(n: int, m: int) -> int:
    """Nodes of the order-m ball rule in R^n: 2m radii, 2m azimuths and m
    heights for each further dimension."""
    return 4 * m ** n


def _ball_nodes(u, m: int, x=None, wts=None):
    """Order-m product rule on the support ball B(center, 2 width) of u:
    coordinate-major nodes (n, N) and weights (N,), written into x and wts
    when given (fresh arrays otherwise).

    Gauss-Legendre radii on [0, w] and [w, 2w] with the Jacobian rho^(n-1),
    times _sphere_rule(n, m): N = 2m * 2m * m^(n-2) nodes, radius-major.
    """
    n = len(u.center)
    t, w = gauss_jacobi(m, 0.0, 0.0)
    half = 0.5 * u.width
    rho = np.concatenate([half * (t + 1.0), half * (t + 3.0)])
    w_rho = half * np.concatenate([w, w]) * rho ** (n - 1)
    dirs, w_dir = _sphere_rule(n, m)
    if x is None:
        x, wts = np.empty((n, _rule_nodes(n, m))), np.empty(_rule_nodes(n, m))
    np.multiply(dirs[:, None, :], rho[:, None], out=x.reshape(n, rho.size, -1))
    x += np.asarray(u.center)[:, None]
    np.multiply(w_rho[:, None], w_dir, out=wts.reshape(rho.size, -1))
    return x, wts


def _bump_fields(u, x, rows):
    """(u, grad u) at coordinate-major nodes x, the gradient coordinate-major.

    A BumpFunction forms its geometry once for both, into rows taken from
    rows; any other bump is evaluated through its value and gradient on the
    (N, n) view.
    """
    if isinstance(u, BumpFunction):
        return u._fields(x, rows)
    return u.value(x.T), np.moveaxis(u.gradient(x.T), -1, 0)


#: The orders of the ladder's passes (_ladder): orders 8, 12 and, for kinked
#: integrands, 10 in one pass, and order 16 alone.
_LADDER_PASSES = ((8, 10, 12), (16,))


def _at_orders(u, terms, orders):
    """[(lhs, rhs_terms, nodes)] of terms at each rule order, from one pass
    of terms(x, wts, u, grad u, segments, rows) -> [(lhs, rhs_terms)] over
    the orders' nodes laid end to end, segments[i] the slice of orders[i].

    Every array of the pass is a row of the thread's workspace, taken from
    rows; terms takes its rows from rows as well.  A pass that reached past
    the workspace grows it to the rows the pass took, on the larger of this
    pass and the ladder's largest pass at this n, so that every later pass
    of this kind at this n fits.
    """
    n = len(u.center)
    sizes = [_rule_nodes(n, m) for m in orders]
    ends = list(accumulate(sizes))
    segments = [slice(end - size, end) for end, size in zip(ends, sizes)]
    rows = _Rows((ends[-1],), getattr(_local, "buf", None))
    x, wts = rows(n), rows()
    for m, seg in zip(orders, segments):
        _ball_nodes(u, m, x[:, seg], wts[seg])
    found = terms(x, wts, *_bump_fields(u, x, rows), segments, rows)
    if rows.peak:
        largest = max(sum(_rule_nodes(n, m) for m in ms) for ms in _LADDER_PASSES)
        _local.buf = np.empty(rows.peak * max(ends[-1], largest))
    return [(lhs, rhs, size) for (lhs, rhs), size in zip(found, sizes)]


def _segment_sums(segments, lhs, **rhs):
    """[(lhs, rhs_terms)] per segment from the integrand values (weights
    applied): each sum runs over its segment alone, so it has the bits of
    np.sum over that order's rule."""
    return [(float(np.sum(lhs[seg])), {k: float(np.sum(v[seg])) for k, v in rhs.items()})
            for seg in segments]


def _report(order: int, fine, *coarse) -> IdentityReport:
    """The report of fine = (lhs, rhs_terms, nodes) at rule order `order`; its
    error estimate is the largest change of a term from any of coarse."""
    lhs, rhs, nodes = fine
    denom = abs(lhs) + sum(abs(v) for v in rhs.values()) + 1e-300
    change = max(max([abs(lhs - c[0])] + [abs(rhs[k] - c[1][k]) for k in rhs])
                 for c in coarse)
    return IdentityReport(lhs, rhs, abs(lhs - sum(rhs.values())) / denom,
                          nodes=nodes, err_estimate=change / denom, order=order)


def _ladder(u, terms, smooth: bool) -> IdentityReport:
    """Report terms (see _at_orders) at order 12 when its error estimate is
    at most _ERR_TARGET, else at order 16 with its change from order 12.
    The orders below 16 are evaluated in one pass.

    smooth says every integrand is smooth on each radial piece, as it is
    when p is an even integer; then order 12's estimate is its change from
    order 8.  Otherwise |grad u|^p and |u|^p have kinks where grad u or u
    vanish inside the ball: the rule's error there decays algebraically and
    changes sign from order to order, so one change can vanish by chance,
    and the estimate is the larger change from orders 8 and 10.
    """
    *coarse, mid = _at_orders(u, terms, (8, 12) if smooth else (8, 10, 12))
    report = _report(12, mid, *coarse)
    if report.err_estimate <= _ERR_TARGET:
        return report
    return _report(16, *_at_orders(u, terms, (16,)), mid)


def _check_support_clear(u, k: int):
    c = np.asarray(u.center, dtype=float)
    cprime = float(np.linalg.norm(c[:k]))
    cfull = float(np.linalg.norm(c))
    if cprime <= 3.0 * u.width or cfull <= 3.0 * u.width:
        raise SupportViolationError(
            "bump support reaches into the singular-set margin "
            f"(|center'|={cprime}, |center|={cfull}, width={u.width})")


def _log_f_gradient(spec: WeightSpec, x, s, r, rows=None):
    """grad log f = theta x'/|x'|^2 + lam x/|x|^2 (theta = gamma, lam = 0 on the
    gamma path) at coordinate-major points x with norms s = |x'|, r = |x|,
    in a block of rows taken from rows (a fresh array when None)."""
    if rows is None:
        rows = _Rows(np.shape(s))
    k = spec.params.k
    if spec.exponents is None:
        theta, lam = spec.gamma, 0.0
    else:
        theta, lam = spec.exponents.theta, spec.exponents.lam
    grad = rows(len(x))
    top = rows.top
    np.divide(np.multiply(lam, x, out=grad), np.multiply(r, r, out=rows()), out=grad)
    term = np.multiply(theta, x[:k], out=rows(k))
    grad[:k] += np.divide(term, np.multiply(s, s, out=rows()), out=term)
    rows.top = top
    return grad


def _norms_and_weights(spec: WeightSpec, x, rows, weight, scratch: int):
    """Rows of |x'|, |x|, V and the closed-form weight (_weight_p2 or
    _weight_general_p, with its scratch rows) at the nodes x of a pass."""
    params = spec.params
    s, r, v, w_closed = rows(4)
    axis_norms(x.T, params.k, out=(s, r, rows.spare(len(x)).T))
    _hardy_v(params, s, r, out=(v, rows.spare()))
    weight(spec, s, r, v, out=(w_closed, *rows.spare(scratch)))
    return s, r, v, w_closed


def _grad_power(ugrad, p: float, rows):
    """|grad u|^p = sqrt(<grad u, grad u>) ** p, in a row taken from rows."""
    grad_p = _dot(ugrad, ugrad, rows)
    return _pow(np.sqrt(grad_p, out=grad_p), p, grad_p)


def verify_E2(spec: WeightSpec, u) -> IdentityReport:
    """Check int V|grad u|^2 = int W u^2 + int V f^2 |grad(u/f)|^2 on a bump.

    W is the closed-form weight and V f^2 |grad(u/f)|^2 = V |grad u - u grad log f|^2
    is analytic, so the residual is quadrature-limited, expected at or below 1e-6.
    """
    params = spec.params
    if params.p != 2 or spec.exponents is None:
        raise ValueError("verify_E2 needs a p = 2 WeightSpec with exponents")
    _check_support_clear(u, params.k)

    def terms(x, wts, uval, ugrad, segments, rows):
        s, r, v, w_closed = _norms_and_weights(spec, x, rows, _weight_p2, 3)
        # grad(u/f) f = grad u - u grad log f
        f_ratio_grad = _log_f_gradient(spec, x, s, r, rows)
        np.subtract(ugrad, np.multiply(uval, f_ratio_grad, out=f_ratio_grad), out=f_ratio_grad)
        wv = np.multiply(wts, v, out=v)
        lhs = _dot(ugrad, ugrad, rows)
        remainder = _dot(f_ratio_grad, f_ratio_grad, rows)
        weight = np.multiply(np.multiply(wts, w_closed, out=w_closed), uval, out=w_closed)
        return _segment_sums(segments, np.multiply(wv, lhs, out=lhs),
                             weight_term=np.multiply(weight, uval, out=weight),
                             remainder_term=np.multiply(wv, remainder, out=remainder))

    return _ladder(u, terms, smooth=True)


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

    def terms(x, wts, uval, ugrad, segments, rows):
        s, r, v, w_closed = _norms_and_weights(spec, x, rows, _weight_general_p, 1)
        grad_p = _grad_power(ugrad, p, rows)
        # Y = -u grad log f
        y = _log_f_gradient(spec, x, s, r, rows)
        np.multiply(np.negative(uval, out=rows.spare()), y, out=y)
        rvals = _r_rows(ugrad, y, p, _nx_p=grad_p, rows=rows)
        wv = np.multiply(wts, v, out=v)
        u_p = rows()
        _pow(np.abs(uval, out=u_p), p, u_p)
        weight = np.multiply(np.multiply(wts, w_closed, out=w_closed), u_p, out=w_closed)
        return _segment_sums(segments, np.multiply(wv, grad_p, out=grad_p),
                             weight_term=weight,
                             remainder_term=np.multiply(wv, rvals, out=rvals))

    return _ladder(u, terms, smooth=p % 2 == 0)


# ------------------------------------------------------------------- CKN

def _ckn_fields(ckn: CknParams, x, rows=None):
    """(V, F, |F|, closed-form div(V |F|^(p-2) F)) at coordinate-major points
    x (n, N); F is coordinate-major too.  |x'| and |x| come from axis_norms,
    whose calls certbench's tracer counts as the CKN check's points.  The
    fields are rows taken from rows (fresh arrays when None)."""
    if rows is None:
        rows = _Rows(np.shape(x)[1:])
    V, fmag, div_closed, F = rows(), rows(), rows(), rows(len(x))
    top = rows.top
    s, r, s_field, tmp = rows(4)
    axis_norms(x.T, ckn.n - 1, out=(s, r, rows.spare(len(x)).T))
    p = ckn.p
    np.multiply(_pow(s, p * ckn.mu, V), _pow(r, p * ckn.gamma2, tmp), out=V)
    _pow(s, ckn.beta - ckn.mu, s_field)
    np.multiply(s_field, _pow(r, ckn.gamma3 - ckn.gamma2, tmp), out=fmag)
    radial = np.multiply(s_field, _pow(r, ckn.gamma3 - ckn.gamma2 - 1.0, tmp), out=tmp)
    np.multiply(radial, x, out=F)
    scale = ckn.n + p * (ckn.alpha + ckn.gamma1)
    np.multiply(np.multiply(scale, _pow(s, ckn.alpha * p, div_closed), out=div_closed),
                _pow(r, ckn.gamma1 * p, tmp), out=div_closed)
    rows.top = top
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


@lru_cache(maxsize=16)
def _spot_draws(n: int):
    """The spot check's radii (_SPOT_POINTS,), in widths, and unit directions
    (n, _SPOT_POINTS): default_rng(0)'s normal direction, then its uniform
    radius in [0.2, 1.5), for each point in turn.  They depend on n alone,
    so they are drawn once per n.  Read-only and cached."""
    rng = np.random.default_rng(0)
    radii = np.empty(_SPOT_POINTS)
    dirs = np.empty((n, _SPOT_POINTS))
    for j in range(_SPOT_POINTS):
        direction = rng.normal(size=n)
        dirs[:, j] = direction / np.linalg.norm(direction)
        radii[j] = rng.uniform(0.2, 1.5)
    radii.setflags(write=False)
    dirs.setflags(write=False)
    return radii, dirs


def _ckn_divergence_spot_check(ckn: CknParams, u) -> float:
    """Largest relative error of the closed-form flux divergence against finite
    differences at _SPOT_POINTS points c + rho w d in the annulus
    0.2 w < |x - c| < 1.5 w, with the radii rho and directions d of
    _spot_draws(n); IllConditionedError when it exceeds 1e-6."""
    radii, dirs = _spot_draws(ckn.n)
    x = np.asarray(u.center)[:, None] + radii * u.width * dirs
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

    def terms(x, wts, uval, ugrad, segments, rows):
        V, F, fmag, div_closed = _ckn_fields(ckn, x, rows)
        u_p, lhs_rows = rows(2)
        _pow(np.abs(uval, out=u_p), p, u_p)
        grad_p = _grad_power(ugrad, p, rows)
        wV = np.multiply(wts, V, out=V)
        field = np.multiply(np.multiply(wV, _pow(fmag, p, fmag), out=fmag), u_p, out=fmag)
        divergence = np.multiply(np.multiply(wts, div_closed, out=div_closed), u_p,
                                 out=div_closed)
        integrals = _segment_sums(segments, np.multiply(wV, grad_p, out=lhs_rows),
                                  field=field, divergence=divergence)
        # kappa0 per segment, spread over its nodes: kappa0^(1/(p-1)) scales
        # the field and p kappa0 divides the remainder
        scale, divisor = rows(2)
        lhs = []
        for seg, (i_grad, rest) in zip(segments, integrals):
            i_field = rest["field"]
            if i_grad == 0.0 or i_field == 0.0:
                raise ValueError("u or its gradient vanishes at every node of the rule")
            kappa0 = (i_grad / i_field) ** ((p - 1.0) / p)
            scale[seg], divisor[seg] = kappa0 ** (1.0 / (p - 1.0)), p * kappa0
            lhs.append(i_grad ** (1.0 / p) * i_field ** ((p - 1.0) / p))
        # Y = u kappa0^(1/(p-1)) F
        np.multiply(np.multiply(uval, scale, out=scale), F, out=F)
        rvals = _r_rows(ugrad, F, p, _nx_p=grad_p, rows=rows)
        remainder = _segment_sums(
            segments, np.multiply(np.divide(wV, divisor, out=divisor), rvals, out=rvals))
        return [(value, {"divergence_term": rest["divergence"] / p, "remainder_term": t_rem})
                for value, (_, rest), (t_rem, _) in zip(lhs, integrals, remainder)]

    report = _ladder(u, terms, smooth=p % 2 == 0)
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
    """Rayleigh quotients of arbitrary bumps must dominate the closed constant.

    Each quotient is one pass of the order-16 ball rule (_at_orders)."""
    bumps = list(bumps)
    if not bumps:
        raise EmptyInputError("hardy_spot_test needs at least one bump")
    p = params.p

    def terms(x, wts, uval, ugrad, segments, rows):
        s, r, v, u_p = rows(4)
        axis_norms(x.T, params.k, out=(s, r, rows.spare(len(x)).T))
        _hardy_v(params, s, r, out=(v, rows.spare()))
        wv = np.multiply(wts, v, out=v)
        num = np.multiply(wv, _grad_power(ugrad, p, rows), out=r)
        den = np.multiply(wv, _pow(s, -p, s), out=s)
        np.multiply(den, _pow(np.abs(uval, out=u_p), p, u_p), out=den)
        return _segment_sums(segments, num, den=den)

    best = math.inf
    for u in bumps:
        _check_support_clear(u, params.k)
        [(num, rest, _)] = _at_orders(u, terms, (16,))
        best = min(best, num / rest["den"])
    return SpotTestReport(best, sharp_constant_general_p(params).value)
