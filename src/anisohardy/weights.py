"""Weight algebra for separable trial functions and its divergence oracle.

For V = |x'|^(2a+2) |x|^(2b) and f = |x'|^theta |x|^lam, the generated Hardy
weight splits into a purely anisotropic part and an angular part:

    -div(V grad f)/f = H1(theta, lam) V/|x'|^2
                       + H2(theta, lam) V |x''|^2 / (|x'|^2 |x|^2)

where |x''|^2 = |x|^2 - |x'|^2 (for k = n-1 this is x_n^2), and

    H(theta)        = -theta (k + 2a + theta)
    H2(theta, lam)  = lam (n + 2a + 2b + 2 theta + lam) + 2 b theta
    H1              = H - H2.

For k < n-1, H1 is the general-axis quadratic (same H2).  H2_larger_root
is the larger root lam of H2(theta, lam) = 0, in a form that does not
cancel; the optimizer and closed_form's branch points both take it.

The general-p path uses f = |x'|^gamma and V = |x'|^(p(a+1)) |x|^(pb),
producing

    W = V |x'|^-p { -|g|^(p-2) g [(p-1) g + k + p a]
                    - |g|^(p-2) g b p |x'|^2/|x|^2 }.

Sign convention: weights are returned as the coefficient of the POSITIVE
right-hand side, so Hardy inequalities read  int V |grad u|^p >= int W |u|^p.

divergence_oracle / divergence_oracle_p recompute the same quantities from
the fields alone and know nothing of the closed forms above; they are the
independent check.  Both are one stencil: the flux V |grad f|^(p-2) grad f
takes grad f by complex step, Im f(z + i h e_j)/h, which has no subtractive
cancellation (Squire and Trapp, SIAM Rev. 40, 1998), and its divergence is
a central difference with Richardson extrapolation, whose roundoff is about
eps/h.  f must therefore be complex-analytic near real points: write a norm
as np.sqrt(np.sum(z*z)) and |z_0| as np.sqrt(z[0]**2), not with abs,
np.linalg.norm or a float cast; an f that returns a real value at a complex
point raises ValueError.  axis_norms, and so WeightSpec.V and
WeightSpec.f, keep complex points complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IllConditionedError, SingularPointError
from .params import ExponentPair, HardyParams
from .quadrature import _pow

__all__ = [
    "WeightSpec", "H", "H1", "H2", "H2_larger_root", "axis_norms",
    "weight_p2", "weight_general_p",
    "divergence_oracle", "divergence_oracle_p",
]

#: evaluation requires |x'| >= GUARD_COEFF * (1 + |x|)
GUARD_COEFF = 1e-8

_RICHARDSON_TOL = 1e-4


def H(theta: float, params: HardyParams) -> float:
    """H(theta) = -theta (k + 2 alpha + theta); vertex value (k+2a)^2/4."""
    return -theta * (params.k + 2.0 * params.alpha + theta)


def H2(theta: float, lam: float, params: HardyParams) -> float:
    """Constraint quadratic lam (n + 2a + 2b + 2 theta + lam) + 2 b theta."""
    return (lam * (params.n + 2.0 * params.alpha + 2.0 * params.beta
                   + 2.0 * theta + lam)
            + 2.0 * params.beta * theta)


def H2_larger_root(theta: float, params: HardyParams) -> float | None:
    """The larger root lam of H2(theta, lam) = 0, or None when it is not real.

    The roots are (-bq +- sqrt(bq^2 - 8 b theta))/2 with
    bq = n + 2a + 2b + 2 theta.  For bq > 0 the larger one is taken through
    the product of the roots, 2 b theta, since -bq + sqrt(disc) cancels there.
    """
    b = params.beta
    bq = params.n + 2.0 * params.alpha + 2.0 * b + 2.0 * theta
    disc = bq * bq - 8.0 * b * theta
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    return 0.5 * (-bq + root) if bq <= 0.0 else -4.0 * b * theta / (bq + root)


def H1(theta: float, lam: float, params: HardyParams) -> float:
    """Objective H1 = H - H2 (the general-axis quadratic when k < n-1)."""
    return H(theta, params) - H2(theta, lam, params)


def axis_norms(x, k: int, out=None):
    """(|x'|, |x|) for points of shape (..., n), x' = first k coordinates.

    A complex point stays complex: the norms are the analytic continuations
    sqrt(sum z_i^2), as the oracles' complex step needs.  out: None, or
    (|x'|, |x|, squares), arrays of the points' shape less its last axis and,
    for the squares of the coordinates, of the points' shape; the squares
    keep the layout of x for the bits of its sums.
    """
    arr = np.asarray(x)
    if arr.dtype.kind != "c":
        arr = np.asarray(arr, dtype=float)
    s, r, squares = (None,) * 3 if out is None else out
    squares = np.square(arr, out=squares)
    s = np.sqrt(np.sum(squares[..., :k], axis=-1, out=s), out=s)
    r = np.sqrt(np.sum(squares, axis=-1, out=r), out=r)
    return s, r


def _hardy_v(params: HardyParams, s, r, out=None):
    """V = |x'|^(p(alpha+1)) |x|^(p beta) from the norms s = |x'| and r = |x|;
    at p = 2 the exponent 2(alpha+1) has the bits of 2 alpha + 2.  out: None,
    or (V, scratch), two arrays shaped like s."""
    v, tmp = (None, None) if out is None else out
    s_part = _pow(s, params.p * (params.alpha + 1.0), v)
    r_part = _pow(r, params.p * params.beta, tmp)
    # numpy's scalar * keeps the rounding of a complex scalar product, which
    # its multiply loop need not
    return s_part * r_part if v is None else np.multiply(s_part, r_part, out=v)


@dataclass(frozen=True)
class WeightSpec:
    """A weight pair: the gradient-side V and a trial exponent choice.

    Exactly one of `exponents` (the |x'|^theta |x|^lam path) or `gamma`
    (the |x'|^gamma path for general p) must be given.  Evaluation is only
    defined off {x' = 0}, and off {x = 0} when an |x|-exponent is negative.
    """

    params: HardyParams
    exponents: ExponentPair | None = None
    gamma: float | None = None

    def __post_init__(self):
        if (self.exponents is None) == (self.gamma is None):
            raise ValueError("give exactly one of exponents=(theta, lam) or gamma")

    def V(self, x):
        """|x'|^(p(alpha+1)) |x|^(p beta); vectorized over leading axes."""
        return _hardy_v(self.params, *axis_norms(x, self.params.k))

    def f(self, x):
        """The trial function |x'|^theta |x|^lam or |x'|^gamma."""
        p = self.params
        s, r = axis_norms(x, p.k)
        if self.exponents is not None:
            return s ** self.exponents.theta * r ** self.exponents.lam
        return s ** self.gamma


def _guard(s, r, scratch=None):
    """SingularPointError unless |x'| >= GUARD_COEFF (1 + |x|) at every point;
    scratch, when given, is an array shaped like s that receives the test."""
    bound = np.multiply(GUARD_COEFF, np.add(1.0, r, out=scratch), out=scratch)
    if np.any(np.less(s, bound, out=scratch)):
        raise SingularPointError(
            "point lies inside the singular-set guard zone |x'| < 1e-8 (1+|x|)")


def weight_p2(x, spec: WeightSpec):
    """Closed-form weight H1 V/|x'|^2 + H2 V |x''|^2/(|x'|^2 |x|^2), p = 2.

    |x''|^2 is computed as |x|^2 - |x'|^2 so the k = n-1 and general-k paths
    share code.  Accepts a point (n,) or a batch (..., n); the formula is
    _weight_p2 of the points' axis_norms.
    """
    arr = np.asarray(x, dtype=float)
    w = _weight_p2(spec, *axis_norms(arr, spec.params.k))
    return float(w) if arr.ndim == 1 else w


def _weight_p2(spec: WeightSpec, s, r, v=None, out=None):
    """weight_p2 from the norms s = |x'| and r = |x|; v, when given, is V at
    those norms and must have the bits of _hardy_v.  out: None, or (W, three
    scratch arrays), four arrays shaped like s."""
    if spec.exponents is None:
        raise ValueError("weight_p2 needs a WeightSpec with exponents=(theta, lam)")
    p = spec.params
    if p.p != 2:
        raise ValueError(f"weight_p2 requires p = 2, got p = {p.p}")
    w, t1, t2, t3 = (None,) * 4 if out is None else out
    _guard(s, r, t1)
    th, la = spec.exponents.theta, spec.exponents.lam
    if v is None:
        v = _hardy_v(p, s, r)
    h1 = H1(th, la, p)
    h2 = H2(th, la, p)
    # h1 v / s^2 + h2 v (r r - s s) / (s s r r)
    first = np.divide(np.multiply(h1, v, out=w), _pow(s, 2, t1), out=w)
    ss = np.multiply(s, s, out=t3)
    across = np.subtract(np.multiply(r, r, out=t2), ss, out=t2)
    num = np.multiply(np.multiply(h2, v, out=t1), across, out=t1)
    den = np.multiply(np.multiply(ss, r, out=t3), r, out=t3)
    return np.add(first, np.divide(num, den, out=t1), out=w)


def weight_general_p(x, spec: WeightSpec):
    """Closed-form weight of the |x'|^gamma trial function, any p >= 1.

    Returns V |x'|^-p { -|g|^(p-2) g [(p-1)g + k + p a] - |g|^(p-2) g b p |x'|^2/|x|^2 }.
    gamma = 0 returns 0 (the limit value; exact for p >= 2).  Accepts a
    point (n,) or a batch (..., n); the formula is _weight_general_p of the
    points' axis_norms.
    """
    arr = np.asarray(x, dtype=float)
    w = _weight_general_p(spec, *axis_norms(arr, spec.params.k))
    return float(w) if arr.ndim == 1 else w


def _weight_general_p(spec: WeightSpec, s, r, v=None, out=None):
    """weight_general_p from the norms s = |x'| and r = |x|; v, when given, is
    V at those norms and must have the bits of _hardy_v.  out: None, or (W,
    scratch), two arrays shaped like s."""
    if spec.gamma is None:
        raise ValueError("weight_general_p needs a WeightSpec with gamma")
    p = spec.params
    w, tmp = (None, None) if out is None else out
    _guard(s, r, tmp)
    g = spec.gamma
    if g == 0.0:
        if w is None:
            return np.zeros_like(s)
        w.fill(0.0)
        return w
    gq = abs(g) ** (p.p - 2.0) * g
    if v is None:
        v = _hardy_v(p, s, r)
    # bracket = -gq ((p-1) g + k + p a) - gq b p s s / (r r)
    ratio = np.multiply(gq * p.beta * p.p, np.multiply(s, s, out=w), out=w)
    ratio = np.divide(ratio, np.multiply(r, r, out=tmp), out=w)
    bracket = np.subtract(-gq * ((p.p - 1.0) * g + p.k + p.p * p.alpha), ratio, out=w)
    scale = np.multiply(v, _pow(s, -p.p, tmp), out=tmp)
    return np.multiply(scale, bracket, out=w)


# ------------------------------------------------------------- FD oracles

#: Imaginary step of the complex-step gradient, relative to 1 + |x|.  Its
#: truncation error is of order step^2, below double precision.
_COMPLEX_STEP = 1e-30


def _complex_partial(f: Callable, z: np.ndarray, j: int, step: float) -> float:
    """d f / d z_j at the real point z by complex step."""
    zc = z.astype(complex)
    zc[j] += 1j * step
    value = f(zc)
    if np.asarray(value).dtype.kind != "c":
        raise ValueError(
            "the divergence oracle needs f complex-analytic: f returned a real "
            "value at a complex point (abs, np.linalg.norm or a float cast inside f?)")
    return float(np.imag(value)) / step


def _flux_divergence(V: Callable, f: Callable, p: float, x: np.ndarray, h: float,
                     step: float) -> float:
    """div(V |grad f|^(p-2) grad f)(x): central differences of the flux at
    step h, whose gradient is a complex step of size step (only its i-th
    component at p = 2)."""
    n = x.size

    def flux(z: np.ndarray, i: int) -> float:
        if p == 2:
            return float(V(z)) * _complex_partial(f, z, i, step)
        g = np.array([_complex_partial(f, z, j, step) for j in range(n)])
        return float(V(z)) * float(np.linalg.norm(g)) ** (p - 2.0) * g[i]

    total = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        total += (flux(x + e, i) - flux(x - e, i)) / (2.0 * h)
    return total


def _richardson2(values):
    """Two-stage Richardson for O(h^2) data at steps (h, h/2, h/4).

    Returns the O(h^6) combination and the disagreement of the two O(h^4)
    stages, which estimates the remaining error.
    """
    d1, d2, d3 = values
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0, abs(r2 - r1)


def divergence_oracle(V: Callable, f: Callable, x) -> float:
    """-div(V grad f)/f: the p = 2 case of divergence_oracle_p.

    V and f are scalar fields taking a point (n,); f must be complex-analytic
    (see the module docstring).  IllConditionedError when the two
    Richardson stages disagree by more than 1e-4 relative.
    """
    return divergence_oracle_p(V, f, 2.0, x)


def divergence_oracle_p(V: Callable, f: Callable, p: float, x) -> float:
    """-div(V |grad f|^(p-2) grad f)/f^(p-1) from the fields alone.

    V and f are scalar fields taking a point (n,); V is evaluated at real
    points only, f also at complex ones and must be complex-analytic there,
    else ValueError.  The flux's gradient is a complex step; its divergence
    is a central difference at steps h, h/2, h/4 combined to O(h^6), with
    h = 4e-3 (1 + |x|).
    IllConditionedError when the two Richardson stages disagree by more than
    1e-4 relative.  For p < 2 the gradient of f must not vanish at x.
    """
    pt = np.asarray(x, dtype=float)
    # The outer difference's roundoff (~eps/h) and the Richardson pair's
    # truncation stay below ~1e-9 relative at this step for the steep
    # exponents of the oracle checks.
    step = 4e-3 * (1.0 + float(np.linalg.norm(pt)))
    cs = _COMPLEX_STEP * (1.0 + float(np.linalg.norm(pt)))
    if p < 2 and not any(_complex_partial(f, pt, j, cs) for j in range(pt.size)):
        raise ValueError("divergence_oracle_p with p < 2 needs |grad f| > 0 at x")
    stages = [_flux_divergence(V, f, p, pt, step * s, cs) for s in (1.0, 0.5, 0.25)]
    rich, disagreement = _richardson2(stages)
    value = -rich / float(f(pt)) ** (p - 1.0)
    if disagreement > _RICHARDSON_TOL * max(abs(rich), 1e-12):
        raise IllConditionedError(
            f"Richardson halving disagrees by {disagreement:.3e} at {pt}",
            value=value, disagreement=disagreement)
    return value
