"""Independent numeric oracle: maximize H1 over the feasible set {H2 >= 0}.

This module never touches the closed-form constants.  Phase one is an
801 x 801 grid over [-B, B]^2 with a small feasibility slack, evaluated only
where a row can peak; phase two refines on the active constraint, which is
a graph theta(lam) = -lam(n+2a+2b+lam)/(2(lam+b)) over each side of the pole
lam = -b, plus the unconstrained vertex of H when the constraint quadratic
has a real root there.  Since H1 has no interior critical point, the
feasible maximum always sits on {H2 = 0}, so scanning the two branches and
the vertex candidate is exhaustive.

The same search validates the general-axis formula: for k < n-1 the
objective is the general quadratic H1 = -theta(k+2a+theta) - H2 with the
unchanged constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# sharp_constant_general_k_p2 is not called here; certbench's layer tracer
# looks it up by this name.
from .closed_form import sharp_constant_general_k_p2  # noqa: F401
from .errors import InadmissibleParamsError, OptimizerStalledError
from .params import ExponentPair, HardyParams, admissible_hardy, compute_K
from .weights import H, H2, H2_larger_root

__all__ = ["OptimizerBranch", "OptimizerDiagnostics", "OptimizerReport", "maximize"]

_GRID_SLACK = -1e-6
_STALL_TOL = 1e-4
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class OptimizerBranch(Enum):
    VERTEX = "vertex"              # argmax at the unconstrained vertex of H
    CONSTRAINT_LEFT = "lam<-beta"  # boundary branch with lam < -beta
    CONSTRAINT_RIGHT = "lam>-beta"


@dataclass(frozen=True)
class OptimizerDiagnostics:
    grid_value: float
    refined_value: float
    constraint_residual: float


@dataclass(frozen=True)
class OptimizerReport:
    value: float
    argmax: ExponentPair
    active_constraint: bool
    branch_guess: OptimizerBranch
    diagnostics: OptimizerDiagnostics


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section maximum of fn on [lo, hi], to a bracket of tol or until
    the bracket stops shrinking (one ulp wide, when that exceeds tol)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def _grid_max(n: int, k: int, a: float, b: float, B: float) -> float:
    """Max of H1 over the 801 x 801 grid on [-B, B]^2 where H2 >= slack.

    On a theta row H1 = q(theta) - H2 and rounded subtraction is monotone, so
    the row maximum sits at the feasible lam of least H2: next to a root of
    the convex quadratic H2 = slack in lam, or next to its vertex, where both
    anchors fall when there is no root.  The 6 grid points around each anchor,
    evaluated with the dense grid's expressions, give its maximum bit for bit.
    """
    axis = np.linspace(-B, B, 801)
    c = n + 2.0 * a + 2.0 * b + 2.0 * axis
    half = 0.5 * np.sqrt(np.maximum(c * c - 4.0 * (2.0 * b * axis - _GRID_SLACK), 0.0))
    anchors = (-0.5 * c)[:, None] + np.array([-1.0, 1.0]) * half[:, None]
    near = np.clip(np.floor((anchors + B) * (400.0 / B)), -3.0, 803.0).astype(np.intp)
    th = axis[:, None]
    la = axis[np.clip(near[:, :, None] + np.arange(-2, 4), 0, 800).reshape(801, 12)]
    h2g = la * (n + 2.0 * a + 2.0 * b + 2.0 * th + la) + 2.0 * b * th
    h1g = -th * (k + 2.0 * a + th) - h2g
    return float(np.max(np.where(h2g >= _GRID_SLACK, h1g, -np.inf)))


def maximize(params: HardyParams) -> OptimizerReport:
    """Two-phase search for max H1 subject to H2 >= 0 (p = 2, any k).

    Agrees with the closed-form constant to well below 1e-6 wherever that
    constant is sharp; for k < n-1 this is the validation oracle.
    """
    if params.p != 2:
        raise ValueError("the optimizer oracle is a p = 2 construction")
    if not admissible_hardy(params):
        raise InadmissibleParamsError(f"inadmissible parameters: {params}")
    n, k, a, b = params.n, params.k, params.alpha, params.beta
    B = 2.0 * (n + 2.0 * abs(a) + 2.0 * abs(b)) + 4.0

    regime = compute_K(params)
    K = regime.k_value
    theta_vertex = -(k + 2.0 * a) / 2.0
    # every closed-form branch point must sit well inside the search box
    probe = [abs(theta_vertex), abs(b) + math.sqrt(max(K, 0.0)) / 2.0,
             (n + 2.0 * abs(a) + math.sqrt(max(K, 0.0))) / 2.0]
    if max(probe) > B / 2.0:
        raise RuntimeError("search box too small for the branch points; "
                           "this should be impossible for admissible input")

    # phase 1: grid maximum with feasibility slack
    grid_value = _grid_max(n, k, a, b, B)

    # phase 2: vertex candidate (constraint root at the vertex of H, if real)
    candidates: list[tuple[float, float, float]] = []  # (value, theta, lam)
    lam_v = H2_larger_root(theta_vertex, params)
    if lam_v is not None:
        candidates.append((H(theta_vertex, params), theta_vertex, lam_v))

    # phase 2: branch refinement on each side of the pole lam = -b
    def theta_of_lam(lam):
        return -lam * (n + 2.0 * a + 2.0 * b + lam) / (2.0 * (lam + b))

    def objective(lam):
        return H(theta_of_lam(lam), params)

    delta = 1e-7 * (1.0 + abs(b))
    for lo, hi in ((-B, -b - delta), (-b + delta, B)):
        if hi <= lo:
            continue
        lam_grid = np.linspace(lo, hi, 4001)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray(objective(lam_grid))
        vals[~np.isfinite(vals)] = -np.inf
        interior = np.where((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
        if interior.size == 0:
            continue
        best = interior[np.argsort(vals[interior])][-4:]
        for i in best:
            lam_star, val = _golden_max(objective, float(lam_grid[i - 1]),
                                        float(lam_grid[i + 1]))
            candidates.append((float(val), float(theta_of_lam(lam_star)),
                               float(lam_star)))

    value, theta_star, lam_star = max(candidates, key=lambda c: c[0])
    if grid_value - value > _STALL_TOL:
        raise OptimizerStalledError(
            f"refinement stalled: grid {grid_value} vs refined {value}")

    residual = H2(theta_star, lam_star, params)
    active = abs(residual) <= 1e-8
    if abs(theta_star - theta_vertex) <= 1e-6 * (1.0 + abs(theta_vertex)):
        guess = OptimizerBranch.VERTEX
    elif lam_star < -b:
        guess = OptimizerBranch.CONSTRAINT_LEFT
    else:
        guess = OptimizerBranch.CONSTRAINT_RIGHT
    return OptimizerReport(
        value=value,
        argmax=ExponentPair(theta_star, lam_star),
        active_constraint=active,
        branch_guess=guess,
        diagnostics=OptimizerDiagnostics(grid_value, value, residual),
    )

