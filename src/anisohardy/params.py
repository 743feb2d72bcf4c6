"""Domain parameters and admissibility predicates.

The inequality under study is

    || |x|^beta |x'|^(alpha+1) grad u ||_p  >=  C  || |x|^beta |x'|^alpha u ||_p

over test functions on R^n, where x' is the projection onto the first k
coordinates (k = n-1 unless stated otherwise).  Admissibility of an instance
is exactly local L^p-integrability of the right-hand weight:

    k + p*alpha > 0   and   p*(alpha + beta) > -n,

both strict.  The borderline equalities are treated as inadmissible.

The regime constant

    K = -4*beta*(n + 2*alpha + beta) = (n+2*alpha)^2 - (n+2*alpha+2*beta)^2

decides which branch of the p = 2 case analysis applies and which trial
family certifies sharpness.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import InadmissibleParamsError

#: half-width of the K ~ 1 classification band.  Near-critical K is routed
#: through the K = 1 trial family, which stays integrable at the boundary.
REGIME_TOL = 1e-9

_FORM_AGREE_TOL = 1e-12
_EQ_TOL = 1e-12


def _check_finite(**values):
    for name, val in values.items():
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite, got {val!r}")


def _magnitude(base: float, e: float) -> float:
    """|base|^e, or inf where it passes double range."""
    try:
        return abs(base) ** e
    except OverflowError:
        return math.inf


def _check_range(params: HardyParams):
    """Raise OverflowError, naming the quantity and params, when a quantity
    that a route forms from params lies outside double range: K and the two
    squares of its cross-check (compute_K, which constant runs at every p)
    and the general-p constant, which must also not underflow below the
    smallest normal double (sys.float_info.min).  Past these, Python's
    float ** raised OverflowError with no name, a sweep ran its radial pass
    on non-finite rows and reported a failed check, or an underflowed
    constant such as 0.002^1000 was reported as the sharp constant 0.0."""
    n, p, a, b, k = params.n, params.p, params.alpha, params.beta, params.k
    s, c = n + 2.0 * a, (k + p * a) / p
    name, base = (("((k + p alpha)/p)^p", c) if b >= 0.0
                  else ("((k + p alpha + p beta)/p)^p", c + b))
    constant = _magnitude(base, p)
    for quantity, value in (("K = -4 beta (n + 2 alpha + beta)", _k_value(params)),
                            ("(n + 2 alpha)^2", _magnitude(s, 2.0)),
                            ("(n + 2 alpha + 2 beta)^2", _magnitude(s + 2.0 * b, 2.0)),
                            (f"the constant {name}", constant)):
        if not math.isfinite(value):
            raise OverflowError(f"{quantity} lies outside double range at {params}")
    if base > 0.0 and constant < sys.float_info.min:
        raise OverflowError(f"the constant {name} = {constant!r} lies outside double range, "
                            f"below the smallest normal double, at {params}")


def _set_int(obj, name: str, lo: int, hi: float = math.inf):
    """Store obj.name as an int in [lo, hi]; numpy integers are taken too."""
    val = getattr(obj, name)
    if not isinstance(val, numbers.Integral) or not lo <= val <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {val!r}")
    object.__setattr__(obj, name, int(val))


@dataclass(frozen=True)
class HardyParams:
    """One instance (n, p, alpha, beta, k) of the anisotropic Hardy inequality.

    k defaults to n-1, the codimension-one axis split.  p = 1 is accepted.
    n and k are stored as int; p, alpha and beta must be finite, and the
    quantities the routes form from them within double range (_check_range,
    OverflowError).
    """

    n: int
    p: float = 2.0
    alpha: float = 0.0
    beta: float = 0.0
    k: int | None = None

    def __post_init__(self):
        _set_int(self, "n", 2)
        if self.k is None:
            object.__setattr__(self, "k", self.n - 1)
        _set_int(self, "k", 1, self.n - 1)
        _check_finite(p=self.p, alpha=self.alpha, beta=self.beta)
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p!r}")
        _check_range(self)

    @property
    def is_full_axis(self) -> bool:
        """True when k = n-1 (the weights are singular on a single line)."""
        return self.k == self.n - 1


@dataclass(frozen=True)
class ExponentPair:
    """Exponents of the separable trial function f(x) = |x'|^theta |x|^lam."""

    theta: float
    lam: float

    def __post_init__(self):
        _check_finite(theta=self.theta, lam=self.lam)


def admissible_hardy(params: HardyParams) -> bool:
    """Local p-integrability of |x|^beta |x'|^alpha.

    Total function: returns a bool, never raises.  Both inequalities are
    strict; boundary cases count as inadmissible.
    """
    return (params.k + params.p * params.alpha > 0.0
            and params.p * (params.alpha + params.beta) > -params.n)


@dataclass(frozen=True)
class CknParams:
    """The six exponents (alpha, beta, mu, gamma1, gamma2, gamma3) plus (n, p)
    of a Caffarelli-Kohn-Nirenberg product instance

        || |x|^g2 |x'|^mu grad u ||_p * || |x|^g3 |x'|^beta u ||_p^(p-1)
            >= C || |x|^g1 |x'|^alpha u ||_p^p .
    """

    n: int
    p: float
    alpha: float = 0.0
    beta: float = 0.0
    mu: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0

    def __post_init__(self):
        _set_int(self, "n", 2)
        _check_finite(p=self.p, alpha=self.alpha, beta=self.beta, mu=self.mu,
                      gamma1=self.gamma1, gamma2=self.gamma2, gamma3=self.gamma3)
        if not self.p > 1:
            raise ValueError(f"CknParams requires p > 1, got {self.p!r}")

    @property
    def symmetric(self) -> bool:
        """alpha = beta = mu to 1e-12, where the exponential extremal family lives."""
        return abs(self.alpha - self.beta) <= 1e-12 and abs(self.alpha - self.mu) <= 1e-12


@dataclass(frozen=True)
class CknAdmissibility:
    integrable: bool
    balanced: bool
    normalized: bool

    @property
    def all_ok(self) -> bool:
        return self.integrable and self.balanced and self.normalized


def admissible_ckn(params: CknParams) -> CknAdmissibility:
    """Three independent gates for a CKN instance.

    integrable: all three weights lie in L^p_loc.
    balanced:   the exponent balance equality holds and the slope inequality
                gamma1 <= (gamma2-1)/p + (p-1)*gamma3/p is satisfied.
    normalized: the reduced form alpha*p = beta*(p-1) + mu and
                gamma1*p = gamma3*(p-1) + gamma2 - 1, within 1e-12.
    """
    c = params
    integrable = (min(c.alpha, c.beta, c.mu) > (1.0 - c.n) / c.p
                  and min(c.alpha + c.gamma1, c.mu + c.gamma2, c.beta + c.gamma3) > -c.n / c.p)
    balance_lhs = c.alpha + c.gamma1
    balance_rhs = (c.mu + c.gamma2 - 1.0) / c.p + (c.p - 1.0) * (c.beta + c.gamma3) / c.p
    slope_ok = c.gamma1 <= (c.gamma2 - 1.0) / c.p + (c.p - 1.0) * c.gamma3 / c.p + _EQ_TOL
    balanced = abs(balance_lhs - balance_rhs) <= _EQ_TOL and slope_ok
    normalized = (abs(c.alpha * c.p - c.beta * (c.p - 1.0) - c.mu) <= _EQ_TOL
                  and abs(c.gamma1 * c.p - c.gamma3 * (c.p - 1.0) - c.gamma2 + 1.0) <= _EQ_TOL)
    return CknAdmissibility(integrable, balanced, normalized)


class RegimeFamily(Enum):
    K_GT_1 = "K>1"
    K_EQ_1 = "K=1"
    K_LT_1 = "K<1"


@dataclass(frozen=True)
class Regime:
    k_value: float
    family: RegimeFamily


def _k_value(params: HardyParams) -> float:
    """K = -4*beta*(n + 2*alpha + beta), unchecked: the one expression of K,
    which compute_K checks and classifies and a trial family reads."""
    return -4.0 * params.beta * (params.n + 2.0 * params.alpha + params.beta)


def compute_K(params: HardyParams) -> Regime:
    """Regime constant K = -4*beta*(n + 2*alpha + beta), classified.

    The difference-of-squares form (n+2a)^2 - (n+2a+2b)^2 is evaluated as a
    cross-check; the two must agree to 1e-12 relative to the quadratic scale
    max(1, |K|, (n+2a)^2).  Classification uses the REGIME_TOL band around 1.
    """
    if not admissible_hardy(params):
        raise InadmissibleParamsError(
            f"compute_K requires admissible parameters, got {params}")
    n, a, b = params.n, params.alpha, params.beta
    k_val = _k_value(params)
    k_alt = (n + 2.0 * a) ** 2 - (n + 2.0 * a + 2.0 * b) ** 2
    scale = max(1.0, abs(k_val), (n + 2.0 * a) ** 2)
    if abs(k_val - k_alt) > _FORM_AGREE_TOL * scale:
        raise ArithmeticError(
            f"the two algebraic forms of K disagree: {k_val} vs {k_alt}")
    if abs(k_val - 1.0) <= REGIME_TOL:
        family = RegimeFamily.K_EQ_1
    elif k_val > 1.0:
        family = RegimeFamily.K_GT_1
    else:
        family = RegimeFamily.K_LT_1
    return Regime(k_val, family)
