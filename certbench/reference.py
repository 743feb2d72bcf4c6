"""The benchmark's own copies of the closed-form constants.

Every certification gate compares against these formulas, written out from
the statements in PAPER.md and README.md, never against
``anisohardy.closed_form``.  A change to the library's formulas therefore
shows as a wrong constant instead of moving the reference with it.
"""

from __future__ import annotations

import math


def regime_k(n: int, alpha: float, beta: float) -> float:
    """K = -4 beta (n + 2 alpha + beta)."""
    return -4.0 * beta * (n + 2.0 * alpha + beta)


def hardy_p2(n: int, alpha: float, beta: float) -> float:
    """p = 2, k = n-1: {(n-1+2a)^2 - [sqrt(max(K, 1)) - 1]^2} / 4."""
    corr = math.sqrt(max(regime_k(n, alpha, beta), 1.0)) - 1.0
    return ((n - 1.0 + 2.0 * alpha) ** 2 - corr * corr) / 4.0


def hardy_p2_general_axis(n: int, k: int, alpha: float, beta: float) -> float:
    """p = 2, 1 <= k <= n-1: {(k+2a)^2 - [sqrt(max(K, (n-k)^2)) - (n-k)]^2} / 4."""
    nk = float(n - k)
    corr = math.sqrt(max(regime_k(n, alpha, beta), nk * nk)) - nk
    return ((k + 2.0 * alpha) ** 2 - corr * corr) / 4.0


def hardy_general_p(n: int, p: float, alpha: float) -> float:
    """General p, k = n-1, beta >= 0: ((n-1+p a)/p)^p."""
    return ((n - 1.0 + p * alpha) / p) ** p


def ckn(n: int, p: float, alpha: float, gamma1: float) -> float:
    """CKN product constant (n + p(alpha + gamma1)) / p."""
    return (n + p * (alpha + gamma1)) / p


def rel_diff(value: float, ref: float) -> float:
    """|value - ref| / max(1, |ref|), the closed-form agreement measure."""
    return abs(value - ref) / max(1.0, abs(ref))
