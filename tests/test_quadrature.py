import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisohardy import (QuadMethod, QuadratureSpec, XiSpec, beta, cutoff_eta,
                        cutoff_eta_prime, integrate_1d, integrate_2d,
                        integrate_2d_product, integrate_angular, lemma1_check,
                        log_gamma, sin_power_integral, sphere_area)
from anisohardy import quadrature
from anisohardy.errors import NotConvergedError


class TestSpecials:
    def test_beta_classics(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    @given(st.floats(1e-3, 50), st.floats(1e-3, 50))
    @settings(max_examples=300, deadline=None)
    def test_beta_recurrence(self, t, g):
        assert beta(t + 1.0, g) == pytest.approx(t / (t + g) * beta(t, g),
                                                 rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_gamma(-1.0)
        with pytest.raises(ValueError):
            sin_power_integral(-1.0)

    def test_sphere_areas(self):
        assert sphere_area(1) == pytest.approx(2.0)
        assert sphere_area(2) == pytest.approx(2 * math.pi)
        assert sphere_area(3) == pytest.approx(4 * math.pi)
        with pytest.raises(ValueError):
            sphere_area(0)

    @pytest.mark.parametrize("lam,expected", [
        (0.0, math.pi),
        (1.0, 2.0),
    ])
    def test_sin_power_trivia(self, lam, expected):
        assert sin_power_integral(lam) == pytest.approx(expected, rel=1e-14)

    def test_sin_power_numeric_route_agrees(self):
        lam = math.sqrt(3.0) - 2.0  # the K = 3 angular exponent
        closed = sin_power_integral(lam)
        numeric = sin_power_integral(lam, numeric=True)
        assert numeric == pytest.approx(closed, rel=1e-9)


class TestCutoff:
    def test_plateau_and_support(self):
        assert cutoff_eta(0.5) == 1.0
        assert cutoff_eta(2.5) == 0.0
        assert cutoff_eta(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_boundary_derivatives_vanish(self):
        assert cutoff_eta_prime(1.0) == 0.0
        assert cutoff_eta_prime(2.0) == 0.0
        t = np.linspace(0, 3, 1201)
        vals = cutoff_eta(t)
        assert np.all(np.diff(vals) <= 1e-15)  # monotone non-increasing
        assert np.max(np.abs(cutoff_eta_prime(t))) <= 15.0 / 8.0 + 1e-12

    def test_never_negative_near_support_end(self):
        t = np.linspace(1.9, 2.1, 200_001)
        vals = cutoff_eta(t)
        assert np.all(vals >= 0.0)
        assert np.all(np.isfinite(vals ** 2.5))

    def test_ramp_integral(self):
        res = integrate_1d(cutoff_eta, 0.0, 2.0)
        assert res.value == pytest.approx(1.5, abs=1e-9)


class TestIntegrate1d:
    def test_inverse_sqrt(self):
        res = integrate_1d(lambda t: t ** -0.5, 0.0, 1.0)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("c", [-0.9, -0.5, -0.1, 0.0, 1.0, 3.0])
    def test_power_singularities(self, c):
        res = integrate_1d(lambda t: t ** c, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / (c + 1.0), abs=1e-10)

    def test_sin_inverse_sqrt(self):
        # direct phi-evaluation loses ~1e-8 to sin(pi - tiny) cancellation;
        # integrate_angular below recovers full precision
        res = integrate_1d(lambda t: np.sin(t) ** -0.5, 0.0, math.pi)
        assert res.value == pytest.approx(beta(0.25, 0.5), rel=1e-7)
        ang = integrate_angular(lambda s: s ** -0.5)
        assert ang.value == pytest.approx(beta(0.25, 0.5), rel=1e-13)

    def test_gauss_legendre_path(self):
        spec = QuadratureSpec(method=QuadMethod.GAUSS_LEGENDRE_COMPOSITE)
        res = integrate_1d(np.exp, 0.0, 1.0, spec)
        assert res.value == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_not_converged_carries_best_value(self):
        spec = QuadratureSpec(levels=3, abs_tol=1e-15, rel_tol=1e-15)
        with pytest.raises(NotConvergedError) as ei:
            integrate_1d(lambda t: np.sin(50.0 / (t + 1e-2)), 0.0, 1.0, spec)
        assert math.isfinite(ei.value.value)
        assert ei.value.err_estimate > 0

    def test_non_finite_sum_is_not_converged(self):
        # the first node closer than 1e-300 to the endpoint enters at level 3
        with pytest.raises(NotConvergedError):
            integrate_1d(lambda t: np.where(t < 1e-300, np.inf, 1.0), 0.0, 1.0)

    def test_requires_ordered_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(np.exp, 1.0, 0.0)


class TestIntegrate2d:
    def test_product_separable(self):
        spec = QuadratureSpec(truncation_radius=1.0)
        value = integrate_2d_product(lambda r: r, lambda s: np.ones_like(s), spec)
        assert value == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_zero_integrand(self):
        value = integrate_2d(lambda r, s: np.zeros(np.broadcast(r, s).shape))
        assert value == 0.0

    def test_tensor_matches_product_on_reduced_denominator(self):
        # the K = 3 reduced denominator at eps = 1e-2: integrand factors, so
        # the tensor route must match the (Beta closed form) x (1D radial)
        eps = 1e-2
        K = 3.0
        sK = math.sqrt(K)
        beta_exp = -0.5

        def g2(r):
            return (r * r + eps * eps) ** (-beta_exp - sK / 2.0) * cutoff_eta(r) ** 2

        def radial(r):
            return g2(r) * r ** (2 * beta_exp + sK - 1.0)

        tensor = integrate_2d(lambda r, s: s ** (sK - 2.0) * radial(r))
        closed_angular = beta((sK - 1.0) / 2.0, 0.5)
        rad = integrate_1d(radial, 0.0, 2.0)
        assert tensor == pytest.approx(closed_angular * rad.value, rel=1e-8)


class TestLemma1:
    EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

    def test_radial_kernel_of_k3_instance(self):
        xi = XiSpec(a=math.sqrt(3.0) - 2.0, b=(1.0 - math.sqrt(3.0)) / 2.0)
        assert xi.satisfies_hypothesis
        rep = lemma1_check(xi, self.EPS)
        assert math.isfinite(rep.max_abs)
        assert abs(rep.slope_vs_log_eps) <= 1e-2

    def test_canonical_kernel(self):
        rep = lemma1_check(XiSpec(a=1.0, b=-1.0), self.EPS)
        assert abs(rep.slope_vs_log_eps) <= 1e-2

    def test_negative_control_is_detected(self):
        xi = XiSpec(a=1.0, b=-0.6)
        assert not xi.satisfies_hypothesis
        rep = lemma1_check(xi, self.EPS)
        assert abs(rep.slope_vs_log_eps) >= 0.1

    def test_rejects_nonintegrable_kernel(self):
        with pytest.raises(ValueError):
            XiSpec(a=-1.0, b=0.0)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            lemma1_check(XiSpec(a=1.0, b=-1.0), [])
        with pytest.raises(ValueError):
            lemma1_check(XiSpec(a=1.0, b=-1.0), [2.0])


class TestIntegrate2dIncremental:
    """The nested-level driver against full-grid tensor sums built here."""

    SPEC = QuadratureSpec()

    @staticmethod
    def _full_rule(level):
        # every multiple of 2^-level in the window, with the full-step weights
        h = 2.0 ** -level
        m = int(quadrature._TMAX / h)
        t = np.arange(-m, m + 1) * h
        e = np.exp(-np.pi * np.abs(np.sinh(t)))
        d = e / (1.0 + e)
        w = h * np.pi * np.cosh(t) * e / (1.0 + e) ** 2
        keep = (d > 0.0) & (w > 0.0) & np.isfinite(w)
        return t[keep], d[keep], w[keep]

    def _full_grid_sum(self, f, level):
        R = self.SPEC.truncation_radius
        t, d, w = self._full_rule(level)
        r = np.where(t <= 0.0, R * d, R * (1.0 - d))
        s = np.sin(np.pi * d)
        return float((R * w) @ f(r[:, None], s[None, :]) @ (math.pi * w))

    @staticmethod
    def _counting(f):
        seen = [0]

        def counted(r, s):
            seen[0] += np.broadcast(r, s).size
            return f(r, s)
        return counted, seen

    @staticmethod
    def _integrand(r, s):
        return r ** 0.5 * s ** -0.5 * np.exp(-r)

    def test_evaluates_each_node_pair_once(self):
        counted, seen = self._counting(self._integrand)
        value = integrate_2d(counted, self.SPEC)
        sizes = {self._full_rule(lv)[0].size ** 2: lv for lv in range(2, 11)}
        assert seen[0] in sizes          # exactly the full grid of one level
        level = sizes[seen[0]]
        ref = [self._full_grid_sum(self._integrand, lv) for lv in range(2, level + 1)]
        assert value == pytest.approx(ref[-1], rel=1e-13)
        tol = max(self.SPEC.abs_tol, self.SPEC.rel_tol * abs(ref[-1]))
        assert abs(ref[-1] - ref[-2]) <= tol
        assert all(abs(b - a) > tol for a, b in zip(ref[:-2], ref[1:-1]))

    def test_unconverged_value_matches_full_grid(self):
        def oscillating(r, s):
            return np.sin(30.0 / (r + 0.05)) * s ** -0.5

        spec = QuadratureSpec(levels=5)
        counted, seen = self._counting(oscillating)
        with pytest.raises(NotConvergedError) as ei:
            integrate_2d(counted, spec)
        assert seen[0] == self._full_rule(5)[0].size ** 2
        ref = self._full_grid_sum(oscillating, 5)
        assert ei.value.value == pytest.approx(ref, rel=1e-13)

    def test_non_finite_sum_is_not_converged(self):
        # infinite from level 3 on, whose total would otherwise meet its own
        # infinite relative tolerance
        def overflowing(r, s):
            return np.where(s < 1e-300, np.inf, 1.0) * np.ones_like(r)
        with pytest.raises(NotConvergedError) as ei:
            integrate_2d(overflowing)
        assert math.isinf(ei.value.value)
