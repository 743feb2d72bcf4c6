import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisohardy import (QuadratureSpec, XiSpec, beta, cutoff_eta,
                        cutoff_eta_prime, gauss_jacobi, integrate_1d,
                        integrate_2d, integrate_angular, lemma1_check,
                        log_gamma, sin_power_integral, sphere_area)
from anisohardy import quadrature
from anisohardy.errors import NotConvergedError


def _full_rule(level):
    """Every multiple of 2^-level in the tanh-sinh window, with full-step weights."""
    h = 2.0 ** -level
    m = int(quadrature._TMAX / h)
    t = np.arange(-m, m + 1) * h
    e = np.exp(-np.pi * np.abs(np.sinh(t)))
    d = e / (1.0 + e)
    w = h * np.pi * np.cosh(t) * e / (1.0 + e) ** 2
    keep = (d > 0.0) & (w > 0.0) & np.isfinite(w)
    return t[keep], d[keep], w[keep]


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

    def test_scalar_return_broadcasts(self):
        assert integrate_1d(lambda t: 1.0, 0.0, 1.0).value == pytest.approx(1.0, rel=1e-14)

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


class TestGaussJacobi:
    @pytest.mark.parametrize("c", [-0.98, -0.6, 0.0, 1.3])
    def test_even_moments_match_beta(self, c):
        # int_-1^1 t^(2k) (1 - t^2)^c dt = B(k + 1/2, c + 1), exact for 2k <= 2m - 1
        t, w = gauss_jacobi(16, c, c)
        for k in range(16):
            ref = beta(k + 0.5, c + 1.0)
            assert float(w @ t ** (2 * k)) == pytest.approx(ref, rel=1e-13)

    def test_unequal_exponents(self):
        a, b = 0.5, -0.3
        t, w = gauss_jacobi(7, a, b)
        mu0 = 2.0 ** (a + b + 1.0) * beta(a + 1.0, b + 1.0)
        assert float(w.sum()) == pytest.approx(mu0, rel=1e-14)
        # the mean of t under (1 - t)^a (1 + t)^b
        assert float(w @ t) / mu0 == pytest.approx((b - a) / (a + b + 2.0), rel=1e-13)

    def test_legendre_at_zero_exponents(self):
        t, w = gauss_jacobi(20, 0.0, 0.0)
        tl, wl = np.polynomial.legendre.leggauss(20)
        np.testing.assert_allclose(t, tl, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(w, wl, rtol=1e-13, atol=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            gauss_jacobi(8, -1.0, 0.0)
        with pytest.raises(ValueError):
            gauss_jacobi(0, 0.0, 0.0)


class TestIntegrate2d:
    def test_product_separable(self):
        spec = QuadratureSpec(truncation_radius=1.0)
        res = integrate_2d(lambda r, t: r * np.ones_like(t), 0.0, spec)
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_zero_integrand(self):
        res = integrate_2d(lambda r, t: np.zeros(np.broadcast(r, t).shape), 0.5)
        assert res.value == 0.0

    def test_tensor_matches_product_on_reduced_denominator(self):
        # the K = 3 reduced denominator at eps = 1e-2: integrand factors, so
        # the 2D route must match the (Beta closed form) x (1D radial)
        eps = 1e-2
        K = 3.0
        sK = math.sqrt(K)
        beta_exp = -0.5

        def g2(r):
            return (r * r + eps * eps) ** (-beta_exp - sK / 2.0) * cutoff_eta(r) ** 2

        def radial(r):
            return g2(r) * r ** (2 * beta_exp + sK - 1.0)

        rule = integrate_2d(lambda r, t: radial(r) * np.ones_like(t), sK - 2.0)
        closed_angular = beta((sK - 1.0) / 2.0, 0.5)
        rad = integrate_1d(radial, 0.0, 2.0)
        assert rule.value == pytest.approx(closed_angular * rad.value, rel=1e-8)

    def test_angular_factor_matches_tanh_sinh(self):
        # f even in t = cos(phi) depends on sin(phi)^2 = 1 - t^2 alone, so the
        # angular factor has an independent tanh-sinh route
        c = -0.5
        res = integrate_2d(lambda r, t: np.exp(-r) / (1.02 - t * t), c)
        ang = integrate_angular(lambda s: s ** c / (0.02 + s * s)).value
        assert res.value == pytest.approx((1.0 - math.exp(-2.0)) * ang, rel=1e-9)

    def test_rejects_non_integrable_weight(self):
        with pytest.raises(ValueError):
            integrate_2d(lambda r, t: r * t, -1.0)


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


class TestIntegrate1dIncremental:
    """The 1D level totals against full-rule sums built here."""

    @staticmethod
    def _full_rule_sum(f, a, b, level):
        t, d, w = _full_rule(level)
        x = np.where(t <= 0.0, a + (b - a) * d, b - (b - a) * d)
        return float(np.sum(w * f(x))) * (b - a)

    @staticmethod
    def _counting(f):
        seen = [0]

        def counted(x):
            seen[0] += x.size
            return f(x)
        return counted, seen

    def test_evaluates_each_node_once(self):
        def f(x):
            return x ** -0.3 * np.exp(x)

        counted, seen = self._counting(f)
        spec = QuadratureSpec()
        res = integrate_1d(counted, 0.5, 2.0, spec)
        sizes = {_full_rule(lv)[0].size: lv for lv in range(spec.levels + 1)}
        assert seen[0] in sizes          # exactly the full rule of one level
        level = sizes[seen[0]]
        ref = [self._full_rule_sum(f, 0.5, 2.0, lv) for lv in range(level + 1)]
        assert res.value == pytest.approx(ref[-1], rel=1e-13)
        tol = max(spec.abs_tol, spec.rel_tol * abs(ref[-1]))
        assert res.err_estimate <= tol and abs(ref[-1] - ref[-2]) <= tol
        # level 1 only seeds the first comparison
        assert all(abs(b - a) > tol for a, b in zip(ref[1:-2], ref[2:-1]))

    def test_stops_at_first_non_finite_level(self):
        def blowing_up(x):
            return np.where(x < 1e-300, np.inf, 1.0)

        counted, seen = self._counting(blowing_up)
        with pytest.raises(NotConvergedError) as ei:
            integrate_1d(counted, 0.0, 1.0)
        first = min(lv for lv in range(11) if np.any(_full_rule(lv)[1] < 1e-300))
        assert seen[0] == _full_rule(first)[0].size
        assert math.isinf(ei.value.value)


class TestIntegrate2dIncremental:
    """Angular orders m = 32, 64, ...: one radial tanh-sinh integral each."""

    ORDERS = (32, 64, 128, 256, 512, 1024)

    @staticmethod
    def _counting(f):
        seen = {}

        def counted(r, t):
            seen[t.size] = seen.get(t.size, 0) + np.broadcast(r, t).size
            return f(r, t)
        return counted, seen

    def test_evaluates_each_node_pair_once(self):
        # per order reached: every radial node of one tanh-sinh level against
        # the m/2 positive angular nodes, each pair once
        counted, seen = self._counting(lambda r, t: r ** 0.5 * np.exp(-r) / (1.02 - t * t))
        res = integrate_2d(counted, -0.5)
        reached = [m for m in self.ORDERS if m // 2 in seen]
        assert sorted(seen) == [m // 2 for m in reached]
        assert reached == list(self.ORDERS[:len(reached)]) and len(reached) >= 3
        radial_sizes = {_full_rule(lv)[0].size for lv in range(11)}
        for m in reached:
            assert seen[m // 2] % (m // 2) == 0
            assert seen[m // 2] // (m // 2) in radial_sizes
        assert res.err_estimate <= max(1e-13, 1e-10 * abs(res.value))

    def test_unconverged_value_matches_full_grid(self):
        # |t|^(1/2) has a kink at t = 0, so the Gauss sums converge only
        # algebraically and the order cap is reached; the radial factor
        # int_0^2 r dr = 2 is exact at every order
        counted, seen = self._counting(lambda r, t: r * np.sqrt(np.abs(t)))
        with pytest.raises(NotConvergedError) as ei:
            integrate_2d(counted, 0.0)
        assert sorted(seen) == [m // 2 for m in self.ORDERS]
        t, w = gauss_jacobi(1024, -0.5, -0.5)
        ref = 2.0 * float(w @ np.sqrt(np.abs(t)))
        assert ei.value.value == pytest.approx(ref, rel=1e-13)
        assert 0.0 < ei.value.err_estimate < 1e-3 * ref

    def test_non_finite_sum_is_not_converged(self):
        # infinite at the angular nodes nearest phi = 0, whose total would
        # otherwise meet its own infinite relative tolerance
        def overflowing(r, t):
            return np.where(t > 0.99, np.inf, 1.0) * np.ones_like(r)
        with pytest.raises(NotConvergedError) as ei:
            integrate_2d(overflowing, 0.0)
        assert math.isinf(ei.value.value)
