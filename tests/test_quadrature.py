import collections
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisohardy import (QuadratureSpec, XiSpec, beta, cutoff_eta,
                        cutoff_eta_prime, gauss_jacobi, integrate_1d,
                        integrate_2d, integrate_rows, lemma1_check,
                        log_gamma, sin_power_integral, sphere_area)
from anisohardy import quadrature
from anisohardy.quadrature import integrate_angular
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
            lemma1_check(XiSpec(a=1.0, b=-1.0), [2.0, 0.5])

    def test_one_eps_fixes_no_slope(self):
        # one point used to report slope 0.0 whatever the kernel
        with pytest.raises(ValueError, match="at least two entries"):
            lemma1_check(XiSpec(a=1.0, b=-0.5), [1e-3])

    def test_far_part_matches_tight_reference(self):
        # the far integrand, in u = ln t, has the cutoff's kink at u = ln(1/eps);
        # a panel break there keeps the sum exponentially convergent
        xi = XiSpec(a=1.0, b=-1.0)
        tight = QuadratureSpec(levels=13, abs_tol=1e-30, rel_tol=1e-14)
        rep = lemma1_check(xi, self.EPS)
        for eps, value in zip(self.EPS, rep.values):
            def far(u):
                t = np.exp(u)
                return xi.xi(t) * t * cutoff_eta(eps * t)
            kink = -math.log(eps)
            ref = (integrate_1d(xi.xi, 0.0, 1.0, tight).value
                   + integrate_1d(far, 0.0, kink, tight).value
                   + integrate_1d(far, kink, math.log(2.0 / eps), tight).value + math.log(eps))
            assert value == pytest.approx(ref, rel=0.0, abs=1e-14)


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

    @staticmethod
    def _scalar_loop(f, a, b, spec):
        """The driver written as a plain loop over levels, in scalars."""
        total, prev = None, None
        for level in range(spec.levels + 1):
            t, d, w = quadrature._ts_level(level)
            x = np.where(t <= 0.0, a + (b - a) * d, b - (b - a) * d)
            level_sum = float(np.sum(w * f(x))) * (b - a)
            total = level_sum if level == 0 else 0.5 * total + level_sum
            if level == 0:
                continue
            if prev is not None and abs(total - prev) <= max(spec.abs_tol,
                                                             spec.rel_tol * abs(total)):
                return total, abs(total - prev)
            prev = total
        raise AssertionError("the reference did not converge")

    @pytest.mark.parametrize("f,breaks", [
        (lambda x: x ** -0.3 * np.exp(x), ()),
        (lambda x: x ** -0.3 * np.exp(x), (0.4, 1.1)),
        (lambda x: np.abs(x - 0.7) ** 1.5, (0.7,)),
        (lambda x: np.abs(x - 0.7) ** 1.5, (0.3, 0.7, 1.4)),
    ])
    def test_matches_a_scalar_loop_bit_for_bit(self, f, breaks):
        spec = QuadratureSpec()
        edges = (0.0, *breaks, 2.0)
        value, err = self._scalar_loop(f, edges[0], edges[1], spec)
        for lo, hi in zip(edges[1:], edges[2:]):            # panel by panel, in order
            panel_value, panel_err = self._scalar_loop(f, lo, hi, spec)
            value, err = value + panel_value, err + panel_err
        res = integrate_1d(f, 0.0, 2.0, spec, breaks)
        assert (res.value.hex(), res.err_estimate.hex()) == (value.hex(), err.hex())

    def test_stops_at_first_non_finite_level(self):
        def blowing_up(x):
            return np.where(x < 1e-300, np.inf, 1.0)

        counted, seen = self._counting(blowing_up)
        with pytest.raises(NotConvergedError) as ei:
            integrate_1d(counted, 0.0, 1.0)
        first = min(lv for lv in range(11) if np.any(_full_rule(lv)[1] < 1e-300))
        assert seen[0] == _full_rule(first)[0].size
        assert math.isinf(ei.value.value)


def _raised(call):
    """(message, value, err_estimate) of the NotConvergedError call raises."""
    with pytest.raises(NotConvergedError) as ei:
        call()
    return str(ei.value), ei.value.value, ei.value.err_estimate


class TestIntegrateRows:
    """Rows on shared nodes against integrate_1d of each row alone."""

    SMOOTH = (lambda x: x ** -0.3 * np.exp(x), lambda x: np.sin(3.0 * x), lambda x: x ** 6)

    @staticmethod
    def step(x):                  # trapezoid error O(h): never within tolerance
        return np.where(x < 0.3, 1.0, 0.0)

    @staticmethod
    def overflow(x):              # infinite from level 3 on
        return np.where(x < 1e-300, np.inf, 1.0)

    @staticmethod
    def _stacked(rows, seen):
        def f(x):
            seen.append(x.size)
            return tuple(row(x) for row in rows)
        return f

    def test_rows_match_separate_calls_bit_for_bit(self):
        seen = []
        stacked = integrate_rows(self._stacked(self.SMOOTH, seen), 0.0, 2.0)
        alone_sizes = []
        for row, res in zip(self.SMOOTH, stacked):
            alone_seen = []
            alone, = integrate_rows(self._stacked([row], alone_seen), 0.0, 2.0)
            assert alone == integrate_1d(row, 0.0, 2.0)
            assert res.value.hex() == alone.value.hex()
            assert res.err_estimate.hex() == alone.err_estimate.hex()
            alone_sizes.append(sum(alone_seen))
        # the rows freeze at different levels; the pass runs to the deepest
        assert len(set(alone_sizes)) > 1 and sum(seen) == max(alone_sizes)

    @pytest.mark.parametrize("rows,first", [
        ((SMOOTH[0], overflow, step), 1),
        ((step, overflow), 0),
        ((SMOOTH[1], step, SMOOTH[2]), 1),
    ])
    def test_first_failing_row_raises_its_own_error(self, rows, first):
        expected = _raised(lambda: integrate_1d(rows[first], 0.0, 1.0))
        assert _raised(lambda: integrate_rows(
            lambda x: tuple(row(x) for row in rows), 0.0, 1.0)) == expected

    def test_stops_once_the_first_row_fails(self):
        seen = []
        with pytest.raises(NotConvergedError):
            integrate_rows(self._stacked([self.overflow, self.step], seen), 0.0, 1.0)
        first = min(lv for lv in range(11) if np.any(_full_rule(lv)[1] < 1e-300))
        assert sum(seen) == _full_rule(first)[0].size


class TestPanels:
    """Break points split the interval into panels, each with its own rule."""

    ROWS = (lambda x: x ** -0.3 * np.exp(x), lambda x: np.abs(x - 0.7) ** 2.5,
            lambda x: np.sin(3.0 * x))

    @pytest.mark.parametrize("breaks", [(0.7,), (0.4, 0.7, 1.5)])
    def test_rows_match_separate_calls_bit_for_bit(self, breaks):
        stacked = integrate_rows(lambda x: tuple(row(x) for row in self.ROWS), 0.0, 2.0,
                                 breaks=breaks)
        for row, res in zip(self.ROWS, stacked):
            alone = integrate_1d(row, 0.0, 2.0, breaks=breaks)
            assert (res.value.hex(), res.err_estimate.hex()) == \
                (alone.value.hex(), alone.err_estimate.hex())

    def test_value_and_estimate_are_sums_over_panels(self):
        row = self.ROWS[1]
        whole = integrate_1d(row, 0.0, 2.0, breaks=(0.7,))
        lo, hi = integrate_1d(row, 0.0, 0.7), integrate_1d(row, 0.7, 2.0)
        assert whole == quadrature.QuadResult(lo.value + hi.value,
                                              lo.err_estimate + hi.err_estimate)

    def test_one_call_per_level_on_the_live_panels(self):
        # the (1, 2) panel of eta' converges levels before the (0, 1) panel,
        # where eta' is 0; each level is one call on the live panels' nodes
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return cutoff_eta_prime(x) * (1.0 + x)

        integrate_1d(counted, 0.0, 2.0, breaks=(1.0,))
        level_sizes = [quadrature._ts_level(level)[0].size for level in range(len(sizes))]
        assert all(size in (n, 2 * n) for size, n in zip(sizes, level_sizes))
        assert sizes[0] == 2 * level_sizes[0] and sizes[-1] == level_sizes[-1]

    def test_kink_at_a_break_converges_within_its_estimate(self):
        # int_0^2 eta' = eta(2) - eta(0) = -1; eta' has kinks at r = 1 and 2
        seen = []

        def counted(x):
            seen.append(x.size)
            return cutoff_eta_prime(x)

        split = integrate_1d(counted, 0.0, 2.0, breaks=(1.0,))
        split_nodes = sum(seen)
        seen.clear()
        whole = integrate_1d(counted, 0.0, 2.0)
        assert abs(split.value + 1.0) <= split.err_estimate + 1e-15
        assert split_nodes < sum(seen) / 4
        assert abs(whole.value + 1.0) > abs(split.value + 1.0)

    def test_failure_names_the_whole_interval(self):
        spec = QuadratureSpec(levels=4, abs_tol=1e-15, rel_tol=1e-15)
        message, value, err = _raised(lambda: integrate_rows(
            lambda x: (np.sin(50.0 / (x + 1e-2)),), 0.0, 2.0, spec, (1.0,)))
        assert message.startswith("tanh-sinh on (0.0, 2.0) within 4 levels did not converge")
        assert math.isfinite(value) and err > 0

    @pytest.mark.parametrize("rows,first", [
        ((TestIntegrateRows.SMOOTH[0], TestIntegrateRows.overflow, TestIntegrateRows.step), 1),
        ((TestIntegrateRows.step, TestIntegrateRows.overflow), 0),
    ])
    def test_first_failing_row_raises_its_own_error(self, rows, first):
        expected = _raised(lambda: integrate_1d(rows[first], 0.0, 1.0, breaks=(0.5,)))
        assert _raised(lambda: integrate_rows(
            lambda x: tuple(row(x) for row in rows), 0.0, 1.0, breaks=(0.5,))) == expected

    def test_a_failed_row_stops_refining(self):
        # the (0, 1) panel, x^-0.9, overflows at the first level with a node
        # within 1e-300 of 0; the (-1, 0) panel, a step, would never
        # converge, but its row is decided there and no further level is
        # evaluated
        sizes = []

        def f(x):
            sizes.append(x.size)
            tiny = (x > 0.0) & (x < 1e-300)
            return (np.where(x < -0.7, 1.0, 0.0) + np.where(x > 0.0, np.abs(x) ** -0.9, 0.0)
                    + np.where(tiny, np.inf, 0.0))

        with pytest.raises(NotConvergedError) as ei:
            integrate_1d(f, -1.0, 1.0, breaks=(0.0,))
        first = min(lv for lv in range(11) if np.any(_full_rule(lv)[1] < 1e-300))
        assert sizes == [2 * quadrature._ts_level(lv)[0].size for lv in range(first + 1)]
        assert math.isinf(ei.value.value)

    @pytest.mark.parametrize("breaks", [(0.0,), (2.0,), (1.5, 0.5), (0.5, 0.5), (3.0,)])
    def test_breaks_must_lie_inside_and_increase(self, breaks):
        with pytest.raises(ValueError):
            integrate_1d(np.exp, 0.0, 2.0, breaks=breaks)


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

    @staticmethod
    def _radial_nodes(f):
        """f, and per angular order m/2 the radial nodes it was evaluated at."""
        seen = {}

        def recorded(r, t):
            seen.setdefault(t.size, []).extend(np.broadcast_to(r, (r.shape[0], 1))[:, 0].tolist())
            return f(r, t)
        return recorded, seen

    @pytest.mark.parametrize("breaks,full", [((), 197), ((1.0,), 198)])
    def test_evaluates_each_node_pair_once(self, breaks, full):
        # per order reached: every radial node of each panel up to the level
        # that panel reached, against the m/2 positive angular nodes, each
        # pair once
        def f(r, t):
            return r ** 0.5 * np.exp(-r) / (1.02 - t * t)
        edges = (0.0, *breaks, 2.0)
        rule = collections.Counter()    # every node of each panel's rule, levels 0 to 10
        for lv in range(11):
            t, d, _ = quadrature._ts_level(lv)
            for lo, hi in zip(edges, edges[1:]):
                rule.update(np.where(t <= 0.0, lo + (hi - lo) * d, hi - (hi - lo) * d).tolist())
        radial_sizes = [_full_rule(lv)[0].size for lv in range(11)]
        panel_sizes = {sum(sizes) for sizes in itertools.product(radial_sizes,
                                                                 repeat=len(breaks) + 1)}
        assert full in panel_sizes
        counted, seen = self._counting(f)
        recorded, radial = self._radial_nodes(counted)
        res = integrate_2d(recorded, -0.5, breaks=breaks)
        reached = [m for m in self.ORDERS if m // 2 in seen]
        assert sorted(seen) == [m // 2 for m in reached]
        assert reached == list(self.ORDERS[:len(reached)]) and len(reached) >= 3
        for m in reached:
            assert seen[m // 2] == (m // 2) * full
            assert len(radial[m // 2]) == full
            assert not collections.Counter(radial[m // 2]) - rule
        assert res.err_estimate <= max(1e-13, 1e-10 * abs(res.value))

    def test_panels_sum_to_the_one_piece_value(self):
        def f(r, t):
            return cutoff_eta(r) * r ** 0.5 / (1.02 - t * t)
        whole, split = integrate_2d(f, -0.5), integrate_2d(f, -0.5, breaks=(1.0,))
        assert split.value == pytest.approx(whole.value, rel=1e-9)

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


def _angular_reference(A, C, pw, b):
    """int_-1^1 (A t^2 + C (1 - t^2))^(p/2) (1 - t^2)^(b-1) dt as
    2 int_0^(pi/2) (A cos^2 + C sin^2)^(p/2) sin^(2b-1) by tanh-sinh, with a
    break where the smaller column's term takes over."""
    tight = QuadratureSpec(levels=13, abs_tol=1e-300, rel_tol=1e-14)
    knee = math.atan(math.sqrt(min(A, C) / max(A, C)))
    knee = knee if A > C else math.pi / 2.0 - knee
    breaks = (knee,) if 1e-300 < knee < math.pi / 2.0 - 1e-12 else ()
    res = integrate_1d(lambda phi: (A * np.cos(phi) ** 2 + C * np.sin(phi) ** 2) ** (pw / 2.0)
                       * np.sin(phi) ** (2.0 * b - 1.0), 0.0, math.pi / 2.0, tight, breaks)
    return 2.0 * res.value


class TestBracketAngular:
    """The sweep numerators' angular integral in closed form, hypergeometric
    or, at p = 2, linear, against tanh-sinh quadrature over phi."""

    RATIOS = (1e-14, 1e-9, 1e-5, 1e-2, 0.3, 0.5, 0.7, 1.0)

    @pytest.mark.parametrize("pw,p_sigma", [
        (1.5, 0.2), (2.5, 0.8), (3.0, 0.1), (3.6, 0.4),   # generic
        (3.0, 0.4), (1.6, 0.4), (1.0, 0.4),               # integer m: (p + 1)/2 or b + p/2
        (4.0, 0.2), (6.0, 0.6), (8.0, 0.1),               # even p: a terminating series
        (1.6 + 1e-9, 0.4), (3.0 + 1e-8, 0.4),             # m within 1e-5 of an integer
        (20.0, 0.4), (30.0, 13.5), (31.0, 0.8), (100.0, 0.2),  # Euler for x >= 1/2
        (2.0, 0.4),                                       # linear: A B(3/2, b) + C B(1/2, b + 1)
    ])
    def test_matches_quadrature_in_both_branches(self, pw, p_sigma):
        b = p_sigma / 2.0
        A = np.array([list(self.RATIOS) + [1.0] * len(self.RATIOS)])
        C = np.array([[1.0] * len(self.RATIOS) + list(self.RATIOS)])
        got = quadrature._bracket_angular(3.0 * A, 3.0 * C, [pw], [b])[0]
        for a, c, value in zip(3.0 * A[0], 3.0 * C[0], got):
            ref = _angular_reference(a, c, pw, b)
            assert value == pytest.approx(ref, rel=1e-11, abs=0.0), (a, c)

    @pytest.mark.parametrize("pw,branch,components,log", [
        (1.6, 0, 2, True), (3.0, 1, 2, True),             # m = 1 and m = 2 exactly
        (1.6 + 1e-9, 0, 4, True), (3.0 + 1e-8, 1, 4, True),  # log case and 15.3.6 mixed
        (3.0, 0, 2, False), (4.0, 1, 1, False)])          # 15.3.6; 1/Gamma(-p/2) = 0
    def test_region_below_one_half_takes_its_case(self, pw, branch, components, log):
        # the x < 1/2 region of a branch at b = 0.2, as the cases above name it
        _, _, scale, _, logs, _ = quadrature._bracket_tables(((pw, 0.2),))
        region = slice(4 * (2 * branch + 1), 4 * (2 * branch + 2))
        assert np.count_nonzero(scale[region]) == components and logs[region].any() == log

    def test_rows_do_not_depend_on_each_other(self):
        rng = np.random.default_rng(3)
        A, C = rng.uniform(0.0, 2.0, (2, 4, 50)) ** 3
        pws, bs = [1.5, 2.0, 3.0, 4.0], [0.1, 0.3, 0.2, 0.05]
        block = quadrature._bracket_angular(A, C, pws, bs)
        for i in range(4):
            alone = quadrature._bracket_angular(A[i:i + 1], C[i:i + 1], pws[i:i + 1], bs[i:i + 1])
            assert block[i].tobytes() == alone[0].tobytes()

    def test_zero_and_non_finite_columns(self):
        A = np.array([[0.0, 0.0, math.nan, math.inf, 1.0, math.inf]])
        C = np.array([[0.0, 1.0, 1.0, 1.0, math.inf, math.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quadrature._bracket_angular(A, C, [3.0], [0.1])[0]
        assert got[0] == 0.0 and not np.isfinite(got[2:]).any()
        # A = 0: int (1 - t^2)^(p/2 + b - 1) dt = B(1/2, b + p/2)
        assert got[1] == pytest.approx(beta(0.5, 0.1 + 1.5), rel=1e-13)
