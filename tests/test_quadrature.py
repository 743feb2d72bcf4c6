import collections
import functools
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisohardy import (QuadratureSpec, XiSpec, beta, cutoff_eta,
                        cutoff_eta_prime, gauss_jacobi, integrate_1d,
                        integrate_2d, integrate_rows, lemma1_check,
                        log_gamma, sin_power_integral)
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


def _distinct_nodes(edges, levels, panels=None):
    """The distinct nodes of the levels of the panels (edges[k], edges[k + 1]),
    every panel by default, sorted: the nodes of one integrand call."""
    panels = range(len(edges) - 1) if panels is None else panels
    return np.unique(np.concatenate([quadrature._panel_nodes(edges[k], edges[k + 1], lv)
                                     for lv in levels for k in panels]))


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
        # int_0^2 r dr times int_0^pi dphi
        res = integrate_2d(lambda r, t: r * np.ones_like(t), 0.0)
        assert res.value == pytest.approx(2.0 * math.pi, rel=1e-10)

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

        calls = []

        def counted(x):
            calls.append(x.copy())
            return f(x)

        spec = QuadratureSpec()
        res = integrate_1d(counted, 0.5, 2.0, spec)
        # one call on the distinct nodes of the full rule of one level: the
        # nodes that round onto 2.0 are passed once (197 nodes at level 4
        # when every node was passed, 103 distinct)
        sizes = {_distinct_nodes((0.5, 2.0), range(lv + 1)).size: lv
                 for lv in range(spec.levels + 1)}
        assert len(calls) == 1 and calls[0].size in sizes
        level = sizes[calls[0].size]
        assert np.array_equal(np.sort(calls[0]), _distinct_nodes((0.5, 2.0), range(level + 1)))
        ref = [self._full_rule_sum(f, 0.5, 2.0, lv) for lv in range(level + 1)]
        tol = max(spec.abs_tol, spec.rel_tol * abs(ref[-1]))
        # level 1 only seeds the first comparison; the first call holds levels
        # 0 to _FIRST_CALL_LEVELS even when the row converges before the last
        converged = next(lv for lv in range(2, level + 1) if abs(ref[lv] - ref[lv - 1]) <= tol)
        assert level == max(converged, quadrature._FIRST_CALL_LEVELS)
        assert res.value == pytest.approx(ref[converged], rel=1e-13)
        assert res.err_estimate <= tol

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
        last = max(first, quadrature._FIRST_CALL_LEVELS)
        assert seen[0] == _distinct_nodes((0.0, 1.0), range(last + 1)).size
        assert math.isinf(ei.value.value)


def _raised(call):
    """(message, value, err_estimate) of the NotConvergedError call raises."""
    with pytest.raises(NotConvergedError) as ei:
        call()
    return str(ei.value), ei.value.value, ei.value.err_estimate


class TestIntegrateRows:
    """Rows on shared nodes against integrate_1d of each row alone."""

    # alone on (0, 2) these converge at levels 3, 4, 4 and 5
    SMOOTH = (lambda x: x ** -0.3 * np.exp(x), lambda x: np.sin(3.0 * x), lambda x: x ** 6,
              lambda x: np.exp(-x) * np.cos(20.0 * x))

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
            return np.array([row(x) for row in rows])
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

    @pytest.mark.parametrize("breaks", [(), (0.5,)])
    def test_no_rows_give_no_results(self, breaks):
        # no rows at all once failed inside numpy ("need at least one array
        # to concatenate")
        assert integrate_rows(lambda x: np.empty((0, x.size)), 0.0, 1.0, breaks=breaks) == ()

    def test_the_integrands_array_is_not_written(self):
        # integrate_rows weights the rows into a new array: a read-only one
        # would raise at any write
        def f(x):
            rows = np.array([row(x) for row in self.SMOOTH])
            rows.setflags(write=False)
            return rows
        assert integrate_rows(f, 0.0, 2.0) == integrate_rows(
            lambda x: tuple(row(x) for row in self.SMOOTH), 0.0, 2.0)

    def test_stops_once_the_first_row_fails(self):
        seen = []
        with pytest.raises(NotConvergedError):
            integrate_rows(self._stacked([self.overflow, self.step], seen), 0.0, 1.0)
        first = min(lv for lv in range(11) if np.any(_full_rule(lv)[1] < 1e-300))
        last = max(first, quadrature._FIRST_CALL_LEVELS)
        assert sum(seen) == _distinct_nodes((0.0, 1.0), range(last + 1)).size


class TestPanels:
    """Break points split the interval into panels, each with its own rule."""

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (1.0, 2.0)])
    def test_cached_panel_nodes_are_read_only_and_match_the_map(self, lo, hi):
        for level in range(12):
            t, d, _ = quadrature._ts_level(level)
            x = quadrature._panel_nodes(lo, hi, level)
            assert not x.flags.writeable and quadrature._panel_nodes(lo, hi, level) is x
            assert x.tobytes() == np.where(t <= 0.0, lo + (hi - lo) * d,
                                           hi - (hi - lo) * d).tobytes()

    def test_nodes_round_onto_every_panel_end_but_0(self):
        # a node within about half an ulp of a panel end is that end
        ends = collections.Counter()
        for lo, hi in [(0.0, 1.0), (1.0, 2.0)]:
            for level in range(8):
                x = quadrature._panel_nodes(lo, hi, level)
                ends.update(x[(x == 0.0) | (x == 1.0) | (x == 2.0)].tolist())
                ends["nodes"] += x.size
        # 1,152 of the 3,154 nodes of levels 0 to 7; none is 0
        assert ends == {1.0: 767, 2.0: 385, "nodes": 3154}

    def test_a_singularity_is_integrable_at_an_end_at_0_only(self):
        assert abs(integrate_1d(lambda x: x ** -0.5, 0.0, 1.0).value - 2.0) <= 2.3e-16
        with np.errstate(divide="ignore"):
            for f, a, b in [(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0),
                            (lambda x: (x - 1.0) ** -0.5, 1.0, 2.0)]:
                with pytest.raises(NotConvergedError, match=r"last sum inf\)"):
                    integrate_1d(f, a, b)

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
        # the (0, 1) panel of eta', where eta' is 0, converges levels before
        # the (1, 2) panel, where eta' cos(20 x) takes level 5; the first call
        # holds levels 0 to 4 of both panels, and each later level is one call
        # on the live panels' nodes
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return cutoff_eta_prime(x) * np.cos(20.0 * x)

        integrate_1d(counted, 0.0, 2.0, breaks=(1.0,))
        edges = (0.0, 1.0, 2.0)
        assert sizes[0] == _distinct_nodes(edges, range(5)).size and len(sizes) > 1
        for level, size in enumerate(sizes[1:], start=5):
            assert size in {_distinct_nodes(edges, [level], ks).size for ks in ([0], [1], [0, 1])}
        assert sizes[-1] == _distinct_nodes(edges, [3 + len(sizes)], [1]).size

    def test_no_call_passes_a_repeated_node(self):
        # every node of the call's levels and live panels, each once: nodes
        # that round onto the panel ends 1.0 and 2.0 are passed once per call
        calls = []

        def recorded(x):
            calls.append(x.copy())
            return cutoff_eta_prime(x) * np.cos(20.0 * x)

        integrate_1d(recorded, 0.0, 2.0, breaks=(1.0,))
        edges = (0.0, 1.0, 2.0)
        assert np.array_equal(np.sort(calls[0]), _distinct_nodes(edges, range(5)))
        for level, x in enumerate(calls[1:], start=5):
            assert any(np.array_equal(np.sort(x), _distinct_nodes(edges, [level], ks))
                       for ks in ([0], [1], [0, 1]))
        assert len(calls) > 1 and all(np.unique(x).size == x.size for x in calls)

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

    @pytest.mark.parametrize("right,tiny", [
        (lambda x: np.abs(x) ** -0.9, 1e-300),       # decided at level 3
        (lambda x: np.where(x < 0.3, 1.0, 0.0), 1e-320),   # decided at level 5
    ], ids=["level3", "level5"])
    def test_a_failed_row_stops_refining(self, right, tiny):
        # the (0, 1) panel overflows at the first level with a node within
        # tiny of 0; the (-1, 0) panel, a step, would never converge, but its
        # row is decided there: levels 0 to 4 share the first call, and no
        # level past the deciding one is evaluated
        sizes = []

        def f(x):
            sizes.append(x.size)
            overflow = (x > 0.0) & (x < tiny)
            return (np.where(x < -0.7, 1.0, 0.0) + np.where(x > 0.0, right(x), 0.0)
                    + np.where(overflow, np.inf, 0.0))

        with pytest.raises(NotConvergedError) as ei:
            integrate_1d(f, -1.0, 1.0, breaks=(0.0,))
        first = min(lv for lv in range(11) if np.any(_full_rule(lv)[1] < tiny))
        edges = (-1.0, 0.0, 1.0)
        assert sizes == [_distinct_nodes(edges, range(5)).size] + [
            _distinct_nodes(edges, [lv]).size for lv in range(5, max(first, 4) + 1)]
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

    @pytest.mark.parametrize("breaks,full", [((), 150), ((1.0,), 252)])
    def test_evaluates_each_node_pair_once(self, breaks, full):
        # per order reached: every distinct radial node of each panel up to
        # the level that panel reached, against the m/2 positive angular
        # nodes, each pair once.  Levels 0 to 4 of each panel; every node,
        # with those that round onto 2.0 (and 1.0) repeated, took 197 and 394
        def f(r, t):
            return r ** 0.5 * np.exp(-r) / (1.02 - t * t)
        edges = (0.0, *breaks, 2.0)
        rule = collections.Counter()    # every node of each panel's rule, levels 0 to 10
        for lv in range(11):
            t, d, _ = quadrature._ts_level(lv)
            for lo, hi in zip(edges, edges[1:]):
                rule.update(np.where(t <= 0.0, lo + (hi - lo) * d, hi - (hi - lo) * d).tolist())
        panel_sizes = {np.unique(np.concatenate([_distinct_nodes(edges, range(top + 1), [k])
                                                 for k, top in enumerate(reached)])).size
                       for reached in itertools.product(range(11), repeat=len(breaks) + 1)}
        assert full in panel_sizes
        counted, seen = self._counting(f)
        recorded, radial = self._radial_nodes(counted)
        res = integrate_2d(recorded, -0.5, breaks=breaks)
        reached = [m for m in self.ORDERS if m // 2 in seen]
        assert sorted(seen) == [m // 2 for m in reached]
        assert reached == list(self.ORDERS[:len(reached)]) and len(reached) >= 3
        for m in reached:
            assert seen[m // 2] == (m // 2) * full
            assert len(radial[m // 2]) == len(set(radial[m // 2])) == full
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
    SUM_RATIOS = (0.0, 1e-300) + RATIOS

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
        got = quadrature._bracket_angular(3.0 * A, 3.0 * C, pw, [b])[0]
        for a, c, value in zip(3.0 * A[0], 3.0 * C[0], got):
            ref = _angular_reference(a, c, pw, b)
            assert value == pytest.approx(ref, rel=1e-11, abs=0.0), (a, c)

    @pytest.mark.parametrize("pw,branch,components,log", [
        (1.6, 0, 2, True), (3.0, 1, 2, True),             # m = 1 and m = 2 exactly
        (1.6 + 1e-9, 0, 4, True), (3.0 + 1e-8, 1, 4, True),  # log case and 15.3.6 mixed
        (3.0, 0, 2, False), (4.0, 1, 1, False)])          # 15.3.6; 1/Gamma(-p/2) = 0
    def test_region_below_one_half_takes_its_case(self, pw, branch, components, log):
        # the x < 1/2 region of a branch at b = 0.2, as the cases above name it
        _, _, scale, _, logs = quadrature._series_tables(pw, 0.2)
        region = slice(4 * (2 * branch + 1), 4 * (2 * branch + 2))
        assert np.count_nonzero(scale[region]) == components and logs[region].any() == log

    @pytest.mark.parametrize("pw", [1.5, 2.0, 3.0, 4.0])
    def test_rows_do_not_depend_on_each_other(self, pw):
        rng = np.random.default_rng(3)
        A, C = rng.uniform(0.0, 2.0, (2, 5, 50)) ** 3
        bs = [0.1, 0.3, 0.2, 0.3, 0.05]                   # b = 0.3 twice
        block = quadrature._bracket_angular(A, C, pw, bs)
        for i in range(5):
            alone = quadrature._bracket_angular(A[i:i + 1], C[i:i + 1], pw, bs[i:i + 1])
            assert block[i].tobytes() == alone[0].tobytes()

    def test_zero_and_non_finite_columns(self):
        A = np.array([[0.0, 0.0, math.nan, math.inf, 1.0, math.inf]])
        C = np.array([[0.0, 1.0, 1.0, 1.0, math.inf, math.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quadrature._bracket_angular(A, C, 3.0, [0.1])[0]
        assert got[0] == 0.0 and not np.isfinite(got[2:]).any()
        # A = 0: int (1 - t^2)^(p/2 + b - 1) dt = B(1/2, b + p/2)
        assert got[1] == pytest.approx(beta(0.5, 0.1 + 1.5), rel=1e-13)

    @pytest.mark.parametrize("pw,b", [
        (1.0, 0.2), (1.5, 0.1), (1.6, 0.2), (1.6 + 1e-9, 0.2), (3.0, 0.05),
        (3.0 + 1e-8, 0.2), (9.0, 0.3), (20.0, 0.2), (30.0, 6.75), (31.0, 0.4), (100.0, 0.1)])
    def test_tables_match_the_series(self, pw, b):
        # both branches on a dense grid of x, every panel edge and its
        # neighbours, x0 +- 1 ulp, x = 1 and x = 0; then non-finite columns
        x = _table_grid()
        A = np.concatenate([x, np.ones_like(x), [math.nan, 1.0, math.inf]])[None]
        C = np.concatenate([np.ones_like(x), x, [1.0, math.nan, math.inf]])[None]
        got = quadrature._bracket_angular(A, C, pw, [b])[0]
        ref = _series_reference(A[0, :-3], C[0, :-3], pw, b)
        np.testing.assert_allclose(got[:-3], ref, rtol=1e-13, atol=0.0)
        assert not np.isfinite(got[-3:]).any()

    @pytest.mark.parametrize("pw", [401.0, 1001.0, 2002.0, 1e8])
    def test_series_past_its_terms_is_nan(self, pw):
        # at p = 1000 a series that never met its stop rule returned its
        # partial sum, 1.5626 where tanh-sinh over phi gives 5.6014, and at
        # p = 2000 inf; at p = 401 a factorial overflowed (OverflowError).
        # An even p past _EVEN_P_MAX is refused without forming its sum
        got = quadrature._bracket_angular(np.array([[1.0]]), np.array([[0.6]]), pw, [0.1])
        assert np.isnan(got).all()

    @pytest.mark.parametrize("pw", [1000.0, 2000.0])
    def test_even_p_past_the_series_terms_is_summed(self, pw):
        # the tables refused these keys (NaN); the even-p sum reads 5.6014 at
        # p = 1000, as tanh-sinh over phi does
        mpmath = pytest.importorskip("mpmath")
        got = quadrature._bracket_angular(np.array([[1.0]]), np.array([[0.6]]), pw, [0.1])
        with mpmath.workdps(40):
            ref = mpmath.beta(0.5, 0.1) * mpmath.hyp2f1(-pw / 2.0, 0.1, 0.6, 1 - mpmath.mpf(0.6))
        assert abs(got[0, 0] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("pw,b,resolved", [
        (2.5, 50.0, False), (3.0, 50.0, False),           # b far above p
        (2.5, 20.0, False), (3.0, 20.0, False), (2.5, 30.0, False), (3.0, 30.0, False),
        (2.5, 40.0, False), (3.0, 40.0, False),
        (1001.0, 0.1, False),                             # p past about 280
        (1000.0, 0.1, True), (2000.0, 0.1, True),         # even p: a sum, no table
        (2002.0, 0.1, False),                             # even p past the sum's range
        (3.0, 5.0, True), (2.5, 10.0, True), (3.0, 15.0, True), (250.0, 0.1, True)])
    def test_unresolved_tables_give_nan_not_wrong_values(self, pw, b, resolved):
        # with the last Chebyshev coefficients at 1e-3 (2.5, 50), 3e-6 (3, 50),
        # 2e-8 (1000, 0.1) and 2e-5 (2000, 0.1) of their sums, the kernel
        # read up to 1.2e-2, 3.1e-5, 1.5e-9 and 8.5e-6 off, below 1/16 too;
        # it now sums p = 1000 and 2000, which read as mpmath does.
        # At (2.5, 20) and (3, 20) the tails pass, but the connection formula
        # loses digits: the kernel read 3.6e-11 and 1.7e-12 off at x = 1/2,
        # where the two series it samples differ by 6.8e-11 and 3.3e-12
        mpmath = pytest.importorskip("mpmath")
        x = np.array([0.0, 1e-9, 1e-3, 0.03, np.nextafter(quadrature._X0, 0.0),
                      quadrature._X0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
        A = np.concatenate([x, np.ones_like(x)])[None]
        C = np.concatenate([np.ones_like(x), x])[None]
        got = quadrature._bracket_angular(A, C, pw, [b])[0]
        assert np.isfinite(got).all() if resolved else np.isnan(got).all()
        with mpmath.workdps(40):
            for a, c, value in zip(A[0], C[0], got):
                if np.isnan(value):
                    continue
                ref = mpmath.beta(0.5, b) * mpmath.hyp2f1(
                    -pw / 2.0, 0.5 if c >= a else b, b + 0.5, 1 - mpmath.mpf(min(a, c)))
                assert abs(value - ref) <= 1e-12 * abs(ref), (a, c)

    @pytest.mark.parametrize("pw", [1.0, 1.5, 1.6, 1.6 + 1e-9, 3.0, 3.0 + 1e-8, 9.0, 20.0, 30.0,
                                    31.0, 99.0, 100.0])
    @pytest.mark.parametrize("b", [1e-6, 1e-4, 0.05, 0.4])
    def test_matches_40_digit_mpmath_at_every_panel_edge(self, pw, b):
        # both branches at x = 0, 2^-1074 and 1 ulp either side of every
        # panel edge, 2^-110 and 1/16 among them; within 6e-14 relative for
        # p up to 31 and at every even p (a sum, no table), 2.5e-13 at p = 99
        # and 3e-11 where a table's m lies within 1e-4 of an integer.  Both
        # neighbours of an edge are held to the value at the edge: F grows
        # with x, and x F'/F <= p/2, so 1 ulp of x moves F by at most p/2
        # ulp.  Before a + m was passed exactly, m = b + p/2 rounded it:
        # 2.9e-11 off at (1, 1e-6) and 2.5e-9 at (100, 1e-6).  The tables
        # refused (20, 1e-6), (30, 1e-6) and (20, 1e-4), NaN everywhere, where
        # m = b + p/2 lies within 1e-4 of an integer: at (20, 1e-4) their two
        # series differed by 2.1e-12 at x = 1/2.  The references, B(1/2, b)
        # F(-p/2, bb; b + 1/2; 1 - x) at 40 digits, come from the committed
        # table of tools/bracket_reference.py (_edge_references)
        mpmath = pytest.importorskip("mpmath")
        edges = _panel_edges()
        x = np.concatenate([[0.0, 2.0 ** -1074], np.nextafter(edges, 0.0),
                            np.nextafter(edges[:-1], 2.0)])
        at = np.concatenate([x[:2], edges, edges[:-1]])
        A = np.concatenate([x, np.ones_like(x)])[None]
        C = np.concatenate([np.ones_like(x), x])[None]
        got = quadrature._bracket_angular(A, C, pw, [b])[0].reshape(2, -1)
        even = pw % 2.0 == 0.0
        points, table = _edge_references()
        assert points == [0.0, 2.0 ** -1074, *edges.tolist()]
        with mpmath.workdps(40):
            for branch, m in enumerate([b + pw / 2.0, (pw + 1.0) / 2.0]):
                near = not even and 0.0 < abs(m - round(m)) < 1e-4
                bound = (3e-11 if near else 6e-14 if pw <= 31.0 or even else 2.5e-13
                         ) + pw * 2.0 ** -53
                refs = {v: mpmath.mpf(ref) for v, ref in zip(points, table[f"{pw!r} {b!r} {branch}"])}
                for xi, v, value in zip(x, at, got[branch]):
                    assert abs(value - refs[v]) <= bound * abs(refs[v]), (branch, xi)

    def test_edge_references_match_mpmath(self):
        # seeded entries of the committed table, recomputed with mpmath by
        # the script that writes it, to the last of their 40 digits
        pytest.importorskip("mpmath")
        tool = _load_tool("bracket_reference")
        points, table = _edge_references()
        assert points == tool.points()
        assert sorted(table) == sorted(tool.key(pw, b, branch) for pw in tool.PS
                                       for b in tool.BS for branch in (0, 1))
        rng = np.random.default_rng(36)
        for _ in range(8):
            key = sorted(table)[rng.integers(len(table))]
            i = int(rng.integers(len(points)))
            pw, b, branch = key.split()
            assert tool.reference(float(pw), float(b), int(branch), points[i]) == table[key][i]

    def test_import_builds_no_table(self):
        src = str(Path(quadrature.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import anisohardy; from anisohardy import quadrature as q; "
             "print(*(f.cache_info().currsize for f in "
             "(q._chebyshev_table, q._bracket_tables, q._even_coefficients)))"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0 and proc.stdout.split() == ["0", "0", "0"]

    def test_new_combination_of_built_keys_builds_nothing(self):
        rng = np.random.default_rng(5)
        A, C = rng.uniform(0.0, 2.0, (2, 3, 60)) ** 3
        bs = [0.15, 0.25, 0.07]          # keys no other test builds
        alone = [quadrature._bracket_angular(A[i:i + 1], C[i:i + 1], 3.0, bs[i:i + 1])
                 for i in range(3)]
        built = quadrature._chebyshev_table.cache_info().misses
        block = quadrature._bracket_angular(A[::-1], C[::-1], 3.0, bs[::-1])
        assert quadrature._chebyshev_table.cache_info().misses == built
        for i in range(3):
            assert block[2 - i].tobytes() == alone[i][0].tobytes()

    @pytest.mark.parametrize("pw", [4.0, 6.0, 8.0, 20.0, 30.0, 100.0])
    @pytest.mark.parametrize("b", [1e-6, 1e-4, 0.05, 0.4])
    def test_even_p_sum_matches_40_digit_mpmath(self, pw, b):
        # both branches, min(A, C)/max(A, C) from 0 to 1; the same sum of
        # Beta terms in 40-digit mpmath, within 6e-14 relative
        mpmath = pytest.importorskip("mpmath")
        A = 3.0 * np.array([list(self.SUM_RATIOS) + [1.0] * len(self.SUM_RATIOS)])
        C = 3.0 * np.array([[1.0] * len(self.SUM_RATIOS) + list(self.SUM_RATIOS)])
        got = quadrature._bracket_angular(A, C, pw, [b])[0]
        m = int(pw) // 2
        with mpmath.workdps(40):
            half, bm = mpmath.mpf(1) / 2, mpmath.mpf(b)
            terms = [mpmath.binomial(m, j) * mpmath.beta(j + half, m - j + bm)
                     for j in range(m + 1)]
            for a, c, value in zip(A[0], C[0], got):
                ref = mpmath.fsum(t * mpmath.mpf(a) ** j * mpmath.mpf(c) ** (m - j)
                                  for j, t in enumerate(terms))
                assert abs(value - ref) <= 6e-14 * ref, (a, c)

    def test_p2_sum_is_the_linear_form_to_the_bit(self):
        rng = np.random.default_rng(11)
        A, C = rng.uniform(0.0, 2.0, (2, 4, 300)) ** 3
        bs = [0.2, 1e-6, 0.35, 0.0125]
        got = quadrature._bracket_angular(A, C, 2.0, bs)
        for i, b in enumerate(bs):
            linear = A[i] * beta(1.5, b) + C[i] * beta(0.5, b + 1.0)
            assert got[i].tobytes() == linear.tobytes()

    @pytest.mark.parametrize("pw", [2.0, 4.0, 8.0])
    def test_even_p_builds_no_table(self, pw):
        built = quadrature._chebyshev_table.cache_info().misses
        assert quadrature._angular_resolved(pw, 0.0123)
        quadrature._bracket_angular(np.ones((1, 3)), np.ones((1, 3)), pw, [0.0123])
        assert quadrature._chebyshev_table.cache_info().misses == built


def _load_tool(name):
    """The module of tools/<name>.py."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=1)
def _edge_references():
    """(points, table) of the committed 40-digit references that
    tools/bracket_reference.py writes: the points x in increasing order, and
    per key "p b branch" one decimal string per point."""
    path = Path(__file__).resolve().parent / "data" / "bracket_edges_40_digits.json"
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [float.fromhex(x) for x in data["x"]], data["refs"]


def _panel_edges():
    """Every panel edge of _bracket_angular's tables: from 2^_FLOOR_EXP to
    1/16 in steps of 1/_PER_OCTAVE in log2 x, then the equal panels of
    [1/16, 1]."""
    q = quadrature
    logs = 2.0 ** (q._FLOOR_EXP + np.arange(q._LOG_PANELS + 1) / q._PER_OCTAVE)
    return np.concatenate([logs, q._X0 + (1.0 - q._X0) / q._PANELS * np.arange(1, q._PANELS + 1)])


def _table_grid():
    """x in [0, 1] where _bracket_angular changes path or panel, subnormal x
    and dense grids in x on [1/16, 1] and in log2 x below."""
    edges = _panel_edges()
    x = np.concatenate([np.linspace(quadrature._X0, 1.0, 4001),
                        2.0 ** np.linspace(quadrature._FLOOR_EXP - 20, -4.0, 2001),
                        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
                        [0.0, 2.0 ** -1074, 1e-300, 1e-3, 0.03]])
    return np.unique(x[x <= 1.0])


def _series_reference(A, C, pw, b):
    """_bracket_angular's value with F from its series at every x."""
    top = np.maximum(A, C)
    x = np.minimum(A, C) / top
    with np.errstate(divide="ignore"):
        F = quadrature._series_F(quadrature._series_tables(pw, b),
                                 2 * (A > C) + (x < 0.5), x)
    return F * beta(0.5, b) * top ** (pw / 2.0)
