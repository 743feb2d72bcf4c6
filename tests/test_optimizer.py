import math

import numpy as np
import pytest

from anisohardy import (HardyParams, OptimizerBranch, admissible_hardy, compute_K,
                        maximize, sharp_constant_general_k_p2, sharp_constant_p2)
from anisohardy import optimizer
from anisohardy.errors import InadmissibleParamsError, OptimizerStalledError
from anisohardy.report import sample_admissible

BEST_02 = (2.0 * math.sqrt(3.0) - 3.0) / 4.0


class TestMaximize:
    def test_k3_instance(self):
        rep = maximize(HardyParams(3, 2.0, -0.5, -0.5))
        assert rep.value == pytest.approx(BEST_02, abs=1e-6)
        assert rep.active_constraint
        assert rep.branch_guess is OptimizerBranch.CONSTRAINT_LEFT
        assert rep.argmax.theta == pytest.approx(-(2 - math.sqrt(3)) / 2, abs=1e-5)
        assert rep.argmax.lam == pytest.approx(0.5 - math.sqrt(3) / 2, abs=1e-5)

    def test_beta_zero_vertex(self):
        rep = maximize(HardyParams(3, 2.0, 0.0, 0.0))
        assert rep.value == pytest.approx(1.0, abs=1e-6)
        assert rep.argmax.theta == pytest.approx(-1.0, abs=1e-6)
        assert rep.branch_guess is OptimizerBranch.VERTEX

    def test_small_k_in_unit_interval(self):
        rep = maximize(HardyParams(3, 2.0, 0.0, -0.05))
        assert rep.value == pytest.approx(1.0, abs=1e-6)
        assert rep.argmax.theta == pytest.approx(-1.0, abs=1e-5)
        assert rep.active_constraint

    def test_rejects_inadmissible_and_p(self):
        with pytest.raises(InadmissibleParamsError):
            maximize(HardyParams(2, 2.0, -0.5, 0.0))
        with pytest.raises(ValueError):
            maximize(HardyParams(3, 3.0, 0.0, 0.0))

    def test_diagnostics_are_consistent(self):
        rep = maximize(HardyParams(4, 2.0, 0.2, -0.6))
        d = rep.diagnostics
        assert d.refined_value == rep.value
        assert d.grid_value <= d.refined_value + 1e-4
        assert abs(d.constraint_residual) <= 1e-8

    def test_oracle_matches_closed_form_sample(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 6))
            a, b = rng.uniform(-2, 2, size=2)
            params = HardyParams(n, 2.0, float(a), float(b))
            if not admissible_hardy(params):
                continue
            checked += 1
            closed = sharp_constant_p2(params).value
            assert abs(maximize(params).value - closed) <= 1e-6 * (1 + closed)

    def test_general_k_sample(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 20:
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, n - 1))
            a, b = rng.uniform(-2, 2, size=2)
            params = HardyParams(n, 2.0, float(a), float(b), k)
            if not admissible_hardy(params):
                continue
            checked += 1
            conj = sharp_constant_general_k_p2(params).value
            assert abs(maximize(params).value - conj) <= 1e-6

    def test_active_constraint_whenever_beta_nonzero(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 5))
            a = float(rng.uniform(-1, 1))
            b = float(rng.uniform(-1, 1))
            if abs(b) < 1e-3:
                continue
            params = HardyParams(n, 2.0, a, b)
            if not admissible_hardy(params):
                continue
            checked += 1
            assert maximize(params).active_constraint

    @pytest.mark.parametrize("beta_", [1e4, 3e5])
    def test_vertex_at_large_beta_lies_on_the_constraint(self, beta_):
        # bq > 0 here: the vertex root -bq/2 + sqrt(disc)/2 cancelled and left
        # constraint residuals of -1.6e-8 and -1.9e-6
        rep = maximize(HardyParams(3, 2.0, 0.0, beta_))
        assert rep.branch_guess is OptimizerBranch.VERTEX
        assert rep.value == 1.0 and rep.argmax.theta == -1.0
        assert rep.diagnostics.constraint_residual == 0.0
        assert rep.active_constraint

    @pytest.mark.parametrize("n,k,alpha,beta_", [(3, 1, 40.0, 5e6), (3, 1, 25.0, 2.5e6),
                                                 (2, 1, 30.0, 8e6)])
    def test_constraint_is_active_when_its_terms_are_large(self, n, k, alpha, beta_):
        # residuals of 1.5e-8 to 6.0e-8, about 1e-16 of H2's terms, read as
        # an inactive constraint against an absolute threshold of 1e-8
        rep = maximize(HardyParams(n, 2.0, alpha, beta_, k))
        theta, lam = rep.argmax.theta, rep.argmax.lam
        terms = (abs(lam) * (abs(lam) + abs(n + 2.0 * alpha + 2.0 * beta_ + 2.0 * theta))
                 + abs(2.0 * beta_ * theta))
        assert 1e-8 < abs(rep.diagnostics.constraint_residual) <= 1e-15 * terms
        assert rep.active_constraint and rep.branch_guess is OptimizerBranch.VERTEX

    def test_value_nonincreasing_as_beta_decreases(self):
        values = [maximize(HardyParams(3, 2.0, 0.0, b)).value
                  for b in np.linspace(0.0, -1.4, 15)]
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))


def _box(n, a, b):
    return 2.0 * (n + 2.0 * abs(a) + 2.0 * abs(b)) + 4.0


def _dense_grid_max(n, k, a, b, B, rows=64):
    """Every point of the 801 x 801 phase-one grid, the reference for
    _grid_max: H2 at each point, then the largest H1 where H2 is feasible.
    On a theta row H1 = q(theta) - H2 and rounded subtraction is monotone,
    so that largest H1 is q less the row's least feasible H2.  The theta
    terms are formed once per draw; blocks of rows of H2 are evaluated in
    place into buffers that stay in cache, and each operation rounds as the
    grid's own expressions do."""
    axis = np.linspace(-B, B, 801)
    la, th = axis[None, :], axis[:, None]
    c, bth = n + 2.0 * a + 2.0 * b + 2.0 * th, 2.0 * b * th
    h2g, feasible = np.empty((rows, 801)), np.empty((rows, 801), dtype=bool)
    least = np.empty(801)
    for start in range(0, 801, rows):
        m = slice(start, start + rows)
        h2, ok = h2g[:len(c[m])], feasible[:len(c[m])]
        np.add(c[m], la, out=h2)
        np.multiply(la, h2, out=h2)                 # la * (... + la)
        np.add(h2, bth[m], out=h2)                  # + 2 b th
        np.greater_equal(h2, optimizer._GRID_SLACK, out=ok)
        np.min(h2, axis=1, where=ok, initial=np.inf, out=least[m])
    return float(np.max(-axis * (k + 2.0 * a + axis) - least))


class TestGridMax:
    def test_matches_dense_grid_on_seeded_draws(self):
        rng = np.random.default_rng(2024)
        for i in range(2000):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            a, b = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
            if i % 5 == 0:
                b = 0.0
            if i % 7 == 0:
                a = -k / 2.0
            B = _box(n, a, b)
            assert optimizer._grid_max(n, k, a, b, B) == _dense_grid_max(n, k, a, b, B), \
                (n, k, a, b)

    def test_matches_dense_grid_on_criterion_3(self):
        rng = np.random.default_rng(101)  # the draws of report.run_criterion_3
        for _ in range(200):
            prm = sample_admissible(rng)
            args = (prm.n, prm.k, prm.alpha, prm.beta, _box(prm.n, prm.alpha, prm.beta))
            assert optimizer._grid_max(*args) == _dense_grid_max(*args), prm

    @pytest.mark.parametrize("params", [
        HardyParams(3, 2.0, -0.5, -0.5),
        HardyParams(5, 2.0, 0.3, -1.0),
        HardyParams(5, 2.0, 0.4, -0.9, 2),
    ])
    def test_stall_check_keeps_its_threshold(self, params, monkeypatch):
        grid = maximize(params).diagnostics.grid_value
        golden = optimizer._golden_max
        for shortfall, stalls in ((1e-3, True), (0.5 * optimizer._STALL_TOL, False)):
            def short(fn, lo, hi, tol=1e-10):
                lam, val = golden(fn, lo, hi, tol)
                return lam, min(val, grid - shortfall)

            monkeypatch.setattr(optimizer, "_golden_max", short)
            if stalls:
                with pytest.raises(OptimizerStalledError):
                    maximize(params)
            else:
                assert maximize(params).value == grid - shortfall


class TestRegimeGrid:
    """maximize over an 11 x 11 (alpha, beta) grid at n = 3 that crosses every
    K regime and whose corners are inadmissible."""

    GRID = [HardyParams(3, 2.0, float(a), float(b))
            for a in np.linspace(-0.9, 0.9, 11) for b in np.linspace(-1.4, 1.4, 11)]

    def test_value_and_branch_follow_the_regime(self):
        admissible = [params for params in self.GRID if admissible_hardy(params)]
        assert 0 < len(admissible) < 121
        for params in admissible:
            rep = maximize(params)
            assert abs(rep.value - sharp_constant_general_k_p2(params).value) <= 1e-6
            expected = (OptimizerBranch.CONSTRAINT_LEFT if compute_K(params).k_value > 1.0
                        else OptimizerBranch.VERTEX)
            assert rep.branch_guess is expected

    def test_inadmissible_points_are_refused(self):
        for params in self.GRID:
            if not admissible_hardy(params):
                with pytest.raises(InadmissibleParamsError):
                    maximize(params)
