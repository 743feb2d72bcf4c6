import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from anisohardy import (BumpFunction, CknParams, ExponentPair, HardyParams,
                        QuadratureSpec, WeightSpec, admissible_ckn, branch_candidates,
                        ckn_extremal_check, cutoff_eta, cutoff_eta_prime,
                        gauss_jacobi, hardy_spot_test, integrate_1d, r_functional,
                        sharp_constant_general_p, sharp_constant_p2,
                        verify_CKNp, verify_E2, verify_Ep)
from anisohardy.errors import EmptyInputError, NegativeRemainderError, SupportViolationError
from anisohardy.identities import (IdentityReport, _ball_nodes, _ckn_divergence_spot_check,
                                   _dot, _log_f_gradient, _r_rows, _sphere_rule)
from anisohardy import cli, identities, report
from anisohardy.report import (EP_P_CYCLE, run_criterion_8, sample_ckn_config,
                               sample_e2_config, sample_ep_config)
from anisohardy.weights import axis_norms, weight_general_p, weight_p2


class TestRFunctional:
    def test_vanishes_at_opposite_arguments(self):
        assert r_functional([1.0, 2.0], [-1.0, -2.0], 2.0) <= 1e-12

    def test_p2_square(self):
        assert r_functional([1.0, 0.0], [1.0, 0.0], 2.0) == pytest.approx(4.0)

    def test_p3_orthogonal(self):
        assert r_functional([1.0, 0.0], [0.0, 1.0], 3.0) == pytest.approx(3.0)

    def test_requires_p_above_1(self):
        with pytest.raises(ValueError):
            r_functional([1.0], [1.0], 1.0)

    def test_nonnegative_fuzz(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(10_000, 3))
        y = rng.normal(size=(10_000, 3))
        for p in (1.5, 2.0, 3.0, 5.0):
            vals = _r_rows(x.T, y.T, p)
            assert np.min(vals) >= 0.0

    def test_zero_y_limit(self):
        assert r_functional([2.0, 0.0], [0.0, 0.0], 1.5) == pytest.approx(2.0 ** 1.5)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
    def test_supplied_grad_power_keeps_the_bits(self, p):
        rng = np.random.default_rng(int(p * 10))
        x, y = rng.normal(size=(2, 3, 4096))
        y[:, :8] = 0.0                              # the Y = 0 limit too
        nx_p = np.sqrt(_dot(x, x)) ** p
        assert _r_rows(x, y, p, _nx_p=nx_p).tobytes() == _r_rows(x, y, p).tobytes()

    def test_negative_beyond_rounding_raises(self):
        # p < 1 makes (p-1)|Y|^p negative: R = -0.5, far below the floor
        with pytest.raises(NegativeRemainderError):
            _r_rows(np.zeros((2, 1)), np.array([[1.0], [0.0]]), 0.5)


def sphere_area(n):
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


class TestBallRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sphere_moments(self, n):
        dirs, w = _sphere_rule(n, 16)
        assert np.sum(w) == pytest.approx(sphere_area(n), rel=1e-14)
        # int omega_i^2 = area / n for every coordinate
        moments = [np.sum(w * dirs[i] ** 2) for i in range(n)]
        assert moments == pytest.approx([sphere_area(n) / n] * n, rel=1e-14)
        assert np.linalg.norm(dirs, axis=0) == pytest.approx(np.ones(len(w)), abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ball_weights_sum_to_volume(self, n):
        u = BumpFunction(center=(1.0,) * (n - 1) + (-0.5,), width=0.1)
        x, w = _ball_nodes(u, 12)
        assert x.shape == (n, w.size) and x.flags.c_contiguous
        assert np.sum(w) == pytest.approx(sphere_area(n) / n * 0.2 ** n, rel=1e-13)
        assert np.max(np.linalg.norm(x.T - np.asarray(u.center), axis=-1)) < 0.2

    def test_n4_checks_pass_their_gates(self):
        u = BumpFunction(center=(1.0, -0.9, 0.7, 0.5), width=0.1,
                         polynomial_degree=1, coefficients=(1.0, 0.4))
        e2 = verify_E2(WeightSpec(HardyParams(4, 2.0, -0.25, 0.25),
                                  exponents=ExponentPair(0.4, -0.3)), u)
        ep = verify_Ep(WeightSpec(HardyParams(4, 1.5, 0.0, 0.2), gamma=-0.5), u)
        assert e2.residual_rel <= 1e-6 and e2.err_estimate <= 1e-6
        assert ep.residual_rel <= 1e-5 and ep.err_estimate <= 1e-5
        for rep in (e2, ep):
            assert rep.nodes == (2 * rep.order) ** 2 * rep.order ** 2

    @pytest.mark.parametrize("index", range(4))
    def test_err_estimate_bounds_lhs_error(self, index):
        p = (1.5, 2.0, 3.0, 4.0)[index]
        spec, u = sample_ep_config(304, index, p)
        rep = verify_Ep(spec, u)
        x, wts = _ball_nodes(u, 48)
        ref = np.sum(wts * spec.V(x.T) * np.linalg.norm(u.gradient(x.T), axis=-1) ** p)
        denom = abs(rep.lhs) + sum(abs(v) for v in rep.rhs_terms.values())
        assert abs(rep.lhs - ref) / denom <= rep.err_estimate + 1e-14


def _traced(monkeypatch, check, *args):
    """check(*args), and the (orders, terms) of every pass it made over rule
    orders, in order."""
    seen = []
    at_orders = identities._at_orders

    def traced(u, terms, orders):
        seen.append((orders, terms))
        return at_orders(u, terms, orders)

    monkeypatch.setattr(identities, "_at_orders", traced)
    report = check(*args)
    monkeypatch.undo()
    return report, seen


def _at(u, terms, m):
    """(lhs, rhs_terms, nodes) of a check's terms at rule order m alone."""
    return identities._at_orders(u, terms, (m,))[0]


def _term_change(report, found):
    """Largest change of report's lhs or a term from found = (lhs, rhs_terms,
    nodes), over the size of report's terms."""
    lhs, rhs, _ = found
    denom = abs(report.lhs) + sum(abs(v) for v in report.rhs_terms.values())
    return max([abs(report.lhs - lhs)]
               + [abs(v - rhs[k]) for k, v in report.rhs_terms.items()]) / denom


class TestOrderLadder:
    def test_e2_check_stops_at_12(self, monkeypatch):
        spec = WeightSpec(HardyParams(2, 2.0, -0.25, 0.25), exponents=ExponentPair(0.4, -0.3))
        u = _bumps(2)[0]
        rep, seen = _traced(monkeypatch, verify_E2, spec, u)
        assert [orders for orders, _ in seen] == [(8, 12)]
        terms = seen[0][1]
        lhs, rhs, _ = _at(u, terms, 12)
        assert (rep.order, rep.nodes, rep.lhs, rep.rhs_terms) == (12, 24 * 24, lhs, rhs)
        change = _term_change(rep, _at(u, terms, 8))
        assert rep.err_estimate == pytest.approx(change, rel=1e-12)
        assert rep.err_estimate <= identities._ERR_TARGET

    def test_ep_check_escalates_to_the_fixed_pair_report(self, monkeypatch):
        spec, u = sample_ep_config(7, 2, 1.5)
        rep, seen = _traced(monkeypatch, verify_Ep, spec, u)
        assert [orders for orders, _ in seen] == [(8, 10, 12), (16,)]
        terms = seen[0][1]
        lhs, rhs, _ = _at(u, terms, 12)
        coarse = _term_change(IdentityReport(lhs, rhs, 0.0), _at(u, terms, 8))
        assert coarse > identities._ERR_TARGET
        assert _bits(rep) == _bits(RowMajor.verify_Ep(spec, u, fixed_pair=True))
        assert rep.order == 16 and rep.nodes == 32 * 32

    def test_kinked_integrands_also_compare_order_10(self, monkeypatch):
        # p = 3: the order-8 and order-12 errors of |grad u|^3 nearly agree
        # (-6.75e-8 and -7.80e-8 relative), so their change alone, 1.06e-8,
        # understates the order-12 error; the change from order 10 does not
        spec, u = sample_ep_config(304, 2, 3.0)
        rep, seen = _traced(monkeypatch, verify_Ep, spec, u)
        assert [orders for orders, _ in seen] == [(8, 10, 12)] and rep.order == 12
        from_8 = _term_change(rep, _at(u, seen[0][1], 8))
        from_10 = _term_change(rep, _at(u, seen[0][1], 10))
        assert from_8 < 2e-8 < 1e-7 < from_10
        assert rep.err_estimate == pytest.approx(from_10, rel=1e-12)

    def test_smooth_ep_checks_skip_order_10(self, monkeypatch):
        spec = WeightSpec(HardyParams(2, 4.0, 0.1, 0.2), gamma=-0.5)
        _, seen = _traced(monkeypatch, verify_Ep, spec, _bumps(2)[1])
        assert seen[0][0] == (8, 12)

    def test_one_pass_equals_each_order_alone(self, monkeypatch):
        ckn, u = sample_ckn_config(9, 1)
        _, seen = _traced(monkeypatch, verify_CKNp, ckn, u)
        terms = seen[0][1]
        together = identities._at_orders(u, terms, (8, 10, 12, 16))
        assert together == [_at(u, terms, m) for m in (8, 10, 12, 16)]


def test_criterion_8_details_the_orders_reached():
    details = run_criterion_8().details
    assert details["stopped_at_12"] + details["stopped_at_16"] == 20 + 20 + 10
    assert details["stopped_at_12"] > details["stopped_at_16"] > 0
    # an E2 check's terms are smooth: it stops at 12 within the target
    assert 0.0 < details["e2_err_worst"] <= identities._ERR_TARGET
    assert 0.0 < details["ckn_err_worst"] and 0.0 < details["ep_err_worst"] < 1e-4


@pytest.mark.parametrize("reports,field,detail", [
    ("e2_reports", "residual_rel", "e2_worst"), ("ep_reports", "err_estimate", "ep_err_worst")])
def test_criterion_8_fails_on_a_nan_after_a_finite_report(reports, field, detail, monkeypatch):
    # max(0.0, *values) keeps 0.0 over a NaN that is not first, so a NaN
    # residual passed, and a NaN err_estimate broke the report's strict JSON
    plain = getattr(report, reports)

    def with_nan(seed, count):
        found = list(plain(seed, count))
        found[1] = dataclasses.replace(found[1], **{field: math.nan})
        return found
    monkeypatch.setattr(report, reports, with_nan)
    result = run_criterion_8()
    assert not result.passed and result.details[detail] is None
    cli._emit(result.details)


_SAMPLERS = {
    "E2": lambda i: (verify_E2, sample_e2_config(401, i)),
    "Ep": lambda i: (verify_Ep, sample_ep_config(401, i, EP_P_CYCLE[i % 4])),
    "CKNp": lambda i: (verify_CKNp, sample_ckn_config(401, i)),
}


def _coverage_cases():
    """(kind, index) of seed 401's first ten checks of each kind at n = 2,
    and of the first at n = 3: an order-48 reference takes about 2 ms at
    n = 2 and 0.15 s at n = 3."""
    cases = []
    for kind, sample in _SAMPLERS.items():
        dims = [len(sample(i)[1][1].center) for i in range(10)]
        cases += [(kind, i) for i, n in enumerate(dims) if n == 2] + [(kind, dims.index(3))]
    # an escalated check: its order-16 error is 1.55 times its change from
    # order 12, the estimate every check reported before the order ladder
    miss = pytest.mark.xfail(strict=True, reason="the 16-vs-12 change understates "
                             "the order-16 error of this Ep check (p = 1.5)")
    return [pytest.param(*case, marks=miss) if case == ("Ep", 8) else case
            for case in cases]


@pytest.mark.parametrize("kind,index", _coverage_cases())
def test_err_estimate_covers_the_order_48_error(monkeypatch, kind, index):
    check, args = _SAMPLERS[kind](index)
    rep, seen = _traced(monkeypatch, check, *args)
    u = args[1]
    reference = _at(u, seen[-1][1], 48)
    assert _term_change(rep, reference) <= rep.err_estimate + 1e-14


class TestBumpFunction:
    def test_support_and_placement(self):
        u = BumpFunction(center=(1.0, 1.0, 0.5), width=0.1)
        assert u.support_radius == pytest.approx(0.2)
        pts = np.array([[1.0, 1.0, 0.5], [2.0, 2.0, 2.0]])
        vals = u.value(pts)
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == 0.0

    def test_rejects_axis_hugging_center(self):
        with pytest.raises(SupportViolationError):
            BumpFunction(center=(0.1, 0.1, 2.0), width=0.2)

    def test_gradient_matches_finite_differences(self):
        u = BumpFunction(center=(1.0, 0.8, -0.6), width=0.12,
                         polynomial_degree=2, coefficients=(1.0, 0.4, -0.2))
        rng = np.random.default_rng(2)
        pts = np.asarray(u.center) + rng.uniform(-0.2, 0.2, size=(40, 3))
        grad = u.gradient(pts)
        h = 1e-6
        for i in range(3):
            shift = np.zeros(3)
            shift[i] = h
            fd = (u.value(pts + shift) - u.value(pts - shift)) / (2 * h)
            assert np.max(np.abs(fd - grad[:, i])) <= 1e-8


class TestVerifyE2:
    def test_branch_point_weight(self):
        params = HardyParams(3, 2.0, -0.5, -0.5)
        (pair1, _), _ = branch_candidates(params)
        spec = WeightSpec(params, exponents=pair1)
        u = BumpFunction(center=(1.0, 1.0, 0.5), width=0.1,
                         polynomial_degree=1, coefficients=(1.0, 0.5))
        rep = verify_E2(spec, u)
        assert rep.residual_rel <= 1e-6

    def test_zero_bump(self):
        # u = 0 made every term 0 and the residual 0: a vacuous pass
        with pytest.raises(ValueError, match="all zero"):
            BumpFunction(center=(1.0, 1.0, 0.5), width=0.1,
                         polynomial_degree=0, coefficients=(0.0,))

    def test_ratio_bump_stresses_remainder_term(self):
        # u = f * eta(|x - x0|/w): u/f is the cutoff alone, so the remainder
        # term carries everything the weight term misses
        params = HardyParams(3, 2.0, -0.25, 0.25)
        spec = WeightSpec(params, exponents=ExponentPair(0.4, -0.3))
        center = np.array([1.1, 0.9, 0.4])
        width = 0.1

        class RatioBump:
            def __init__(self):
                self.center = tuple(center)
                self.width = width

            def value(self, x):
                z = np.asarray(x) - center
                rho = np.linalg.norm(z, axis=-1)
                from anisohardy import cutoff_eta
                return spec.f(x) * cutoff_eta(rho / width)

            def gradient(self, x):
                from anisohardy import cutoff_eta, cutoff_eta_prime
                arr = np.asarray(x, dtype=float)
                z = arr - center
                rho = np.linalg.norm(z, axis=-1)
                s, r = axis_norms(arr, 2)
                fval = spec.f(arr)
                grad_f = np.zeros_like(arr)
                grad_f[..., :2] = (0.4 * fval / (s * s))[..., None] * arr[..., :2]
                grad_f += (-0.3 * fval / (r * r))[..., None] * arr
                eta = cutoff_eta(rho / width)
                etap = cutoff_eta_prime(rho / width)
                safe = np.where(rho > 0, rho, 1.0)
                return grad_f * eta[..., None] + (
                    fval * etap / width / safe)[..., None] * z

        rep = verify_E2(spec, RatioBump())
        assert rep.residual_rel <= 1e-6
        assert rep.rhs_terms["remainder_term"] > 0.0

    @staticmethod
    def _fd_gradient(field, pts, scale=1e-5):
        # O(h^4) five-point central differences, one coordinate at a time
        h = scale * (1.0 + np.linalg.norm(pts, axis=-1))
        grad = np.empty_like(pts)
        for i in range(pts.shape[1]):
            def at(step, i=i):
                shifted = pts.copy()
                shifted[:, i] += step * h
                return field(shifted)
            grad[:, i] = (at(-2) - 8.0 * at(-1) + 8.0 * at(1) - at(2)) / (12.0 * h)
        return grad

    @pytest.mark.parametrize("index", range(4))
    def test_ratio_gradient_matches_finite_differences(self, index):
        spec, u = sample_e2_config(7, index)
        x, _ = _ball_nodes(u, 6)
        pts = x.T
        log_f_grad = _log_f_gradient(spec, x, *axis_norms(pts, spec.params.k)).T
        analytic = ((u.gradient(pts) - u.value(pts)[:, None] * log_f_grad)
                    / spec.f(pts)[:, None])
        fd = self._fd_gradient(lambda z: u.value(z) / spec.f(z), pts)
        assert np.max(np.abs(fd - analytic)) <= 1e-8 * np.max(np.abs(analytic))

    def test_support_violation(self):
        spec = WeightSpec(HardyParams(3, 2.0, 0.0, 0.0),
                          exponents=ExponentPair(0.5, 0.0))
        u = BumpFunction(center=(1.0, 1.0, 0.5), width=0.1)
        object.__setattr__(u, "center", (0.05, 0.05, 1.0))
        with pytest.raises(SupportViolationError):
            verify_E2(spec, u)


class TestVerifyEp:
    def test_matches_e2_term_by_term_at_p2(self):
        params = HardyParams(3, 2.0, -0.25, 0.25)
        gamma = 0.6
        spec_g = WeightSpec(params, gamma=gamma)
        spec_pair = WeightSpec(params, exponents=ExponentPair(gamma, 0.0))
        u = BumpFunction(center=(1.0, 0.8, 0.5), width=0.1,
                         polynomial_degree=1, coefficients=(1.0, 0.4))
        rep_p = verify_Ep(spec_g, u)
        rep_2 = verify_E2(spec_pair, u)
        assert rep_p.lhs == pytest.approx(rep_2.lhs, rel=1e-12)
        assert rep_p.rhs_terms["weight_term"] == pytest.approx(
            rep_2.rhs_terms["weight_term"], rel=1e-12)
        assert rep_p.rhs_terms["remainder_term"] == pytest.approx(
            rep_2.rhs_terms["remainder_term"], rel=1e-8)

    def test_p3_instance(self):
        params = HardyParams(3, 3.0, 0.0, 0.5)
        spec = WeightSpec(params, gamma=-(2.0 / 3.0))
        u = BumpFunction(center=(1.0, 0.5, -0.5), width=0.1,
                         polynomial_degree=1, coefficients=(1.0, 0.3))
        assert verify_Ep(spec, u).residual_rel <= 1e-5

    def test_p15_instance_n2(self):
        params = HardyParams(2, 1.5, 0.0, 0.0)
        spec = WeightSpec(params, gamma=-1.0 / 3.0)
        u = BumpFunction(center=(1.0, 1.0), width=0.15)
        assert verify_Ep(spec, u).residual_rel <= 1e-5

    def test_p_below_2_needs_nonzero_gamma(self):
        spec = WeightSpec(HardyParams(2, 1.5, 0.0, 0.0), gamma=0.0)
        u = BumpFunction(center=(1.0, 1.0), width=0.15)
        with pytest.raises(ValueError):
            verify_Ep(spec, u)


class TestVerifyCKNp:
    CKN = CknParams(3, 2.0, gamma1=-0.5)

    def test_product_identity(self):
        u = BumpFunction(center=(1.0, 1.0, 1.0), width=0.1,
                         polynomial_degree=1, coefficients=(1.0, 0.2))
        rep = verify_CKNp(self.CKN, u)
        assert rep.residual_rel <= 1e-5
        # inequality direction: lhs >= divergence term alone
        assert rep.lhs >= rep.rhs_terms["divergence_term"] - 1e-8

    def test_field_magnitude_formula(self):
        rng = np.random.default_rng(23)
        ckn = CknParams(3, 3.0, alpha=0.1, beta=0.2, mu=-0.1,
                        gamma1=(0.2 * 2 + 0.3 - 1) / 3, gamma2=0.3, gamma3=0.2)
        for _ in range(20):
            x = rng.uniform(0.2, 2.0, size=3)
            s, r = axis_norms(x, 2)
            field = (s ** (ckn.beta - ckn.mu)
                     * r ** (ckn.gamma3 - ckn.gamma2 - 1.0)) * x
            expected = s ** (ckn.beta - ckn.mu) * r ** (ckn.gamma3 - ckn.gamma2)
            assert np.linalg.norm(field) == pytest.approx(float(expected),
                                                          rel=1e-12)

    def test_zero_bump(self):
        with pytest.raises(ValueError, match="all zero"):
            BumpFunction(center=(1.0, 1.0, 1.0), width=0.1,
                         polynomial_degree=2, coefficients=(0.0, 0.0, 0.0))

    @staticmethod
    def _loop_spot_check(ckn, u, seed=0, count=20):
        # one point and one coordinate at a time, as the check was first written
        def phi(z, i):
            s, r = axis_norms(z, ckn.n - 1)
            return (s ** (ckn.beta * (ckn.p - 1.0) + ckn.mu)
                    * r ** (ckn.gamma3 * (ckn.p - 1.0) + ckn.gamma2 - 1.0)) * z[i]

        def div_at(x, step):
            total = 0.0
            for i in range(ckn.n):
                e = np.zeros(ckn.n)
                e[i] = step
                total += (phi(x + e, i) - phi(x - e, i)) / (2.0 * step)
            return total

        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(count):
            direction = rng.normal(size=ckn.n)
            direction /= np.linalg.norm(direction)
            x = np.asarray(u.center) + rng.uniform(0.2, 1.5) * u.width * direction
            h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
            fd = (4.0 * div_at(x, 0.5 * h) - div_at(x, h)) / 3.0
            s, r = axis_norms(x, ckn.n - 1)
            closed = ((ckn.n + ckn.p * (ckn.alpha + ckn.gamma1))
                      * s ** (ckn.alpha * ckn.p) * r ** (ckn.gamma1 * ckn.p))
            worst = max(worst, abs(fd - closed) / max(abs(closed), 1e-300))
        return worst

    @pytest.mark.parametrize("index", range(4))
    def test_array_spot_check_matches_loop(self, index):
        ckn, u = sample_ckn_config(305, index)
        worst = _ckn_divergence_spot_check(ckn, u)
        assert worst == pytest.approx(self._loop_spot_check(ckn, u), abs=1e-12)
        assert 0.0 < worst <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cached_spot_points_match_per_call_draws(self, n, monkeypatch):
        # the points as each call drew them, one default_rng(0) per call
        p, a, b, g2, g3 = 3.0, 0.1, 0.2, 0.3, 0.2
        ckn = CknParams(n, p, a, b, a * p - b * (p - 1.0), (g3 * (p - 1.0) + g2 - 1.0) / p,
                        g2, g3)
        u = BumpFunction(center=np.linspace(1.0, -0.6, n), width=0.1)
        rng = np.random.default_rng(0)
        expected = np.empty((n, identities._SPOT_POINTS))
        for j in range(identities._SPOT_POINTS):
            direction = rng.normal(size=n)
            direction /= np.linalg.norm(direction)
            expected[:, j] = np.asarray(u.center) + rng.uniform(0.2, 1.5) * u.width * direction
        seen = []
        plain = identities._ckn_flux_divergence_fd

        def recorded(ckn, x, h):
            seen.append(x.copy())
            return plain(ckn, x, h)
        monkeypatch.setattr(identities, "_ckn_flux_divergence_fd", recorded)
        for _ in range(2):
            _ckn_divergence_spot_check(ckn, u)
        assert [x.tobytes() for x in seen] == [expected.tobytes()] * 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_spot_draws_are_cached_and_read_only(self, n):
        radii, dirs = identities._spot_draws(n)
        assert identities._spot_draws(n)[0] is radii
        assert radii.shape == (identities._SPOT_POINTS,)
        assert dirs.shape == (n, identities._SPOT_POINTS)
        for arr in (radii, dirs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestCknExtremal:
    def test_unit_quotient_n3(self):
        rep = ckn_extremal_check(CknParams(3, 2.0, gamma1=-0.5))
        assert rep.quotient == pytest.approx(1.0, abs=1e-3)
        assert rep.constant == pytest.approx(1.0)
        assert rep.residual_R_max <= 1e-12

    def test_half_quotient_n2(self):
        rep = ckn_extremal_check(CknParams(2, 2.0, gamma1=-0.5))
        assert rep.quotient == pytest.approx(0.5, abs=1e-3)

    def test_radial_integrals_start_at_zero(self):
        # a_den = n - 1 + p(alpha + gamma1) is near -1, so the radial
        # denominator has a large share on (0, 1e-6)
        p, a, g2, g3 = 3.0, -0.2373606, -0.0460659, -0.0881161
        ckn = CknParams(2, p, a, a, a, (g3 * (p - 1.0) + g2 - 1.0) / p, g2, g3)
        rep = ckn_extremal_check(ckn)
        assert rep.constant == pytest.approx(0.021873, rel=1e-4)
        assert rep.quotient == pytest.approx(rep.constant, abs=1e-3)

    def test_remainder_floor_scales_with_its_terms(self):
        # R cancels terms that grow like r^(p(m-1)) as r -> 0; an absolute
        # -1e-12 floor raised on 5 of these 40 draws (R down to -6.0e-8)
        rng = np.random.default_rng(11)
        reached = 0
        for _ in range(40):
            n = int(rng.choice((2, 3, 4)))
            p = float(rng.choice((2, 3, 4)))
            a = float(rng.uniform(-0.3, 0.3))
            g2, g3 = (float(g) for g in rng.uniform(-0.25, 0.25, size=2))
            ckn = CknParams(n, p, a, a, a, (g3 * (p - 1.0) + g2 - 1.0) / p, g2, g3)
            if not admissible_ckn(ckn).all_ok:
                continue
            rep = ckn_extremal_check(ckn)
            assert rep.quotient == pytest.approx(rep.constant, rel=1e-8)
            # criterion 9's gate; the absolute R read 6.0e-8 on draw 9
            assert rep.residual_R_max <= 1e-12
            reached += 1
        assert reached >= 38

    def test_radial_exponent_near_minus_one(self):
        # a_den = -0.971: r^a overflowed at the subnormal tanh-sinh nodes, and
        # the quadrature raised NotConvergedError
        p, a, g2, g3 = 3.0, -0.2528, 0.0555, -0.1342
        ckn = CknParams(2, p, a, a, a, (g3 * (p - 1.0) + g2 - 1.0) / p, g2, g3)
        rep = ckn_extremal_check(ckn)
        assert rep.quotient == pytest.approx(rep.constant, rel=1e-12)
        assert rep.residual_R_max <= 1e-12

    def test_gamma_ratio_matches_tanh_sinh(self):
        # the radial integrals by segment-doubling tanh-sinh, as they were
        # computed before the Gamma closed form
        p, a, g2, g3 = 3.0, 0.1, 0.05, -0.1
        ckn = CknParams(3, p, a, a, a, (g3 * (p - 1.0) + g2 - 1.0) / p, g2, g3)
        m = g3 - g2 + 1.0
        c = 1.0 / m
        spec = QuadratureSpec(levels=9, abs_tol=1e-15, rel_tol=1e-12)

        def moment(a_exp):
            total, lo, hi = 0.0, 0.0, 2.0
            while True:
                last = integrate_1d(lambda r: r ** a_exp * np.exp(-p * c * r ** m),
                                    lo, hi, spec).value
                total += last
                if abs(last) <= 1e-9 * abs(total):
                    return total
                lo, hi = hi, 2.0 * hi

        i_grad = (c * m) ** p * moment(ckn.n - 1.0 + p * a + p * g2 + (m - 1.0) * p)
        i_field = moment(ckn.n - 1.0 + p * a + p * g3)
        i_den = moment(ckn.n - 1.0 + p * a + p * ckn.gamma1)
        quadrature = i_grad ** (1.0 / p) * i_field ** ((p - 1.0) / p) / i_den
        assert ckn_extremal_check(ckn).quotient == pytest.approx(quadrature, rel=1e-10)

    def test_kappa0_scales_out(self):
        ckn = CknParams(3, 3.0, gamma1=-1.0 / 3.0)
        rep = ckn_extremal_check(ckn, kappa0=2.5)
        assert rep.quotient == pytest.approx(rep.constant, rel=1e-12)
        assert rep.residual_R_max <= 1e-12
        with pytest.raises(ValueError):
            ckn_extremal_check(ckn, kappa0=0.0)

    def test_requires_symmetric_exponents(self):
        with pytest.raises(ValueError):
            ckn_extremal_check(CknParams(3, 2.0, alpha=0.2, beta=0.1, mu=0.3,
                                         gamma1=-0.45, gamma2=0.0, gamma3=0.1))


class TestHardySpotTest:
    def test_random_bumps_dominate_constant(self):
        params = HardyParams(3, 2.0, -0.5, -0.5)
        rng = np.random.default_rng(29)
        bumps = []
        while len(bumps) < 20:
            center = rng.uniform(-2.0, 2.0, size=3)
            width = 0.1 * float(np.linalg.norm(center))
            try:
                bumps.append(BumpFunction(center=tuple(center), width=width,
                                          polynomial_degree=1,
                                          coefficients=(1.0, float(rng.uniform(-0.4, 0.4)))))
            except SupportViolationError:
                continue
        rep = hardy_spot_test(params, bumps)
        assert rep.constant == pytest.approx(sharp_constant_p2(params).value)
        assert rep.min_quotient >= rep.constant * (1 - 1e-6)

    def test_narrow_far_bump_is_far_from_extremal(self):
        params = HardyParams(3, 2.0, -0.5, -0.5)
        u = BumpFunction(center=(2.0, 2.0, 1.0), width=0.02)
        rep = hardy_spot_test(params, [u])
        assert rep.min_quotient > 100.0 * rep.constant

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            hardy_spot_test(HardyParams(3, 2.0, 0.0, 0.0), [])

    def test_p1_inequality_direction(self):
        # no sharpness construction exists at p = 1; the inequality itself
        # still holds with constant (k + alpha) for beta >= 0
        params = HardyParams(3, 1.0, 0.25, 0.5)
        u = BumpFunction(center=(1.0, 1.0, 0.5), width=0.12,
                         polynomial_degree=1, coefficients=(1.0, 0.2))
        rep = hardy_spot_test(params, [u])
        assert rep.constant == pytest.approx(2.25)
        assert rep.min_quotient >= rep.constant * (1 - 1e-6)


class RowMajor:
    """The identity checks as first written, on (N, n) row-major nodes with
    the expressions of that evaluation: the reference the coordinate-major
    checks must equal to the bit.  fixed_pair=True reports at order 16 with
    the change from order 12, as every check did before the order ladder."""

    @staticmethod
    def nodes(u, m):
        n = len(u.center)
        t, w = gauss_jacobi(m, 0.0, 0.0)
        half = 0.5 * u.width
        rho = np.concatenate([half * (t + 1.0), half * (t + 3.0)])
        w_rho = half * np.concatenate([w, w]) * rho ** (n - 1)
        dirs, w_dir = _sphere_rule(n, m)
        pts = np.asarray(u.center) + (rho[:, None, None] * dirs.T).reshape(-1, n)
        return pts, np.outer(w_rho, w_dir).ravel()

    @staticmethod
    def value(u, x):
        z = np.asarray(x, dtype=float) - np.asarray(u.center)
        q = z @ np.asarray(u.direction)
        rho = np.linalg.norm(z, axis=-1)
        return u._poly(q) * cutoff_eta(rho / u.width)

    @staticmethod
    def gradient(u, x):
        z = np.asarray(x, dtype=float) - np.asarray(u.center)
        dirv = np.asarray(u.direction)
        q = z @ dirv
        rho = np.linalg.norm(z, axis=-1)
        eta = cutoff_eta(rho / u.width)
        etap = cutoff_eta_prime(rho / u.width)
        safe_rho = np.where(rho > 0.0, rho, 1.0)
        radial = (u._poly(q) * etap / u.width / safe_rho)[..., None] * z
        return u._poly_prime(q)[..., None] * dirv * eta[..., None] + radial

    @staticmethod
    def log_f_gradient(spec, pts):
        k = spec.params.k
        if spec.exponents is None:
            theta, lam = spec.gamma, 0.0
        else:
            theta, lam = spec.exponents.theta, spec.exponents.lam
        s = np.linalg.norm(pts[:, :k], axis=-1)
        r = np.linalg.norm(pts, axis=-1)
        grad = lam * pts / (r * r)[:, None]
        grad[:, :k] += theta * pts[:, :k] / (s * s)[:, None]
        return grad

    @staticmethod
    def r_rows(X, Y, p):
        nx = np.linalg.norm(X, axis=-1)
        ny = np.linalg.norm(Y, axis=-1)
        dot = np.sum(X * Y, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(ny > 0.0, p * ny ** (p - 2.0) * dot, 0.0)
        return np.maximum((p - 1.0) * ny ** p + nx ** p + cross, 0.0)

    @classmethod
    def ladder(cls, u, terms, smooth, fixed_pair):
        found = {}
        for m in (8, 10, 12, 16):
            pts, wts = cls.nodes(u, m)
            found[m] = terms(pts, wts) + (len(wts),)

        def report(m, *coarse):
            lhs, rhs, nodes = found[m]
            denom = abs(lhs) + sum(abs(v) for v in rhs.values()) + 1e-300
            change = max(max([abs(lhs - found[c][0])]
                             + [abs(rhs[k] - found[c][1][k]) for k in rhs]) for c in coarse)
            return IdentityReport(lhs, rhs, abs(lhs - sum(rhs.values())) / denom,
                                  nodes=nodes, err_estimate=change / denom, order=m)

        if not fixed_pair:
            rep = report(12, 8) if smooth else report(12, 8, 10)
            if rep.err_estimate <= 1e-6:
                return rep
        return report(16, 12)

    @classmethod
    def verify_E2(cls, spec, u, fixed_pair=False):
        def terms(pts, wts):
            uval = cls.value(u, pts)
            ugrad = cls.gradient(u, pts)
            v = spec.V(pts)
            w_closed = weight_p2(pts, spec)
            lhs = float(np.sum(wts * v * np.sum(ugrad * ugrad, axis=-1)))
            t_weight = float(np.sum(wts * w_closed * uval * uval))
            ratio = ugrad - uval[:, None] * cls.log_f_gradient(spec, pts)
            t_rem = float(np.sum(wts * v * np.sum(ratio * ratio, axis=-1)))
            return lhs, {"weight_term": t_weight, "remainder_term": t_rem}
        return cls.ladder(u, terms, True, fixed_pair)

    @classmethod
    def verify_Ep(cls, spec, u, fixed_pair=False):
        p = spec.params.p

        def terms(pts, wts):
            uval = cls.value(u, pts)
            ugrad = cls.gradient(u, pts)
            v = spec.V(pts)
            w_closed = weight_general_p(pts, spec)
            lhs = float(np.sum(wts * v * np.linalg.norm(ugrad, axis=-1) ** p))
            t_weight = float(np.sum(wts * w_closed * np.abs(uval) ** p))
            rvals = cls.r_rows(ugrad, -uval[:, None] * cls.log_f_gradient(spec, pts), p)
            t_rem = float(np.sum(wts * v * rvals))
            return lhs, {"weight_term": t_weight, "remainder_term": t_rem}
        return cls.ladder(u, terms, p % 2 == 0, fixed_pair)

    @classmethod
    def verify_CKNp(cls, ckn, u, fixed_pair=False):
        p = ckn.p

        def terms(pts, wts):
            s, r = axis_norms(pts, ckn.n - 1)
            V = s ** (p * ckn.mu) * r ** (p * ckn.gamma2)
            fmag = s ** (ckn.beta - ckn.mu) * r ** (ckn.gamma3 - ckn.gamma2)
            F = (s ** (ckn.beta - ckn.mu)
                 * r ** (ckn.gamma3 - ckn.gamma2 - 1.0))[..., None] * pts
            div_closed = ((ckn.n + p * (ckn.alpha + ckn.gamma1))
                          * s ** (ckn.alpha * p) * r ** (ckn.gamma1 * p))
            uval = cls.value(u, pts)
            ugrad = cls.gradient(u, pts)
            i_grad = float(np.sum(wts * V * np.linalg.norm(ugrad, axis=-1) ** p))
            i_field = float(np.sum(wts * V * fmag ** p * np.abs(uval) ** p))
            kappa0 = (i_grad / i_field) ** ((p - 1.0) / p)
            lhs = i_grad ** (1.0 / p) * i_field ** ((p - 1.0) / p)
            t_div = float(np.sum(wts * div_closed * np.abs(uval) ** p)) / p
            rvals = cls.r_rows(ugrad, (uval * kappa0 ** (1.0 / (p - 1.0)))[:, None] * F, p)
            t_rem = float(np.sum(wts * V / (p * kappa0) * rvals))
            return lhs, {"divergence_term": t_div, "remainder_term": t_rem}
        return cls.ladder(u, terms, p % 2 == 0, fixed_pair)

    @classmethod
    def hardy_spot_test(cls, params, bumps):
        p = params.p
        best = np.inf
        for u in bumps:
            pts, wts = cls.nodes(u, 16)
            s, r = axis_norms(pts, params.k)
            v = s ** (p * (params.alpha + 1.0)) * r ** (p * params.beta)
            num = float(np.sum(wts * v * np.linalg.norm(cls.gradient(u, pts), axis=-1) ** p))
            den = float(np.sum(wts * v * s ** (-p) * np.abs(cls.value(u, pts)) ** p))
            best = min(best, num / den)
        return best


_CENTERS = {2: (1.1, -0.7), 3: (1.0, 0.8, -0.6), 4: (1.0, -0.9, 0.7, 0.5)}


def _bumps(n):
    """A degree-3 bump along a direction that is not e1, and a degree-1 bump
    along e1, both of width 0.1 around _CENTERS[n]."""
    return (BumpFunction(center=_CENTERS[n], width=0.1, polynomial_degree=3,
                         coefficients=(1.0, 2.0, -15.0, 40.0),
                         direction=tuple(np.linspace(0.4, -0.7, n))),
            BumpFunction(center=_CENTERS[n], width=0.1, polynomial_degree=1,
                         coefficients=(1.0, 0.4)))


def _bits(report):
    return (report.lhs.hex(), {k: v.hex() for k, v in report.rhs_terms.items()},
            report.residual_rel.hex(), report.nodes, report.err_estimate.hex(), report.order)


class TestSameAsRowMajor:
    """The coordinate-major checks equal the row-major reference to the bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_coordinate_sums(self, n):
        # one ulp of |x| at a node seldom reaches a check's sums, so the
        # coordinate sums are compared directly: _dot, and axis_norms of the
        # (N, n) view of coordinate-major points
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=(2, n, 4096))
        rows_x, rows_y = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
        assert _dot(x, y).tobytes() == np.sum(rows_x * rows_y, axis=-1).tobytes()
        for k in range(1, n):
            for view, rows in zip(axis_norms(x.T, k), axis_norms(rows_x, k)):
                assert view.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (3, 1), (4, 2)])
    def test_verify_E2(self, n, k):
        spec = WeightSpec(HardyParams(n, 2.0, -0.25, 0.25, k),
                          exponents=ExponentPair(0.4, -0.3))
        for u in _bumps(n)[:1 if n == 4 else 2]:
            assert _bits(verify_E2(spec, u)) == _bits(RowMajor.verify_E2(spec, u))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_verify_Ep(self, n):
        spec = WeightSpec(HardyParams(n, 3.0, 0.1, 0.2), gamma=-0.5)
        for u in _bumps(n)[:1 if n == 4 else 2]:
            assert _bits(verify_Ep(spec, u)) == _bits(RowMajor.verify_Ep(spec, u))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_verify_CKNp(self, n):
        p, a, b, g2, g3 = 3.0, 0.1, 0.2, 0.3, 0.2
        ckn = CknParams(n, p, a, b, a * p - b * (p - 1.0), (g3 * (p - 1.0) + g2 - 1.0) / p,
                        g2, g3)
        for u in _bumps(n)[:1 if n == 4 else 2]:
            assert _bits(verify_CKNp(ckn, u)) == _bits(RowMajor.verify_CKNp(ckn, u))

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (3, 1), (4, 2)])
    def test_hardy_spot_test(self, n, k):
        params = HardyParams(n, 2.5, -0.2, 0.3, k)
        rep = hardy_spot_test(params, _bumps(n))
        assert rep.min_quotient.hex() == RowMajor.hardy_spot_test(params, _bumps(n)).hex()
        assert rep.constant == sharp_constant_general_p(params).value

    def test_workload_sample_configs(self):
        for i in range(4):
            spec, u = sample_e2_config(7, i)
            assert _bits(verify_E2(spec, u)) == _bits(RowMajor.verify_E2(spec, u))
            spec, u = sample_ep_config(8, i, (1.5, 2.0, 3.0, 4.0)[i])
            assert _bits(verify_Ep(spec, u)) == _bits(RowMajor.verify_Ep(spec, u))
            ckn, u = sample_ckn_config(9, i)
            assert _bits(verify_CKNp(ckn, u)) == _bits(RowMajor.verify_CKNp(ckn, u))

    @pytest.mark.parametrize("shape", [(3,), (50, 3), (4, 7, 3)])
    def test_bump_value_and_gradient(self, shape):
        u = _bumps(3)[0]
        x = np.asarray(u.center) + np.random.default_rng(3).uniform(-0.2, 0.2, size=shape)
        value, ref = u.value(x), RowMajor.value(u, x)
        assert type(value) is type(ref) and np.shape(value) == np.shape(ref)
        assert np.asarray(value).tobytes() == np.asarray(ref).tobytes()
        grad = u.gradient(x)
        assert grad.shape == shape
        # the row-major gradient of a single point (n,) raised TypeError; it
        # equals the row of the (1, n) batch
        ref = RowMajor.gradient(u, x if len(shape) > 1 else x[None])
        assert np.ascontiguousarray(grad).tobytes() == ref.tobytes()


def _in_new_thread(fn, *args):
    """fn(*args) in a thread of its own, whose workspace starts empty."""
    found = []
    worker = threading.Thread(target=lambda: found.append(fn(*args)))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    return found[0]


def _mixed_checks():
    """(name, check, args) of every kind at n = 2 and n = 3, and Ep checks
    that go on to order 16 at n = 2 and at n = 3."""
    seed = report.CRITERION_SEEDS[8]
    checks = []
    for i in range(2):
        checks.append((f"E2 {i}", verify_E2, sample_e2_config(seed, i)))
        checks.append((f"CKN {i}", verify_CKNp, sample_ckn_config(seed + 2, i)))
    checks.append(("Ep n=3 to 16", verify_Ep, sample_ep_config(seed + 1, 0, EP_P_CYCLE[0])))
    checks.append(("Ep n=2 to 16", verify_Ep, sample_ep_config(7, 2, 1.5)))
    checks.append(("Ep n=2", verify_Ep, sample_ep_config(seed + 1, 2, EP_P_CYCLE[2])))
    return checks


class TestWorkspace:
    """Every pass evaluates into one workspace per thread, which it reuses."""

    def test_interleaved_checks_equal_each_check_alone(self, monkeypatch):
        checks = _mixed_checks()
        alone = {name: _in_new_thread(check, *args) for name, check, args in checks}
        assert {len(args[1].center) for _, _, args in checks} == {2, 3}
        assert alone["Ep n=3 to 16"].nodes == 4 * 16 ** 3
        assert alone["Ep n=2 to 16"].order == 16
        alone = {name: _bits(rep) for name, rep in alone.items()}
        # the (8, 10, 12, 16) pass of TestOrderLadder, which is larger than
        # any pass of the ladder
        ckn, u = sample_ckn_config(9, 1)
        _, seen = _traced(monkeypatch, verify_CKNp, ckn, u)
        four = _in_new_thread(identities._at_orders, u, seen[0][1], (8, 10, 12, 16))
        for name, check, args in checks + checks[::-1]:
            assert _bits(check(*args)) == alone[name], name
            assert identities._at_orders(u, seen[0][1], (8, 10, 12, 16)) == four

    def test_concurrent_threads_equal_a_sequential_run(self):
        # more threads than cores, each through the checks in its own order,
        # switching often: a shared workspace would mix their rows
        checks = _mixed_checks()
        sequential = [_bits(check(*args)) for _, check, args in checks]
        start = threading.Barrier(4)
        found = {}

        def run(shift):
            order = [(i + shift) % len(checks) for i in range(len(checks))]
            if shift % 2:
                order.reverse()
            start.wait()
            found[shift] = {i: _bits(checks[i][1](*checks[i][2])) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=run, args=(shift,)) for shift in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for shift in range(4):
            assert [found[shift][i] for i in range(len(checks))] == sequential, shift

    @pytest.mark.parametrize("kind", ["E2", "Ep", "CKN"])
    def test_warm_n3_check_allocates_no_node_rows(self, kind):
        # at n = 3 a row of the (8, 10, 12) pass is 101 KiB and one of order
        # 16 128 KiB; fresh arrays for every temporary take 1.7 to 3.5 MiB
        seed = report.CRITERION_SEEDS[8]
        check, args = {
            "E2": (verify_E2, sample_e2_config(seed, 1)),
            "Ep": (verify_Ep, sample_ep_config(seed + 1, 0, EP_P_CYCLE[0])),
            "CKN": (verify_CKNp, sample_ckn_config(seed + 2, 1)),
        }[kind]
        assert len(args[1].center) == 3
        expected = check(*args)
        tracemalloc.start()
        try:
            rep = check(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the workspace did not grow either: that would trace its 3 MiB
        assert peak <= 512 * 1024
        assert _bits(rep) == _bits(expected)
