import numpy as np
import pytest

from anisohardy import (BumpFunction, CknParams, ExponentPair, HardyParams,
                        WeightSpec, admissible_ckn, branch_candidates,
                        ckn_extremal_check, hardy_spot_test, r_functional,
                        sharp_constant_p2, sphere_area, verify_CKNp, verify_E2,
                        verify_Ep)
from anisohardy.errors import (EmptyInputError, NegativeRemainderError,
                               NotConvergedError, SupportViolationError)
from anisohardy.identities import (_ball_nodes, _ckn_divergence_spot_check,
                                   _log_f_gradient, _r_rows, _sphere_rule)
from anisohardy.report import sample_ckn_config, sample_e2_config, sample_ep_config
from anisohardy.weights import axis_norms


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
            vals = _r_rows(x, y, p)
            assert np.min(vals) >= 0.0

    def test_zero_y_limit(self):
        assert r_functional([2.0, 0.0], [0.0, 0.0], 1.5) == pytest.approx(2.0 ** 1.5)

    def test_negative_beyond_rounding_raises(self):
        # p < 1 makes (p-1)|Y|^p negative: R = -0.5, far below the floor
        with pytest.raises(NegativeRemainderError):
            _r_rows(np.zeros((1, 2)), np.array([[1.0, 0.0]]), 0.5)


class TestBallRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sphere_moments(self, n):
        dirs, w = _sphere_rule(n, 16)
        assert np.sum(w) == pytest.approx(sphere_area(n), rel=1e-14)
        # int omega_i^2 = area / n for every coordinate
        moments = [np.sum(w * dirs[:, i] ** 2) for i in range(n)]
        assert moments == pytest.approx([sphere_area(n) / n] * n, rel=1e-14)
        assert np.linalg.norm(dirs, axis=-1) == pytest.approx(np.ones(len(w)), abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ball_weights_sum_to_volume(self, n):
        u = BumpFunction(center=(1.0,) * (n - 1) + (-0.5,), width=0.1)
        pts, w = _ball_nodes(u, 12)
        assert np.sum(w) == pytest.approx(sphere_area(n) / n * 0.2 ** n, rel=1e-13)
        assert np.max(np.linalg.norm(pts - np.asarray(u.center), axis=-1)) < 0.2

    def test_n4_checks_pass_their_gates(self):
        u = BumpFunction(center=(1.0, -0.9, 0.7, 0.5), width=0.1,
                         polynomial_degree=1, coefficients=(1.0, 0.4))
        e2 = verify_E2(WeightSpec(HardyParams(4, 2.0, -0.25, 0.25),
                                  exponents=ExponentPair(0.4, -0.3)), u)
        ep = verify_Ep(WeightSpec(HardyParams(4, 1.5, 0.0, 0.2), gamma=-0.5), u)
        assert e2.residual_rel <= 1e-6 and e2.err_estimate <= 1e-6
        assert ep.residual_rel <= 1e-5 and ep.err_estimate <= 1e-5
        assert e2.nodes == ep.nodes == 32 * 32 * 16 * 16

    @pytest.mark.parametrize("index", range(4))
    def test_err_estimate_bounds_lhs_error(self, index):
        p = (1.5, 2.0, 3.0, 4.0)[index]
        spec, u = sample_ep_config(304, index, p)
        rep = verify_Ep(spec, u)
        pts, wts = _ball_nodes(u, 48)
        ref = np.sum(wts * spec.V(pts) * np.linalg.norm(u.gradient(pts), axis=-1) ** p)
        denom = abs(rep.lhs) + sum(abs(v) for v in rep.rhs_terms.values())
        assert abs(rep.lhs - ref) / denom <= rep.err_estimate + 1e-14


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
        spec = WeightSpec(HardyParams(3, 2.0, 0.0, 0.0),
                          exponents=ExponentPair(0.5, -0.5))
        u = BumpFunction(center=(1.0, 1.0, 0.5), width=0.1,
                         polynomial_degree=0, coefficients=(0.0,))
        rep = verify_E2(spec, u)
        assert rep.lhs == 0.0
        assert all(v == 0.0 for v in rep.rhs_terms.values())

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
        pts, _ = _ball_nodes(u, 6)
        analytic = ((u.gradient(pts) - u.value(pts)[:, None] * _log_f_gradient(spec, pts))
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
        u = BumpFunction(center=(1.0, 1.0, 1.0), width=0.1,
                         polynomial_degree=0, coefficients=(0.0,))
        rep = verify_CKNp(self.CKN, u)
        assert rep.lhs == 0.0
        assert rep.residual_rel == 0.0

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
        worst = _ckn_divergence_spot_check(ckn, u, 0, 20)
        assert worst == pytest.approx(self._loop_spot_check(ckn, u), abs=1e-12)
        assert 0.0 < worst <= 1e-6


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
            try:
                rep = ckn_extremal_check(ckn)
            except NotConvergedError:
                continue  # a radial exponent in (-1, -0.95], past the tanh-sinh window
            assert rep.quotient == pytest.approx(rep.constant, rel=1e-8)
            # criterion 9's gate; the absolute R read 6.0e-8 on draw 9
            assert rep.residual_R_max <= 1e-12
            reached += 1
        assert reached >= 38

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
