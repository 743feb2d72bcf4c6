import math
from types import SimpleNamespace

import numpy as np
import pytest

from anisohardy import (FamilyKind, HardyParams, TrialFamily, beta,
                        integrate_2d, make_family, quotient_general_p,
                        quotient_p2, sharp_constant_general_p,
                        sharp_constant_p2, sin_power_integral,
                        sweep_and_extrapolate)
from anisohardy import rayleigh
from anisohardy.errors import FitUnstableError, UnsupportedRegimeError
from anisohardy.rayleigh import FitModel, QuotientParts

K3_PARAMS = HardyParams(3, 2.0, -0.5, -0.5)
BEST_02 = (2.0 * math.sqrt(3.0) - 3.0) / 4.0


class TestTrialFamily:
    def test_kind_selection_follows_regime(self):
        assert make_family(K3_PARAMS, 1e-3).kind is FamilyKind.P2_K_GT_1
        assert make_family(HardyParams(3, 2.0, 0.0, -0.05), 1e-3,
                           0.05).kind is FamilyKind.P2_K_LT_1
        assert make_family(HardyParams(3, 3.0, 0.0, 0.5), 1e-3,
                           0.05).kind is FamilyKind.GENERAL_P_BETA_NONNEG

    def test_k_gt_1_exponents(self):
        fam = make_family(K3_PARAMS, 1e-3)
        assert fam.h_exponent == pytest.approx(-(2 - math.sqrt(3)) / 2, abs=1e-14)
        assert 2 * fam.g_exponent == pytest.approx(0.5 - math.sqrt(3) / 2, abs=1e-14)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            TrialFamily(FamilyKind.P2_K_GT_1, K3_PARAMS, 1e-3, 0.1)
        with pytest.raises(ValueError):
            TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG,
                        HardyParams(3, 3.0, 0.0, 0.5), 1e-3, 0.0)
        with pytest.raises(ValueError):
            # sigma above sqrt(1-K)/2 for the K < 1 family
            TrialFamily(FamilyKind.P2_K_LT_1, HardyParams(3, 2.0, 0.0, -0.05),
                        1e-3, 0.4)
        with pytest.raises(ValueError):
            TrialFamily(FamilyKind.P2_K_GT_1, K3_PARAMS, 1.5)

    def test_no_general_p_family_for_negative_beta(self):
        with pytest.raises(UnsupportedRegimeError):
            make_family(HardyParams(3, 3.0, 0.0, -0.1), 1e-3, 0.05)


class TestQuotientP2:
    def test_k3_bracket(self):
        q = quotient_p2(make_family(K3_PARAMS, 1e-3))
        assert BEST_02 < q.quotient < BEST_02 + 1.0

    def test_monotone_toward_limit(self):
        q_coarse = quotient_p2(make_family(K3_PARAMS, 1e-3))
        q_fine = quotient_p2(make_family(K3_PARAMS, 1e-5))
        assert q_fine.quotient < q_coarse.quotient

    def test_breakdown_sums(self):
        q = quotient_p2(make_family(K3_PARAMS, 1e-4))
        assert q.numerator == pytest.approx(q.j1 + q.j2 + q.j3, rel=1e-12)

    def test_k_lt_1_family_near_square(self):
        fam = make_family(HardyParams(3, 2.0, 0.0, 0.0), 1e-4, 0.05)
        q = quotient_p2(fam)
        assert abs(q.quotient - 1.0) < 0.2

    def test_rejects_general_p_family(self):
        fam = make_family(HardyParams(3, 3.0, 0.0, 0.5), 1e-3, 0.05)
        with pytest.raises(ValueError):
            quotient_p2(fam)


class TestQuotientGeneralP:
    def test_theorem_constant_neighborhood(self):
        # the quotient dominates the sharp constant and sits within the
        # O(sigma) band above it (about 6.4*sigma + O(1/|ln eps|) here; the
        # sigma->0, eps->0 double limit recovers the constant, see TestSweep)
        fam = make_family(HardyParams(3, 3.0, 0.0, 0.5), 1e-4, 0.05)
        q = quotient_general_p(fam)
        constant = (2.0 / 3.0) ** 3
        assert constant * (1 - 1e-6) <= q.quotient <= constant + 0.5

    def test_p2_reduction_matches_pair_quotient(self):
        params = HardyParams(3, 2.0, 0.0, 0.0)
        general = TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, params, 1e-4, 0.05)
        matched = TrialFamily(FamilyKind.P2_K_EQ_1, params, 1e-4, 0.05)
        # identical exponents: gamma0 + sigma and (lam0 - sigma)/2 coincide
        assert general.h_exponent == pytest.approx(matched.h_exponent, abs=1e-14)
        assert general.g_exponent == pytest.approx(matched.g_exponent, abs=1e-14)
        qg = quotient_general_p(general)
        qp = quotient_p2(matched)
        assert qg.quotient == pytest.approx(qp.quotient, rel=1e-6)

    def test_rejects_p2_family(self):
        with pytest.raises(ValueError):
            quotient_general_p(make_family(K3_PARAMS, 1e-3))

    @pytest.mark.parametrize("pw", [1.5, 2.5, 3.0, 4.0])
    def test_factored_integrand_matches_cartesian_gradient(self, pw):
        # the reduced integrand is |grad v|^p |x'|^(p(a+1)) |x|^(pb) times the
        # Jacobian r^(n-1) sin(phi)^(n-2) of the spherical reduction, n = 3
        params = HardyParams(3, pw, 0.1, 0.5)
        fam = TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, params, 1e-2, 0.05)
        rng = np.random.default_rng(int(10 * pw))
        x = rng.uniform(-1.2, 1.2, size=(400, 3))
        r = np.linalg.norm(x, axis=1)
        rho = np.linalg.norm(x[:, :2], axis=1)
        keep = (r < 1.98) & (rho > 1e-3)
        x, r, rho = x[keep], r[keep], rho[keep]
        assert np.count_nonzero(r > 1.0) >= 20      # the cutoff ramp is sampled

        gam, g, gp = fam.h_exponent, fam.g(r), fam.g_prime(r)
        x_perp = np.column_stack([x[:, :2], np.zeros(len(x))])
        grad = ((gam * rho ** (gam - 2.0) * g)[:, None] * x_perp
                + (rho ** gam * gp / r)[:, None] * x)
        direct = (np.linalg.norm(grad, axis=1) ** pw
                  * rho ** (pw * (params.alpha + 1.0)) * r ** (pw * params.beta))

        # the integrand takes t = cos(phi); sin(phi)^a_phi is the rule's weight
        s, t = rho / r, x[:, 2] / r
        a_phi, _ = rayleigh._general_p_exponents(fam)
        reduced = rayleigh._grad_integrand(fam)(r, t) * s ** a_phi / (r * r * s)
        np.testing.assert_allclose(reduced, direct, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("pw", [1.5, 3.0])
    def test_equal_brackets_leave_the_sin_power(self, pw):
        # g = r^(-2 gam) gives r g' = -2 gam g, so C = (gam g + r g')^2 equals
        # A = (gam g)^2 and the bracket A cos^2 + C sin^2 no longer depends on
        # phi: the numerator is sin_power_integral(a_phi) int A^(p/2) dr
        params = HardyParams(3, pw, 0.0, 0.5)
        fam = TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, params, 1e-2, 0.05)
        gam = fam.h_exponent
        equal = SimpleNamespace(params=params, h_exponent=gam,
                                g=lambda r: r ** (-2.0 * gam),
                                g_prime=lambda r: -2.0 * gam * r ** (-2.0 * gam - 1.0))
        a_phi, a_r = rayleigh._general_p_exponents(fam)
        num = integrate_2d(rayleigh._grad_integrand(equal), a_phi).value
        e = a_r - 2.0 * gam * pw            # A^(p/2) = |gam|^p r^e
        radial = abs(gam) ** pw * 2.0 ** (e + 1.0) / (e + 1.0)
        assert num == pytest.approx(sin_power_integral(a_phi) * radial, rel=1e-12)


class TestSweep:
    def test_k_gt_1_sweep(self):
        res = sweep_and_extrapolate(K3_PARAMS, eps_list=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        assert res.fit.model is FitModel.INV_LOG_EPS
        quotients = [r.quotient for r in res.rows]
        assert all(q >= BEST_02 * (1 - 1e-6) for q in quotients)
        assert all(b < a for a, b in zip(quotients, quotients[1:]))
        assert res.extrapolated == pytest.approx(BEST_02, rel=0.02)

    def test_denominator_grows_affinely_in_log_eps(self):
        res = sweep_and_extrapolate(K3_PARAMS, eps_list=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        L = np.abs(np.log([r.epsilon for r in res.rows]))
        dens = np.array([r.denominator for r in res.rows])
        coeffs = np.polynomial.polynomial.polyfit(L, dens, 1)
        fitted = coeffs[0] + coeffs[1] * L
        rms = math.sqrt(np.mean((fitted - dens) ** 2))
        assert rms <= 0.01 * abs(coeffs[1]) * L.max()
        # slope must equal the angular Beta factor (omega-free reduction)
        assert coeffs[1] == pytest.approx(beta((math.sqrt(3) - 1) / 2, 0.5), rel=0.05)

    def test_numerator_slope_is_constant_times_beta(self):
        res = sweep_and_extrapolate(K3_PARAMS, eps_list=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        L = np.abs(np.log([r.epsilon for r in res.rows]))
        nums = np.array([r.numerator for r in res.rows])
        coeffs = np.polynomial.polynomial.polyfit(L, nums, 1)
        expected = BEST_02 * beta((math.sqrt(3) - 1) / 2, 0.5)
        assert coeffs[1] == pytest.approx(expected, rel=0.05)

    def test_k_le_1_sweep(self):
        res = sweep_and_extrapolate(HardyParams(3, 2.0, 0.0, -0.05))
        assert res.fit.model is FitModel.LINEAR_SIGMA
        assert res.extrapolated == pytest.approx(1.0, rel=0.02)
        constant = sharp_constant_p2(HardyParams(3, 2.0, 0.0, -0.05)).value
        assert all(r.quotient >= constant * (1 - 1e-6) for r in res.rows)

    def test_general_p_rows_dominate_constant(self):
        res = sweep_and_extrapolate(HardyParams(3, 3.0, 0.0, 0.5),
                                    eps_list=(1e-3, 1e-4))
        constant = (2.0 / 3.0) ** 3
        assert all(r.quotient >= constant * (1 - 1e-6) for r in res.rows)
        assert len(res.rows) == 8

    def test_k_equal_1_band_uses_boundary_family(self):
        beta_star = (-3.0 + math.sqrt(8.0)) / 2.0  # K(beta) = 1 for n=3, a=0
        params = HardyParams(3, 2.0, 0.0, beta_star)
        fam = make_family(params, 1e-3, 0.05)
        assert fam.kind is FamilyKind.P2_K_EQ_1
        res = sweep_and_extrapolate(params)
        assert res.extrapolated == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("pw", [2.5, 3.0])
    def test_general_p_certifies_across_p(self, pw):
        params = HardyParams(3, pw, 0.0, 0.5)
        res = sweep_and_extrapolate(params)
        constant = sharp_constant_general_p(params).value
        assert constant == pytest.approx((2.0 / pw) ** pw, rel=1e-14)
        assert res.extrapolated == pytest.approx(constant, rel=0.02)

    @pytest.mark.parametrize("pw", [2.5, 4.0])
    def test_pole_ratio_intercept_beats_ratio_polynomial(self, pw):
        # f(s) = c0 + c1 s^2 against sin(phi)^(-1 + p sigma): D = B(p sigma/2, 1/2)
        # and N = c0 D + c1 B(p sigma/2 + 1, 1/2), so N/D = c0 + c1 p sigma/(p sigma + 1)
        # is singular at sigma = -1/p while sigma N and sigma D are not
        c0, c1 = 0.3, 2.0
        sigmas = (0.2, 0.1, 0.05, 0.025)
        den = [beta(pw * s / 2.0, 0.5) for s in sigmas]
        num = [c0 * d + c1 * beta(pw * s / 2.0 + 1.0, 0.5) for s, d in zip(sigmas, den)]
        value, resid = rayleigh._fit_pole_ratio(sigmas, num, den)
        plain, _ = rayleigh._fit_sigma_intercept(sigmas, [n / d for n, d in zip(num, den)])
        assert abs(value - c0) < 0.15 * abs(plain - c0)
        assert abs(value - c0) <= resid

    def test_general_p_certifies_at_high_beta(self):
        # n = 2, p = 2.5, beta = 0.9: the ratio polynomial's residual sat at
        # the 5% gate here although its value was 0.56% from the constant
        params = HardyParams(2, 2.5, 0.2, 0.9)
        res = sweep_and_extrapolate(params)
        constant = sharp_constant_general_p(params).value
        assert res.extrapolated == pytest.approx(constant, rel=0.002)
        assert res.fit.residual < 0.02 * res.extrapolated

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_general_p_below_two_certifies(self):
        # sin(phi)^(p sigma - 1) is the Gauss-Jacobi weight, never evaluated,
        # so nothing overflows below p = 2
        params = HardyParams(3, 1.8, 0.0, 0.5)
        res = sweep_and_extrapolate(params)
        constant = sharp_constant_general_p(params).value
        assert res.extrapolated == pytest.approx(constant, rel=0.02)

    @pytest.mark.parametrize("pw,n,alpha,beta_", [
        (pw, 2, 0.2, 0.3) for pw in (1.2, 1.5, 1.8, 2.5, 3.0, 4.0)
    ] + [(pw, 3, 0.0, 0.5) for pw in (1.2, 1.5, 4.0)])
    def test_general_p_grid_within_criterion_6(self, pw, n, alpha, beta_):
        # with p = 1.8, 2.5 and 3 at (3, 0, 0.5) above, the grid covers
        # p in {1.2, 1.5, 1.8, 2.5, 3, 4} at both (n, alpha, beta)
        params = HardyParams(n, pw, alpha, beta_)
        res = sweep_and_extrapolate(params)
        constant = sharp_constant_general_p(params).value
        assert res.extrapolated == pytest.approx(constant, rel=0.02)

    def test_general_p_default_sigma_is_in_units_of_one_over_p(self):
        res = sweep_and_extrapolate(HardyParams(3, 4.0, 0.0, 0.5), eps_list=(1e-3, 1e-4))
        sigmas = sorted({r.sigma for r in res.rows}, reverse=True)
        assert sigmas == [s * 2.0 / 4.0 for s in rayleigh.DEFAULT_SIGMA]

    def test_non_finite_fit_raises(self, monkeypatch):
        monkeypatch.setattr(rayleigh, "quotient_p2",
                            lambda fam, spec=None: QuotientParts(math.nan, 1.0, math.nan))
        with pytest.raises(FitUnstableError) as ei:
            sweep_and_extrapolate(K3_PARAMS)
        assert math.isnan(ei.value.value)

    def test_unstable_fit_carries_its_value(self):
        with pytest.raises(FitUnstableError) as ei:
            # two sigmas: the intercept moves 40% when the slope is dropped
            sweep_and_extrapolate(HardyParams(3, 3.0, 0.0, 0.5),
                                  eps_list=(1e-3, 1e-4),
                                  sigma_list=(0.1, 0.05))
        assert math.isfinite(ei.value.value)
        assert ei.value.residual > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_and_extrapolate(K3_PARAMS, eps_list=(1e-3, 1e-2))
        with pytest.raises(ValueError):
            sweep_and_extrapolate(K3_PARAMS, sigma_list=(0.1,))
        with pytest.raises(ValueError):
            sweep_and_extrapolate(HardyParams(3, 2.0, 0.0, -0.05),
                                  sigma_list=())
        with pytest.raises(UnsupportedRegimeError):
            sweep_and_extrapolate(HardyParams(3, 3.0, 0.0, -0.1))
