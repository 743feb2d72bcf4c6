import math

import numpy as np
import pytest

from anisohardy import (Branch, CknParams, HardyParams, Kind,
                        admissible_hardy, branch_candidates, ckn_constant,
                        compute_K, maximize, sharp_constant_general_k_p2,
                        sharp_constant_general_p, sharp_constant_p2)
from anisohardy.errors import InadmissibleParamsError, UnsupportedRegimeError
from anisohardy.weights import H, H2, H2_larger_root

BEST_02 = (2.0 * math.sqrt(3.0) - 3.0) / 4.0
# (4 - (sqrt(8) - 1)^2)/4, confirmed independently by the optimizer oracle
VALUE_BETA_MINUS_1 = 0.164213562373095


class TestSharpConstantP2:
    def test_paper_vector(self):
        res = sharp_constant_p2(HardyParams(3, 2.0, -0.5, -0.5))
        assert res.value == pytest.approx(BEST_02, abs=1e-12)
        assert res.kind is Kind.SHARP
        assert res.branch is Branch.K_GT_1

    def test_zero_beta_gives_square(self):
        res = sharp_constant_p2(HardyParams(3, 2.0, 0.0, 0.0))
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.branch is Branch.K_LE_0

    def test_beta_minus_one(self):
        res = sharp_constant_p2(HardyParams(3, 2.0, 0.0, -1.0))
        assert res.value == pytest.approx(VALUE_BETA_MINUS_1, abs=1e-12)
        oracle = maximize(HardyParams(3, 2.0, 0.0, -1.0))
        assert abs(oracle.value - res.value) <= 1e-6

    def test_rejects_general_p(self):
        with pytest.raises(UnsupportedRegimeError):
            sharp_constant_p2(HardyParams(3, 3.0, 0.0, 0.0))
        with pytest.raises(UnsupportedRegimeError):
            sharp_constant_p2(HardyParams(4, 2.0, 0.0, 0.0, 2))

    def test_remark_formula_consistency(self):
        for n in range(3, 11):
            got = sharp_constant_p2(HardyParams(n, 2.0, -0.5, -0.5)).value
            ref = (n * n - 6 * n + 6) / 4.0 + math.sqrt(2 * n - 3) / 2.0
            assert got == pytest.approx(ref, abs=1e-12)

    def test_continuous_across_k_equal_1(self):
        # K(beta) = 1 crossing for n=3, alpha=0
        beta_star = (-3.0 + math.sqrt(8.0)) / 2.0
        lo = sharp_constant_p2(HardyParams(3, 2.0, 0.0, beta_star - 1e-6)).value
        hi = sharp_constant_p2(HardyParams(3, 2.0, 0.0, beta_star + 1e-6)).value
        assert abs(lo - hi) <= 1e-4

    def test_positive_on_random_admissible(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 10_000:
            n = int(rng.integers(2, 6))
            a, b = rng.uniform(-2, 2, size=2)
            params = HardyParams(n, 2.0, float(a), float(b))
            if not admissible_hardy(params):
                continue
            checked += 1
            assert sharp_constant_p2(params).value > 0.0


class TestSharpConstantGeneralP:
    def test_beta_nonneg_sharp(self):
        res = sharp_constant_general_p(HardyParams(3, 3.0, 0.0, 0.5, 2))
        assert res.value == pytest.approx((2.0 / 3.0) ** 3, abs=1e-13)
        assert res.kind is Kind.SHARP

    def test_matches_p2_at_beta_zero(self):
        res = sharp_constant_general_p(HardyParams(3, 2.0, 0.0, 0.0, 2))
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.kind is Kind.SHARP
        p2 = sharp_constant_p2(HardyParams(3, 2.0, 0.25, 0.0))
        gen = sharp_constant_general_p(HardyParams(3, 2.0, 0.25, 0.0))
        assert gen.value == pytest.approx(p2.value, abs=1e-12)

    def test_lower_bound_branch(self):
        res = sharp_constant_general_p(HardyParams(4, 2.0, 0.3, -0.2, 2))
        assert res.value == pytest.approx(1.21, abs=1e-12)
        assert res.kind is Kind.LOWER_BOUND
        assert res.branch is Branch.BETA_NEG

    def test_delegates_sharp_p2_for_negative_beta(self):
        res = sharp_constant_general_p(HardyParams(3, 2.0, -0.5, -0.5))
        assert res.value == pytest.approx(BEST_02, abs=1e-12)
        assert res.kind is Kind.SHARP

    def test_unsupported_when_no_bound_exists(self):
        # beta < 0, p != 2, k + p(alpha+beta) <= 0 but still admissible
        params = HardyParams(3, 3.0, 0.0, -0.8, 2)
        assert admissible_hardy(params)
        with pytest.raises(UnsupportedRegimeError):
            sharp_constant_general_p(params)


class TestGeneralKP2:
    def test_reduces_to_full_axis_theorem(self):
        res = sharp_constant_general_k_p2(HardyParams(3, 2.0, -0.5, -0.5, 2))
        assert res.value == pytest.approx(BEST_02, abs=1e-12)
        assert res.kind is Kind.SHARP

    @pytest.mark.parametrize("n,k,alpha,beta,expected", [
        (4, 2, 0.0, 0.0, 1.0),
        (5, 2, 0.0, -1.0, 0.75),
    ])
    def test_conjectured_values_match_oracle(self, n, k, alpha, beta, expected):
        params = HardyParams(n, 2.0, alpha, beta, k)
        res = sharp_constant_general_k_p2(params)
        assert res.kind is Kind.CONJECTURED
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert abs(maximize(params).value - res.value) <= 1e-6

    def test_rejects_p_not_2(self):
        with pytest.raises(UnsupportedRegimeError):
            sharp_constant_general_k_p2(HardyParams(4, 3.0, 0.0, 0.0, 2))


class TestBranchCandidates:
    def test_k_gt_1_branch_points(self):
        params = HardyParams(3, 2.0, -0.5, -0.5)
        (pair1, val1), (pair2, val2) = branch_candidates(params)
        assert pair1.theta == pytest.approx(-(2.0 - math.sqrt(3.0)) / 2.0, abs=1e-14)
        assert pair1.lam == pytest.approx(0.5 - math.sqrt(3.0) / 2.0, abs=1e-14)
        assert val1 == pytest.approx(BEST_02, abs=1e-13)
        # second branch point sits strictly below the first
        assert pair2.theta == pytest.approx(-(2.0 + math.sqrt(3.0)) / 2.0, abs=1e-14)
        assert val2 < val1
        # lam1^2 = 2 beta theta1 on the branch
        assert pair1.lam ** 2 == pytest.approx(2 * params.beta * pair1.theta, abs=1e-12)

    def test_beta_zero_vertex(self):
        params = HardyParams(3, 2.0, 0.0, 0.0)
        [(pair, val)] = branch_candidates(params)
        assert pair.theta == pytest.approx(-1.0, abs=1e-14)
        assert val == pytest.approx(1.0, abs=1e-14)
        # both constraint roots solve lam (lam + 3 + 2 theta) = 0
        assert pair.lam in (0.0, -1.0)

    def test_all_candidates_on_constraint(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 6))
            a, b = rng.uniform(-1.5, 1.5, size=2)
            params = HardyParams(n, 2.0, float(a), float(b))
            if not admissible_hardy(params):
                continue
            checked += 1
            for pair, val in branch_candidates(params):
                assert abs(H2(pair.theta, pair.lam, params)) <= 1e-10
                assert val == pytest.approx(H(pair.theta, params), abs=1e-12)

    @pytest.mark.parametrize("beta_", [1e4, 3e5])
    def test_k_le_0_root_does_not_cancel_at_large_beta(self, beta_):
        # bq = 1 + 2 beta > 0, where -bq + sqrt(disc) cancels: H2 must stay
        # at the rounding of its terms, of size 2 beta |theta|
        params = HardyParams(3, 2.0, 0.0, beta_)
        [(pair, _)] = branch_candidates(params)
        assert abs(H2(pair.theta, pair.lam, params)) <= 4e-16 * abs(2.0 * beta_ * pair.theta)
        assert pair.lam == H2_larger_root(pair.theta, params)

    def test_lam1_squared_identity_fuzz(self):
        # lam1 = -b - sqrt(K)/2 and theta1 = (-(n+2a) + sqrt(K))/2 satisfy
        # lam1^2 = 2 b theta1 for every admissible instance with K > 0
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 300:
            n = int(rng.integers(2, 6))
            a = float(rng.uniform(-1.5, 1.5))
            b = float(rng.uniform(-1.5, -1e-3))
            params = HardyParams(n, 2.0, a, b)
            if not admissible_hardy(params):
                continue
            K = compute_K(params).k_value
            if K <= 0:
                continue
            checked += 1
            theta1 = (-(n + 2 * a) + math.sqrt(K)) / 2.0
            lam1 = -b - math.sqrt(K) / 2.0
            assert lam1 ** 2 == pytest.approx(2 * b * theta1,
                                              abs=1e-12 * (1 + lam1 ** 2))


class TestCknConstant:
    def test_sharp_case(self):
        res = ckn_constant(CknParams(3, 2.0, gamma1=-0.5))
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.kind is Kind.SHARP

    def test_sharp_case_n2(self):
        res = ckn_constant(CknParams(2, 2.0, gamma1=-0.5))
        assert res.value == pytest.approx(0.5, abs=1e-14)
        assert res.kind is Kind.SHARP

    def test_lower_bound_when_extremal_family_degenerates(self):
        res = ckn_constant(CknParams(3, 3.0, gamma1=0.0, gamma2=1.0, gamma3=0.0))
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.kind is Kind.LOWER_BOUND

    def test_rejects_unbalanced(self):
        with pytest.raises(InadmissibleParamsError):
            ckn_constant(CknParams(3, 2.0))
