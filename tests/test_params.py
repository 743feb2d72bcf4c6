import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisohardy import (CknParams, ExponentPair, HardyParams, RegimeFamily,
                        admissible_ckn, admissible_hardy, compute_K)
from anisohardy.errors import InadmissibleParamsError


class TestHardyParams:
    def test_defaults_k_to_n_minus_1(self):
        assert HardyParams(3).k == 2
        assert HardyParams(5, 2.0, 0.1, 0.2).k == 4

    @pytest.mark.parametrize("kwargs", [
        dict(n=1),
        dict(n=3, k=0),
        dict(n=3, k=3),
        dict(n=3, p=0.5),
        dict(n=3.0),
        dict(n=3, k=1.0),
        dict(n=3, p=math.inf),
        dict(n=3, alpha=math.inf),
        dict(n=3, beta=-math.inf),
        dict(n=3, alpha=math.nan),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            HardyParams(**kwargs)

    @pytest.mark.parametrize("pw,beta", [(1000.0, 0.5), (165.0, 0.5), (400.0, -0.001)])
    def test_constant_below_the_smallest_normal_is_refused(self, pw, beta):
        # ((k + p alpha)/p)^p at alpha = 0 is 0.002^1000 = 0.0 and
        # (2/165)^165 = 6.1e-317, a subnormal; at beta < 0 the lower bound
        # 0.004^400 = 0.0.  0.002^1000 was reported as the sharp constant 0.0
        with pytest.raises(OverflowError, match=r"\)\^p = .* outside double range, below "
                                                r"the smallest normal double, at HardyParams"):
            HardyParams(3, pw, 0.0, beta)

    def test_constant_just_above_the_smallest_normal_is_kept(self):
        # (2/160)^160 = 3.2e-305
        assert HardyParams(3, 160.0, 0.0, 0.5).p == 160.0

    def test_accepts_numpy_integers(self):
        params = HardyParams(np.int64(3), 2.0, 0.0, 0.0, np.int32(1))
        assert params == HardyParams(3, 2.0, 0.0, 0.0, 1)
        assert type(params.n) is int and type(params.k) is int
        assert type(HardyParams(np.int64(4)).k) is int


class TestAdmissibleHardy:
    def test_paper_instance_is_admissible(self):
        assert admissible_hardy(HardyParams(3, 2.0, -0.5, -0.5, 2))

    def test_boundary_is_inadmissible(self):
        # 2*alpha = 1 - n exactly: not strict
        assert not admissible_hardy(HardyParams(2, 2.0, -0.5, 0.0, 1))

    def test_direct_substitution(self):
        assert admissible_hardy(HardyParams(3, 2.0, 0.0, -1.4, 2))

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_alpha(self, alpha, beta, bump):
        base = HardyParams(3, 2.0, alpha, beta)
        raised = HardyParams(3, 2.0, alpha + bump, beta)
        if admissible_hardy(base):
            assert admissible_hardy(raised)


class TestAdmissibleCkn:
    def test_all_three_gates_pass(self):
        flags = admissible_ckn(CknParams(3, 2.0, gamma1=-0.5))
        assert flags.integrable and flags.balanced and flags.normalized
        assert flags.all_ok

    def test_unbalanced(self):
        flags = admissible_ckn(CknParams(3, 2.0))
        assert flags.integrable
        assert not flags.balanced

    def test_integrability_boundary(self):
        flags = admissible_ckn(CknParams(2, 2.0, alpha=-0.6))
        assert not flags.integrable

    def test_requires_p_above_1(self):
        with pytest.raises(ValueError):
            CknParams(3, 1.0)

    @pytest.mark.parametrize("field", ["p", "alpha", "beta", "mu",
                                       "gamma1", "gamma2", "gamma3"])
    def test_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match=field):
            CknParams(**{"n": 3, "p": 2.0, field: math.inf})

    def test_accepts_numpy_integer_n(self):
        assert type(CknParams(np.int64(3), 2.0).n) is int


class TestComputeK:
    @pytest.mark.parametrize("n,alpha,beta,expected,family", [
        (3, -0.5, -0.5, 3.0, RegimeFamily.K_GT_1),
        (3, 0.0, 0.0, 0.0, RegimeFamily.K_LT_1),
        (4, 0.0, 1.0, -20.0, RegimeFamily.K_LT_1),
    ])
    def test_examples(self, n, alpha, beta, expected, family):
        regime = compute_K(HardyParams(n, 2.0, alpha, beta))
        assert regime.k_value == pytest.approx(expected, abs=1e-12)
        assert regime.family is family

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleParamsError):
            compute_K(HardyParams(2, 2.0, -0.5, 0.0))

    def test_near_one_routes_to_equality_band(self):
        # solve -4b(n+2a+b) = 1 for n=3, a=0 and nudge inside the band
        beta = (-3.0 + math.sqrt(8.0)) / 2.0
        regime = compute_K(HardyParams(3, 2.0, 0.0, beta + 1e-13))
        assert regime.family is RegimeFamily.K_EQ_1

    def test_two_forms_agree_on_fuzz(self):
        rng = np.random.default_rng(0)
        n = rng.integers(2, 8, size=10_000).astype(float)
        a = rng.uniform(-4, 4, size=10_000)
        b = rng.uniform(-4, 4, size=10_000)
        k1 = -4.0 * b * (n + 2 * a + b)
        k2 = (n + 2 * a) ** 2 - (n + 2 * a + 2 * b) ** 2
        scale = np.maximum(1.0, np.maximum(np.abs(k1), (n + 2 * a) ** 2))
        assert np.max(np.abs(k1 - k2) / scale) <= 1e-12

    def test_k_strictly_below_square_on_admissible(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 2000:
            n = int(rng.integers(2, 6))
            a, b = rng.uniform(-2, 2, size=2)
            params = HardyParams(n, 2.0, float(a), float(b))
            if not admissible_hardy(params) or n + 2 * a + 2 * b < 1e-3:
                continue
            checked += 1
            K = compute_K(params).k_value
            assert K <= (n + 2 * a) ** 2 * (1 - 1e-15)


class TestExponentPair:
    @pytest.mark.parametrize("theta,lam", [(math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_non_finite(self, theta, lam):
        with pytest.raises(ValueError):
            ExponentPair(theta, lam)
