import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisohardy import (ExponentPair, HardyParams, WeightSpec,
                        branch_candidates, divergence_oracle,
                        divergence_oracle_p, weight_general_p, weight_p2)
from anisohardy.errors import SingularPointError
from anisohardy.weights import H, H1, H2

finite = st.floats(-5, 5, allow_nan=False)


def _params(n=3, p=2.0, alpha=-0.5, beta=-0.5, k=None):
    return HardyParams(n, p, alpha, beta, k)


class TestQuadratics:
    def test_h_roots_and_vertex(self):
        params = _params(alpha=-0.5)
        assert H(0.0, params) == 0.0
        assert H(-(params.k + 2 * params.alpha), params) == 0.0
        assert H(-0.5, params) == pytest.approx(0.25)  # vertex (n-1+2a)^2/4

    def test_h2_examples(self):
        assert H2(1.0, 0.0, _params(alpha=1.0, beta=0.0)) == 0.0
        params = _params(alpha=0.0, beta=1.0)
        assert H2(1.0, 1.0, params) == pytest.approx(10.0)
        (pair1, _), _ = branch_candidates(_params())
        assert H2(pair1.theta, pair1.lam, _params()) == pytest.approx(0.0, abs=1e-12)

    def test_h1_is_difference(self):
        params = _params()
        (pair1, _), _ = branch_candidates(params)
        assert H1(pair1.theta, pair1.lam, params) == pytest.approx(
            (2 * math.sqrt(3) - 3) / 4, abs=1e-13)
        assert H1(0.0, 0.0, params) == 0.0

    @given(finite, finite, finite, finite)
    @settings(max_examples=300, deadline=None)
    def test_h1_plus_h2_is_h(self, theta, lam, alpha, beta):
        params = _params(alpha=alpha, beta=beta)
        total = H1(theta, lam, params) + H2(theta, lam, params)
        assert total == pytest.approx(H(theta, params), abs=1e-13 * (1 + abs(total)))

    def test_gradient_difference_identity(self):
        # d/dtheta H1 - d/dlam H1 == 1, by central differences
        rng = np.random.default_rng(5)
        params = _params(alpha=0.3, beta=-0.2)
        h = 1e-5
        for _ in range(1000):
            th, la = rng.uniform(-4, 4, size=2)
            dth = (H1(th + h, la, params) - H1(th - h, la, params)) / (2 * h)
            dla = (H1(th, la + h, params) - H1(th, la - h, params)) / (2 * h)
            assert dth - dla == pytest.approx(1.0, abs=1e-8)


class TestWeightP2:
    def test_angular_term_vanishes_on_hyperplane(self):
        params = _params()
        spec = WeightSpec(params, exponents=ExponentPair(0.3, -0.2))
        x = np.array([0.8, 0.6, 0.0])  # x_n = 0
        s = math.hypot(0.8, 0.6)
        v = s ** (2 * params.alpha + 2) * s ** (2 * params.beta)
        expected = H1(0.3, -0.2, params) * v / s ** 2
        assert weight_p2(x, spec) == pytest.approx(expected, rel=1e-13)

    def test_zero_exponents_give_zero_weight(self):
        spec = WeightSpec(_params(n=2, alpha=0.0, beta=0.0, k=1),
                          exponents=ExponentPair(0.0, 0.0))
        assert weight_p2(np.array([1.0, 1.0]), spec) == 0.0

    def test_collapses_on_constraint(self):
        params = _params()
        (pair1, val1), _ = branch_candidates(params)
        spec = WeightSpec(params, exponents=pair1)
        rng = np.random.default_rng(3)
        ratios = []
        for _ in range(100):
            x = rng.uniform(0.2, 2.0, size=3) * rng.choice([-1, 1], size=3)
            s = np.linalg.norm(x[:2])
            r = np.linalg.norm(x)
            ratios.append(weight_p2(x, spec)
                          / (s ** (2 * params.alpha) * r ** (2 * params.beta)))
        spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
        assert spread <= 1e-9
        assert np.mean(ratios) == pytest.approx(val1, rel=1e-12)

    def test_guard_zone_raises(self):
        spec = WeightSpec(_params(), exponents=ExponentPair(0.1, 0.1))
        with pytest.raises(SingularPointError):
            weight_p2(np.array([0.0, 0.0, 1.0]), spec)


class TestWeightGeneralP:
    def test_vertex_collapse(self):
        # at gamma = -(k+pa)/p with beta = 0 the weight is |gamma|^p V |x'|^-p
        params = _params(n=3, p=3.0, alpha=0.0, beta=0.0)
        g0 = -(params.k + 3.0 * 0.0) / 3.0
        spec = WeightSpec(params, gamma=g0)
        x = np.array([0.7, -0.4, 1.1])
        s = np.linalg.norm(x[:2])
        v = s ** (3.0 * 1.0)
        assert weight_general_p(x, spec) == pytest.approx(
            abs(g0) ** 3 * v * s ** -3.0, rel=1e-13)

    def test_p2_reduction_matches_pair_weight(self):
        params = _params(n=3, p=2.0, alpha=0.3, beta=-0.2)
        rng = np.random.default_rng(9)
        for gamma in (-0.8, 0.7):
            spec_g = WeightSpec(params, gamma=gamma)
            spec_pair = WeightSpec(params, exponents=ExponentPair(gamma, 0.0))
            for _ in range(20):
                x = rng.uniform(0.3, 2.0, size=3)
                assert weight_general_p(x, spec_g) == pytest.approx(
                    weight_p2(x, spec_pair), abs=1e-12)

    def test_gamma_zero_is_zero(self):
        spec = WeightSpec(_params(p=1.5, alpha=0.2, beta=0.1), gamma=0.0)
        assert weight_general_p(np.array([1.0, 1.0, 1.0]), spec) == 0.0

    def test_spec_requires_exactly_one_path(self):
        with pytest.raises(ValueError):
            WeightSpec(_params())
        with pytest.raises(ValueError):
            WeightSpec(_params(), exponents=ExponentPair(0.1, 0.1), gamma=0.5)


class TestDivergenceOracle:
    def test_classical_hardy_weight(self):
        value = divergence_oracle(lambda x: 1.0,
                                  lambda x: np.sqrt(np.sum(x * x)) ** -0.5,
                                  np.array([1.0, 0.0, 0.0]))
        assert value == pytest.approx(0.25, rel=1e-7)

    def test_punctured_disc_log_weight(self):
        x = np.array([0.3, 0.1])
        value = divergence_oracle(
            lambda z: abs(z[0]) / np.linalg.norm(z),
            lambda z: np.sqrt(-np.log(np.sqrt(np.sum(z * z)))), x)
        r = np.linalg.norm(x)
        assert value == pytest.approx(abs(x[0]) / (4 * r ** 3 * math.log(r) ** 2),
                                      rel=1e-6)

    def test_matches_closed_weight_at_branch_point(self):
        params = _params()
        (pair1, _), _ = branch_candidates(params)
        spec = WeightSpec(params, exponents=pair1)
        x = np.array([0.5, -0.2, 0.8])
        assert divergence_oracle(spec.V, spec.f, x) == pytest.approx(
            weight_p2(x, spec), rel=1e-7)

    def test_near_cancellation_point(self):
        # |w| = 2.1e-3 against terms of order one: a central second
        # difference of f missed 1e-6 relative here by 1.7x
        params = HardyParams(3, 2.0, 0.8781972007851815, 1.2523149275393424, 2)
        spec = WeightSpec(params, exponents=ExponentPair(0.9003362344784716,
                                                         -1.1747525574378614))
        x = np.array([1.3630756271304705, 0.41201051507289455, 1.1674313319067404])
        closed = weight_p2(x, spec)
        assert abs(closed) < 3e-3
        assert divergence_oracle(spec.V, spec.f, x) == pytest.approx(closed, rel=1e-6)

    def test_oracle_vs_closed_form_sample(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            while True:
                a, b = rng.uniform(-1.2, 1.2, size=2)
                params = HardyParams(n, 2.0, float(a), float(b))
                if (params.k + 2 * a > 0.1 and 2 * (a + b) + n > 0.1):
                    break
            spec = WeightSpec(params, exponents=ExponentPair(
                float(rng.uniform(-1.2, 1.2)), float(rng.uniform(-1.2, 1.2))))
            done = 0
            while done < 10:
                x = rng.uniform(-2, 2, size=n)
                s, r = np.linalg.norm(x[:params.k]), np.linalg.norm(x)
                if not (s > 0.35 and r > 0.35 and r < 2.5):
                    continue
                closed = weight_p2(x, spec)
                if abs(closed) < 1e-3:
                    continue
                done += 1
                assert divergence_oracle(spec.V, spec.f, x) == pytest.approx(
                    closed, rel=1e-6)


class TestDivergenceOracleP:
    def test_p2_is_the_same_operator(self):
        params = _params(alpha=0.2, beta=0.1)
        spec = WeightSpec(params, exponents=ExponentPair(0.4, -0.3))
        x = np.array([1.0, 0.7, -0.4])
        assert divergence_oracle_p(spec.V, spec.f, 2.0, x) == pytest.approx(
            divergence_oracle(spec.V, spec.f, x), abs=1e-10)

    def test_matches_general_p_weight(self):
        params = HardyParams(3, 3.0, 0.0, 0.5, 2)
        spec = WeightSpec(params, gamma=-2.0 / 3.0)
        x = np.array([1.0, 0.0, 1.0])
        assert divergence_oracle_p(spec.V, spec.f, 3.0, x) == pytest.approx(
            weight_general_p(x, spec), rel=1e-6)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_oracle_sample_per_exponent(self, p):
        rng = np.random.default_rng(int(p * 10))
        while True:
            n = int(rng.integers(2, 4))
            a, b = rng.uniform(-0.7, 0.7, size=2)
            params = HardyParams(n, p, float(a), float(b))
            if params.k + p * a > 0.1 and p * (a + b) + n > 0.1:
                break
        spec = WeightSpec(params, gamma=float(rng.uniform(0.3, 1.0)))
        done = 0
        while done < 8:
            x = rng.uniform(-2, 2, size=n)
            s, r = np.linalg.norm(x[:params.k]), np.linalg.norm(x)
            if not (s > 0.4 and r > 0.4 and r < 2.5):
                continue
            closed = weight_general_p(x, spec)
            if abs(closed) < 1e-3:
                continue
            done += 1
            assert divergence_oracle_p(spec.V, spec.f, p, x) == pytest.approx(
                closed, rel=1e-5)

    def test_flat_unit_field_at_p1(self):
        value = divergence_oracle_p(lambda z: 1.0, lambda z: np.sqrt(z[0] ** 2), 1.0,
                                    np.array([1.0, 0.5]))
        assert value == pytest.approx(0.0, abs=1e-12)


class TestIllConditioned:
    def test_kink_inside_stencil_is_flagged(self):
        from anisohardy.errors import IllConditionedError
        with pytest.raises(IllConditionedError) as ei:
            divergence_oracle(lambda z: 1.0, lambda z: np.sqrt(z[0] ** 2) + 1.0,
                              np.array([1e-4, 1.0]))
        assert ei.value.disagreement > 1e-4

    @pytest.mark.parametrize("f", [lambda z: abs(z[0]) + 1.0,
                                   lambda z: np.linalg.norm(z) ** -0.5,
                                   lambda z: float(np.real(z[0])) + 2.0],
                             ids=["abs", "norm", "float"])
    def test_non_analytic_field_is_refused(self, f):
        # a real value at a complex point: the complex step would read 0
        with pytest.raises(ValueError, match="complex-analytic"):
            divergence_oracle(lambda z: 1.0, f, np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="complex-analytic"):
            divergence_oracle_p(lambda z: 1.0, f, 3.0, np.array([0.5, 1.0]))


def _weight_p2_formula(x, spec):
    """weight_p2 written out in one piece, norms included."""
    p = spec.params
    arr = np.asarray(x, dtype=float)
    s = np.sqrt(np.sum(arr[..., :p.k] ** 2, axis=-1))
    r = np.sqrt(np.sum(arr ** 2, axis=-1))
    if np.any(s < 1e-8 * (1.0 + r)):
        raise SingularPointError("guard")
    th, la = spec.exponents.theta, spec.exponents.lam
    v = s ** (2.0 * p.alpha + 2.0) * r ** (2.0 * p.beta)
    w = H1(th, la, p) * v / s ** 2 + H2(th, la, p) * v * (r * r - s * s) / (s * s * r * r)
    return float(w) if arr.ndim == 1 else w


def _weight_general_p_formula(x, spec):
    """weight_general_p written out in one piece, norms included."""
    p = spec.params
    arr = np.asarray(x, dtype=float)
    s = np.sqrt(np.sum(arr[..., :p.k] ** 2, axis=-1))
    r = np.sqrt(np.sum(arr ** 2, axis=-1))
    if np.any(s < 1e-8 * (1.0 + r)):
        raise SingularPointError("guard")
    g = spec.gamma
    if g == 0.0:
        w = np.zeros_like(s)
    else:
        gq = abs(g) ** (p.p - 2.0) * g
        v = s ** (p.p * (p.alpha + 1.0)) * r ** (p.p * p.beta)
        w = v * s ** (-p.p) * (-gq * ((p.p - 1.0) * g + p.k + p.p * p.alpha)
                               - gq * p.beta * p.p * (s * s) / (r * r))
    return float(w) if arr.ndim == 1 else w


class TestWeightsFromNorms:
    """The public weights, now thin wrappers of the norm helpers the identity
    checks call, keep the bits of the formula written out in one piece."""

    SHAPES = [(), (64,), (5, 7)]

    @staticmethod
    def _bits(w):
        return np.asarray(w).tobytes(), type(w)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (3, 1), (4, 2), (5, 4)])
    def test_weight_p2(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        spec = WeightSpec(_params(n, 2.0, -0.3, 0.4, k), exponents=ExponentPair(0.35, -0.2))
        for shape in self.SHAPES:
            x = rng.uniform(0.2, 2.0, size=shape + (n,))
            assert self._bits(weight_p2(x, spec)) == self._bits(_weight_p2_formula(x, spec))

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (3, 1), (4, 3)])
    @pytest.mark.parametrize("p,gamma", [(1.5, -0.4), (3.0, 0.6), (2.5, 0.0)])
    def test_weight_general_p(self, n, k, p, gamma):
        rng = np.random.default_rng(n * 10 + k)
        spec = WeightSpec(_params(n, p, 0.2, 0.3, k), gamma=gamma)
        for shape in self.SHAPES:
            x = rng.uniform(0.2, 2.0, size=shape + (n,))
            assert self._bits(weight_general_p(x, spec)) == \
                self._bits(_weight_general_p_formula(x, spec))

    def test_guard_zone_raises_on_both_paths(self):
        params = _params(3, 2.0, 0.0, 0.0)
        x = np.array([[1.0, 1.0, 1.0], [0.0, 1e-9, 1.0]])
        for weight, spec in ((weight_p2, WeightSpec(params, exponents=ExponentPair(0.1, 0.1))),
                             (weight_general_p, WeightSpec(params, gamma=0.0))):
            for pts in (x, x[1]):
                with pytest.raises(SingularPointError):
                    weight(pts, spec)


def _oracle_draws(seed=2024):
    """(spec, p, point) triples: p = 2 pair specs at n = 2..5 on the full
    axis and, for n >= 3, on k = 1, three points each; gamma specs at
    p = 1.5 and 3 for n = 2..5, two points each.  40 in all, with
    |x'| > 0.3 and 0.3 < |x| < 2.5."""
    rng = np.random.default_rng(seed)

    def params(n, p, k):
        while True:
            a, b = rng.uniform(-0.7, 0.7, size=2)
            par = HardyParams(n, p, float(a), float(b), k)
            if k + p * a > 0.1 and p * (a + b) + n > 0.1:
                return par

    def points(n, k, count):
        kept = []
        while len(kept) < count:
            x = rng.uniform(-2.0, 2.0, size=n)
            s, r = np.linalg.norm(x[:k]), np.linalg.norm(x)
            if s > 0.3 and 0.3 < r < 2.5:
                kept.append(x)
        return kept

    draws = []
    for n, k in ((2, 1), (3, 2), (3, 1), (4, 3), (4, 1), (5, 4), (5, 1), (5, 2)):
        pair = ExponentPair(*(float(v) for v in rng.uniform(-1.5, 1.5, size=2)))
        spec = WeightSpec(params(n, 2.0, k), exponents=pair)
        draws += [(spec, 2.0, x) for x in points(n, k, 3)]
    for p in (1.5, 3.0):
        for n in (2, 3, 4, 5):
            spec = WeightSpec(params(n, p, n - 1), gamma=float(rng.uniform(0.3, 1.0)))
            draws += [(spec, p, x) for x in points(n, n - 1, 2)]
    return draws


class TestOracleGolden:
    """The oracle's values on seeded (spec, point) pairs, as the sha256 of
    their float.hex in order, and the oracle's per-point path free of numpy's
    Python wrappers np.sum and np.imag: each reduction calls the ufunc method
    the wrapper ends in, with the same bits and fewer Python-level calls."""

    def test_values_to_the_bit(self):
        import hashlib
        values = []
        for spec, p, x in _oracle_draws():
            values.append(divergence_oracle(spec.V, spec.f, x) if p == 2.0
                          else divergence_oracle_p(spec.V, spec.f, p, x))
        assert len(values) == 40
        digest = hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()
        assert digest == "b2a8868bf2686ceb5c32f888799e3d7497ce647768273dc305bc61526a761095"

    def test_criterion_11_to_the_bit(self):
        from anisohardy.report import run_criterion_11
        details = run_criterion_11().details
        assert details["weight_worst"] == 4.732243149620835e-11
        assert details["leray_worst"] == 7.343354232400499e-10

    def test_path_calls_no_sum_or_imag_wrapper(self, monkeypatch):
        draws = _oracle_draws()[::5]
        expected = [divergence_oracle_p(spec.V, spec.f, p, x) for spec, p, x in draws]

        def refused(*args, **kwargs):
            raise AssertionError("the oracle's path called a numpy wrapper")

        monkeypatch.setattr(np, "sum", refused)
        monkeypatch.setattr(np, "imag", refused)
        got = [divergence_oracle_p(spec.V, spec.f, p, x) for spec, p, x in draws]
        assert got == expected
