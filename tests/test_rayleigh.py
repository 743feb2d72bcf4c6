import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from anisohardy import (FamilyKind, HardyParams, TrialFamily, beta, compute_K,
                        cutoff_eta, cutoff_eta_prime, integrate_1d, integrate_2d,
                        integrate_rows, quotient_general_p, quotient_p2,
                        sharp_constant_general_p, sharp_constant_p2, sin_power_integral,
                        sweep_and_extrapolate)
from anisohardy import quadrature, rayleigh
from anisohardy.cli import main
from anisohardy.errors import (FitUnstableError, NotConvergedError,
                               SingularParamsError, UnsupportedRegimeError)
from anisohardy.params import RegimeFamily, admissible_hardy
from anisohardy.quadrature import integrate_angular
from anisohardy.rayleigh import FitModel, QuotientParts

K3_PARAMS = HardyParams(3, 2.0, -0.5, -0.5)
BEST_02 = (2.0 * math.sqrt(3.0) - 3.0) / 4.0


def _planned_kind(params, sigmas=None):
    """The family kind the sweep planner picks for params."""
    return rayleigh._plan_sweep(params, None, sigmas)[0]


class TestTrialFamily:
    def test_kind_selection_follows_regime(self):
        assert _planned_kind(K3_PARAMS) is FamilyKind.P2_K_GT_1
        assert _planned_kind(HardyParams(3, 2.0, 0.0, -0.05)) is FamilyKind.P2_K_LT_1
        assert _planned_kind(HardyParams(3, 3.0, 0.0, 0.5)) is FamilyKind.GENERAL_P_BETA_NONNEG

    def test_k_gt_1_exponents(self):
        fam = TrialFamily(FamilyKind.P2_K_GT_1, K3_PARAMS, 1e-3)
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

    def test_divergent_reduced_exponent_is_refused(self):
        # the K = 1 family at beta = -0.6: the radial exponent of the
        # denominator is 2 sigma + 2 beta = -1.1
        with pytest.raises(SingularParamsError,
                           match=r"^reduced radial exponent -1\.0999\d* <= -1; integral diverges$"):
            TrialFamily(FamilyKind.P2_K_EQ_1, HardyParams(3, 2.0, 0.0, -0.6), 1e-3, 0.05)

    def test_no_general_p_family_for_negative_beta(self):
        with pytest.raises(UnsupportedRegimeError):
            _planned_kind(HardyParams(3, 3.0, 0.0, -0.1), (0.05,))


class TestQuotientP2:
    def test_k3_bracket(self):
        q = quotient_p2(TrialFamily(FamilyKind.P2_K_GT_1, K3_PARAMS, 1e-3))
        assert BEST_02 < q.quotient < BEST_02 + 1.0

    def test_monotone_toward_limit(self):
        q_coarse = quotient_p2(TrialFamily(FamilyKind.P2_K_GT_1, K3_PARAMS, 1e-3))
        q_fine = quotient_p2(TrialFamily(FamilyKind.P2_K_GT_1, K3_PARAMS, 1e-5))
        assert q_fine.quotient < q_coarse.quotient

    def test_breakdown_sums(self):
        q = quotient_p2(TrialFamily(FamilyKind.P2_K_GT_1, K3_PARAMS, 1e-4))
        assert q.numerator == pytest.approx(q.j1 + q.j2 + q.j3, rel=1e-12)

    def test_k_lt_1_family_near_square(self):
        fam = TrialFamily(FamilyKind.P2_K_LT_1, HardyParams(3, 2.0, 0.0, 0.0), 1e-4, 0.05)
        q = quotient_p2(fam)
        assert abs(q.quotient - 1.0) < 0.2

    def test_rejects_general_p_family(self):
        fam = TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, HardyParams(3, 3.0, 0.0, 0.5),
                          1e-3, 0.05)
        with pytest.raises(ValueError):
            quotient_p2(fam)


def _seeded_p2_families(seed, count=4):
    """count admissible full-axis p = 2 families per regime K > 1, K = 1, K < 1."""
    rng = np.random.default_rng(seed)
    found = {family: [] for family in RegimeFamily}
    while any(len(fams) < count for fams in found.values()):
        n = int(rng.integers(2, 6))
        alpha = float(rng.uniform(-1.0, 1.0))
        if len(found[RegimeFamily.K_EQ_1]) < count:
            c = n + 2.0 * alpha         # K = -4b(c + b) = 1 at this root
            beta_ = (-c + math.sqrt(c * c - 1.0)) / 2.0 if c > 1.0 else 0.0
        else:
            beta_ = float(rng.uniform(-2.0, 1.0))
        params = HardyParams(n, 2.0, alpha, beta_)
        if not admissible_hardy(params):
            continue
        regime = compute_K(params)
        if len(found[regime.family]) == count:
            continue
        eps = float(rng.choice(rayleigh.DEFAULT_EPS))
        if regime.family is RegimeFamily.K_GT_1:
            kind, sigma = FamilyKind.P2_K_GT_1, 0.0
        elif regime.family is RegimeFamily.K_EQ_1:
            kind, sigma = FamilyKind.P2_K_EQ_1, float(rng.uniform(0.01, 0.2))
        else:
            kind = FamilyKind.P2_K_LT_1
            sigma = float(rng.uniform(0.05, 0.95)) * math.sqrt(1.0 - regime.k_value) / 2.0
        found[regime.family].append(TrialFamily(kind, params, eps, sigma))
    return [fam for fams in found.values() for fam in fams]


def _exponents(fam):
    """(theta, mu, nu) as quotient_p2 forms them."""
    p = fam.params
    theta = fam.h_exponent
    mu = p.n + 2.0 * p.alpha + 2.0 * theta
    return theta, mu, mu + 2.0 * p.beta


class TestStackedRadials:
    """quotient_p2's one radial pass against separate integrate_1d calls."""

    SPEC = rayleigh._SWEEP_SPEC_1D

    @pytest.mark.parametrize("fam", _seeded_p2_families(2026), ids=lambda f: f.kind.value)
    def test_matches_separate_integrals_bit_for_bit(self, fam):
        theta, mu, nu = _exponents(fam)
        R = self.SPEC.truncation_radius

        def g(r):
            return fam.g_and_prime(r)[0]

        def gp(r):
            return fam.g_and_prime(r)[1]

        alone = (integrate_1d(lambda r: g(r) ** 2 * r ** (nu - 1.0), 0.0, R, self.SPEC),
                 integrate_1d(lambda r: gp(r) ** 2 * r ** (nu + 1.0), 0.0, R, self.SPEC),
                 integrate_1d(lambda r: g(r) * gp(r) * r ** nu, 0.0, R, self.SPEC))

        def rows(r):
            gv, gpv = fam.g_and_prime(r)
            return gv ** 2 * r ** (nu - 1.0), gpv ** 2 * r ** (nu + 1.0), gv * gpv * r ** nu

        stacked = integrate_rows(rows, 0.0, R, self.SPEC)
        assert [(r.value.hex(), r.err_estimate.hex()) for r in stacked] == \
            [(r.value.hex(), r.err_estimate.hex()) for r in alone]

        den, j2, j3 = (r.value for r in alone)
        ang_m2, ang = sin_power_integral(mu - 2.0), sin_power_integral(mu)
        q = quotient_p2(fam)
        assert q.denominator == ang_m2 * den
        assert (q.j1, q.j2, q.j3) == (theta * theta * ang_m2 * den, ang * j2,
                                      2.0 * theta * ang * j3)
        assert q.err_estimate == max(r.err_estimate / abs(r.value) for r in alone)

    @pytest.mark.parametrize("seed", [2026, 5, 6, 7])
    def test_beta_pair_matches_angular_quadrature(self, seed):
        # the independent tanh-sinh route, where its window resolves the
        # exponent; beyond its err_estimate only rounding of the two routes
        checked = 0
        for fam in _seeded_p2_families(seed):
            _, mu, _ = _exponents(fam)
            for lam in (mu - 2.0, mu):
                if lam <= -0.95:
                    continue
                numeric = integrate_angular(lambda s: s ** lam, self.SPEC)
                closed = sin_power_integral(lam)
                assert abs(numeric.value - closed) <= numeric.err_estimate + 1e-14 * closed
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("fam", _seeded_p2_families(7, count=1), ids=lambda f: f.kind.value)
    def test_g_and_prime_matches_the_separate_formulas(self, fam):
        r = np.concatenate([np.geomspace(1e-300, 1e-3, 50), np.linspace(1e-3, 2.0, 200)])
        e2, ge = fam.epsilon * fam.epsilon, fam.g_exponent
        g, gp = fam.g_and_prime(r)
        np.testing.assert_array_equal(g, (r * r + e2) ** ge * cutoff_eta(r))
        np.testing.assert_array_equal(
            gp, 2.0 * ge * r * (r * r + e2) ** (ge - 1.0) * cutoff_eta(r)
            + (r * r + e2) ** ge * cutoff_eta_prime(r))


def _sweep_outcome(params, sigmas):
    """The rows, extrapolated value and fit residual of a sweep as float.hex,
    or the message, value and residual of the FitUnstableError it raises."""
    try:
        res = sweep_and_extrapolate(params, sigma_list=sigmas)
    except FitUnstableError as exc:
        return str(exc), exc.value.hex(), exc.residual.hex()
    return ([tuple(float(getattr(r, f)).hex() for f in r.__dataclass_fields__) for r in res.rows],
            res.extrapolated.hex(), res.fit.residual.hex())


_BATCH = rayleigh._quotients_p2


def _member_loop(families):
    """quotient_p2 on each member in turn (its body: the batch of one member)."""
    return tuple(_BATCH((fam,))[0] for fam in families)


# K = 0.995: only sigma = 0.025 lies below sqrt(1 - K)/2, so the sweep falls
# back to the K = 1 family
_NEAR_K1 = HardyParams(3, 2.0, 0.0, (-3.0 + math.sqrt(9.0 - 0.995)) / 2.0)
# at sigma = 0.1 the power of r in J2 is r^2, which numpy's power by the
# float 2 takes as a square
_SQUARE = HardyParams(3, 2.0, 0.0, 0.9)
_SIGMAS = {_SQUARE: (0.1, 0.06, 0.03, 0.015)}


class TestBatchedSweep:
    """_quotients_p2 against quotient_p2 called on each member in turn."""

    @pytest.mark.parametrize("params", [fam.params for fam in _seeded_p2_families(31, count=2)]
                             + [_NEAR_K1, _SQUARE],
                             ids=lambda p: f"{p.n}_{p.alpha:.3f}_{p.beta:.3f}")
    def test_sweep_matches_member_loop_bit_for_bit(self, params, monkeypatch):
        sigmas = None
        if compute_K(params).family is not RegimeFamily.K_GT_1:
            sigmas = _SIGMAS.get(params, rayleigh.DEFAULT_SIGMA)
        batched = _sweep_outcome(params, sigmas)
        monkeypatch.setattr(rayleigh, "_quotients_p2", _member_loop)
        assert batched == _sweep_outcome(params, sigmas)
        if params == _NEAR_K1:
            assert compute_K(params).family is RegimeFamily.K_LT_1
            assert _planned_kind(params, sigmas) is FamilyKind.P2_K_EQ_1
            assert len(batched[0]) == 20           # the K = 1 family keeps every sigma

    def test_just_above_k1_certifies(self, capsys):
        # K = 1.018: the angular exponent mu - 2 = -0.991 lies past the
        # tanh-sinh window, where s^(mu - 2) overflows at subnormal nodes;
        # the Beta closed form has no such limit
        params = HardyParams(2, 2.0, -0.4220116904528721, -0.2959733589660343)
        assert compute_K(params).k_value == pytest.approx(1.018, abs=1e-3)
        _, mu, _ = _exponents(TrialFamily(FamilyKind.P2_K_GT_1, params, 1e-2))
        assert -1.0 < mu - 2.0 < -0.95
        res = sweep_and_extrapolate(params)
        constant = sharp_constant_p2(params).value
        assert res.extrapolated == pytest.approx(constant, rel=1e-5)
        assert res.fit.residual < 1e-7

        code = main(["rayleigh", "--n", "2", "--p", "2", "--alpha", repr(params.alpha),
                     "--beta", repr(params.beta)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["extrapolated"] == res.extrapolated


def _general_p_member(family):
    """quotient_general_p written member by member: integrate_2d of the
    gradient integrand and integrate_1d of the denominator's radial."""
    spec = rayleigh._SWEEP_SPEC_2D
    pw = family.params.p
    a_phi, a_r = rayleigh._general_p_exponents(family)
    num = integrate_2d(rayleigh._grad_integrand(family), a_phi, spec)
    e2 = family.epsilon ** 2
    lam = 2.0 * family.g_exponent
    rad = integrate_1d(
        lambda r: r ** a_r * (r * r + e2) ** (pw * lam / 2.0) * cutoff_eta(r) ** pw,
        0.0, spec.truncation_radius, spec)
    den = sin_power_integral(a_phi) * rad.value
    return QuotientParts(num.value, den, num.value / den,
                         err_estimate=rayleigh._rel_err(num, rad))


def _general_p_member_loop(families):
    return tuple(_general_p_member(fam) for fam in families)


def _general_p_outcome(params, eps_list=None, sigmas=None):
    """A sweep's rows, extrapolated value and fit residual as float.hex, or
    the class, message and carried numbers of the error it raises."""
    try:
        res = sweep_and_extrapolate(params, eps_list, sigmas)
    except (ValueError, NotConvergedError, FitUnstableError) as exc:
        return (type(exc).__name__, str(exc)) + tuple(
            float(getattr(exc, key)).hex() for key in ("value", "residual", "err_estimate")
            if hasattr(exc, key))
    return ([tuple(float(getattr(r, f)).hex() for f in r.__dataclass_fields__) for r in res.rows],
            res.extrapolated.hex(), res.fit.residual.hex())


def _rough_member(eps, sigma):
    """A g_and_prime that makes C = 0 for the member (eps, sigma): its
    angular factor is then |cos phi|^p, which Gauss-Jacobi resolves only
    slowly, so that member alone fails the order loop."""
    plain = TrialFamily.g_and_prime

    def g_and_prime(self, r):
        if (self.epsilon, self.sigma) != (eps, sigma):
            return plain(self, r)
        gam = self.h_exponent
        g = r ** -gam
        return g, -gam * g / r
    return g_and_prime


class TestBatchedGeneralPSweep:
    """_quotients_general_p against quotient_general_p's member-by-member form."""

    @pytest.mark.parametrize("pw", [1.5, 2.5, 3.0, 4.0])
    def test_sweep_matches_member_loop_bit_for_bit(self, pw, monkeypatch):
        rng = np.random.default_rng(int(10 * pw))
        params = HardyParams(int(rng.integers(2, 4)), pw, float(rng.uniform(0.0, 0.3)),
                             float(rng.uniform(0.05, 0.6)))
        batched = _general_p_outcome(params)
        monkeypatch.setattr(rayleigh, "_quotients_general_p", _general_p_member_loop)
        assert batched == _general_p_outcome(params)
        assert len(batched[0]) == 20

    def test_sigma_of_one_is_refused_before_any_member_runs(self, monkeypatch):
        params = HardyParams(3, 3.0, 0.0, 0.5)
        eps, sigmas = (1e-3, 1e-4), (0.2, 1.5)
        batched = _general_p_outcome(params, eps, sigmas)
        assert batched == ("ValueError", "the general-p family requires sigma in (0, 1)")
        assert _refusal(params, eps, sigmas, monkeypatch) == (*batched, 0)

    @pytest.mark.parametrize("where", ["radial", "order"])
    def test_later_member_failure_comes_first(self, where, monkeypatch):
        # the fourth member fails; the members after it do no work
        params = HardyParams(3, 1.5, 0.0, 0.5)
        eps, sigmas = (1e-3, 1e-4), (0.2, 0.1, 0.05)
        if where == "radial":       # its radial total is NaN at the first order
            plain = TrialFamily.g_and_prime
            monkeypatch.setattr(TrialFamily, "g_and_prime", lambda self, r: (
                plain(self, r) if (self.epsilon, self.sigma) != (1e-4, 0.1)
                else (np.full_like(r, math.nan), np.zeros_like(r))))
            message = "tanh-sinh on (0.0, 2.0)"
        else:
            monkeypatch.setattr(quadrature, "_ORDERS", (32, 64, 128))
            monkeypatch.setattr(TrialFamily, "g_and_prime", _rough_member(1e-4, 0.1))
            message = "Gauss-Jacobi within order 128"
        batched = _general_p_outcome(params, eps, sigmas)

        seen = []

        def logged_loop(families):
            for fam in families:
                seen.append((fam.epsilon, fam.sigma))
                yield _general_p_member(fam)
        monkeypatch.setattr(rayleigh, "_quotients_general_p",
                            lambda families: tuple(logged_loop(families)))
        assert _general_p_outcome(params, eps, sigmas) == batched
        assert batched[0] == "NotConvergedError" and batched[1].startswith(message)
        assert seen == [(1e-3, 0.2), (1e-4, 0.2), (1e-3, 0.1), (1e-4, 0.1)]

    def test_earlier_denominator_failure_beats_later_numerator_failure(self, monkeypatch):
        params = HardyParams(3, 1.5, 0.0, 0.5)
        eps, sigmas = (1e-3, 1e-4), (0.2, 0.1)
        monkeypatch.setattr(TrialFamily, "g_and_prime", _rough_member(1e-4, 0.1))
        monkeypatch.setattr(quadrature, "_ORDERS", (32, 64, 128))
        later = [TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, params, e, s)
                 for s in sigmas for e in eps][1:]
        with pytest.raises(NotConvergedError, match="Gauss-Jacobi within order 128"):
            rayleigh._quotients_general_p(later)     # the fourth member's numerator

        plain = rayleigh._denominator_rows

        def den_nan_at_first(families, a_rs):
            rows = plain(families, a_rs)
            return lambda r: [row if i else math.nan * row for i, row in enumerate(rows(r))]
        monkeypatch.setattr(rayleigh, "_denominator_rows", den_nan_at_first)
        # the first member's denominator fails first
        assert _general_p_outcome(params, eps, sigmas)[:2] == (
            "NotConvergedError",
            "tanh-sinh on (0.0, 2.0) within 9 levels did not converge (last sum nan)")


def _count_evaluations(monkeypatch):
    """Count, in the returned one-item list, the integrand evaluations of the
    sweep's radial and 2-D passes."""
    evaluations = [0]

    def counted(f):
        def f_counted(*args):
            evaluations[0] += 1
            return f(*args)
        return f_counted

    rows, rows_2d = rayleigh.integrate_rows, rayleigh._integrate_2d_rows
    monkeypatch.setattr(rayleigh, "integrate_rows",
                        lambda f, *args: rows(counted(f), *args))
    monkeypatch.setattr(rayleigh, "_integrate_2d_rows",
                        lambda levels, *args: rows_2d([counted(lv) for lv in levels], *args))
    return evaluations


def _refusal(params, eps_list, sigma_list, monkeypatch):
    """(type name, message, integrand evaluations) of a refused sweep."""
    evaluations = _count_evaluations(monkeypatch)
    with pytest.raises(ValueError) as ei:
        sweep_and_extrapolate(params, eps_list, sigma_list)
    return type(ei.value).__name__, str(ei.value), evaluations[0]


_SIGMA_MESSAGE = "sigma_list entries must be distinct, positive and finite"
_ONE_EPS = ("ValueError", "eps_list needs at least two entries to extrapolate")
_ONE_SIGMA = ("ValueError", "sigma_list needs at least two entries to extrapolate")


class TestRefusalsBeforeQuadrature:
    """Every schedule the sweep planner refuses is refused with no integrand
    evaluated, with the type and message of its check."""

    @pytest.mark.parametrize("params,eps_list,sigma_list,expected", [
        (K3_PARAMS, None, (0.1,),
         ("ValueError", "sigma_list is forbidden for the K > 1 family")),
        (HardyParams(3, 2.0, 0.0, -0.05), None, (0.2, 0.0), ("ValueError", _SIGMA_MESSAGE)),
        (HardyParams(3, 2.0, 0.0, -0.05), None, (0.2, -0.1), ("ValueError", _SIGMA_MESSAGE)),
        (HardyParams(3, 3.0, 0.0, 0.5), None, (0.2, 0.1, 0.2), ("ValueError", _SIGMA_MESSAGE)),
        (HardyParams(3, 3.0, 0.0, 0.5), None, (0.2, math.inf), ("ValueError", _SIGMA_MESSAGE)),
        (HardyParams(3, 3.0, 0.0, 0.5), None, (0.2, math.nan), ("ValueError", _SIGMA_MESSAGE)),
        (HardyParams(3, 3.0, 0.0, 0.5), None, (0.2, 0.1, 1.0),
         ("ValueError", "the general-p family requires sigma in (0, 1)")),
        (HardyParams(4, 2.0, 0.0, -0.05, 2), None, None,
         ("ValueError", "trial families are defined for k = n-1")),
        (HardyParams(4, 3.0, 0.3, 0.1, 2), None, None,
         ("ValueError", "trial families are defined for k = n-1")),
        (HardyParams(3, 3.0, 0.0, -0.1), None, None,
         ("UnsupportedRegimeError", "no sharpness family exists for beta < 0, p != 2")),
        (K3_PARAMS, (), None,
         ("ValueError", "eps_list must be non-empty with entries in (0, 1)")),
        (K3_PARAMS, (1e-2, 1.0), None,
         ("ValueError", "eps_list must be non-empty with entries in (0, 1)")),
        (HardyParams(3, 3.0, 0.0, 0.5), (1e-3, 1e-2), None,
         ("ValueError", "eps_list must be strictly decreasing")),
        # one point fixes no limit
        (HardyParams(3, 2.0, -0.5, -0.5), (1e-3,), None, _ONE_EPS),
        (HardyParams(3, 3.0, 0.0, 0.5), None, (0.1,), _ONE_SIGMA),
        (HardyParams(3, 2.0, 0.0, -0.05), None, (0.2,), _ONE_SIGMA),
        (HardyParams(3, 2.0, 0.0, -0.05), None, (), _ONE_SIGMA),
    ])
    def test_refused_with_no_integrand_evaluated(self, params, eps_list, sigma_list,
                                                 expected, monkeypatch):
        assert _refusal(params, eps_list, sigma_list, monkeypatch) == (*expected, 0)

    def test_the_counter_sees_every_pass(self, monkeypatch):
        # so that the zero counts above are no accident of the counter
        evaluations = _count_evaluations(monkeypatch)
        sweep_and_extrapolate(HardyParams(3, 2.0, 0.0, -0.05), (1e-2, 1e-3))
        p2_count = evaluations[0]
        assert p2_count > 0
        quotient_general_p(TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG,
                                       HardyParams(3, 3.0, 0.0, 0.5), 1e-3, 0.1))
        assert evaluations[0] > p2_count


class TestQuotientGeneralP:
    def test_theorem_constant_neighborhood(self):
        # the quotient dominates the sharp constant and sits within the
        # O(sigma) band above it (about 6.4*sigma + O(1/|ln eps|) here; the
        # sigma->0, eps->0 double limit recovers the constant, see TestSweep)
        fam = TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, HardyParams(3, 3.0, 0.0, 0.5),
                          1e-4, 0.05)
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
        # the largest relative quadrature error estimate of each route
        assert 0.0 < qg.err_estimate < 1e-7 and 0.0 < qp.err_estimate < 1e-9

    def test_rejects_p2_family(self):
        with pytest.raises(ValueError):
            quotient_general_p(TrialFamily(FamilyKind.P2_K_GT_1, K3_PARAMS, 1e-3))

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

        gam, (g, gp) = fam.h_exponent, fam.g_and_prime(r)
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
                                g_and_prime=lambda r: (r ** (-2.0 * gam),
                                                       -2.0 * gam * r ** (-2.0 * gam - 1.0)))
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
        assert _planned_kind(params) is FamilyKind.P2_K_EQ_1
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
        monkeypatch.setattr(rayleigh, "_quotients_p2",
                            lambda families: tuple(
                                QuotientParts(math.nan, 1.0, math.nan) for _ in families))
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
