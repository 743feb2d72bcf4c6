import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from anisohardy import (FamilyKind, HardyParams, QuadratureSpec, TrialFamily, beta, compute_K,
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
from anisohardy.rayleigh import FitModel, SweepRow

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

    def test_numerator_matches_the_three_term_breakdown(self):
        # the gradient integral split as J1 + J2 + J3 (h' g, h g', cross
        # term), each a Beta factor times a tight radial integral
        fam = TrialFamily(FamilyKind.P2_K_GT_1, K3_PARAMS, 1e-4)
        theta, (a_phi, a_r) = fam.h_exponent, rayleigh._exponents(fam)
        ang_m2, ang = sin_power_integral(a_phi), sin_power_integral(a_phi + 2.0)
        radials = [integrate_1d(f, 0.0, 2.0, _TIGHT, rayleigh._RADIAL_BREAKS).value for f in (
            lambda r: fam.g_and_prime(r)[0] ** 2 * r ** a_r,
            lambda r: fam.g_and_prime(r)[1] ** 2 * r ** (a_r + 2.0),
            lambda r: fam.g_and_prime(r)[0] * fam.g_and_prime(r)[1] * r ** (a_r + 1.0))]
        j1, j2, j3 = (theta * theta * ang_m2 * radials[0], ang * radials[1],
                      2.0 * theta * ang * radials[2])
        q = quotient_p2(fam)
        assert abs(q.numerator - (j1 + j2 + j3)) <= q.err_estimate * q.numerator

    def test_k_lt_1_family_near_square(self):
        fam = TrialFamily(FamilyKind.P2_K_LT_1, HardyParams(3, 2.0, 0.0, 0.0), 1e-4, 0.05)
        q = quotient_p2(fam)
        assert abs(q.quotient - 1.0) < 0.2

    def test_rejects_general_p_family(self):
        fam = TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, HardyParams(3, 3.0, 0.0, 0.5),
                          1e-3, 0.05)
        with pytest.raises(ValueError):
            quotient_p2(fam)

    @pytest.mark.parametrize("quotient,family", [
        (quotient_p2, TrialFamily(FamilyKind.P2_K_LT_1, HardyParams(3, 2.0, 0.0, 0.0), 1e-4, 0.05)),
        (quotient_general_p, TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG,
                                         HardyParams(3, 3.0, 0.0, 0.5), 1e-3, 0.1)),
    ], ids=["p2", "general_p"])
    def test_returns_the_members_sweep_row(self, quotient, family):
        row = quotient(family)
        assert isinstance(row, SweepRow)
        assert (row.epsilon, row.sigma) == (family.epsilon, family.sigma)
        assert row.quotient == row.numerator / row.denominator


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


class TestStackedRadials:
    """quotient_p2's one radial pass against separate integrate_1d calls of
    its numerator and denominator rows, all on the panels (0, 1) and (1, 2)."""

    SPEC = rayleigh._SWEEP_SPEC_1D
    BREAKS = rayleigh._RADIAL_BREAKS

    @pytest.mark.parametrize("fam", _seeded_p2_families(2026), ids=lambda f: f.kind.value)
    def test_matches_separate_integrals_bit_for_bit(self, fam):
        theta, (a_phi, a_r) = fam.h_exponent, rayleigh._exponents(fam)
        b = (a_phi + 1.0) / 2.0
        R = rayleigh._RADIAL_END

        def numerator(r):
            # the angular integral of A cos^2 phi + C sin^2 phi, linear at p = 2
            g, gp = fam.g_and_prime(r)
            fold = r ** a_r
            A, C = fold * (theta * g) ** 2, fold * (theta * g + r * gp) ** 2
            return A * beta(1.5, b) + C * beta(0.5, b + 1.0)

        def denominator(r):
            return r ** a_r * fam.g_and_prime(r)[0] ** 2

        alone = tuple(integrate_1d(f, 0.0, R, self.SPEC, self.BREAKS)
                      for f in (numerator, denominator))
        stacked = integrate_rows(lambda r: (numerator(r), denominator(r)), 0.0, R, self.SPEC,
                                 self.BREAKS)
        assert [(r.value.hex(), r.err_estimate.hex()) for r in stacked] == \
            [(r.value.hex(), r.err_estimate.hex()) for r in alone]

        num, den = alone
        q = quotient_p2(fam)
        assert (q.numerator, q.denominator) == (num.value, sin_power_integral(a_phi) * den.value)
        assert q.err_estimate == max(r.err_estimate / abs(r.value) for r in alone)

    @pytest.mark.parametrize("seed", [2026, 5, 6, 7])
    def test_beta_pair_matches_angular_quadrature(self, seed):
        # the independent tanh-sinh route, where its window resolves the
        # exponent; beyond its err_estimate only rounding of the two routes
        checked = 0
        for fam in _seeded_p2_families(seed):
            a_phi, _ = rayleigh._exponents(fam)
            for lam in (a_phi, a_phi + 2.0):
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


#: The tight reference of a radial row: each panel alone, far below the
#: sweep's tolerances.
_TIGHT = QuadratureSpec(levels=13, abs_tol=1e-30, rel_tol=1e-14)


def _recorded_passes(monkeypatch):
    """(integrand, a, b, results) of every radial integrate_rows pass of the
    sweeps run after this call."""
    passes = []
    plain = rayleigh.integrate_rows

    def recording(f, a, b, *args):
        results = plain(f, a, b, *args)
        passes.append((f, a, b, results))
        return results
    monkeypatch.setattr(rayleigh, "integrate_rows", recording)
    return passes


def _rows_outside_their_estimates(passes):
    """(rows checked, rows whose value is further from the tight per-panel
    reference than their err_estimate plus 1e-14 relative for rounding)."""
    checked, outside = 0, 0
    for f, a, b, results in passes:
        reference = [lo.value + hi.value for lo, hi in zip(integrate_rows(f, a, 1.0, _TIGHT),
                                                           integrate_rows(f, 1.0, b, _TIGHT))]
        for res, ref in zip(results, reference):
            checked += 1
            outside += abs(res.value - ref) > res.err_estimate + 1e-14 * abs(ref)
    return checked, outside


class TestRadialErrorEstimates:
    """Every radial row of a sweep lies within its err_estimate of a tight
    reference.  Integrated over (0, 2) in one piece, the cutoff's kink at
    r = 1 made tanh-sinh converge only algebraically: the level difference
    then underestimated the error of 2 of the 20 denominator rows of
    (n, p, beta) = (2, 3, 0.3)."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_p2_rows(self, seed, monkeypatch):
        passes = _recorded_passes(monkeypatch)
        families = _seeded_p2_families(seed, count=2)
        for fam in families:
            sweep_and_extrapolate(fam.params)
        checked, outside = _rows_outside_their_estimates(passes)
        assert outside == 0 and checked >= 2 * 5 * len(families)

    def test_general_p_rows(self, monkeypatch):
        # the numerator and the denominator row of each of 4 x 20 members
        passes = _recorded_passes(monkeypatch)
        for pw, n, beta_ in [(1.5, 2, 0.04), (2.5, 3, 0.3), (3.0, 2, 0.3), (4.0, 3, 0.9)]:
            sweep_and_extrapolate(HardyParams(n, pw, 0.2, beta_))
        assert _rows_outside_their_estimates(passes) == (160, 0)


class TestWorkCounts:
    """Work counts that do not depend on the machine.  On (0, 2) in one piece
    the K = 3 sweep's radial pass took 12,619 nodes (levels 0 to 10).  The
    general-p sweep's 2-D numerators took 3,709,216 bracket-kernel elements
    in one piece, 1,855,616 on the panels and 1,061,088 with a tail window;
    its closed-form numerator rows take one element per radial node, and
    few of those sum a series."""

    def test_radial_nodes_of_a_k_gt_1_sweep(self, monkeypatch):
        sizes = []
        plain = rayleigh.integrate_rows

        def counted(f, *args):
            def f_counted(r):
                sizes.append(r.size)
                return f(r)
            return plain(f_counted, *args)
        monkeypatch.setattr(rayleigh, "integrate_rows", counted)
        sweep_and_extrapolate(K3_PARAMS)
        # one call for levels 0 to 4 of both panels, then one call per level,
        # on the new nodes of one or both panels; one call per level took 8,
        # and a first call of levels 0 to 3 took 5
        level_sizes = [quadrature._ts_level(level)[0].size for level in range(4 + len(sizes))]
        assert sizes[0] == 2 * sum(level_sizes[:5])
        assert all(size in (n, 2 * n) for size, n in zip(sizes[1:], level_sizes[5:]))
        assert (len(sizes), sum(sizes)) == (4, 1774)

    def test_row_nodes_of_a_k_lt_1_sweep(self, monkeypatch):
        # a numerator and a denominator row per member; the J1, J2, J3
        # breakdown took 3 rows per member, 106,440 row-nodes, on the same
        # nodes.  Levels 0 to 4 share the first call; one call per level took
        # 8, and a first call of levels 0 to 3 took 5
        calls = _row_node_calls(monkeypatch)
        sweep_and_extrapolate(HardyParams(3, 2.0, 0.0, -0.05))
        assert {rows for _, rows in calls} == {40}
        assert (len(calls), sum(nodes for nodes, _ in calls),
                sum(nodes * rows for nodes, rows in calls)) == (4, 1774, 70_960)

    def test_numerator_row_nodes_of_a_general_p_sweep(self, monkeypatch):
        calls = _row_node_calls(monkeypatch)
        sweep_and_extrapolate(HardyParams(3, 3.0, 0.0, 0.5))
        # one call for radial levels 0 to 4, then one per level, every
        # member's two rows on the call's nodes: 20 x 986 numerator row-nodes.
        # One call per level took 7, and a first call of levels 0 to 3 took 4
        assert {rows for _, rows in calls} == {40}
        assert (len(calls), sum(nodes * rows // 2 for nodes, rows in calls)) == (3, 19_720)

    def test_series_entries_of_a_general_p_sweep_with_its_tables_built(self, monkeypatch):
        # the numerator rows read F from Chebyshev tables, in x on [1/16, 1]
        # and in log2 x below, so no element sums a series.  Summing it at
        # every element took 31,777 entries, and below x = 1/16 alone 2,310
        params = HardyParams(3, 3.0, 0.0, 0.5)
        sweep_and_extrapolate(params)          # builds the tables of its four (p, b)
        entries = []
        plain = quadrature._series_sums

        def counted(P, Q, rows, y, L):
            entries.append(y.size)
            return plain(P, Q, rows, y, L)
        monkeypatch.setattr(quadrature, "_series_sums", counted)
        sweep_and_extrapolate(params)
        assert entries == []

    @pytest.mark.parametrize("params,profiles,evaluations", [
        (K3_PARAMS, 5, 8_870), (HardyParams(3, 2.0, 0.0, -0.05), 5, 8_870),
        (HardyParams(3, 3.0, 0.0, 0.5), 20, 19_720)], ids=["K>1", "K<1", "general_p"])
    def test_profile_rows_of_a_default_sweep(self, monkeypatch, params, profiles, evaluations):
        # g and g' are formed once per radial profile (eps^2, g exponent) on
        # each integrand call's nodes.  The K < 1 family's g exponent does not
        # depend on sigma, so its 4 sigmas by 5 eps share 5 profiles: forming
        # them per member took 20 rows per call, 35,480 profile-node
        # evaluations.  The K > 1 family (5 eps) and the general-p family (4
        # sigmas by 5 eps, whose g exponent moves with sigma) have one
        # profile per member
        rows, calls = [], []
        plain_g, plain_rows = rayleigh._g_and_prime, rayleigh.integrate_rows

        def g_and_prime(r, r2, eta, eta_prime, e2, ge):
            rows.append(len(e2))
            return plain_g(r, r2, eta, eta_prime, e2, ge)

        def counted(f, *args):
            def f_counted(r):
                rows.clear()
                out = f(r)
                calls.append((r.size, sum(rows)))
                return out
            return plain_rows(f_counted, *args)
        monkeypatch.setattr(rayleigh, "_g_and_prime", g_and_prime)
        monkeypatch.setattr(rayleigh, "integrate_rows", counted)
        sweep_and_extrapolate(params)
        assert {formed for _, formed in calls} == {profiles}
        assert sum(nodes * formed for nodes, formed in calls) == evaluations

    @pytest.mark.parametrize("params,calls", [
        (K3_PARAMS, 1), (HardyParams(3, 2.0, 0.0, -0.05), 1), (HardyParams(3, 3.0, 0.0, 0.5), 0),
        (HardyParams(3, 2.0, 0.0, (-3.0 + math.sqrt(8.0)) / 2.0), 1)],
        ids=["K>1", "K<1", "general_p", "K=1"])
    def test_compute_K_calls_of_a_default_sweep(self, monkeypatch, params, calls):
        # one for the plan at p = 2; a member reads K by compute_K's own
        # expression (params._k_value).  One more for each member of the
        # K > 1 (5 eps) and K < 1 (4 sigmas by 5 eps) families took 6 and
        # 21, computing it at every exponent access 21 and 43, and the plan
        # 2 where K is near 1
        found = []

        def counted(p):
            found.append(p)
            return compute_K(p)
        monkeypatch.setattr(rayleigh, "compute_K", counted)
        sweep_and_extrapolate(params)
        assert len(found) == calls

    @pytest.mark.parametrize("params,members", [
        (K3_PARAMS, 5), (HardyParams(3, 2.0, 0.0, -0.05), 20), (HardyParams(3, 3.0, 0.0, 0.5), 20)],
        ids=["K>1", "K<1", "general_p"])
    def test_h_exponent_once_per_member(self, monkeypatch, params, members):
        # formed once, as the member is built, for its checks in
        # __post_init__, the quotients and the rows
        found = []
        plain = rayleigh.TrialFamily._h_exponent

        def counted(family):
            found.append(family)
            return plain(family)
        monkeypatch.setattr(rayleigh.TrialFamily, "_h_exponent", counted)
        result = sweep_and_extrapolate(params)
        assert len(result.rows) == members and len(found) == members


class TestGoldenSweeps:
    """The default sweeps' rows and extrapolated values as float.hex, recorded
    when the radial driver called the integrand once per level; the rows are
    kept as the sha256 of their fields' float.hex, in order.  The general-p
    sweep was recorded again when its angular closed form moved to tables of
    degree 12 with log2 x panels below x = 1/16: its numerators and
    quotients moved by at most 2.2e-15 relative, its extrapolated value by
    1.5e-14 (0x1.2f71be43a44b7p-2 before).  It was recorded once more when
    the tables were read by Horner's rule on power coefficients instead of
    Clenshaw's recurrence: its numerators moved by at most 3.3e-16 relative,
    its quotients by 2.7e-16 and its extrapolated value by 1 ulp, 1.9e-16
    (0x1.2f71be43a4507p-2 before); its error estimates, differences of
    nearly equal level totals, by up to 7.6e-4 of themselves.  The p = 2
    sweeps' angular closed form, the m = 1 case of the even-p sum, is the
    same to the bit."""

    @pytest.mark.parametrize("params,rows,extrapolated", [
        (K3_PARAMS, "79db02544b0b393b23af1308aede69c38a1c88756127e8ada5d1178cc89b84a7",
         "0x1.db3f9339af9e2p-4"),
        (HardyParams(3, 2.0, 0.0, -0.05),
         "b809866ba0ce2523303f6623f3bf90e502bccd57633673b918819bcecb6a0394",
         "0x1.ffdcdc5edbfcdp-1"),
        (HardyParams(3, 3.0, 0.0, 0.5),
         "8e48633c2343f50a6d7a4691d042d0368d43ef94c7e9b50ab887f5c49de8a2be",
         "0x1.2f71be43a4508p-2"),
    ], ids=["K>1", "K<1", "general_p"])
    def test_default_sweep_to_the_bit(self, params, rows, extrapolated):
        res = sweep_and_extrapolate(params)
        fields = [[float(getattr(r, f)).hex() for f in r.__dataclass_fields__] for r in res.rows]
        assert hashlib.sha256(json.dumps(fields).encode()).hexdigest() == rows
        assert res.extrapolated.hex() == extrapolated


def _row_node_calls(monkeypatch):
    """(nodes, rows) of every integrand call of the radial passes run after
    this call."""
    calls = []
    plain = rayleigh.integrate_rows

    def counted(f, *args):
        def f_counted(r):
            rows = f(r)
            calls.append((r.size, len(rows)))
            return rows
        return plain(f_counted, *args)
    monkeypatch.setattr(rayleigh, "integrate_rows", counted)
    return calls


def _sweep_outcome(params, sigmas):
    """The rows, extrapolated value and fit residual of a sweep as float.hex,
    or the message, value and residual of the FitUnstableError it raises."""
    try:
        res = sweep_and_extrapolate(params, sigma_list=sigmas)
    except FitUnstableError as exc:
        return str(exc), exc.value.hex(), exc.residual.hex()
    return ([tuple(float(getattr(r, f)).hex() for f in r.__dataclass_fields__) for r in res.rows],
            res.extrapolated.hex(), res.fit.residual.hex())


_BATCH = rayleigh._quotients


def _member_loop(families):
    """quotient_p2 on each member in turn (its body: the batch of one member)."""
    return tuple(_BATCH((fam,))[0] for fam in families)


# K = 0.995: only sigma = 0.025 lies below sqrt(1 - K)/2, so the sweep falls
# back to the K = 1 family
_NEAR_K1 = HardyParams(3, 2.0, 0.0, (-3.0 + math.sqrt(9.0 - 0.995)) / 2.0)
# at sigma = 0.1 the power of r in both rows is r^2, which numpy's power by
# the float 2 takes as a square
_SQUARE = HardyParams(3, 2.0, 0.0, 0.9)
_SIGMAS = {_SQUARE: (0.1, 0.06, 0.03, 0.015)}


class TestBatchedSweep:
    """_quotients against quotient_p2 called on each member in turn."""

    @pytest.mark.parametrize("params", [fam.params for fam in _seeded_p2_families(31, count=2)]
                             + [_NEAR_K1, _SQUARE],
                             ids=lambda p: f"{p.n}_{p.alpha:.3f}_{p.beta:.3f}")
    def test_sweep_matches_member_loop_bit_for_bit(self, params, monkeypatch):
        sigmas = None
        if compute_K(params).family is not RegimeFamily.K_GT_1:
            sigmas = _SIGMAS.get(params, rayleigh.DEFAULT_SIGMA)
        batched = _sweep_outcome(params, sigmas)
        monkeypatch.setattr(rayleigh, "_quotients", _member_loop)
        assert batched == _sweep_outcome(params, sigmas)
        if params == _NEAR_K1:
            assert compute_K(params).family is RegimeFamily.K_LT_1
            assert _planned_kind(params, sigmas) is FamilyKind.P2_K_EQ_1
            assert len(batched[0]) == 20           # the K = 1 family keeps every sigma

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_radial_power_fails_its_member(self):
        # a_r = nu - 1 = -0.985: r^a_r overflows at the subnormal nodes, so the
        # first member's rows are infinite and fail it, with no warning
        params = HardyParams(2, 2.0, 0.6061986706952709, -1.5988105841255105)
        _, a_r = rayleigh._exponents(TrialFamily(FamilyKind.P2_K_GT_1, params, 1e-2))
        assert a_r == pytest.approx(-0.985, abs=1e-3)
        with pytest.raises(NotConvergedError, match=r"within 11 levels did not converge "
                                                    r"\(last sum inf\)$"):
            sweep_and_extrapolate(params)

    def test_just_above_k1_certifies(self, capsys):
        # K = 1.018: the angular exponent mu - 2 = -0.991 lies past the
        # tanh-sinh window, where s^(mu - 2) overflows at subnormal nodes;
        # the Beta closed form has no such limit
        params = HardyParams(2, 2.0, -0.4220116904528721, -0.2959733589660343)
        assert compute_K(params).k_value == pytest.approx(1.018, abs=1e-3)
        a_phi, _ = rayleigh._exponents(TrialFamily(FamilyKind.P2_K_GT_1, params, 1e-2))
        assert -1.0 < a_phi < -0.95
        res = sweep_and_extrapolate(params)
        constant = sharp_constant_p2(params).value
        assert res.extrapolated == pytest.approx(constant, rel=1e-5)
        assert res.fit.residual < 1e-7

        code = main(["rayleigh", "--n", "2", "--p", "2", "--alpha", repr(params.alpha),
                     "--beta", repr(params.beta)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["extrapolated"] == res.extrapolated


def _bracket_columns(family, r):
    """(A, C): the columns of the general-p gradient bracket
    A cos^2 phi + C sin^2 phi at r, the radial weight folded in."""
    gam, (g, gp) = family.h_exponent, family.g_and_prime(r)
    _, a_r = rayleigh._exponents(family)
    fold = r ** (2.0 * a_r / family.params.p)
    return fold * (gam * g) ** 2, fold * (gam * g + r * gp) ** 2


def _general_p_member(family):
    """quotient_general_p written member by member: integrate_1d of the
    closed-form angular integral of the gradient bracket and of the
    denominator's radial, on the sweep's radial panels."""
    spec = rayleigh._SWEEP_SPEC_P
    pw = family.params.p
    a_phi, a_r = rayleigh._exponents(family)
    breaks = rayleigh._RADIAL_BREAKS

    def numerator(r):
        A, C = _bracket_columns(family, r)
        return quadrature._bracket_angular(A[None], C[None], pw, [(a_phi + 1.0) / 2.0])[0]

    num = integrate_1d(numerator, 0.0, rayleigh._RADIAL_END, spec, breaks)
    rad = integrate_1d(lambda r: r ** a_r * family.g_and_prime(r)[0] ** pw,
                       0.0, rayleigh._RADIAL_END, spec, breaks)
    den = sin_power_integral(a_phi) * rad.value
    return SweepRow(family.epsilon, family.sigma, num.value, den, num.value / den,
                    rayleigh._rel_err(num, rad))


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


def _poison_g(monkeypatch, params, eps, sigma, poison):
    """Make g poison(r, g) for the general-p member (eps, sigma) of params:
    in its column of a batch, and when it is evaluated alone."""
    member = TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, params, eps, sigma)
    plain = rayleigh._g_and_prime

    def g_and_prime(r, r2, eta, eta_prime, e2, ge):
        g, gp = plain(r, r2, eta, eta_prime, e2, ge)
        mine = (np.asarray(e2) == eps * eps) & (np.asarray(ge) == member.g_exponent)
        return np.where(mine, poison(r, g), g), gp
    monkeypatch.setattr(rayleigh, "_g_and_prime", g_and_prime)


def _jump(r, g):
    """g doubled past r = 0.7: tanh-sinh then converges only algebraically,
    so the member's rows fail, with a finite last sum."""
    return np.where(r < 0.7, g, 2.0 * g)


class TestBatchedGeneralPSweep:
    """_quotients against quotient_general_p's member-by-member form."""

    @pytest.mark.parametrize("pw", [1.5, 2.5, 3.0, 4.0])
    def test_sweep_matches_member_loop_bit_for_bit(self, pw, monkeypatch):
        rng = np.random.default_rng(int(10 * pw))
        params = HardyParams(int(rng.integers(2, 4)), pw, float(rng.uniform(0.0, 0.3)),
                             float(rng.uniform(0.05, 0.6)))
        batched = _general_p_outcome(params)
        monkeypatch.setattr(rayleigh, "_quotients", _general_p_member_loop)
        assert batched == _general_p_outcome(params)
        assert len(batched[0]) == 20

    def test_sigma_of_one_is_refused_before_any_member_runs(self, monkeypatch):
        params = HardyParams(3, 3.0, 0.0, 0.5)
        eps, sigmas = (1e-3, 1e-4), (0.2, 1.5)
        batched = _general_p_outcome(params, eps, sigmas)
        assert batched == ("ValueError", "the general-p family requires sigma in (0, 1)")
        assert _refusal(params, eps, sigmas, monkeypatch) == (*batched, 0)

    @pytest.mark.parametrize("where", ["radial"])
    def test_later_member_failure_comes_first(self, where, monkeypatch):
        # the fourth member fails; the members after it do no work
        params = HardyParams(3, 1.5, 0.0, 0.5)
        eps, sigmas = (1e-3, 1e-4), (0.2, 0.1, 0.05)
        # its numerator total is NaN at the first level
        _poison_g(monkeypatch, params, 1e-4, 0.1, lambda r, g: np.full_like(g, math.nan))
        message = "tanh-sinh on (0.0, 2.0)"
        batched = _general_p_outcome(params, eps, sigmas)

        seen = []

        def logged_loop(families):
            for fam in families:
                seen.append((fam.epsilon, fam.sigma))
                yield _general_p_member(fam)
        monkeypatch.setattr(rayleigh, "_quotients", lambda families: tuple(logged_loop(families)))
        assert _general_p_outcome(params, eps, sigmas) == batched
        assert batched[0] == "NotConvergedError" and batched[1].startswith(message)
        assert seen == [(1e-3, 0.2), (1e-4, 0.2), (1e-3, 0.1), (1e-4, 0.1)]

    def test_earlier_denominator_failure_beats_later_numerator_failure(self, monkeypatch):
        params = HardyParams(3, 1.5, 0.0, 0.5)
        eps, sigmas = (1e-3, 1e-4), (0.2, 0.1)
        _poison_g(monkeypatch, params, 1e-4, 0.1, _jump)
        later = [TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, params, e, s)
                 for s in sigmas for e in eps][1:]
        with pytest.raises(NotConvergedError, match=r"within 9 levels did not converge "
                                                    r"\(last sum \d"):
            rayleigh._quotients(later)     # the fourth member's numerator

        plain = rayleigh._rows

        def den_nan_at_first(families, exponents):
            rows = plain(families, exponents)

            def first_den_nan(r):
                out = rows(r)
                out[1] = math.nan
                return out
            return first_den_nan
        monkeypatch.setattr(rayleigh, "_rows", den_nan_at_first)
        # the first member's denominator fails first
        assert _general_p_outcome(params, eps, sigmas)[:2] == (
            "NotConvergedError",
            "tanh-sinh on (0.0, 2.0) within 9 levels did not converge (last sum nan)")

    def test_nan_at_a_level0_node_still_raises(self, monkeypatch):
        # r = 0.5 is the t = 0 node of the radial panel (0, 1)
        params = HardyParams(3, 1.5, 0.0, 0.5)
        _poison_g(monkeypatch, params, 1e-4, 0.1, lambda r, g: np.where(r == 0.5, math.nan, g))
        outcome = _general_p_outcome(params, (1e-3, 1e-4), (0.2, 0.1, 0.05))
        assert outcome[:2] == ("NotConvergedError", "tanh-sinh on (0.0, 2.0) within 9 levels "
                               "did not converge (last sum nan)")

    def test_numerators_match_the_2d_reference(self):
        # the default sweep's numerators against integrate_2d of the bracket
        # (A cos^2 phi + C sin^2 phi)^(p/2) with the sin(phi)^a_phi weight
        params = HardyParams(3, 3.0, 0.0, 0.5)
        res = sweep_and_extrapolate(params)
        spec, breaks = rayleigh._SWEEP_SPEC_P, rayleigh._RADIAL_BREAKS
        for row in res.rows:
            family = TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, params, row.epsilon,
                                 row.sigma)
            a_phi, _ = rayleigh._exponents(family)

            def bracket(r, t):
                A, C = _bracket_columns(family, r)
                return (A * t * t + C * (1.0 - t * t)) ** 1.5

            ref = integrate_2d(bracket, a_phi, spec, breaks)
            assert abs(row.numerator - ref.value) <= ref.err_estimate


def _count_evaluations(monkeypatch):
    """Count, in the returned one-item list, the integrand evaluations of the
    sweep's radial passes."""
    evaluations = [0]

    def counted(f):
        def f_counted(*args):
            evaluations[0] += 1
            return f(*args)
        return f_counted

    rows = rayleigh.integrate_rows
    monkeypatch.setattr(rayleigh, "integrate_rows",
                        lambda f, *args: rows(counted(f), *args))
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
_TWO_EPS_K_GT_1 = ("ValueError", "eps_list needs at least three entries for the K > 1 family: "
                   "its fit is in eps alone, and a line through two points has no residual")


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
        # the K > 1 fit is in eps alone: two points fit a line exactly, with
        # residual 0, and (0.5, 0.4) would give 0.1974 against 0.1160
        (K3_PARAMS, (0.5, 0.4), None, _TWO_EPS_K_GT_1),
        (K3_PARAMS, (1e-2, 1e-3), None, _TWO_EPS_K_GT_1),
    ])
    def test_refused_with_no_integrand_evaluated(self, params, eps_list, sigma_list,
                                                 expected, monkeypatch):
        assert _refusal(params, eps_list, sigma_list, monkeypatch) == (*expected, 0)

    def test_two_eps_with_a_sigma_schedule_are_allowed(self):
        # the sigma intercept keeps a residual of its own: the shift from
        # dropping one degree of its polynomial
        res = sweep_and_extrapolate(HardyParams(3, 2.0, 0.0, -0.05), (1e-2, 1e-3))
        assert len(res.rows) == 8 and res.fit.residual > 0.0

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

    @pytest.mark.parametrize("pw", [401.0, 1000.0])
    def test_p_past_the_series_range_fails_typed(self, pw):
        # at p = 401 a factorial of the angular series overflowed and raised
        # OverflowError out of the sweep; p = 1000 takes the even-p sum, and
        # its rows overflow ("last sum inf").  alpha = 1 keeps the constant
        # ((k + p alpha)/p)^p near e^2: at alpha = 0 it underflows, and
        # HardyParams refuses it
        fam = TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, HardyParams(3, pw, 1.0, 0.5),
                          1e-3, 0.2 / pw)
        with pytest.raises(NotConvergedError):
            quotient_general_p(fam)

    def test_refused_key_fails_before_any_integrand(self, monkeypatch):
        # at p = 301 the angular tables are refused; the radial pass ran on
        # NaN rows and failed with "(last sum nan)".  (At the even p = 300 it
        # takes no table: its rows overflow, and the pass fails on them.)  At
        # alpha = 0 the constant underflows, and HardyParams refuses it
        evaluations = _count_evaluations(monkeypatch)
        with pytest.raises(NotConvergedError, match=r"at \(p, b\) = \(301\.0, 0\.2"):
            sweep_and_extrapolate(HardyParams(3, 301.0, 1.0, 0.5))
        assert evaluations[0] == 0

    def test_even_p_past_the_sum_range_fails_before_any_integrand(self, monkeypatch):
        # the even-p sum takes p/2 steps per element; unbounded, p = 1e8
        # would form gigabytes of coefficients and 1e8 array passes.  At
        # alpha = 0 the constant underflows, and HardyParams refuses it
        evaluations = _count_evaluations(monkeypatch)
        formed = quadrature._even_coefficients.cache_info().misses
        with pytest.raises(NotConvergedError, match=r"at \(p, b\) = \(100000000\.0, .*even p"):
            sweep_and_extrapolate(HardyParams(3, 1e8, 1.0, 0.5))
        assert evaluations[0] == 0
        assert quadrature._even_coefficients.cache_info().misses == formed

    def test_sweeps_of_one_p_and_sigma_share_their_angular_rules(self):
        # a_phi = -1 + p sigma for every member; formed as n - 2 + p (alpha +
        # gam), it rounded differently at alpha = 0.3 and missed the cache
        # of the angular closed form's tables
        sweep_and_extrapolate(HardyParams(3, 3.0, 0.0, 0.5))
        misses = quadrature._bracket_tables.cache_info().misses
        sweep_and_extrapolate(HardyParams(3, 3.0, 0.3, 0.5))
        assert quadrature._bracket_tables.cache_info().misses == misses

    @pytest.mark.parametrize("pw", [1.5, 2.5, 3.0, 4.0])
    def test_factored_integrand_matches_cartesian_gradient(self, pw, monkeypatch):
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

        # the columns A, C the sweep passes to the angular closed form, with
        # t = cos(phi) and the weight sin(phi)^a_phi
        seen = []
        monkeypatch.setattr(rayleigh, "_bracket_angular",
                            lambda A, C, pw, bs: seen.append((A, C)) or np.zeros_like(A))
        rayleigh._rows([fam], [rayleigh._exponents(fam)])(r)
        (A, C), = seen
        s, t = rho / r, x[:, 2] / r
        a_phi, _ = rayleigh._exponents(fam)
        bracket = (A[0] * t * t + C[0] * (1.0 - t * t)) ** (pw / 2.0)
        reduced = bracket * s ** a_phi / (r * r * s)
        np.testing.assert_allclose(reduced, direct, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("pw", [1.5, 3.0])
    def test_equal_brackets_leave_the_sin_power(self, pw):
        # g = r^(-2 gam) gives r g' = -2 gam g, so C = (gam g + r g')^2 equals
        # A = (gam g)^2 and the bracket A cos^2 + C sin^2 no longer depends on
        # phi: the closed-form numerator is sin_power_integral(a_phi) int A^(p/2) dr
        params = HardyParams(3, pw, 0.0, 0.5)
        fam = TrialFamily(FamilyKind.GENERAL_P_BETA_NONNEG, params, 1e-2, 0.05)
        gam = fam.h_exponent
        equal = SimpleNamespace(kind=fam.kind, params=params, h_exponent=gam, sigma=fam.sigma,
                                g_and_prime=lambda r: (r ** (-2.0 * gam),
                                                       -2.0 * gam * r ** (-2.0 * gam - 1.0)))
        a_phi, a_r = rayleigh._exponents(fam)
        b = (a_phi + 1.0) / 2.0
        num = integrate_1d(lambda r: quadrature._bracket_angular(
            *(col[None] for col in _bracket_columns(equal, r)), pw, [b])[0], 0.0, 2.0).value
        e = a_r - 2.0 * gam * pw            # A^(p/2) = |gam|^p r^e
        radial = abs(gam) ** pw * 2.0 ** (e + 1.0) / (e + 1.0)
        assert num == pytest.approx(sin_power_integral(a_phi) * radial, rel=1e-12)


def _pole_ratio_one_line_at_a_time(x, num_slopes, den_slopes):
    """_fit_pole_ratio with one polyfit per line: the reference for its
    paired fits."""
    fit, polyval = np.polynomial.polynomial.polyfit, np.polynomial.polynomial.polyval
    yn, yd = x * np.asarray(num_slopes), x * np.asarray(den_slopes)
    deg = min(3, len(x) - 1)
    cn, cd = fit(x, yn, deg), fit(x, yd, deg)
    value = float(cn[0] / cd[0])
    rms = float(np.sqrt(np.mean((polyval(x, cn) / polyval(x, cd) - yn / yd) ** 2)))
    if len(x) > deg + 1:
        return value, rms
    lower = float(fit(x, yn, deg - 1)[0] / fit(x, yd, deg - 1)[0])
    return value, max(rms, abs(value - lower))


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

    def test_even_p_sweep_builds_no_table(self):
        built = quadrature._chebyshev_table.cache_info().misses
        res = sweep_and_extrapolate(HardyParams(3, 4.0, 0.2, 0.3))
        assert quadrature._chebyshev_table.cache_info().misses == built
        constant = sharp_constant_general_p(HardyParams(3, 4.0, 0.2, 0.3)).value
        assert res.extrapolated == pytest.approx(constant, rel=0.02)

    def test_even_p_at_small_sigma_certifies(self):
        # the tables refused (p, b) = (8, 2.5e-4), where m = b + p/2 lies near
        # an integer, and this sweep raised NotConvergedError; the even-p sum
        # came within 2.4e-11 of the closed form
        params = HardyParams(3, 8.0, 0.2, 0.3)
        res = sweep_and_extrapolate(params, sigma_list=(5e-4, 2.5e-4, 1.25e-4, 6.25e-5))
        assert res.extrapolated == pytest.approx(sharp_constant_general_p(params).value, rel=0.02)

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

    def test_paired_fits_match_separate_fits_bit_for_bit(self):
        # a sweep fits all its sigma slices in one polyfit, a column per
        # slice: four one-column fits at K < 1 (_fit_inv_log) and four
        # two-column fits, numerator and denominator, at K = 1 and general p
        # (_eps_lines); _fit_pole_ratio fits its two lines in one polyfit too.
        # Each column must be the fit of its line alone
        fit = np.polynomial.polynomial.polyfit
        rng = np.random.default_rng(11)
        for _ in range(300):
            m, k = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            x = np.sort(rng.uniform(0.01, 0.5, m))
            eps = np.exp(-1.0 / x)
            num, den, q = rng.normal(size=(3, k, m)) * 10.0 ** rng.uniform(-8.0, 3.0, (3, k, 1))
            slices = [[SimpleNamespace(numerator=a, denominator=b, quotient=c)
                       for a, b, c in zip(*cols)] for cols in zip(num, den, q)]
            L, cn, cd = rayleigh._eps_lines(eps, slices)
            assert cn.shape == cd.shape == (2, k)
            for j in range(k):
                assert (cn[:, j].tobytes(), cd[:, j].tobytes()) == (fit(L, num[j], 1).tobytes(),
                                                                  fit(L, den[j], 1).tobytes())
            intercepts = rayleigh._fit_inv_log(eps, slices)
            inv_log = 1.0 / np.abs(np.log(eps))
            assert intercepts.tobytes() == np.array([fit(inv_log, q[j], 1)[0]
                                                     for j in range(k)]).tobytes()
            value, resid = rayleigh._fit_pole_ratio(x, num[0], den[0])
            assert (value.hex(), resid.hex()) == tuple(
                v.hex() for v in _pole_ratio_one_line_at_a_time(x, num[0], den[0]))

    @pytest.mark.parametrize("params,fits", [
        (K3_PARAMS, 1), (HardyParams(3, 2.0, 0.0, -0.05), 3), (HardyParams(3, 3.0, 0.0, 0.5), 3),
        (HardyParams(3, 2.0, 0.0, (-3.0 + math.sqrt(8.0)) / 2.0), 3)],
        ids=["K>1", "K<1", "general_p", "K=1"])
    def test_one_eps_fit_per_sweep(self, monkeypatch, params, fits):
        # the eps stage is one polyfit, and the sigma stage of four sigmas
        # one at degree 3 and one at degree 2
        calls = []
        plain = np.polynomial.polynomial.polyfit

        def counted(*args, **kwargs):
            calls.append(args)
            return plain(*args, **kwargs)
        monkeypatch.setattr(np.polynomial.polynomial, "polyfit", counted)
        sweep_and_extrapolate(params)
        assert len(calls) == fits

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
        monkeypatch.setattr(rayleigh, "_quotients",
                            lambda families: tuple(
                                SweepRow(f.epsilon, f.sigma, math.nan, 1.0, math.nan, math.nan)
                                for f in families))
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
