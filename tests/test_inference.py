"""Tests for the asymptotic, randomization and latent-scale-oracle backends."""

import math

import numpy as np
import pytest

from hdsigntest import (
    MismatchedAuxiliaryError,
    NonpositiveScaleError,
    RsrmAuxiliary,
    asymptotic_one_sample,
    asymptotic_two_sample,
    one_sample_oracle_terms,
    one_sample_z,
    randomization_one_sample,
    randomization_two_sample,
    rsrm_oracle_one_sample,
    rsrm_oracle_two_sample,
    t_cq1,
    t_cq2,
    t_s,
    t_sr,
    t_wmw,
    two_sample_oracle_terms,
    two_sample_z,
)
from hdsigntest.inference import (
    gaussian_sf,
    permutation_pvalues_two_sample,
    signflip_pvalues_one_sample,
)
from hdsigntest._naive import (
    naive_one_sample_scale_terms,
    naive_two_sample_scale_terms,
)


class TestGaussianSf:
    def test_known_values(self):
        assert abs(gaussian_sf(0.0) - 0.5) < 1e-15
        assert abs(gaussian_sf(1.6448536269514722) - 0.05) < 1e-12
        assert abs(gaussian_sf(-1.0) - 0.8413447460685429) < 1e-12


class TestAsymptoticTwoSample:
    def test_huge_shift_rejects(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((20, 100))
        y = rng.standard_normal((20, 100))
        y[:, 0] += 50.0
        for stat in ("cq2", "wmw"):
            report = asymptotic_two_sample(x, y, stat)
            assert report.p_value < 0.001
            assert report.reject

    def test_z_recomputable_from_report(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((8, 25))
        y = rng.standard_normal((9, 25))
        for stat, func in (("cq2", t_cq2), ("wmw", t_wmw)):
            report = asymptotic_two_sample(x, y, stat)
            snap = report.nuisance
            z = two_sample_z(
                stat, report.statistic, 25, snap.sigma1_sq, snap.sigma2_sq, snap.gamma
            )
            assert abs(report.z - z) < 1e-12
            assert abs(report.statistic - func(x, y)) < 1e-12

    def test_null_size(self):
        # Independent coordinates: size should be near the nominal level.
        rng = np.random.default_rng(42)
        reps = 1000
        hits = 0
        for _ in range(reps):
            x = rng.standard_normal((20, 100))
            y = rng.standard_normal((20, 100))
            hits += asymptotic_two_sample(x, y, "wmw").reject
        assert 0.03 <= hits / reps <= 0.07

    def test_rejects_unknown_stat(self):
        with pytest.raises(ValueError):
            asymptotic_two_sample(np.zeros((4, 2)), np.zeros((4, 2)), "cq1")


class TestAsymptoticOneSample:
    def test_null_size_each_stat(self):
        rng = np.random.default_rng(43)
        reps = 1000
        hits = {"cq1": 0, "s": 0, "sr": 0}
        for _ in range(reps):
            x = rng.standard_normal((20, 100))
            for stat in hits:
                hits[stat] += asymptotic_one_sample(x, stat).reject
        for stat, count in hits.items():
            assert 0.03 <= count / reps <= 0.07, (stat, count / reps)

    def test_large_shift_rejects(self):
        rng = np.random.default_rng(44)
        x = rng.standard_normal((20, 100))
        x[:, 0] += 20.0
        for stat in ("cq1", "s", "sr"):
            report = asymptotic_one_sample(x, stat)
            assert report.p_value < 0.001

    def test_sr_uses_factor_two(self):
        rng = np.random.default_rng(45)
        x = rng.standard_normal((10, 30))
        report = asymptotic_one_sample(x, "sr")
        snap = report.nuisance
        expected = 30 * snap.sigma1_sq * t_sr(x) / (2.0 * math.sqrt(snap.gamma))
        assert abs(report.z - expected) < 1e-12


class TestPermutationBackend:
    def test_seed_determinism(self):
        rng = np.random.default_rng(46)
        x = rng.standard_normal((6, 10))
        y = rng.standard_normal((7, 10))
        a = randomization_two_sample(x, y, "wmw", n_resamples=99, seed=5)
        b = randomization_two_sample(x, y, "wmw", n_resamples=99, seed=5)
        assert a == b

    def test_resampled_statistics_match_public_functions(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((5, 6))
        y = rng.standard_normal((6, 6))
        pool = np.vstack([x, y])
        draw_rng = np.random.default_rng(9)
        res = permutation_pvalues_two_sample(x, y, ["wmw", "cq2"], 25, draw_rng)
        check_rng = np.random.default_rng(9)
        for _ in range(25):
            sel = np.zeros(11, dtype=bool)
            sel[check_rng.permutation(11)[:5]] = True
        # identical rng consumption implies identical relabelings; observed
        # values must match the plain statistics.
        assert abs(res["wmw"][0] - t_wmw(x, y)) < 1e-12
        assert abs(res["cq2"][0] - t_cq2(x, y)) < 1e-12

    def test_pvalue_floor_under_huge_shift(self):
        rng = np.random.default_rng(48)
        x = rng.standard_normal((8, 20))
        y = rng.standard_normal((8, 20)) + 40.0
        for stat in ("cq2", "wmw"):
            report = randomization_two_sample(x, y, stat, n_resamples=199, seed=1)
            assert report.p_value == 1.0 / 200.0

    @pytest.mark.slow
    def test_null_size_at_paper_scale(self):
        # Identical heavy-tailed distributions; permutation size must track
        # the nominal level.
        rng = np.random.default_rng(49)
        reps = 1000
        hits = {"cq2": 0, "wmw": 0}
        for r in range(reps):
            x = rng.standard_t(3, size=(20, 100))
            y = rng.standard_t(3, size=(20, 100))
            res = permutation_pvalues_two_sample(
                x, y, ["cq2", "wmw"], 500, np.random.default_rng((49, r))
            )
            for stat in hits:
                hits[stat] += res[stat][1] <= 0.05
        for stat, count in hits.items():
            assert 0.03 <= count / reps <= 0.07, (stat, count / reps)


class TestSignflipBackend:
    def test_seed_determinism(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((8, 12))
        a = randomization_one_sample(x, "sr", n_resamples=60, seed=3)
        b = randomization_one_sample(x, "sr", n_resamples=60, seed=3)
        assert a == b

    def test_flip_statistics_match_public_functions(self):
        cases = (
            (np.random.default_rng(51).standard_normal((7, 5)), 30),
            # n = 5 with 200 draws holds 18 constant patterns; each gives
            # the observed statistic exactly and must count as a tie.
            (np.random.default_rng(155).standard_normal((5, 4)) + 2.0, 200),
        )
        for x, draws in cases:
            n = x.shape[0]
            flips = np.random.default_rng(8).integers(0, 2, size=(draws, n)) * 2.0 - 1.0
            for stat, func in (("cq1", t_cq1), ("s", t_s), ("sr", t_sr)):
                res = signflip_pvalues_one_sample(
                    x, [stat], draws, np.random.default_rng(8)
                )
                direct = np.array([func(x * e[:, None]) for e in flips])
                count = int(np.sum(direct >= func(x)))
                assert abs(res[stat][1] - (1 + count) / (draws + 1.0)) < 1e-12, stat

    def test_pvalue_floor_large_shift(self):
        # n = 20 rows: the chance of drawing a constant flip pattern, which
        # would reproduce the observed statistic exactly, is negligible.
        rng = np.random.default_rng(52)
        x = rng.standard_normal((20, 15)) + 30.0
        report = randomization_one_sample(x, "s", n_resamples=99, seed=0)
        assert report.p_value == 1.0 / 100.0

    def test_symmetric_null_size(self):
        rng = np.random.default_rng(53)
        reps = 1000
        hits = {"cq1": 0, "s": 0}
        for r in range(reps):
            x = rng.standard_normal((20, 100))
            res = signflip_pvalues_one_sample(
                x, ["cq1", "s"], 300, np.random.default_rng((53, r))
            )
            for stat in hits:
                hits[stat] += res[stat][1] <= 0.05
        for stat, count in hits.items():
            assert 0.03 <= count / reps <= 0.07, (stat, count / reps)


class TestReportContract:
    def test_reject_iff_p_below_alpha(self):
        rng = np.random.default_rng(54)
        x = rng.standard_normal((10, 30))
        y = rng.standard_normal((10, 30))
        for alpha in (0.01, 0.05, 0.2, 0.8):
            report = asymptotic_two_sample(x, y, "cq2", alpha)
            assert report.reject == (report.p_value <= alpha)

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((10, 30))
        y = rng.standard_normal((10, 30)) + 0.15
        alphas = (0.01, 0.05, 0.1, 0.3, 0.6)
        reports = [randomization_two_sample(x, y, "wmw", a, 99, 4) for a in alphas]
        rejections = [r.reject for r in reports]
        for weaker, stronger in zip(rejections, rejections[1:]):
            assert stronger or not weaker

    def test_addone_floor(self):
        rng = np.random.default_rng(56)
        x = rng.standard_normal((6, 8))
        report = randomization_one_sample(x, "cq1", n_resamples=37, seed=2)
        assert report.p_value >= 1.0 / 38.0


class TestBackendAgreement:
    def test_asymptotic_and_permutation_rates_close(self):
        # Mixing-model data: the two implementations must agree in
        # rejection rate (reduced-scale version of the study invariant).
        from hdsigntest import ExperimentPlan, run_power_study

        plan = ExperimentPlan(
            model="ar1-gauss",
            grid=((60, 0.9),),
            m=12,
            n=12,
            tests=(
                ("cq2", "asymptotic"),
                ("cq2", "permutation"),
                ("wmw", "asymptotic"),
                ("wmw", "permutation"),
            ),
            replications=1000,
            n_resamples=300,
            base_seed=57,
        )
        rates = {
            (p.stat, p.method): p.rejection_rate for p in run_power_study(plan)
        }
        for stat in ("cq2", "wmw"):
            diff = abs(rates[(stat, "asymptotic")] - rates[(stat, "permutation")])
            assert diff <= 0.05, (stat, diff)


class TestRsrmOracleTwoSample:
    def test_unit_scales_collapse(self):
        aux = RsrmAuxiliary(
            p_scales=np.ones(5),
            q_scales=np.ones(6),
            sigma_v_sq=1.0,
            sigma_w_sq=1.0,
            tr_sigma_v_sq=40.0,
            tr_sigma_w_sq=50.0,
            tr_sigma_vw=45.0,
        )
        terms = two_sample_oracle_terms(aux, 5, 6)
        gamma1 = 2 * 40 / 20 + 2 * 50 / 30 + 4 * 45 / 30
        assert abs(terms.s1 - 0.5) < 1e-12
        assert abs(terms.s3 - gamma1) < 1e-10
        assert abs(terms.s2 - gamma1 / 4.0) < 1e-10

    def test_terms_match_brute_force(self):
        p = np.array([1.0, 2.0, 0.5])
        q = np.array([1.5, 0.7, 2.2])
        aux = RsrmAuxiliary(
            p_scales=p,
            q_scales=q,
            sigma_v_sq=1.3,
            sigma_w_sq=0.8,
            tr_sigma_v_sq=10.0,
            tr_sigma_w_sq=12.0,
            tr_sigma_vw=9.0,
        )
        terms = two_sample_oracle_terms(aux, 3, 3)
        s1_sum, l3, l4, l5 = naive_two_sample_scale_terms(p, q, 1.3, 0.8)
        assert abs(terms.s1 - s1_sum / 36.0) < 1e-12
        assert abs(terms.l3 - l3) / l3 < 1e-12
        assert abs(terms.l4 - l4) / l4 < 1e-12
        assert abs(terms.l5 - l5) / l5 < 1e-12

    def test_mismatched_scales(self):
        aux = RsrmAuxiliary(
            p_scales=np.ones(4),
            q_scales=np.ones(4),
            sigma_v_sq=1.0,
            sigma_w_sq=1.0,
            tr_sigma_v_sq=5.0,
            tr_sigma_w_sq=5.0,
            tr_sigma_vw=5.0,
        )
        with pytest.raises(MismatchedAuxiliaryError):
            rsrm_oracle_two_sample(np.zeros((5, 3)), np.ones((4, 3)), aux, "cq2")

    def test_nonpositive_scale(self):
        aux = RsrmAuxiliary(
            p_scales=np.array([1.0, -1.0, 1.0, 1.0]),
            q_scales=np.ones(4),
            sigma_v_sq=1.0,
            sigma_w_sq=1.0,
            tr_sigma_v_sq=5.0,
            tr_sigma_w_sq=5.0,
            tr_sigma_vw=5.0,
        )
        rng = np.random.default_rng(58)
        with pytest.raises(NonpositiveScaleError):
            rsrm_oracle_two_sample(
                rng.standard_normal((4, 3)), rng.standard_normal((4, 3)), aux, "cq2"
            )


class TestRsrmOracleOneSample:
    def test_unit_scale_values(self):
        n = 6
        aux = RsrmAuxiliary(p_scales=np.ones(n), sigma_v_sq=1.0, tr_sigma_v_sq=9.0)
        terms = one_sample_oracle_terms(aux, n)
        u_tilde, _, _ = naive_one_sample_scale_terms(np.ones(n))
        assert abs(terms.z1 - 1.0) < 1e-12
        assert abs(u_tilde[0, 1] - (n - 2) * (n - 3) / 2.0) < 1e-12
        gamma2 = 2 * 9.0 / (n * (n - 1))
        assert abs(terms.gamma3 - gamma2) < 1e-12
        assert abs(terms.z3 - gamma2) < 1e-10
        assert abs(terms.z4 - gamma2) < 1e-12

    def test_terms_match_brute_force(self):
        p = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        aux = RsrmAuxiliary(p_scales=p, sigma_v_sq=1.7, tr_sigma_v_sq=7.0)
        terms = one_sample_oracle_terms(aux, 5)
        _, z2_sum, z3_sum = naive_one_sample_scale_terms(p)
        n4 = 5 * 4 * 3 * 2
        assert abs(terms.z2 - 2.0 * z2_sum / (n4 * 1.7)) < 1e-12
        assert abs(terms.z3 - 8.0 * 7.0 * z3_sum / (n4 * 1.7) ** 2) < 1e-12

    def test_collapse_to_asymptotic_with_population_nuisances(self):
        # Spherical Gaussian: unit scales make the oracle p-values equal
        # the plug-in formulas evaluated at the population values.
        rng = np.random.default_rng(59)
        n, d = 9, 40
        x = rng.standard_normal((n, d))
        aux = RsrmAuxiliary(
            p_scales=np.ones(n), sigma_v_sq=1.0, tr_sigma_v_sq=float(d)
        )
        gamma2 = 2.0 * d / (n * (n - 1))
        for stat, func in (("s", t_s), ("sr", t_sr), ("cq1", t_cq1)):
            report = rsrm_oracle_one_sample(x, aux, stat)
            z = one_sample_z(stat, func(x), d, 1.0, gamma2)
            assert abs(report.p_value - gaussian_sf(z)) < 1e-10

    def test_scale_count_validation(self):
        aux = RsrmAuxiliary(p_scales=np.ones(3), sigma_v_sq=1.0, tr_sigma_v_sq=5.0)
        with pytest.raises(MismatchedAuxiliaryError):
            rsrm_oracle_one_sample(np.zeros((5, 2)), aux, "cq1")
