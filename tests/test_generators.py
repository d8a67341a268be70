"""Tests for the synthetic data models."""

import math

import numpy as np
import pytest
from scipy import stats

from hdsigntest import (
    GeneratorSpec,
    InvalidSpecError,
    MeanShift,
    NonpositiveScaleError,
    gen_ar1,
    gen_equicorr_gauss,
    gen_rsrm_custom,
    gen_spherical_t,
    generate,
)


def column_loop_ar1(spec, n, rng):
    """The AR(1) recursion as one strided column per coordinate: the
    reference that gen_ar1 must reproduce bit for bit."""
    d, rho = spec.d, spec.rho
    if spec.model == "ar1-gauss":
        x = np.empty((n, d))
        x[:, 0] = rng.standard_normal(n) / math.sqrt(1.0 - rho * rho)
        eps = rng.standard_normal((n, d))
        for k in range(1, d):
            x[:, k] = rho * x[:, k - 1] + eps[:, k]
    else:
        burn = 10 * math.ceil(1.0 / (1.0 - abs(rho)))
        scale = math.sqrt((spec.df - 2.0) / spec.df)
        eps = rng.standard_t(spec.df, size=(n, burn + d)) * scale
        path = np.zeros(n)
        x = np.empty((n, d))
        for k in range(burn + d):
            path = rho * path + eps[:, k]
            if k >= burn:
                x[:, k - burn] = path
    return x + spec.shift.mean_vector(d)


def lag1_correlation(x):
    cols = x - x.mean(axis=0)
    num = np.sum(cols[:, :-1] * cols[:, 1:])
    den = math.sqrt(np.sum(cols[:, :-1] ** 2) * np.sum(cols[:, 1:] ** 2))
    return num / den


class TestMeanShift:
    def test_styles(self):
        assert np.array_equal(
            MeanShift("first-coordinate", 2.0).mean_vector(4), [2.0, 0.0, 0.0, 0.0]
        )
        spread = MeanShift("spread-equally", 2.0).mean_vector(4)
        assert np.allclose(spread, 1.0)
        assert abs(np.linalg.norm(spread) - 2.0) < 1e-12
        # No shift is either style at magnitude 0; the default is the first.
        assert MeanShift() == MeanShift("first-coordinate", 0.0)
        for style in ("first-coordinate", "spread-equally"):
            assert np.array_equal(MeanShift(style).mean_vector(3), np.zeros(3))

    def test_invalid(self):
        with pytest.raises(InvalidSpecError):
            MeanShift("diagonal", 1.0)
        with pytest.raises(InvalidSpecError):
            MeanShift("first-coordinate", -1.0)
        with pytest.raises(InvalidSpecError, match="^unknown shift style 'zero'$"):
            MeanShift("zero", 0.0)


class TestSpecValidation:
    def test_bad_parameters(self):
        with pytest.raises(InvalidSpecError):
            GeneratorSpec(model="nope", d=10)
        with pytest.raises(InvalidSpecError):
            GeneratorSpec(model="ar1-gauss", d=10, rho=1.0)
        with pytest.raises(InvalidSpecError):
            GeneratorSpec(model="equicorr-gauss", d=10, beta=0.0)
        with pytest.raises(InvalidSpecError):
            GeneratorSpec(model="spherical-t5", d=10, df=0.0)
        with pytest.raises(InvalidSpecError):
            GeneratorSpec(model="ar1-gauss", d=0)
        with pytest.raises(InvalidSpecError, match="^d must be an integer, got 10.5$"):
            GeneratorSpec(model="ar1-gauss", d=10.5)
        with pytest.raises(InvalidSpecError, match="^rho must be a real number, got '0.5'$"):
            GeneratorSpec(model="ar1-gauss", d=10, rho="0.5")
        with pytest.raises(InvalidSpecError, match="^seed must be non-negative, got -1$"):
            GeneratorSpec(model="ar1-gauss", d=10, seed=-1)
        # A bool is not a count, seed or real, although Python counts it
        # as an int.
        with pytest.raises(InvalidSpecError, match="^df must be a real number, got True$"):
            GeneratorSpec(model="spherical-t5", d=5, df=True)
        with pytest.raises(InvalidSpecError, match="^d must be an integer, got True$"):
            GeneratorSpec(model="ar1-gauss", d=True)
        with pytest.raises(InvalidSpecError, match="^seed must be an integer, got False$"):
            GeneratorSpec(model="ar1-gauss", d=10, seed=False)
        for model in ("ar1-gauss", "ar1-t5", "spherical-t5", "equicorr-gauss"):
            spec = GeneratorSpec(model=model, d=6, seed=25)
            with pytest.raises(InvalidSpecError, match="^n must be an integer, got 2.5$"):
                generate(spec, 2.5)
            with pytest.raises(InvalidSpecError, match="^n must be an integer, got True$"):
                generate(spec, True)
            with pytest.raises(InvalidSpecError, match="must be at least 1"):
                generate(spec, 0)
            assert generate(spec, np.int64(3))[0].shape == (3, 6)

    @pytest.mark.parametrize("gen, model", [
        (gen_ar1, "spherical-t5"),
        (gen_spherical_t, "ar1-gauss"),
        (gen_equicorr_gauss, "ar1-t5"),
    ])
    def test_generator_refuses_other_model(self, gen, model):
        with pytest.raises(InvalidSpecError, match=f"cannot generate model '{model}'$"):
            gen(GeneratorSpec(model=model, d=4, seed=26), 3)


class TestAr1:
    def test_seed_determinism(self):
        spec = GeneratorSpec(model="ar1-gauss", d=30, seed=7)
        assert np.array_equal(gen_ar1(spec, 12), gen_ar1(spec, 12))

    def test_rho_zero_is_iid(self):
        spec = GeneratorSpec(model="ar1-gauss", d=80, rho=0.0, seed=8)
        x = gen_ar1(spec, 600)
        assert abs(lag1_correlation(x)) < 3.0 / math.sqrt(600 * 80)

    def test_gaussian_lag1_autocorrelation(self):
        spec = GeneratorSpec(model="ar1-gauss", d=50, rho=0.7, seed=9)
        x = gen_ar1(spec, 5000)
        assert abs(lag1_correlation(x) - 0.7) < 0.03

    def test_t_innovation_lag1_autocorrelation(self):
        spec = GeneratorSpec(model="ar1-t5", d=50, rho=0.7, seed=10)
        x = gen_ar1(spec, 5000)
        assert abs(lag1_correlation(x) - 0.7) < 0.03

    def test_stationary_variance_profile(self):
        # No initialization transient: every column variance must sit near
        # the stationary value 1 / (1 - rho^2).
        spec = GeneratorSpec(model="ar1-gauss", d=50, rho=0.7, seed=11)
        x = gen_ar1(spec, 5000)
        target = 1.0 / (1.0 - 0.49)
        assert np.all(np.abs(x.var(axis=0) - target) < 0.2)

    def test_t_needs_df_above_two(self):
        # Refused when the spec is built, before any data are drawn; the
        # spherical t models take any positive df.
        for df in (1.5, 2.0):
            with pytest.raises(InvalidSpecError, match="need df > 2"):
                GeneratorSpec(model="ar1-t5", d=10, df=df)
        GeneratorSpec(model="spherical-t5", d=10, df=1.5)

    def test_shift_added_after_noise(self):
        spec = GeneratorSpec(model="ar1-gauss", d=12, seed=12)
        shifted = spec.with_shift("first-coordinate", 3.0)
        zero = gen_ar1(spec, 9)
        mu = shifted.shift.mean_vector(12)
        assert np.array_equal(gen_ar1(shifted, 9), zero + mu)

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("d", [1, 2, 50])
    @pytest.mark.parametrize("rho", [0.7, -0.5, 0.0])
    @pytest.mark.parametrize("model", ["ar1-gauss", "ar1-t5"])
    def test_matches_column_loop(self, model, rho, d, n):
        spec = GeneratorSpec(model=model, d=d, rho=rho).with_shift("spread-equally", 1.5)
        seed = (d, n, 26)
        expected = column_loop_ar1(spec, n, np.random.default_rng(seed))
        assert np.array_equal(gen_ar1(spec, n, np.random.default_rng(seed)), expected)


class TestSphericalT:
    def test_seed_determinism(self):
        spec = GeneratorSpec(model="spherical-t5", d=15, seed=13)
        a, aux_a = gen_spherical_t(spec, 20)
        b, aux_b = gen_spherical_t(spec, 20)
        assert np.array_equal(a, b)
        assert np.array_equal(aux_a.p_scales, aux_b.p_scales)

    def test_marginal_variance(self):
        spec = GeneratorSpec(model="spherical-t5", d=10, df=5.0, seed=14)
        x, _ = gen_spherical_t(spec, 5000)
        var = x.var(axis=0).mean()
        assert abs(var - 5.0 / 3.0) < 0.05 * (5.0 / 3.0)

    def test_infinite_df_degenerates_to_gaussian(self):
        spec = GeneratorSpec(model="spherical-t5", d=8, df=math.inf, seed=15)
        x, aux = gen_spherical_t(spec, 10)
        assert np.array_equal(aux.p_scales, np.ones(10))
        direct = np.random.default_rng(15).standard_normal((10, 8))
        assert np.array_equal(x, direct)

    def test_auxiliary_population_values(self):
        spec = GeneratorSpec(model="spherical-t5", d=33, seed=16)
        _, aux = gen_spherical_t(spec, 6)
        assert aux.sigma_v_sq == 1.0
        assert aux.tr_sigma_v_sq == 33.0
        assert aux.p_scales.shape == (6,)
        assert np.all(aux.p_scales > 0)


class TestEquicorr:
    def test_seed_determinism(self):
        spec = GeneratorSpec(model="equicorr-gauss", d=12, seed=17)
        assert np.array_equal(gen_equicorr_gauss(spec, 8), gen_equicorr_gauss(spec, 8))

    def test_offdiagonal_correlation(self):
        spec = GeneratorSpec(model="equicorr-gauss", d=20, beta=0.7, seed=18)
        x = gen_equicorr_gauss(spec, 5000)
        corr = np.corrcoef(x.T)
        off = corr[np.triu_indices(20, 1)]
        assert abs(off.mean() - 0.7) < 0.03

    def test_marginal_variance_is_one(self):
        spec = GeneratorSpec(model="equicorr-gauss", d=20, beta=0.7, seed=19)
        x = gen_equicorr_gauss(spec, 5000)
        assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05 * 3)
        assert abs(x.var(axis=0).mean() - 1.0) < 0.05


class TestRsrmCustom:
    @staticmethod
    def _gauss_base(rng, n, d):
        return rng.standard_normal((n, d))

    def test_unit_scale_equals_base_plus_shift(self):
        spec = GeneratorSpec(model="spherical-t5", d=6, seed=20).with_shift(
            "first-coordinate", 1.5
        )
        x, aux = gen_rsrm_custom(spec, 5, self._gauss_base, lambda rng, n: np.ones(n))
        base_rows = np.random.default_rng(20).standard_normal((5, 6))
        assert np.array_equal(x, base_rows + spec.shift.mean_vector(6))
        assert np.array_equal(aux.p_scales, np.ones(5))

    def test_chi_square_scale_matches_spherical_t(self):
        # Equivalent construction of the spherical t: compare first
        # coordinates with a two-sample KS test.
        spec_a = GeneratorSpec(model="spherical-t5", d=3, df=5.0, seed=21)
        xa, _ = gen_spherical_t(spec_a, 5000)
        spec_b = GeneratorSpec(model="spherical-t5", d=3, seed=22)
        xb, _ = gen_rsrm_custom(
            spec_b,
            5000,
            self._gauss_base,
            lambda rng, n: np.sqrt(rng.chisquare(5.0, n) / 5.0),
        )
        assert stats.ks_2samp(xa[:, 0], xb[:, 0]).pvalue > 0.01

    @pytest.mark.parametrize("df", [5.0, 2.5, math.inf])
    @pytest.mark.parametrize("d, n", [(1, 1), (7, 5), (300, 20)])
    def test_spherical_t_is_gaussian_rows_over_chi_scales(self, df, d, n):
        # gen_spherical_t draws the Gaussian rows, then the scales (none
        # for df = inf): byte for byte the direct construction.
        spec = GeneratorSpec(model="spherical-t5", d=d, df=df).with_shift(
            "first-coordinate", 1.5
        )
        rng = np.random.default_rng((d, n, 28))
        x, aux = gen_spherical_t(spec, n, rng)
        ref = np.random.default_rng((d, n, 28))
        rows = ref.standard_normal((n, d))
        scales = np.ones(n) if math.isinf(df) else np.sqrt(ref.chisquare(df, size=n) / df)
        assert x.tobytes() == (rows / scales[:, None] + spec.shift.mean_vector(d)).tobytes()
        assert aux.p_scales.tobytes() == scales.tobytes()
        assert (aux.sigma_v_sq, aux.tr_sigma_v_sq) == (1.0, float(d))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_nonpositive_scale_rejected(self):
        spec = GeneratorSpec(model="spherical-t5", d=4, seed=23)
        with pytest.raises(NonpositiveScaleError):
            gen_rsrm_custom(spec, 6, self._gauss_base, lambda rng, n: np.zeros(n))

    def test_base_and_scale_counts_checked(self):
        spec = GeneratorSpec(model="spherical-t5", d=4, seed=23)
        with pytest.raises(InvalidSpecError, match=r"returned shape \(6, 5\), expected \(6, 4\)$"):
            gen_rsrm_custom(spec, 6, lambda rng, n, d: rng.standard_normal((n, d + 1)),
                            lambda rng, n: np.ones(n))
        with pytest.raises(InvalidSpecError, match="^scale law returned 5 values for n=6$"):
            gen_rsrm_custom(spec, 6, self._gauss_base, lambda rng, n: np.ones(n - 1))

    def test_seed_determinism(self):
        spec = GeneratorSpec(model="spherical-t5", d=4, seed=24)
        law = lambda rng, n: rng.uniform(0.5, 2.0, n)
        xa, _ = gen_rsrm_custom(spec, 6, self._gauss_base, law)
        xb, _ = gen_rsrm_custom(spec, 6, self._gauss_base, law)
        assert np.array_equal(xa, xb)


class TestGenerate:
    def test_dispatch(self):
        for model in ("ar1-gauss", "ar1-t5", "equicorr-gauss"):
            x, aux = generate(GeneratorSpec(model=model, d=6, seed=25), 5)
            assert x.shape == (5, 6)
            assert aux is None
        x, aux = generate(GeneratorSpec(model="spherical-t5", d=6, seed=25), 5)
        assert x.shape == (5, 6)
        assert aux is not None

    @pytest.mark.parametrize("model", ["ar1-gauss", "ar1-t5", "spherical-t5", "equicorr-gauss"])
    def test_c_ordered_float64(self, model):
        # The statistics' bits depend on memory order, so every model hands
        # them the same layout.
        for n, d in ((1, 1), (3, 1), (1, 9), (7, 40)):
            x, _ = generate(GeneratorSpec(model=model, d=d, seed=27), n)
            assert x.shape == (n, d)
            assert x.dtype == np.float64
            assert x.flags.c_contiguous

    def test_shift_reproduces_zero_shift_stream(self):
        for model in ("ar1-gauss", "ar1-t5", "spherical-t5", "equicorr-gauss"):
            spec = GeneratorSpec(model=model, d=9, seed=26)
            shifted = spec.with_shift("spread-equally", 2.0)
            x0, _ = generate(spec, 7)
            x1, _ = generate(shifted, 7)
            assert np.array_equal(x1, x0 + shifted.shift.mean_vector(9)), model
