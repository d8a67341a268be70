"""Tests for the trace-functional and variance estimators."""

import numpy as np
import pytest

from hdsigntest import (
    DegenerateVarianceError,
    TooFewObservationsError,
    gamma1_hat,
    gamma2_hat,
    sigma_sq_hat,
    tr_sigma_cross_hat,
    tr_sigma_sq_hat,
)
from hdsigntest._naive import naive_tr_sigma_cross, naive_tr_sigma_sq


def rel_err(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-12)


class TestTrSigmaSq:
    def test_constant_rows(self):
        assert tr_sigma_sq_hat(np.ones((4, 3)) * 2.5) == 0.0

    def test_matches_naive(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((5, 3))
        assert rel_err(tr_sigma_sq_hat(x), naive_tr_sigma_sq(x)) < 1e-9

    def test_too_few(self):
        with pytest.raises(TooFewObservationsError):
            tr_sigma_sq_hat(np.zeros((3, 2)))

    def test_monte_carlo_unbiased(self):
        # Sigma = diag(1, 2, 3): tr(Sigma^2) = 14.
        rng = np.random.default_rng(21)
        sd = np.sqrt([1.0, 2.0, 3.0])
        reps = 20000
        values = np.empty(reps)
        for r in range(reps):
            values[r] = tr_sigma_sq_hat(rng.standard_normal((20, 3)) * sd)
        err = abs(values.mean() - 14.0)
        assert err < 3.0 * values.std(ddof=1) / np.sqrt(reps)

    def test_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            x = rng.standard_normal((int(rng.integers(4, 9)), int(rng.integers(1, 6))))
            assert tr_sigma_sq_hat(x) >= 0.0


class TestTrSigmaCross:
    def test_constant_second_sample(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((4, 3))
        assert tr_sigma_cross_hat(x, np.ones((5, 3))) == 0.0

    def test_matches_naive(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((4, 3))
        assert rel_err(tr_sigma_cross_hat(x, y), naive_tr_sigma_cross(x, y)) < 1e-9

    def test_same_matrix_expectation(self):
        # Passing the same Gaussian matrix twice targets tr(Sigma^2) like
        # tr_sigma_sq_hat, but the index pairs of the two factors overlap,
        # which inflates the mean at finite m.  Isserlis' theorem gives the
        # exact expectation over the three coincidence patterns:
        # disjoint pairs, one shared index, both indices shared.
        m = 12
        tr2 = 14.0  # tr(Sigma^2), Sigma = diag(1, 2, 3)
        tr1sq = 36.0  # tr(Sigma)^2
        m2 = m * (m - 1)
        md4 = m2 * (m - 2) * (m - 3)
        expected = (
            md4 * 4.0 * tr2
            + 2.0 * m2 * (8.0 * tr2 + 4.0 * tr1sq)
            + 4.0 * m2 * (m - 2) * (tr1sq + 5.0 * tr2)
        ) / (4.0 * m2**2)
        rng = np.random.default_rng(25)
        sd = np.sqrt([1.0, 2.0, 3.0])
        reps = 4000
        values = np.empty(reps)
        for r in range(reps):
            x = rng.standard_normal((m, 3)) * sd
            values[r] = tr_sigma_cross_hat(x, x)
        err = abs(values.mean() - expected)
        assert err < 3.0 * values.std(ddof=1) / np.sqrt(reps)


class TestSigmaSq:
    def test_constant_rows(self):
        assert sigma_sq_hat(np.ones((5, 4))) == 0.0

    def test_two_point_example(self):
        assert sigma_sq_hat([[0.0], [2.0]]) == 2.0

    def test_needs_two_rows(self):
        with pytest.raises(TooFewObservationsError):
            sigma_sq_hat(np.ones((1, 3)))

    def test_monte_carlo(self):
        rng = np.random.default_rng(26)
        reps = 1000
        values = np.array(
            [sigma_sq_hat(rng.standard_normal((25, 50))) for _ in range(reps)]
        )
        err = abs(values.mean() - 1.0)
        assert err < 3.0 * values.std(ddof=1) / np.sqrt(reps)

    def test_same_value_as_the_snapshots(self):
        # The one-sample snapshot reads the same centred Gram block, so it
        # records the same bits.  The two-sample snapshot reads the x block
        # of the pooled Gram matrix, whose larger GEMM may round a diagonal
        # entry differently: there the values agree to a few ulps.
        rng = np.random.default_rng(27)
        for _ in range(100):
            m, n, d = (int(v) for v in rng.integers((4, 4, 1), (30, 30, 400)))
            x = rng.standard_t(4, size=(m, d)) * rng.uniform(0.1, 10.0) + rng.uniform(-50, 50)
            y = rng.standard_normal((n, d))
            value = sigma_sq_hat(x)
            assert value == gamma2_hat(x).sigma1_sq, (m, d)
            pooled = gamma1_hat(x, y).sigma1_sq
            assert abs(value - pooled) <= 4 * np.finfo(float).eps * value, (m, n, d)


def _one_odd_row_cases(count=3000):
    """(x, y): x is m - 1 identical rows plus one other row and y is
    constant, on a grid of eighths, m, n in 4-6 and d in 1-3.  Every
    distinct quadruple of x rows holds a zero difference and y has none
    but zeros, so tr1, tr2, tr12 and gamma are exactly 0, although the
    centred rows of x are not."""
    rng = np.random.default_rng(32)
    for _ in range(count):
        m, n, d = (int(v) for v in rng.integers((4, 4, 1), (7, 7, 4)))
        x = np.repeat(rng.integers(-64, 65, size=(1, d)) / 8.0, m, axis=0)
        x[int(rng.integers(m))] = rng.integers(-64, 65, size=d) / 8.0
        y = np.repeat(rng.integers(-64, 65, size=(1, d)) / 8.0, n, axis=0)
        yield x, y


class TestGamma1:
    def test_constant_data_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            gamma1_hat(np.ones((5, 3)), np.ones((6, 3)) * 4.0)

    def test_noise_level_gamma_degenerate(self):
        # The reductions leave rounding noise such as 4e-16 where gamma is
        # 0; it must be refused against the spread of the data, not
        # against trace estimates that are noise themselves.
        for x, y in _one_odd_row_cases():
            with pytest.raises(DegenerateVarianceError):
                gamma1_hat(x, y)

    def test_location_invariance(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((7, 4))
        a = rng.uniform(-20.0, 20.0, size=4)
        b = rng.uniform(-20.0, 20.0, size=4)
        base = gamma1_hat(x, y)
        shifted = gamma1_hat(x + a, y + b)
        assert rel_err(shifted.gamma, base.gamma) < 1e-12
        assert rel_err(shifted.tr_sigma1_sq, base.tr_sigma1_sq) < 1e-12
        assert rel_err(shifted.tr_sigma_cross, base.tr_sigma_cross) < 1e-12

    def test_separate_large_offsets(self):
        # Entries on a 2^-20 grid stay exact under shifts of 1e8 and -3e8,
        # so every field must match the unshifted samples to rounding.
        rng = np.random.default_rng(31)
        x = np.round(rng.standard_normal((20, 100)) * 2.0**20) / 2.0**20
        y = np.round(rng.standard_normal((20, 100)) * 2.0**20) / 2.0**20
        base = gamma1_hat(x, y).to_dict()
        shifted = gamma1_hat(x + 1e8, y - 3e8).to_dict()
        for key, value in base.items():
            assert rel_err(shifted[key], value) < 1e-12, key

    def test_recomposition(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 4))
        snap = gamma1_hat(x, y)
        expected = (
            2.0 / 30.0 * naive_tr_sigma_sq(x)
            + 2.0 / 30.0 * naive_tr_sigma_sq(y)
            + 4.0 / 36.0 * naive_tr_sigma_cross(x, y)
        )
        assert rel_err(snap.gamma, expected) < 1e-9
        assert snap.sigma1_sq > 0.0 and snap.sigma2_sq > 0.0

    def test_needs_four_rows(self):
        with pytest.raises(TooFewObservationsError):
            gamma1_hat(np.zeros((3, 2)), np.zeros((5, 2)))


class TestGamma2:
    def test_needs_four_rows(self):
        with pytest.raises(TooFewObservationsError):
            gamma2_hat(np.random.default_rng(31).standard_normal((3, 2)))

    def test_constant_matrix_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            gamma2_hat(np.full((6, 3), 1.5))

    def test_noise_level_gamma_degenerate(self):
        for x, _ in _one_odd_row_cases():
            with pytest.raises(DegenerateVarianceError):
                gamma2_hat(x)

    def test_recomposition(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((6, 4))
        snap = gamma2_hat(x)
        assert rel_err(snap.gamma, 2.0 / 30.0 * naive_tr_sigma_sq(x)) < 1e-9
        assert snap.tr_sigma2_sq is None and snap.sigma2_sq is None

    def test_location_invariance(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((8, 5))
        a = rng.uniform(-30.0, 30.0, size=5)
        assert rel_err(gamma2_hat(x + a).gamma, gamma2_hat(x).gamma) < 1e-12
