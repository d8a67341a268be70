"""Unit and property tests for the five statistics and their fast paths."""

import numpy as np
import pytest

from hdsigntest import (
    TooFewObservationsError,
    DimensionMismatchError,
    ZeroVectorError,
    spatial_sign,
    t_cq1,
    t_cq2,
    t_s,
    t_sr,
    t_wmw,
)
from hdsigntest.inference import permutation_pvalues_two_sample
from hdsigntest._naive import (
    naive_t_cq1,
    naive_t_cq2,
    naive_t_s,
    naive_t_sr,
    naive_t_wmw,
)


def rel_err(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-12)


class TestSpatialSign:
    def test_pythagorean(self):
        assert np.allclose(spatial_sign([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_axis_vector(self):
        assert np.allclose(spatial_sign([0.0, 0.0, 5.0]), [0.0, 0.0, 1.0])

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = spatial_sign(rng.standard_normal(7))
            assert abs(np.linalg.norm(s) - 1.0) < 1e-12

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            spatial_sign([0.0, 0.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            spatial_sign([np.nan, 1.0])


class TestCq1:
    def test_orthogonal_pair(self):
        assert t_cq1([[1.0, 0.0], [0.0, 1.0]]) == 0.0

    def test_identical_unit_vectors(self):
        assert t_cq1([[1.0, 0.0], [1.0, 0.0]]) == 1.0

    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        assert rel_err(t_cq1(x), naive_t_cq1(x)) < 1e-10

    def test_too_few(self):
        with pytest.raises(TooFewObservationsError):
            t_cq1([[1.0, 2.0]])

    def test_monte_carlo_unbiased(self):
        # T_CQ1 estimates ||mu||^2 without bias.
        rng = np.random.default_rng(2)
        mu = np.array([1.0, 0.5, 0.0])
        reps = 12000
        draws = rng.standard_normal((reps, 5, 3)) + mu
        sums = draws.sum(axis=1)
        sq = np.einsum("rij,rij->r", draws, draws)
        values = (np.einsum("rd,rd->r", sums, sums) - sq) / (5 * 4)
        err = abs(values.mean() - mu @ mu)
        assert err < 3.0 * values.std(ddof=1) / np.sqrt(reps)
        assert rel_err(values[0], t_cq1(draws[0])) < 1e-12


class TestCq2:
    def test_pure_shift(self):
        assert t_cq2([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]) == 1.0

    def test_swap_symmetric(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((5, 3))
        assert rel_err(t_cq2(x, y), t_cq2(y, x)) < 1e-12

    def test_matches_naive(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5))
        y = rng.standard_normal((4, 5))
        assert rel_err(t_cq2(x, y), naive_t_cq2(x, y)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            t_cq2(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_too_few(self):
        with pytest.raises(TooFewObservationsError):
            t_cq2(np.zeros((1, 2)), np.zeros((3, 2)))

    def test_location_offset(self):
        # A common shift leaves the statistic unchanged, and must in floating
        # point too, on the direct and the permutation path: uncentred sums
        # of squares cancel (512.0 instead of 2.11 at offset 1e8).
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 100))
        y = rng.standard_normal((20, 100))
        base = t_cq2(x, y)
        for offset, tol in ((1e6, 1e-9), (1e8, 1e-7)):
            assert rel_err(t_cq2(x + offset, y + offset), base) < tol
            res = permutation_pvalues_two_sample(
                x + offset, y + offset, ["cq2"], 1, np.random.default_rng(0)
            )
            assert rel_err(res["cq2"][0], base) < tol


class TestSpatialSignStat:
    def test_identical_directions(self):
        assert t_s([[2.0, 0.0]] * 3) == 1.0

    def test_antipodal(self):
        assert t_s([[1.0, 0.0], [-1.0, 0.0]]) == -1.0

    def test_matches_naive(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3))
        assert rel_err(t_s(x), naive_t_s(x)) < 1e-12

    def test_zero_row(self):
        with pytest.raises(ZeroVectorError):
            t_s([[0.0, 0.0], [1.0, 0.0]])


class TestSignedRankStat:
    def test_identical_directions(self):
        assert t_sr([[1.0, 0.0, 0.0]] * 4) == 1.0

    def test_antipodal_rows_degenerate(self):
        # (1,0) + (-1,0) = 0: the pairwise-sum sign is undefined, which the
        # contract surfaces as an error instead of skipping the term.
        with pytest.raises(ZeroVectorError):
            t_sr([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])

    def test_near_antipodal_matches_enumeration(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.5], [-1.0, -0.5]])
        assert rel_err(t_sr(x), naive_t_sr(x)) < 1e-12

    def test_matches_naive(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 5))
        assert rel_err(t_sr(x), naive_t_sr(x)) < 1e-10

    def test_too_few(self):
        with pytest.raises(TooFewObservationsError):
            t_sr(np.eye(3))


class TestWmw:
    def test_constant_difference(self):
        assert t_wmw([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]) == 1.0

    def test_swap_invariant(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((5, 3))
        assert rel_err(t_wmw(x, y), t_wmw(y, x)) < 1e-12

    def test_matches_naive(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 6))
        y = rng.standard_normal((4, 6))
        assert rel_err(t_wmw(x, y), naive_t_wmw(x, y)) < 1e-10

    def test_zero_difference(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ZeroVectorError):
            t_wmw(x, x.copy())


class TestInvariances:
    def _random_instance(self, rng):
        m = int(rng.integers(4, 9))
        n = int(rng.integers(4, 9))
        d = int(rng.integers(2, 11))
        return rng.standard_normal((m, d)), rng.standard_normal((n, d))

    def test_sign_stats_in_range(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            x, y = self._random_instance(rng)
            for value in (t_s(x), t_sr(x), t_wmw(x, y)):
                assert -1.0 <= value <= 1.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x, y = self._random_instance(rng)
            q, _ = np.linalg.qr(rng.standard_normal((x.shape[1], x.shape[1])))
            xr, yr = x @ q, y @ q
            assert rel_err(t_cq1(xr), t_cq1(x)) < 1e-10
            assert rel_err(t_cq2(xr, yr), t_cq2(x, y)) < 1e-10
            assert rel_err(t_s(xr), t_s(x)) < 1e-10
            assert rel_err(t_sr(xr), t_sr(x)) < 1e-10
            assert rel_err(t_wmw(xr, yr), t_wmw(x, y)) < 1e-10

    def test_global_scale_invariance(self):
        rng = np.random.default_rng(11)
        for lam in (0.003, 7.5, 1234.0):
            x, y = self._random_instance(rng)
            assert abs(t_s(lam * x) - t_s(x)) < 1e-12
            assert abs(t_sr(lam * x) - t_sr(x)) < 1e-12
            assert abs(t_wmw(lam * x, lam * y) - t_wmw(x, y)) < 1e-12

    def test_per_row_scale_invariance_of_t_s(self):
        rng = np.random.default_rng(12)
        x, _ = self._random_instance(rng)
        lam = rng.uniform(0.1, 10.0, size=x.shape[0])
        assert abs(t_s(lam[:, None] * x) - t_s(x)) < 1e-12

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            x, y = self._random_instance(rng)
            xp = x[rng.permutation(x.shape[0])]
            yp = y[rng.permutation(y.shape[0])]
            assert rel_err(t_cq1(xp), t_cq1(x)) < 1e-13
            assert rel_err(t_cq2(xp, yp), t_cq2(x, y)) < 1e-13
            assert rel_err(t_s(xp), t_s(x)) < 1e-13
            assert rel_err(t_sr(xp), t_sr(x)) < 1e-13
            assert rel_err(t_wmw(xp, yp), t_wmw(x, y)) < 1e-13
