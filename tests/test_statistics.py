"""Unit and property tests for the five statistics and their fast paths."""

import itertools
import tracemalloc

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
from hdsigntest.generators import RsrmAuxiliary
from hdsigntest.inference import (
    ONE_SAMPLE_METHODS,
    _evaluate,
    evaluate_one_sample,
    evaluate_two_sample,
)
from hdsigntest.nuisance import _one_sample_snapshot
from hdsigntest.statistics import _OneSampleGram, _observed
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
            key = ("cq2", "permutation")
            res = evaluate_two_sample(
                x + offset, y + offset, [key], n_resamples=1, rng=np.random.default_rng(0)
            )
            assert rel_err(res[key].statistic, base) < tol


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

    @pytest.mark.parametrize("norm", (1.0, 1e-3))
    def test_short_rows_under_offset(self, norm):
        # Rows 0 and 1 lie near the origin, far from the column mean: their
        # inner product, rebuilt from the centred rows and the mean, would
        # carry an error of about eps ||mean||^2 = 5e-3.
        rng = np.random.default_rng(69)
        x = rng.standard_normal((8, 30)) + 1e6
        x[:2] = rng.standard_normal((2, 30)) * norm / np.sqrt(30)
        flips = rng.integers(0, 2, size=(4, 8)) * 2.0 - 1.0
        assert abs(t_s(x) - naive_t_s(x)) < 1e-12
        key = ("s", "signflip")
        res = evaluate_one_sample(x, [key], n_resamples=4, rng=np.random.default_rng(0))
        assert abs(res[key].statistic - naive_t_s(x)) < 1e-12
        for value, eps in zip(_OneSampleGram([x]).sr(flips)[0], flips):
            assert abs(value - naive_t_sr(x * eps[:, None])) < 1e-12


class TestSignedRankStat:
    def test_identical_directions(self):
        assert t_sr([[1.0, 0.0, 0.0]] * 4) == 1.0

    def test_antipodal_rows_degenerate(self):
        # (1,0) + (-1,0) = 0: the pairwise-sum sign is undefined, which the
        # contract surfaces as an error instead of skipping the term.
        with pytest.raises(ZeroVectorError):
            t_sr([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        # Around a column mean that no float represents, the pair sum
        # rebuilt from the centred rows and the mean is not exactly zero;
        # taken from the rows, it is.
        x = np.random.default_rng(65).standard_normal((5, 3)) + 0.37
        x[1] = -x[0]
        with pytest.raises(ZeroVectorError):
            t_sr(x)

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

    def test_every_flip_matches_naive(self):
        x = np.random.default_rng(60).standard_normal((6, 5)) + 0.3
        flips = np.array(list(itertools.product((1.0, -1.0), repeat=6)))
        values = _OneSampleGram([x]).sr(flips)[0]
        for value, eps in zip(values, flips):
            assert abs(value - naive_t_sr(x * eps[:, None])) < 1e-12
        assert values[0] == t_sr(x)

    @pytest.mark.parametrize("dist", (1e-3, 1e-7, 1e-10, 0.2))
    @pytest.mark.parametrize("sign", (1.0, -1.0), ids=("duplicate", "antipodal"))
    def test_near_coincident_pair(self, dist, sign):
        # Rows 0 and 1 nearly coincide (or nearly cancel); from the Gram
        # matrix alone, ||X_0 -+ X_1|| would lose most of its digits.  At
        # 0.2 the pair is just outside the near-pair rule (its squared
        # norm is 3.1% or 1.4% of its summands'), so the Gram matrix gives
        # its norm.
        rng = np.random.default_rng(61)
        x = rng.standard_normal((7, 20)) + 0.3
        u = rng.standard_normal(20)
        x[1] = sign * x[0] + dist * np.linalg.norm(x[0]) * u / np.linalg.norm(u)
        flips = rng.integers(0, 2, size=(16, 7)) * 2.0 - 1.0
        # Half of the patterns flip row 1 against row 0, half keep them.
        flips[:, 0] = 1.0
        flips[:, 1] = np.tile((1.0, -1.0), 8)
        assert abs(t_sr(x) - naive_t_sr(x)) < 1e-10
        for value, eps in zip(_OneSampleGram([x]).sr(flips)[0], flips):
            assert abs(value - naive_t_sr(x * eps[:, None])) < 1e-10

    @pytest.mark.parametrize("offset", (1e2, 1e6))
    def test_offset_flips_match_naive(self, offset):
        # A flip pattern turns pairs into differences, which have no part
        # along the mean: the kernel must cancel that part exactly, or it
        # leaves an error of about eps ||mean|| / spread (3e-11 here).
        rng = np.random.default_rng(68)
        flips = rng.integers(0, 2, size=(4, 12)) * 2.0 - 1.0
        x = rng.standard_normal((12, 500)) + offset
        for value, eps in zip(_OneSampleGram([x]).sr(flips)[0], flips):
            assert abs(value - naive_t_sr(x * eps[:, None])) < 1e-13

    def test_offset_difference_pairs_memory(self):
        # Under an offset every pair difference is short against the rows
        # themselves, but not against the centred rows it is read from, so
        # no pair is taken from the rows and no (k, d) block is built.
        rng = np.random.default_rng(70)
        x = rng.standard_normal((40, 5000)) + 100.0
        flips = rng.integers(0, 2, size=(501, 40)) * 2.0 - 1.0
        tracemalloc.start()
        try:
            _OneSampleGram([x]).sr(flips)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, peak

    def test_flip_splitting_duplicate_pair(self):
        x = np.random.default_rng(62).standard_normal((5, 3))
        x[3] = x[1]
        kept, split = np.ones((1, 5)), np.array([[1.0, 1.0, 1.0, -1.0, 1.0]])
        assert _OneSampleGram([x]).sr(kept)[0, 0] == t_sr(x)
        with pytest.raises(ZeroVectorError):
            _OneSampleGram([x]).sr(split)


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

    @pytest.mark.parametrize("dist", (1e-3, 1e-7, 1e-10, 0.2))
    def test_near_coincident_pair(self, dist):
        # y row 2 nearly coincides with x row 1; from the Gram matrix alone,
        # ||Y_2 - X_1|| would lose most of its digits.  At 0.2 the pair is
        # just outside the near-pair rule (its squared norm is 2.4% of its
        # summands'), so the Gram matrix gives its norm.
        rng = np.random.default_rng(63)
        x = rng.standard_normal((5, 20)) + 0.3
        y = rng.standard_normal((6, 20))
        u = rng.standard_normal(20)
        y[2] = x[1] + dist * np.linalg.norm(x[1]) * u / np.linalg.norm(u)
        assert abs(t_wmw(x, y) - naive_t_wmw(x, y)) < 1e-10

    def test_location_offset(self):
        # Entries on a 2^-20 grid stay exact under a 1e8 shift, so the
        # shifted samples are the same data and the value must not move.
        rng = np.random.default_rng(64)
        x = np.round(rng.standard_normal((20, 100)) * 2.0**20) / 2.0**20
        y = np.round(rng.standard_normal((20, 100)) * 2.0**20) / 2.0**20
        base = t_wmw(x, y)
        assert abs(t_wmw(x + 1e8, y + 1e8) - base) < 1e-12


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


class TestOneSampleBlocks:
    @staticmethod
    def _samples():
        # Sample 1 holds a short row under an offset, whose inner products
        # come from the rows, and sample 2 a pair sum at relative distance
        # 1e-7, whose unit vector joins that sample's basis.
        rng = np.random.default_rng(87)
        n, d = 7, 30
        xs = [rng.standard_normal((n, d)) + 0.3 for _ in range(3)]
        xs[1] += 1e3
        xs[1][0] = rng.standard_normal(d) * 1e-3
        u = rng.standard_normal(d)
        xs[2][1] = -xs[2][0] + 1e-7 * np.linalg.norm(xs[2][0]) * u / np.linalg.norm(u)
        flips = rng.integers(0, 2, size=(3, 20, n)) * 2.0 - 1.0
        return xs, flips

    def test_samples_by_index(self):
        # In a block of 3, every per-sample result has the bits of the
        # sample's block of one; so has the Gram matrix of samples of 130
        # rows at d = 1, whose column means NumPy sums pairwise.
        thin = list(np.random.default_rng(88).standard_normal((3, 130, 1)) + 1e3)
        block = _OneSampleGram(thin)
        for b, x in enumerate(thin):
            assert block.gram[b].tobytes() == _OneSampleGram([x]).gram[0].tobytes(), b
        xs, flips = self._samples()
        block = _OneSampleGram(xs)
        assert block.raw.shape == (3, 7, 7)
        snaps = _one_sample_snapshot(block)
        for b, x in enumerate(xs):
            one = _OneSampleGram([x])
            assert block.gram[b].tobytes() == one.gram[0].tobytes(), b
            assert block.raw[b].tobytes() == one.raw[0].tobytes(), b
            for stat in ("cq1", "s", "sr"):
                got = getattr(block, stat)(flips)[b]
                assert got.tobytes() == getattr(one, stat)(flips[b])[0].tobytes(), (b, stat)
                want = _observed(one, stat)
                assert _observed(block, stat)[b : b + 1].tobytes() == want.tobytes(), (b, stat)
            assert snaps[b] == _one_sample_snapshot(one)[0], b
        # Sample 2's flips keep and split its near pair sum.
        assert (flips[2, :, 0] == flips[2, :, 1]).any() and (flips[2, :, 0] != flips[2, :, 1]).any()

    def test_reports_by_index(self):
        # The evaluators' block core on a one-sample block: every sample's
        # reports, with its own seed and latent scales, have the bits of its
        # block of one, for every statistic and method.
        xs, _ = self._samples()
        tests = [(stat, method) for stat in ("cq1", "s", "sr") for method in ONE_SAMPLE_METHODS]
        scales = np.random.default_rng(89).uniform(0.5, 2.0, size=(3, 7))
        auxes = [RsrmAuxiliary(p, 1.0 + b, 30.0 + b) for b, p in enumerate(scales)]
        seeds = [11, 12, 13]
        block = _evaluate(_OneSampleGram(xs), tests, 0.05, 50, seeds, auxes)
        assert len(block) == 3
        for b, x in enumerate(xs):
            one = _evaluate(_OneSampleGram([x]), tests, 0.05, 50, [seeds[b]], [auxes[b]])[0]
            assert list(block[b]) == tests
            assert repr(block[b]) == repr(one), b
            assert block[b][("sr", "signflip")].seed == seeds[b]

    def test_zero_pair_sum_names_its_sample(self):
        # The error of a zero pair sum names the observations of the sample
        # that holds it, wherever that sample sits in the block.
        xs, _ = self._samples()
        zero = xs[0].copy()
        zero[4] = -zero[2]
        want = "^the sum of observations 2 and 4 is the zero vector$"
        for block in ([zero], [xs[1], zero, xs[2]], [xs[2], xs[1], zero]):
            with pytest.raises(ZeroVectorError, match=want):
                _observed(_OneSampleGram(block), "sr")
