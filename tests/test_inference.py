"""Tests for the asymptotic, randomization and latent-scale-oracle backends."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from hdsigntest import statistics
from hdsigntest import (
    MismatchedAuxiliaryError,
    NonpositiveScaleError,
    RsrmAuxiliary,
    ZeroVectorError,
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
    ONE_SAMPLE_METHODS,
    TWO_SAMPLE_METHODS,
    evaluate_one_sample,
    evaluate_two_sample,
    gaussian_sf,
)
from hdsigntest.statistics import _OneSampleGram, _TwoSampleGram
from hdsigntest._naive import (
    naive_one_sample_scale_terms,
    naive_t_wmw,
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


def _split_tail_count(x, y, stat, splits):
    """How many of the first-group index sets in ``splits`` give a statistic
    at least the observed one.  The identity split, and with m = n its swap,
    reproduce the observed statistic and count as ties; every other split
    is compared by the plain statistic on it."""
    func = {"cq2": t_cq2, "wmw": t_wmw}[stat]
    m, n = x.shape[0], y.shape[0]
    pool = np.vstack([x, y])
    observed = func(x, y)
    count = 0
    for first in splits:
        sel = np.zeros(m + n, dtype=bool)
        sel[list(first)] = True
        if sel[:m].all() or (m == n and sel[m:].all()):
            count += 1
        else:
            count += func(pool[sel], pool[~sel]) >= observed
    return count


def _replayed_splits(big, m, n_resamples, rng):
    """The first groups that the permutation backend draws from ``rng`` (a
    Generator, or a seed for one), one rng.permutation call per resample."""
    rng = np.random.default_rng(rng)
    return [rng.permutation(big)[:m] for _ in range(n_resamples)]


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
        res = evaluate_two_sample(x, y, [("wmw", "permutation"), ("cq2", "permutation")],
                                  n_resamples=25, rng=draw_rng)
        # The observed values must match the plain statistics.
        assert abs(res["wmw", "permutation"].statistic - t_wmw(x, y)) < 1e-12
        assert abs(res["cq2", "permutation"].statistic - t_cq2(x, y)) < 1e-12
        # Identical rng consumption gives identical relabelings, so the
        # plain statistics on each relabeled split give the same p-value.
        check_rng = np.random.default_rng(9)
        splits = []
        for _ in range(25):
            sel = np.zeros(11, dtype=bool)
            sel[check_rng.permutation(11)[:5]] = True
            splits.append((pool[sel], pool[~sel]))
        for stat, func in (("wmw", t_wmw), ("cq2", t_cq2)):
            count = sum(func(a, b) >= func(x, y) for a, b in splits)
            assert res[stat, "permutation"].p_value == (1 + count) / 26.0, stat

    @pytest.mark.parametrize("batch", [statistics._PERM_BATCH, 7])
    def test_reproduced_splits_tie_exactly(self, batch, monkeypatch):
        # m = n = 4: 2 of the 70 splits (the identity and its swap)
        # reproduce the observed statistic, so about 9 of 300 draws tie.
        # Blocks of 7 relabelings put the ties in many separate products.
        monkeypatch.setattr(statistics, "_PERM_BATCH", batch)
        for m, n, seeds in ((4, 4, range(20)), (5, 3, range(5))):
            for seed in seeds:
                rng = np.random.default_rng(500 + seed)
                x = rng.standard_normal((m, 6))
                y = rng.standard_normal((n, 6))
                res = evaluate_two_sample(
                    x, y, [("cq2", "permutation"), ("wmw", "permutation")],
                    n_resamples=300, rng=np.random.default_rng(seed),
                )
                splits = _replayed_splits(m + n, m, 300, seed)
                for stat in ("cq2", "wmw"):
                    count = _split_tail_count(x, y, stat, splits)
                    assert res[stat, "permutation"].p_value == (1 + count) / 301.0, (
                        m, n, seed, stat)

    @pytest.mark.parametrize("m, n", [(4, 4), (5, 3)])
    def test_matches_exact_permutation_null(self, m, n):
        # All C(m + n, m) relabelings are equally likely under the null, so
        # the exact p-value is the share at least the observed statistic.
        # The add-one estimate must lie within 5 Monte Carlo standard
        # errors of it, plus the add-one offset 1 / (R + 1).
        resamples = 20000
        rng = np.random.default_rng(60 + m)
        for shift in (0.0, 1.5):
            x = rng.standard_normal((m, 5))
            y = rng.standard_normal((n, 5)) + shift
            splits = list(itertools.combinations(range(m + n), m))
            res = evaluate_two_sample(
                x, y, [("cq2", "permutation"), ("wmw", "permutation")],
                n_resamples=resamples, rng=np.random.default_rng(61),
            )
            for stat in ("cq2", "wmw"):
                exact = _split_tail_count(x, y, stat, splits) / len(splits)
                bound = 5.0 * math.sqrt(exact * (1.0 - exact) / resamples)
                p = res[stat, "permutation"].p_value
                assert abs(p - exact) <= bound + 1.0 / (resamples + 1), (
                    shift, stat, p, exact)

    @pytest.mark.parametrize("batch", [statistics._PERM_BATCH, 7])
    def test_draw_follows_permutation_stream(self, batch, monkeypatch):
        # One vectorised draw per block must give the masks, and leave the
        # generator state, of one rng.permutation call per resample.  With
        # m = n the masks are oriented to hold pooled row 0.  The 99 rows
        # are 14 blocks of 7 and one row over, which joins the last block.
        monkeypatch.setattr(statistics, "_PERM_BATCH", batch)
        for big, m in ((40, 20), (26, 13), (19, 13), (8, 4)):
            rng = np.random.default_rng(big)
            gram = _TwoSampleGram([np.zeros((m, 1))], [np.zeros((big - m, 1))])
            blocks = [block[0] for block in statistics._draw_blocks(gram, 98, [rng])]
            masks = np.vstack(blocks)
            assert min(len(block) for block in blocks) >= 2
            check_rng = np.random.default_rng(big)
            expected = np.zeros((99, big), dtype=bool)
            expected[0, :m] = True
            for r, first in enumerate(_replayed_splits(big, m, 98, check_rng), 1):
                expected[r, first] = True
            if 2 * m == big:
                expected ^= ~expected[:, :1]
            assert np.array_equal(masks, expected), (big, m)
            assert rng.bit_generator.state == check_rng.bit_generator.state

    @pytest.mark.parametrize("cols", [1, 3, 7])
    def test_column_blocks_match_one_block(self, cols, monkeypatch):
        # The wmw kernel reads the pair differences in blocks of ``cols``
        # columns (20 = 20 x 1, 6 x 3 + 2, 2 x 7 + 6).  Its three terms are
        # sums over coordinates, so every row agrees with one block to
        # rounding and the p-values exactly.
        key = ("wmw", "permutation")
        for m, n, seed in ((4, 4, 0), (5, 3, 1), (6, 9, 2)):
            rng = np.random.default_rng(700 + seed)
            x = rng.standard_normal((m, 20))
            y = rng.standard_normal((n, 20)) + 0.3
            gram = _TwoSampleGram([x], [y])
            masks = np.hstack(list(statistics._draw_blocks(
                gram, 300, [np.random.default_rng(seed)])))[0]
            results = []
            for block in (1 << 20, (m + n) ** 2 * cols):
                monkeypatch.setattr(statistics, "_SIGN_BLOCK", block)
                results.append((gram.wmw(masks)[0], evaluate_two_sample(
                    x, y, [key], n_resamples=300, rng=np.random.default_rng(seed))[key]))
            (want, want_report), (got, got_report) = results
            assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all(), (m, n)
            assert got_report.p_value == want_report.p_value, (m, n)

    @pytest.mark.parametrize("m, n, d, cols, picks, seed", [
        pytest.param(6, 9, 20, None, 201, 820, id="6-9-20-None-201"),
        pytest.param(6, 9, 20, 7, 201, 820, id="6-9-20-7-201"),
        pytest.param(20, 20, 200, None, 12, 1000, id="20-20-200-None-12"),
        *(pytest.param(6, 9, 20, None, 201, (900, k), id=f"6-9-20-None-201-seed900-{k}")
          for k in (8, 22, 43, 52)),
    ])
    def test_chunked_reductions_match_naive(self, m, n, d, cols, picks, seed, monkeypatch):
        # The identity and 200 draws are 201 rows, which the kernel reduces
        # in four chunks of up to 64; with ``cols`` = 7 it reads the 20
        # columns in three blocks.  ``picks`` masks spread over the chunks
        # are checked against the loop oracle on their splits.  A draw is
        # a cancelling sum of terms of order 1, so the relative bound has
        # an absolute floor at 1e-2; the seeds (900, k) hold draws near 0
        # that one rounding of those terms moves by more than 1e-12 of
        # their value.
        if cols is not None:
            monkeypatch.setattr(statistics, "_SIGN_BLOCK", (m + n) ** 2 * cols)
        rng = np.random.default_rng(seed)
        x = rng.standard_t(5, size=(m, d))
        y = rng.standard_t(5, size=(n, d)) + 0.3
        pool = np.vstack([x, y])
        gram = _TwoSampleGram([x], [y])
        masks = np.hstack(list(statistics._draw_blocks(gram, 200, [rng])))[0]
        assert len(statistics._spans(len(masks), 64)) == 4
        values = gram.wmw(masks)[0]
        for r in np.linspace(0, len(masks) - 1, picks).astype(int):
            want = naive_t_wmw(pool[masks[r]], pool[~masks[r]])
            assert abs(values[r] - want) <= 1e-12 * max(abs(want), 1e-2), (r, values[r], want)

    @pytest.mark.parametrize("dist", [1e-3, 1e-7, 1e-10, 0.2])
    def test_near_coincident_pair(self, dist):
        # y row 2 nearly coincides with x row 1.  The kernel takes a near
        # pair's norm from the rows, so the relabelings that split the pair
        # and those that keep it together lose no digits.  At 0.2 the pair
        # is just outside the near-pair rule (its squared norm is 2.4% of
        # its summands'), so its norm comes from the Gram matrix.
        rng = np.random.default_rng(63)
        x = rng.standard_normal((5, 20)) + 0.3
        y = rng.standard_normal((6, 20))
        u = rng.standard_normal(20)
        y[2] = x[1] + dist * np.linalg.norm(x[1]) * u / np.linalg.norm(u)
        key = ("wmw", "permutation")
        res = evaluate_two_sample(x, y, [key], n_resamples=10, rng=np.random.default_rng(0))
        assert abs(res[key].statistic - naive_t_wmw(x, y)) < 1e-10
        pool = np.vstack([x, y])
        gram = _TwoSampleGram([x], [y])
        masks = np.hstack(list(statistics._draw_blocks(gram, 30, [np.random.default_rng(1)])))[0]
        assert (masks[:, 1] != masks[:, 7]).any() and (masks[:, 1] == masks[:, 7]).any()
        values = gram.wmw(masks)[0]
        for value, mask in zip(values, masks):
            assert abs(value - naive_t_wmw(pool[mask], pool[~mask])) < 1e-10

    def test_pair_norms_read_no_centred_rows(self, monkeypatch):
        # Near pairs are formed from the samples' own rows, so the pair
        # norms never need the centred rows behind the Gram matrix: here
        # x rows 1 and 3 coincide and y row 2 lies at relative distance
        # 1e-7 from x row 0.
        rng = np.random.default_rng(67)
        x = rng.standard_normal((5, 20)) + 0.3
        y = rng.standard_normal((6, 20))
        x[3] = x[1]
        u = rng.standard_normal(20)
        y[2] = x[0] + 1e-7 * np.linalg.norm(x[0]) * u / np.linalg.norm(u)
        gram = _TwoSampleGram([x], [y])

        def refuse(*args):
            raise AssertionError("the centred rows were formed again")

        monkeypatch.setattr(_TwoSampleGram, "_rows", refuse)
        norms, dup = gram.pair_norms[0]
        assert dup[1, 3] and dup.sum() == 2
        assert abs(norms[0, 7] - np.linalg.norm(y[2] - x[0])) <= 1e-12 * norms[0, 7]

    @pytest.mark.parametrize("cols", [None, 1])
    def test_split_duplicate_pair(self, cols, monkeypatch):
        # Pooled rows 0 and 1 coincide.  The identity keeps them together,
        # but about 4 in 7 draws split them, and a split pair has no sign.
        # The error names the pair by sample and row, across samples too.
        if cols is not None:
            monkeypatch.setattr(statistics, "_SIGN_BLOCK", 64 * cols)
        rng = np.random.default_rng(66)
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        x[1] = x[0]
        match = "identical pooled observations, x row 0 and x row 1$"
        with pytest.raises(ZeroVectorError, match=match):
            evaluate_two_sample(
                x, y, [("wmw", "permutation")], n_resamples=50,
                rng=np.random.default_rng(0),
            )
        x[1] += 1.0
        y[2] = x[3]
        with pytest.raises(ZeroVectorError, match="x row 3 and y row 2$"):
            evaluate_two_sample(
                x, y, [("wmw", "permutation")], n_resamples=50,
                rng=np.random.default_rng(0),
            )

    def test_wide_data_memory(self):
        # 40 + 40 rows x 2000 columns: an (N, N, d) array of pair
        # differences alone would take 102 MB.
        rng = np.random.default_rng(67)
        x = rng.standard_normal((40, 2000))
        y = rng.standard_normal((40, 2000))
        tracemalloc.start()
        try:
            evaluate_two_sample(
                x, y, [("wmw", "permutation")], n_resamples=10,
                rng=np.random.default_rng(0),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, peak

    def test_cli_shape_working_set(self):
        # 40 + 40 rows x 5000 columns, the benchmark's CLI shape, in many
        # column blocks.  The kernel holds one block of pair differences,
        # normalised in place, and copies neither it nor the pooled rows,
        # and the centred rows behind the Gram matrix are dropped once it
        # is formed, so the traced peak stays under 1.5 blocks plus twice
        # the data.
        rng = np.random.default_rng(68)
        x = rng.standard_normal((40, 5000))
        y = rng.standard_normal((40, 5000))
        tracemalloc.start()
        try:
            evaluate_two_sample(
                x, y, [("wmw", "permutation")], n_resamples=10,
                rng=np.random.default_rng(0),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 1.5 * 8 * statistics._SIGN_BLOCK + 2 * (x.nbytes + y.nbytes)
        assert peak < bound, (peak, bound)

    def test_multi_chunk_working_set(self):
        # 20 + 20 rows x 200 columns at 500 resamples: one block of pair
        # differences and 8 chunks of 64 relabelings.  Each chunk product,
        # a (64, N, cols) array, is freed before the next is formed, so the
        # traced peak stays under the block plus 1.5 chunk products.
        rng = np.random.default_rng(69)
        x = rng.standard_t(5, size=(20, 200))
        y = rng.standard_t(5, size=(20, 200))
        big = 40
        cols = min(200, statistics._SIGN_BLOCK // big**2)
        assert len(statistics._spans(501, 64)) == 8
        tracemalloc.start()
        try:
            evaluate_two_sample(
                x, y, [("wmw", "permutation")], n_resamples=500,
                rng=np.random.default_rng(0),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * (big * big * cols + 1.5 * 64 * big * cols)
        assert peak < bound, (peak, bound)

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
            res = evaluate_two_sample(
                x, y, [("cq2", "permutation"), ("wmw", "permutation")],
                n_resamples=500, rng=np.random.default_rng((49, r)),
            )
            for stat in hits:
                hits[stat] += res[stat, "permutation"].p_value <= 0.05
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
                key = (stat, "signflip")
                res = evaluate_one_sample(
                    x, [key], n_resamples=draws, rng=np.random.default_rng(8)
                )
                direct = np.array([func(x * e[:, None]) for e in flips])
                count = int(np.sum(direct >= func(x)))
                assert abs(res[key].p_value - (1 + count) / (draws + 1.0)) < 1e-12, stat

    def test_matches_exact_signflip_null(self):
        # All 2^8 flip patterns are equally likely under a symmetric null,
        # so the exact p-value is the share at least the observed statistic.
        # The add-one estimate must lie within 5 Monte Carlo standard
        # errors of it, plus the add-one offset 1 / (R + 1).
        resamples = 20000
        rng = np.random.default_rng(57)
        flips = np.array(list(itertools.product((1.0, -1.0), repeat=8)))
        for shift in (0.0, 0.8):
            x = rng.standard_normal((8, 5)) + shift
            res = evaluate_one_sample(
                x, [("cq1", "signflip"), ("s", "signflip"), ("sr", "signflip")],
                n_resamples=resamples, rng=np.random.default_rng(58),
            )
            for stat, func in (("cq1", t_cq1), ("s", t_s), ("sr", t_sr)):
                # Row 0 of flips is the all-plus pattern, the observed data.
                values = np.array([func(x * eps[:, None]) for eps in flips])
                exact = float(np.mean(values >= values[0]))
                bound = 5.0 * math.sqrt(exact * (1.0 - exact) / resamples)
                p = res[stat, "signflip"].p_value
                assert abs(p - exact) <= bound + 1.0 / (resamples + 1), (
                    shift, stat, p, exact)

    @pytest.mark.parametrize("stat", ["cq1", "s", "sr"])
    def test_wide_data_memory(self, stat):
        # 40 rows x 5000 columns with 2000 flip patterns: the flipped row
        # sums alone, an (R + 1) x d array, would take 80 MB.  The sr
        # kernel works on batches of about ``_FLIP_BATCH`` coefficients and
        # holds at most two batch-sized products at a time, freed before
        # the next batch.
        x = np.random.default_rng(56).standard_normal((40, 5000))
        tracemalloc.start()
        try:
            evaluate_one_sample(
                x, [(stat, "signflip")], n_resamples=2000, rng=np.random.default_rng(0)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2.5 * 8 * statistics._FLIP_BATCH + 2 * x.nbytes if stat == "sr" else 20e6
        assert peak < bound, (peak, bound)

    @pytest.mark.parametrize("batch", [statistics._PERM_BATCH, 7])
    def test_draw_follows_integers_stream(self, batch, monkeypatch):
        # One rng.integers call per block must give the flip patterns, and
        # leave the generator state, of one call for all of them.  The 99
        # rows are 14 blocks of 7 and one row over, which joins the last
        # block.
        monkeypatch.setattr(statistics, "_PERM_BATCH", batch)
        for n in (5, 7, 40):
            rng = np.random.default_rng(n)
            gram = _OneSampleGram([np.zeros((n, 1))])
            blocks = [block[0] for block in statistics._draw_blocks(gram, 98, [rng])]
            assert min(len(block) for block in blocks) >= 2
            check_rng = np.random.default_rng(n)
            expected = check_rng.integers(0, 2, (98, n)) * 2.0 - 1.0
            flips = np.vstack(blocks)
            assert np.array_equal(flips[0], np.ones(n))
            assert flips[1:].tobytes() == expected.tobytes(), n
            assert rng.bit_generator.state == check_rng.bit_generator.state

    def test_memory_does_not_grow_with_resamples(self):
        # 80,000 patterns of 40 flips, drawn as one block, took 78 MB at
        # their peak; drawn in blocks of ``_PERM_BATCH`` patterns, the
        # drawn values, 8 bytes per pattern and test, are most of it.
        x = np.random.default_rng(59).standard_normal((40, 50))
        tracemalloc.start()
        try:
            evaluate_one_sample(x, [("cq1", "signflip"), ("s", "signflip")], 0.05, 80000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

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
            res = evaluate_one_sample(
                x, [("cq1", "signflip"), ("s", "signflip")],
                n_resamples=300, rng=np.random.default_rng((53, r)),
            )
            for stat in hits:
                hits[stat] += res[stat, "signflip"].p_value <= 0.05
        for stat, count in hits.items():
            assert 0.03 <= count / reps <= 0.07, (stat, count / reps)


class TestReportContract:
    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3)])
    def test_numpy_integer_seed(self, seed):
        # A NumPy integer seed is recorded as a Python int, so the report
        # serialises and equals the report of the same plain seed.
        rng = np.random.default_rng(73)
        x = rng.standard_normal((6, 8))
        y = rng.standard_normal((5, 8))
        pairs = [(randomization_one_sample(x, "s", n_resamples=20, seed=seed),
                  randomization_one_sample(x, "s", n_resamples=20, seed=3)),
                 (randomization_two_sample(x, y, "wmw", n_resamples=20, seed=seed),
                  randomization_two_sample(x, y, "wmw", n_resamples=20, seed=3))]
        for report, want in pairs:
            assert type(report.seed) is int
            assert report == want
            assert json.loads(json.dumps(report.to_dict())) == want.to_dict()

    @pytest.mark.parametrize("count", [np.int64(20), np.uint8(20)])
    def test_numpy_integer_count(self, count):
        # A NumPy integer resample count is recorded as a Python int, so the
        # report serialises as the report of the same plain count does.
        rng = np.random.default_rng(74)
        x = rng.standard_normal((6, 8))
        y = rng.standard_normal((5, 8))
        pairs = [(randomization_one_sample(x, "sr", n_resamples=count, seed=3),
                  randomization_one_sample(x, "sr", n_resamples=20, seed=3)),
                 (randomization_two_sample(x, y, "cq2", n_resamples=count, seed=3),
                  randomization_two_sample(x, y, "cq2", n_resamples=20, seed=3))]
        for report, want in pairs:
            assert type(report.n_resamples) is int
            assert json.dumps(report.to_dict()) == json.dumps(want.to_dict())

    @pytest.mark.parametrize("variant", ["plain", "offset", "near-pair"])
    def test_one_statistic_per_evaluation(self, variant):
        # Every report of a statistic shows one observed value, bit for bit
        # the public function's, whatever its method: the resampling path
        # rounds differently (a block's GEMM, wmw's column blocks).
        rng = np.random.default_rng(72)
        m, n, d = 7, 9, 40
        x = rng.standard_t(5, size=(m, d))
        y = rng.standard_t(5, size=(n, d)) + 0.2
        if variant == "offset":
            x += 1e6
            y += 1e6
        elif variant == "near-pair":
            # A cross pair for wmw and a pair sum for sr, both at relative
            # distance 1e-7.
            y[0] = x[0] * (1.0 + 1e-7)
            x[1] = -x[0] * (1.0 + 1e-7)
        p, q = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, n)
        aux = RsrmAuxiliary(p_scales=p, sigma_v_sq=1.0, tr_sigma_v_sq=float(d),
                            q_scales=q, sigma_w_sq=1.0, tr_sigma_w_sq=float(d),
                            tr_sigma_vw=float(d))
        two = [(stat, method) for stat in ("cq2", "wmw") for method in TWO_SAMPLE_METHODS]
        one = [(stat, method) for stat in ("cq1", "s", "sr") for method in ONE_SAMPLE_METHODS]
        reports = {
            **evaluate_two_sample(x, y, two, 0.05, 60, 3, aux),
            **evaluate_one_sample(x, one, 0.05, 60, 3, aux),
        }
        want = {"cq2": t_cq2(x, y), "wmw": t_wmw(x, y),
                "cq1": t_cq1(x), "s": t_s(x), "sr": t_sr(x)}
        assert len(reports) == 15
        for (stat, method), report in reports.items():
            assert report.statistic.hex() == want[stat].hex(), (stat, method)

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

    def test_memory_order_does_not_change_reports(self):
        # Fortran-ordered input (as pandas' to_numpy() often returns) must
        # give the same report bits as the same values in C order.
        def fields(reports):
            return {key: (r.statistic, r.z, r.p_value) for key, r in reports.items()}

        two = [(stat, method) for stat in ("cq2", "wmw")
               for method in ("asymptotic", "permutation")]
        one = [(stat, method) for stat in ("cq1", "s", "sr")
               for method in ("asymptotic", "signflip")]
        for r in range(10):
            rng = np.random.default_rng((58, r))
            d = int(rng.integers(5, 300))
            x = rng.standard_t(5, size=(int(rng.integers(4, 15)), d))
            y = rng.standard_t(5, size=(int(rng.integers(4, 15)), d)) + 0.3
            fx, fy = np.asfortranarray(x), np.asfortranarray(y)
            assert not fx.flags.c_contiguous
            assert fields(evaluate_two_sample(fx, fy, two, 0.05, 40, r)) == fields(
                evaluate_two_sample(x, y, two, 0.05, 40, r))
            assert fields(evaluate_one_sample(fy, one, 0.05, 40, r)) == fields(
                evaluate_one_sample(y, one, 0.05, 40, r))


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

    def test_missing_aux(self):
        # Without latent scales (no aux, or anything but an RsrmAuxiliary)
        # an oracle test is refused by name, before any statistic is
        # computed, and not with an AttributeError.
        rng = np.random.default_rng(69)
        x, y = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
        tests = [("wmw", "asymptotic"), ("cq2", "rsrm-oracle")]
        with pytest.raises(MismatchedAuxiliaryError, match="the cq2 rsrm-oracle test needs"):
            evaluate_two_sample(x, y, tests)
        with pytest.raises(MismatchedAuxiliaryError, match="the wmw rsrm-oracle test needs"):
            rsrm_oracle_two_sample(x, y, None, "wmw")
        with pytest.raises(MismatchedAuxiliaryError, match=r"\(aux\), got 'junk'$"):
            rsrm_oracle_two_sample(x, y, "junk", "wmw")

    def test_aux_without_second_sample(self):
        # A one-sample aux has neither the second sample's scales nor the
        # cross traces that the two-sample terms read.
        aux = RsrmAuxiliary(p_scales=np.ones(5), sigma_v_sq=1.0, tr_sigma_v_sq=3.0)
        with pytest.raises(MismatchedAuxiliaryError, match="needs second-sample scales$"):
            two_sample_oracle_terms(aux, 5, 4)
        aux = RsrmAuxiliary(p_scales=np.ones(5), sigma_v_sq=1.0, tr_sigma_v_sq=3.0,
                            q_scales=np.ones(4), sigma_w_sq=1.0)
        with pytest.raises(MismatchedAuxiliaryError, match="needs all three trace values$"):
            two_sample_oracle_terms(aux, 5, 4)

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

    def test_missing_aux(self):
        x = np.random.default_rng(70).standard_normal((6, 3))
        tests = [("s", "signflip"), ("sr", "rsrm-oracle")]
        with pytest.raises(MismatchedAuxiliaryError, match="the sr rsrm-oracle test needs"):
            evaluate_one_sample(x, tests, aux=None)
        with pytest.raises(MismatchedAuxiliaryError, match="the cq1 rsrm-oracle test needs"):
            rsrm_oracle_one_sample(x, None, "cq1")

    def test_scale_count_validation(self):
        aux = RsrmAuxiliary(p_scales=np.ones(3), sigma_v_sq=1.0, tr_sigma_v_sq=5.0)
        with pytest.raises(MismatchedAuxiliaryError):
            rsrm_oracle_one_sample(np.zeros((5, 2)), aux, "cq1")
