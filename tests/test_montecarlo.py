"""Tests for the power-study harness and subsample protocol."""

import math
import tracemalloc

import numpy as np
import pytest

from hdsigntest import (
    EmptyInputError,
    ExperimentPlan,
    InvalidInputError,
    InvalidSpecError,
    PowerCurvePoint,
    SubsampleTooSmallError,
    ZeroVectorError,
    parse_plot_data,
    run_power_study,
    run_subsample_protocol,
    subsample_table_csv,
    summarize_to_plot_data,
)
from hdsigntest.generators import SHIFT_SPREAD, SHIFT_ZERO, GeneratorSpec, generate
from hdsigntest.inference import (
    _evaluate_two_sample_block,
    evaluate_one_sample,
    evaluate_two_sample,
)
from hdsigntest import montecarlo, statistics
from hdsigntest.montecarlo import _grid_replicates, _rejections
from hdsigntest.statistics import _TwoSampleGram


def small_plan(**overrides):
    base = dict(
        model="ar1-gauss",
        grid=((20, 1.0),),
        m=8,
        n=8,
        tests=(("cq2", "asymptotic"), ("wmw", "asymptotic")),
        replications=30,
        base_seed=60,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestRunPowerStudy:
    def test_deterministic(self):
        a = run_power_study(small_plan())
        b = run_power_study(small_plan())
        assert a == b

    def test_null_rate_near_alpha(self):
        plan = small_plan(
            grid=((60, 0.0),), m=15, n=15, replications=400, base_seed=61
        )
        for point in run_power_study(plan):
            assert 0.02 <= point.rejection_rate <= 0.09

    def test_replicate_stream_stability(self):
        # Outcomes are a pure function of (base_seed, grid index, replicate),
        # so extending the replicate count cannot change earlier replicates.
        plan30 = small_plan()
        plan60 = small_plan(replications=60)
        manual = [
            _rejections([replicate], plan60.tests, plan60.alpha, plan60.n_resamples)[
                ("cq2", "asymptotic")
            ]
            for replicate in _grid_replicates(plan60, 0)
        ]
        rate30 = next(
            p for p in run_power_study(plan30) if p.stat == "cq2"
        ).rejection_rate
        rate60 = next(
            p for p in run_power_study(plan60) if p.stat == "cq2"
        ).rejection_rate
        assert rate30 * 30 == sum(manual[:30])
        assert rate60 * 60 == sum(manual)

    def test_binomial_standard_error(self):
        for point in run_power_study(small_plan(replications=50)):
            expected = math.sqrt(
                point.rejection_rate * (1.0 - point.rejection_rate) / 50
            )
            assert abs(point.std_err - expected) < 1e-12

    def test_failure_carries_provenance(self, monkeypatch):
        # A typed error inside a replicate's evaluation aborts the study,
        # prefixed with the replicate and its grid point.  Replicates 2 and
        # 10 are each the third of their block of 8: the block fails, and
        # its replicates run one at a time up to the failing one.
        for bad in (2, 10):
            blocks = []

            def failing(xs, ys, tests, alpha, n_resamples, rngs, auxes):
                replicates = [seq.entropy[2] for seq in rngs]
                blocks.append(replicates)
                if bad in replicates:
                    raise ZeroVectorError("a relabeling has no sign")
                return _evaluate_two_sample_block(xs, ys, tests, alpha, n_resamples, rngs, auxes)

            monkeypatch.setattr(montecarlo, "_evaluate_two_sample_block", failing)
            with pytest.raises(ZeroVectorError,
                               match=rf"^replicate {bad} at grid point \(d=20, c=1.0\): "
                                     "a relabeling has no sign$"):
                run_power_study(small_plan())
            first = bad - 2
            assert blocks[-4:] == [list(range(first, first + 8)), [first], [first + 1], [bad]]

    def test_first_failing_replicate_wins(self):
        # Replicate 1 fails in evaluation (its y row 0 equals its x row 0);
        # replicate 3 of the same block fails in its draw, before that
        # block is evaluated.  The earlier replicate's error is raised.
        def draw(rng):
            return rng.standard_normal((6, 5)), rng.standard_normal((6, 5)), None

        def duplicate(rng):
            x, y, _ = draw(rng)
            y[0] = x[0]
            return x, y, None

        def broken(rng):
            raise InvalidSpecError("no such model")

        tests = (("wmw", "asymptotic"),)
        replicates = [(f"replicate {r}", (5, r), kind)
                      for r, kind in enumerate((draw, duplicate, draw, broken, draw))]
        with pytest.raises(ZeroVectorError, match=(
                "^replicate 1: difference of y observation 0 and x observation 0 is zero$")):
            _rejections(replicates, tests, 0.05, 10)
        replicates[1] = ("replicate 1", (5, 1), draw)
        with pytest.raises(InvalidSpecError, match="^replicate 3: no such model$"):
            _rejections(replicates, tests, 0.05, 10)

    def test_generator_parameters_checked_before_any_replicate(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _evaluate_two_sample_block(*args)

        monkeypatch.setattr(montecarlo, "_evaluate_two_sample_block", counting)
        with pytest.raises(InvalidSpecError,
                           match=r"^grid point \(d=0, c=1.0\): dimension must be at least 1$"):
            small_plan(grid=((20, 1.0), (0, 1.0)), replications=5)
        with pytest.raises(InvalidSpecError,
                           match=r"^grid point \(d=20, c=1.0\): t innovations need df > 2"):
            small_plan(model="ar1-t5", df=1.5, replications=5)
        with pytest.raises(InvalidSpecError,
                           match=r"^model 'ar1-gauss' has no latent scales"):
            small_plan(tests=(("wmw", "rsrm-oracle"),))
        assert calls == []

    def test_rejects_bad_plan_parameters(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _evaluate_two_sample_block(*args)

        monkeypatch.setattr(montecarlo, "_evaluate_two_sample_block", counting)
        # Counts must be integers and the seed non-negative; a refused plan
        # runs no replicate.
        for bad, match in (({"replications": 1.5}, "^replications must be an integer"),
                           ({"n_resamples": 2.5}, "^n_resamples must be an integer"),
                           ({"m": 5.5}, "^m must be an integer"),
                           ({"grid": ((10.5, 1.0),)}, r"^grid point \(d=10.5, c=1.0\): d must"),
                           ({"grid": ((20, "1.0"),)},
                            r"^grid point \(d=20, c=1.0\): magnitude must be a real number"),
                           ({"base_seed": -1}, "^base_seed must be non-negative")):
            with pytest.raises(InvalidSpecError, match=match):
                run_power_study(small_plan(**bad))
        assert calls == []
        small_plan(m=np.int64(8), replications=np.int32(5), base_seed=np.uint8(1))
        for bad in ({"replications": 0}, {"n_resamples": 0}, {"alpha": 0.0}, {"alpha": 1.0},
                    {"alpha": math.nan}, {"alpha": "0.05"}):
            with pytest.raises(InvalidSpecError, match="^(replications|n_resamples|alpha) must"):
                small_plan(**bad)
        with pytest.raises(InvalidSpecError):
            small_plan(tests=(("cq1", "asymptotic"),))
        with pytest.raises(InvalidSpecError):
            small_plan(tests=(("cq2", "bootstrap"),))
        with pytest.raises(InvalidSpecError):
            small_plan(grid=())
        with pytest.raises(InvalidSpecError, match="test list is empty"):
            small_plan(tests=())
        for sizes in ({"m": 1}, {"n": 1}, {"m": -3}):
            with pytest.raises(InvalidSpecError, match="sample sizes m and n must be at least 2"):
                small_plan(**sizes)
        # An asymptotic test needs 4 rows per sample for its variance; a
        # permutation test runs with 2.
        for sizes in ({"m": 3}, {"n": 2}):
            with pytest.raises(InvalidSpecError, match="m and n of at least 4$"):
                small_plan(**sizes)
            with pytest.raises(InvalidSpecError, match="m and n of at least 4$"):
                small_plan(tests=(("wmw", "permutation"), ("cq2", "asymptotic")), **sizes)
            small_plan(tests=(("wmw", "permutation"),), **sizes)


class TestSubsampleProtocol:
    @staticmethod
    def _dataset(seed, rows=60, d=30, shift=0.0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, d))
        x[:, 0] += shift
        return x

    def test_same_class_power_matches_size(self):
        # Literally the same matrix on both sides: a cross-class pair can
        # contain the same row twice, which the sign statistics refuse, so
        # the identical-matrix case runs the mean-based statistic.
        data = self._dataset(62)
        rows = run_subsample_protocol(
            data,
            data.copy(),
            fraction=0.2,
            repetitions=250,
            tests=(("cq2", "asymptotic"),),
            seed=63,
        )
        for row in rows:
            se = math.sqrt(row.size * (1.0 - row.size) / 250.0) if row.size else 0.02
            assert abs(row.power - row.size) <= 3.0 * max(se, 0.02)

    def test_same_distribution_power_matches_size(self):
        class_a = self._dataset(162)
        class_b = self._dataset(163)
        rows = run_subsample_protocol(
            class_a,
            class_b,
            fraction=0.2,
            repetitions=250,
            tests=(("cq2", "asymptotic"), ("wmw", "asymptotic")),
            seed=164,
        )
        for row in rows:
            se = math.sqrt(row.size * (1.0 - row.size) / 250.0) if row.size else 0.02
            assert abs(row.power - row.size) <= 3.0 * max(se, 0.02)

    def test_strong_shift_gives_high_power(self):
        class_a = self._dataset(64, rows=50, d=20)
        class_b = self._dataset(65, rows=50, d=20, shift=8.0)
        rows = run_subsample_protocol(
            class_a,
            class_b,
            fraction=0.3,
            repetitions=120,
            tests=(("wmw", "asymptotic"),),
            seed=66,
        )
        assert rows[0].power >= 0.9

    def test_table_shape_for_unbalanced_classes(self):
        # Stand-in with the layout of a 69/31-row, 96-coordinate dataset.
        class_a = self._dataset(67, rows=69, d=96)
        class_b = self._dataset(68, rows=31, d=96, shift=1.0)
        tests = (
            ("cq2", "asymptotic"),
            ("wmw", "asymptotic"),
            ("cq2", "permutation"),
            ("wmw", "permutation"),
        )
        rows = run_subsample_protocol(
            class_a, class_b, 0.2, 8, tests, n_resamples=60, seed=69
        )
        assert [(r.stat, r.method) for r in rows] == [
            ("cq2", "asymptotic"),
            ("wmw", "asymptotic"),
            ("cq2", "permutation"),
            ("wmw", "permutation"),
        ]
        for row in rows:
            assert 0.0 <= row.size <= 1.0
            assert 0.0 <= row.power <= 1.0
        table = subsample_table_csv(rows)
        assert table.splitlines()[0] == "stat,method,size,power"
        assert len(table.splitlines()) == 5

    def test_subsample_too_small(self):
        data = self._dataset(70, rows=12)
        with pytest.raises(SubsampleTooSmallError):
            run_subsample_protocol(
                data, data, 0.1, 5, (("cq2", "asymptotic"),), seed=71
            )
        with pytest.raises(SubsampleTooSmallError):
            run_subsample_protocol(
                data, data, 0.6, 5, (("cq2", "asymptotic"),), seed=72
            )

    def test_failure_names_phase_and_repetition(self):
        data = self._dataset(62)
        with pytest.raises(ZeroVectorError, match=(
                r"^power, repetition 0: difference of y observation 10 "
                r"and x observation 4 is zero$")):
            run_subsample_protocol(data, data.copy(), 0.2, 50, (("wmw", "asymptotic"),),
                                   seed=63)

    def test_oracle_method_rejected_on_real_data(self):
        data = self._dataset(73)
        with pytest.raises(InvalidSpecError):
            run_subsample_protocol(
                data, data, 0.2, 5, (("wmw", "rsrm-oracle"),), seed=74
            )

    def test_counts_and_seed_checked(self):
        data = self._dataset(73)
        tests = (("cq2", "asymptotic"),)
        with pytest.raises(InvalidSpecError, match="^repetitions must be an integer"):
            run_subsample_protocol(data, data, 0.2, 1.5, tests, seed=74)
        with pytest.raises(InvalidSpecError, match="^seed must be non-negative"):
            run_subsample_protocol(data, data, 0.2, 5, tests, seed=-1)
        with pytest.raises(InvalidSpecError, match="^repetitions must be at least 1"):
            run_subsample_protocol(data, data, 0.2, 0, tests, seed=74)
        for fraction in (0.0, 1.0, -0.5):
            with pytest.raises(InvalidSpecError, match=r"^fraction must be in \(0, 1\)"):
                run_subsample_protocol(data, data, fraction, 5, tests, seed=74)

    def test_empty_test_list_rejected(self):
        with pytest.raises(InvalidSpecError, match="test list is empty"):
            run_subsample_protocol(self._dataset(73), self._dataset(74), 0.2, 5, (), seed=74)

    def test_deterministic(self):
        data_a = self._dataset(75)
        data_b = self._dataset(76, shift=0.5)
        args = dict(
            fraction=0.25,
            repetitions=12,
            tests=(("cq2", "asymptotic"),),
            seed=77,
        )
        assert run_subsample_protocol(data_a, data_b, **args) == run_subsample_protocol(
            data_a, data_b, **args
        )


@pytest.mark.parametrize("tests, alpha, n_resamples, message", [
    ((("cq1", "asymptotic"),), 0.05, 50,
     r"^statistic must be one of \('cq2', 'wmw'\), not 'cq1'$"),
    ((("cq2", "bootstrap"),), 0.05, 50, r"^method must be one of \(.*\), not 'bootstrap'$"),
    ((), 0.05, 50, "^test list is empty$"),
    ((("wmw", "asymptotic"), ("cq2", "permutation"), ("wmw", "asymptotic")), 0.05, 50,
     "^the wmw asymptotic test is listed twice$"),
    ((("cq2", "asymptotic"),), 1.5, 50, r"^alpha must be in \(0, 1\), got 1.5$"),
    ((("cq2", "permutation"),), 0.05, 0, "^n_resamples must be at least 1, got 0$"),
    ((t for t in [("cq2", "asymptotic")]), 0.05, 50,
     r"^tests must be a list or tuple of \(stat, method\) pairs, not generator$"),
    ((("wmw",),), 0.05, 50, r"^each test must be a \(stat, method\) pair, not \('wmw',\)$"),
    ([("wmw", "asymptotic", "x")], 0.05, 50,
     r"^each test must be a \(stat, method\) pair, not \('wmw', 'asymptotic', 'x'\)$"),
    (("wmw:asymptotic",), 0.05, 50,
     r"^each test must be a \(stat, method\) pair, not 'wmw:asymptotic'$"),
], ids=["statistic", "method", "empty", "repeated", "alpha", "n_resamples", "generator",
        "one-element", "three-elements", "string"])
def test_one_test_list_rule(monkeypatch, tests, alpha, n_resamples, message):
    # The evaluators, the study plans and the subsample protocol share one
    # test-list rule; both study entry points refuse a bad list before any
    # replicate runs.
    calls = []

    def counting(*args):
        calls.append(args)
        return _evaluate_two_sample_block(*args)

    monkeypatch.setattr(montecarlo, "_evaluate_two_sample_block", counting)
    data = np.random.default_rng(78).standard_normal((40, 10))
    with pytest.raises(InvalidInputError, match=message):
        evaluate_two_sample(data[:8], data[8:16], tests, alpha, n_resamples)
    with pytest.raises(InvalidSpecError, match=message):
        small_plan(tests=tests, alpha=alpha, n_resamples=n_resamples)
    with pytest.raises(InvalidSpecError, match=message):
        run_subsample_protocol(data[:20], data[20:], 0.2, 5, tests, alpha, n_resamples)
    assert calls == []


class TestBlocks:
    # ``_rejections`` evaluates replicates in blocks; a dataset's reports
    # must not depend on its block.

    @staticmethod
    def _run(monkeypatch, block, study):
        """The result of ``study()`` with blocks of ``block`` replicates,
        every report it made, in replicate order, and its block sizes."""
        reports, sizes = [], []

        def recording(*args):
            out = _evaluate_two_sample_block(*args)
            reports.extend(repr(sorted(dataset.items())) for dataset in out)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        monkeypatch.setattr(montecarlo, "_evaluate_two_sample_block", recording)
        return repr(study()), reports, max(sizes)

    @staticmethod
    def _classes(rows_b):
        rng = np.random.default_rng(80)
        class_a = rng.standard_normal((30, 40))
        class_b = rng.standard_normal((rows_b, 40))
        class_b[:, :5] += 0.8
        return class_a, class_b

    @pytest.mark.parametrize("study", [
        lambda: run_power_study(ExperimentPlan(
            model="spherical-t5", grid=((60, 1.5), (120, 2.5)), m=10, n=10,
            tests=tuple((stat, method) for stat in ("wmw", "cq2")
                        for method in ("asymptotic", "permutation", "rsrm-oracle")),
            replications=10, n_resamples=40, base_seed=81)),
        lambda: run_power_study(ExperimentPlan(
            model="ar1-gauss", grid=((50, 0.0), (50, 3.0)), m=12, n=9,
            tests=(("wmw", "asymptotic"), ("cq2", "asymptotic")), replications=10,
            base_seed=82)),
        # Groups of 9 and 6 rows in the power phase.
        lambda: run_subsample_protocol(
            *TestBlocks._classes(20), 0.3, 10,
            (("cq2", "asymptotic"), ("wmw", "asymptotic"), ("cq2", "permutation"),
             ("wmw", "permutation")), n_resamples=40, seed=83),
        # Groups of 9 and 9 rows in every phase.
        lambda: run_subsample_protocol(
            *TestBlocks._classes(30), 0.3, 10,
            (("cq2", "asymptotic"), ("wmw", "asymptotic"), ("cq2", "permutation"),
             ("wmw", "permutation")), n_resamples=40, seed=84),
    ], ids=["spherical-all-methods", "ar1-asymptotic", "subsample-unequal", "subsample-equal"])
    def test_results_do_not_depend_on_block(self, monkeypatch, study):
        runs = [self._run(monkeypatch, block, study) for block in (1, 3, montecarlo._BLOCK)]
        assert [size for *_, size in runs] == [1, 3, montecarlo._BLOCK]
        assert runs[0][:2] == runs[1][:2] == runs[2][:2]

    @pytest.mark.parametrize("d, block", [(1_600, 2), (50_000, 1)])
    def test_block_memory(self, monkeypatch, d, block):
        # m = n = 20: a dataset and its centred rows hold 81 d coefficients,
        # so the budget holds blocks of 2 at d = 1,600 and of 1 at 50,000.
        # The traced peak stays within the block's coefficient budget plus
        # one dataset's working set, the peak of the same study in blocks
        # of one.
        assert montecarlo._block_size(np.zeros((20, d)), np.zeros((20, d))) == block
        plan = ExperimentPlan(
            model="spherical-t5", grid=((d, 1.0),), m=20, n=20,
            tests=(("wmw", "asymptotic"), ("cq2", "asymptotic"), ("cq2", "permutation"),
                   ("wmw", "rsrm-oracle")),
            replications=4, n_resamples=20, base_seed=85)
        peaks = []
        for size in (1, montecarlo._BLOCK):
            monkeypatch.setattr(montecarlo, "_BLOCK", size)
            tracemalloc.start()
            try:
                run_power_study(plan)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        single, blocked = peaks
        assert blocked <= 8 * montecarlo._BLOCK_COEFS + single, peaks


    def test_datasets_by_index(self, monkeypatch):
        # Dataset 1 holds a cross pair at relative distance 1e-7 and dataset
        # 2 a duplicated x row; with 7 columns per block of pair
        # differences, d = 30 takes five blocks, the last one short.  Every
        # per-dataset result of the block has the bits of the dataset's
        # block of one.
        monkeypatch.setattr(statistics, "_SIGN_BLOCK", 13 * 13 * 7)
        rng = np.random.default_rng(86)
        m, n, d = 6, 7, 30
        xs = [rng.standard_normal((m, d)) for _ in range(4)]
        ys = [rng.standard_normal((n, d)) + 0.3 for _ in range(4)]
        u = rng.standard_normal(d)
        ys[1][3] = xs[1][0] + 1e-7 * np.linalg.norm(xs[1][0]) * u / np.linalg.norm(u)
        xs[2][4] = xs[2][1]
        masks = []
        while len(masks) < 4 * 20:
            mask = np.zeros(m + n, dtype=bool)
            mask[rng.permutation(m + n)[:m]] = True
            if mask[1] == mask[4]:
                masks.append(mask)
        masks = np.reshape(masks, (4, 20, m + n))
        block = _TwoSampleGram(xs, ys)
        values, closed = block.wmw(masks), block.wmw_closed()
        for b, (x, y) in enumerate(zip(xs, ys)):
            one = _TwoSampleGram([x], [y])
            for got, want in zip(block.pair_norms[b], one.pair_norms[0]):
                assert got.tobytes() == want.tobytes(), b
            assert values[b].tobytes() == one.wmw(masks[b][None])[0].tobytes(), b
            assert closed[b].tobytes() == one.wmw_closed()[0].tobytes(), b
        assert block.pair_norms[2][1][1, 4] and not block.pair_norms[1][1].any()
        masks[2, 7, [1, 4]] = True, False
        want = "^a relabeling pairs two identical pooled observations, x row 1 and x row 4$"
        with pytest.raises(ZeroVectorError, match=want):
            block.wmw(masks)


class TestPinnedSeededOutputs:
    # Exact seeded rates of every method on both study paths: a change to
    # how outcomes are evaluated must not move a single replicate.
    def test_spherical_mixed_study(self):
        plan = ExperimentPlan(
            model="spherical-t5",
            grid=((100, 1.5), (200, 2.5)),
            m=20,
            n=20,
            tests=tuple(
                (stat, method)
                for stat in ("wmw", "cq2")
                for method in ("asymptotic", "permutation", "rsrm-oracle")
            ),
            replications=20,
            n_resamples=50,
            base_seed=31,
        )
        rates = {
            (p.d, p.stat, p.method): p.rejection_rate for p in run_power_study(plan)
        }
        assert rates == {
            (100, "wmw", "asymptotic"): 0.4,
            (100, "wmw", "permutation"): 0.25,
            (100, "wmw", "rsrm-oracle"): 0.4,
            (100, "cq2", "asymptotic"): 0.25,
            (100, "cq2", "permutation"): 0.25,
            (100, "cq2", "rsrm-oracle"): 0.25,
            (200, "wmw", "asymptotic"): 0.9,
            (200, "wmw", "permutation"): 0.65,
            (200, "wmw", "rsrm-oracle"): 0.85,
            (200, "cq2", "asymptotic"): 0.6,
            (200, "cq2", "permutation"): 0.5,
            (200, "cq2", "rsrm-oracle"): 0.65,
        }

    @pytest.mark.parametrize("model, rho, grid, expected", [
        ("ar1-gauss", 0.7, ((50, 0.0), (50, 3.0), (300, 4.5)),
         {(50, 0.0, "wmw"): 0.025, (50, 0.0, "cq2"): 0.075,
          (50, 3.0, "wmw"): 0.4, (50, 3.0, "cq2"): 0.4,
          (300, 4.5, "wmw"): 0.5, (300, 4.5, "cq2"): 0.5}),
        ("ar1-t5", -0.5, ((50, 0.0), (50, 2.2), (300, 3.5)),
         {(50, 0.0, "wmw"): 0.025, (50, 0.0, "cq2"): 0.025,
          (50, 2.2, "wmw"): 0.35, (50, 2.2, "cq2"): 0.375,
          (300, 3.5, "wmw"): 0.425, (300, 3.5, "cq2"): 0.425}),
    ])
    def test_ar1_asymptotic_study(self, model, rho, grid, expected):
        # Both AR(1) chains (stationary Gaussian start, t(5) with burn-in)
        # through the asymptotic tests, at shifts with power near one half,
        # so a changed row that moves a p-value across alpha shows.
        plan = ExperimentPlan(
            model=model,
            grid=grid,
            m=12,
            n=12,
            tests=(("wmw", "asymptotic"), ("cq2", "asymptotic")),
            replications=40,
            base_seed=41,
            rho=rho,
        )
        rates = {(p.d, p.c, p.stat): p.rejection_rate for p in run_power_study(plan)}
        assert rates == expected

    def test_subsample_protocol(self):
        rng = np.random.default_rng(32)
        class_a = rng.standard_normal((30, 40))
        class_b = rng.standard_normal((20, 40))
        class_b[:, :5] += 0.8
        tests = (
            ("cq2", "asymptotic"),
            ("wmw", "asymptotic"),
            ("cq2", "permutation"),
            ("wmw", "permutation"),
        )
        rows = run_subsample_protocol(
            class_a, class_b, 0.3, 20, tests, n_resamples=50, seed=33
        )
        assert [(r.stat, r.method, r.size, r.power) for r in rows] == [
            ("cq2", "asymptotic", 0.1, 0.3),
            ("wmw", "asymptotic", 0.075, 0.3),
            ("cq2", "permutation", 0.075, 0.2),
            ("wmw", "permutation", 0.075, 0.2),
        ]

    def test_randomization_pvalues(self):
        # Exact p-values at R = 50 on one null dataset of each kind:
        # p = (1 + count) / 51 with count the draws at least the observed
        # statistic, so a single draw that moves across it shows.
        spec = GeneratorSpec(model="spherical-t5", d=60).with_shift(SHIFT_ZERO, 0.0)
        rng = np.random.default_rng(40)
        x, _ = generate(spec, 9, rng)
        y, _ = generate(spec, 8, rng)
        tests = [("cq2", "permutation"), ("wmw", "permutation")]
        reports = evaluate_two_sample(x, y, tests, 0.05, 50, 37)
        assert {stat: r.p_value for (stat, _), r in reports.items()} == {
            "cq2": 10 / 51, "wmw": 20 / 51}
        spec = GeneratorSpec(model="spherical-t5", d=30).with_shift(SHIFT_ZERO, 0.0)
        x, _ = generate(spec, 10, np.random.default_rng(38))
        tests = [(stat, "signflip") for stat in ("cq1", "s", "sr")]
        reports = evaluate_one_sample(x, tests, 0.05, 50, 39)
        assert {stat: r.p_value for (stat, _), r in reports.items()} == {
            "cq1": 17 / 51, "s": 13 / 51, "sr": 18 / 51}

    def test_one_sample_evaluator(self):
        # 30 spherical-t(5) datasets (n = 12, d = 40), every other one
        # shifted, through every one-sample statistic and method.  The
        # sign-flip p-values are pinned as their tail counts out of 99
        # draws: p = (1 + count) / 100.
        tests = [
            (stat, method)
            for stat in ("cq1", "s", "sr")
            for method in ("asymptotic", "signflip", "rsrm-oracle")
        ]
        rejections = dict.fromkeys(tests, 0)
        tails = {stat: [] for stat in ("cq1", "s", "sr")}
        for r in range(30):
            spec = GeneratorSpec(model="spherical-t5", d=40).with_shift(
                SHIFT_SPREAD, 2.0 if r % 2 else 0.0
            )
            x, aux = generate(spec, 12, np.random.default_rng((34, r)))
            reports = evaluate_one_sample(x, tests, 0.05, 99, 35 + r, aux)
            for key, report in reports.items():
                rejections[key] += report.reject
            for stat in tails:
                p = reports[(stat, "signflip")].p_value
                tails[stat].append(round(100 * p) - 1)
                assert p == (1 + tails[stat][-1]) / 100.0
        assert rejections == {
            ("cq1", "asymptotic"): 14,
            ("cq1", "signflip"): 12,
            ("cq1", "rsrm-oracle"): 14,
            ("s", "asymptotic"): 14,
            ("s", "signflip"): 14,
            ("s", "rsrm-oracle"): 15,
            ("sr", "asymptotic"): 14,
            ("sr", "signflip"): 14,
            ("sr", "rsrm-oracle"): 15,
        }
        assert tails == {
            "cq1": [57, 0, 11, 0, 43, 23, 39, 0, 85, 0, 3, 0, 9, 5, 44,
                    7, 67, 0, 85, 1, 96, 52, 87, 1, 83, 0, 57, 0, 32, 0],
            "s": [47, 0, 10, 0, 50, 27, 39, 0, 78, 0, 7, 0, 3, 1, 54,
                  3, 50, 0, 94, 1, 92, 31, 85, 1, 92, 0, 58, 0, 33, 0],
            "sr": [54, 0, 13, 0, 47, 21, 42, 0, 83, 0, 5, 0, 4, 4, 50,
                   4, 63, 0, 93, 1, 95, 35, 86, 1, 84, 0, 53, 0, 27, 0],
        }


class TestPlotData:
    def _points(self):
        return [
            PowerCurvePoint("ar1-gauss", 100, 1.5, "wmw", "asymptotic", 0.131, 1000,
                            math.sqrt(0.131 * 0.869 / 1000)),
            PowerCurvePoint("ar1-gauss", 100, 1.5, "cq2", "asymptotic", 0.127, 1000,
                            math.sqrt(0.127 * 0.873 / 1000)),
            PowerCurvePoint("ar1-gauss", 200, 3.0, "wmw", "asymptotic", 0.352, 1000,
                            math.sqrt(0.352 * 0.648 / 1000)),
            PowerCurvePoint("ar1-gauss", 200, 3.0, "wmw", "permutation", 0.348, 1000,
                            math.sqrt(0.348 * 0.652 / 1000)),
        ]

    def test_single_point(self):
        text = summarize_to_plot_data(self._points()[:1])
        lines = text.splitlines()
        assert lines[0] == "model,d,c,stat,method,rate,se"
        assert len(lines) == 2

    def test_rows_grouped_by_stat_method(self):
        text = summarize_to_plot_data(self._points())
        curves = [
            (row["stat"], row["method"]) for row in parse_plot_data(text)
        ]
        seen = []
        for curve in curves:
            if curve not in seen:
                seen.append(curve)
        # each curve occupies one contiguous block
        assert len(seen) == len(set(curves))

    def test_round_trip_exact(self):
        points = self._points()
        text = summarize_to_plot_data(points)
        parsed = parse_plot_data(text)
        by_key = {
            (p.model, p.d, p.c, p.stat, p.method): p for p in points
        }
        assert len(parsed) == len(points)
        for row in parsed:
            point = by_key[(row["model"], row["d"], row["c"], row["stat"], row["method"])]
            assert row["rate"] == point.rejection_rate
            assert row["se"] == point.std_err
        assert summarize_to_plot_data(points) == text

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            summarize_to_plot_data([])
        with pytest.raises(EmptyInputError, match="^no subsample rows to render$"):
            subsample_table_csv([])

    def test_wrong_header(self):
        with pytest.raises(EmptyInputError, match="^not a plot-data CSV$"):
            parse_plot_data("stat,method,size,power\ncq2,asymptotic,0.05,0.9\n")
        with pytest.raises(EmptyInputError, match="^not a plot-data CSV$"):
            parse_plot_data("")
