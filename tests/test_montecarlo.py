"""Tests for the power-study harness and subsample protocol."""

import math

import numpy as np
import pytest

from hdsigntest import (
    EmptyInputError,
    ExperimentPlan,
    InvalidSpecError,
    PowerCurvePoint,
    SubsampleTooSmallError,
    parse_plot_data,
    run_power_study,
    run_subsample_protocol,
    subsample_table_csv,
    summarize_to_plot_data,
)
from hdsigntest.montecarlo import _replicate_rejections


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
            _replicate_rejections(plan60, 20, 1.0, 0, r)[("cq2", "asymptotic")]
            for r in range(60)
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

    def test_failure_carries_provenance(self):
        plan = small_plan(tests=(("wmw", "rsrm-oracle"),))
        with pytest.raises(InvalidSpecError, match=r"replicate 0 at grid point"):
            run_power_study(plan)

    def test_rejects_bad_plan_parameters(self):
        with pytest.raises(InvalidSpecError):
            small_plan(replications=0)
        with pytest.raises(InvalidSpecError):
            small_plan(tests=(("cq1", "asymptotic"),))
        with pytest.raises(InvalidSpecError):
            small_plan(tests=(("cq2", "bootstrap"),))
        with pytest.raises(InvalidSpecError):
            small_plan(grid=())


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

    def test_oracle_method_rejected_on_real_data(self):
        data = self._dataset(73)
        with pytest.raises(InvalidSpecError):
            run_subsample_protocol(
                data, data, 0.2, 5, (("wmw", "rsrm-oracle"),), seed=74
            )

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
