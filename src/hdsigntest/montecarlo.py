"""Experiment harness: size/power studies over seeded replicates and the
two-class subsample protocol for real datasets.

Every replicate draws its randomness from a seed sequence derived from
(base seed, grid index, replicate index), so results do not depend on
execution order and extending the replicate count leaves earlier
replicates unchanged.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    HDTestError,
    InvalidSpecError,
    SubsampleTooSmallError,
)
from .generators import SHIFT_FIRST, SHIFT_ZERO, GeneratorSpec, RsrmAuxiliary, generate
from .inference import (
    METHOD_ASYMPTOTIC,
    METHOD_PERMUTATION,
    METHOD_RSRM_ORACLE,
    TWO_SAMPLE_METHODS,
    evaluate_two_sample,
)
from .statistics import TWO_SAMPLE_STATS, as_matrix


@dataclass(frozen=True)
class ExperimentPlan:
    """A size/power study: one model, a (d, shift) grid, and a test list."""

    model: str
    grid: tuple
    m: int
    n: int
    tests: tuple
    replications: int
    alpha: float = 0.05
    n_resamples: int = 500
    base_seed: int = 0
    rho: float = 0.7
    beta: float = 0.7
    df: float = 5.0
    shift_style: str = SHIFT_FIRST

    def __post_init__(self):
        if self.replications < 1:
            raise InvalidSpecError("replications must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidSpecError("alpha must be in (0, 1)")
        if self.n_resamples < 1:
            raise InvalidSpecError("n_resamples must be at least 1")
        if not self.grid or not all(math.isfinite(c) for _, c in self.grid):
            raise InvalidSpecError("grid must hold at least one (d, c) point, every c finite")
        for stat, method in self.tests:
            if stat not in TWO_SAMPLE_STATS:
                raise InvalidSpecError(f"unknown two-sample statistic {stat!r}")
            if method not in TWO_SAMPLE_METHODS:
                raise InvalidSpecError(f"unknown method {method!r}")

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "grid": [[int(d), float(c)] for d, c in self.grid],
            "m": self.m,
            "n": self.n,
            "tests": [[s, meth] for s, meth in self.tests],
            "replications": self.replications,
            "alpha": self.alpha,
            "n_resamples": self.n_resamples,
            "base_seed": self.base_seed,
            "rho": self.rho,
            "beta": self.beta,
            "df": self.df,
            "shift_style": self.shift_style,
        }


@dataclass(frozen=True)
class PowerCurvePoint:
    """Estimated rejection rate of one test at one grid point."""

    model: str
    d: int
    c: float
    stat: str
    method: str
    rejection_rate: float
    replications: int
    std_err: float


def _binomial_se(rate: float, reps: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / reps)


def _combined_aux(aux_x: RsrmAuxiliary, aux_y: RsrmAuxiliary, d: int) -> RsrmAuxiliary:
    # Both samples share the isotropic latent component, so the cross trace
    # equals the marginal ones.
    return RsrmAuxiliary(
        p_scales=aux_x.p_scales,
        q_scales=aux_y.p_scales,
        sigma_v_sq=aux_x.sigma_v_sq,
        sigma_w_sq=aux_y.sigma_v_sq,
        tr_sigma_v_sq=aux_x.tr_sigma_v_sq,
        tr_sigma_w_sq=aux_y.tr_sigma_v_sq,
        tr_sigma_vw=float(d),
    )


def _replicate_rejections(plan, d, c, g_idx, r) -> dict:
    """Run every test of the plan on one freshly generated replicate pair."""
    seq = np.random.SeedSequence((plan.base_seed, g_idx, r))
    data_seq, perm_seq = seq.spawn(2)
    rng = np.random.default_rng(data_seq)

    base = GeneratorSpec(
        model=plan.model, d=d, rho=plan.rho, beta=plan.beta, df=plan.df
    )
    x, aux_x = generate(base.with_shift(SHIFT_ZERO, 0.0), plan.m, rng)
    y, aux_y = generate(base.with_shift(plan.shift_style, c), plan.n, rng)

    aux = None
    if any(method == METHOD_RSRM_ORACLE for _, method in plan.tests):
        if aux_x is None or aux_y is None:
            raise InvalidSpecError(
                f"model {plan.model!r} has no latent scales; the oracle backend "
                "is only available for randomly scaled models"
            )
        aux = _combined_aux(aux_x, aux_y, d)
    reports = evaluate_two_sample(
        x, y, plan.tests, plan.alpha, plan.n_resamples, perm_seq, aux
    )
    return {key: report.reject for key, report in reports.items()}


def run_power_study(plan: ExperimentPlan) -> list:
    """Estimate the rejection rate of every planned test at every grid
    point, with binomial standard errors.

    A failure inside any replicate aborts the study with the grid point and
    replicate index attached; silently skipping failed replicates would
    bias the rates.
    """
    points = []
    for g_idx, (d, c) in enumerate(plan.grid):
        counts = {(stat, method): 0 for stat, method in plan.tests}
        for r in range(plan.replications):
            try:
                rejected = _replicate_rejections(plan, d, c, g_idx, r)
            except HDTestError as exc:
                raise type(exc)(
                    f"replicate {r} at grid point (d={d}, c={c}): {exc}"
                ) from exc
            for key, hit in rejected.items():
                counts[key] += int(hit)
        for stat, method in plan.tests:
            rate = counts[(stat, method)] / plan.replications
            points.append(
                PowerCurvePoint(
                    model=plan.model,
                    d=int(d),
                    c=float(c),
                    stat=stat,
                    method=method,
                    rejection_rate=rate,
                    replications=plan.replications,
                    std_err=_binomial_se(rate, plan.replications),
                )
            )
    return points


@dataclass(frozen=True)
class SubsampleRow:
    """One line of the subsample size/power table."""

    stat: str
    method: str
    size: float
    power: float
    repetitions: int


def run_subsample_protocol(
    class_a,
    class_b,
    fraction: float,
    repetitions: int,
    tests,
    alpha: float = 0.05,
    n_resamples: int = 500,
    seed: int = 0,
) -> list:
    """Two-class subsample study.

    Size: within each class, repeatedly split a random draw of twice the
    subsample size into two disjoint groups and test them against each
    other; the reported size averages the two classes.  Power: repeatedly
    test a random subsample of one class against one of the other.
    Subsample sizes are floor(fraction * class size).
    """
    class_a = as_matrix(class_a, "class_a")
    class_b = as_matrix(class_b, "class_b")
    if not 0.0 < fraction < 1.0:
        raise InvalidSpecError("fraction must be in (0, 1)")
    if repetitions < 1:
        raise InvalidSpecError("repetitions must be at least 1")
    for stat, method in tests:
        if stat not in TWO_SAMPLE_STATS:
            raise InvalidSpecError(f"unknown two-sample statistic {stat!r}")
        if method not in (METHOD_ASYMPTOTIC, METHOD_PERMUTATION):
            raise InvalidSpecError(
                f"method {method!r} is not available on real data"
            )
    rows_a, rows_b = class_a.shape[0], class_b.shape[0]
    k_a = int(fraction * rows_a)
    k_b = int(fraction * rows_b)
    if k_a < 4 or k_b < 4:
        raise SubsampleTooSmallError(
            f"subsample sizes {k_a} and {k_b} are too small; need at least 4"
        )
    if 2 * k_a > rows_a or 2 * k_b > rows_b:
        raise SubsampleTooSmallError(
            "classes are too small to draw two disjoint subsamples"
        )

    tests = list(tests)
    size_hits = {key: 0 for key in ((s, meth) for s, meth in tests)}
    power_hits = {key: 0 for key in size_hits}

    for phase, (data, k) in enumerate([(class_a, k_a), (class_b, k_b)]):
        rows = data.shape[0]
        for r in range(repetitions):
            seq = np.random.SeedSequence((seed, phase, r))
            draw_seq, perm_seq = seq.spawn(2)
            idx = np.random.default_rng(draw_seq).permutation(rows)[: 2 * k]
            reports = evaluate_two_sample(
                data[idx[:k]], data[idx[k:]], tests, alpha, n_resamples, perm_seq
            )
            for key, report in reports.items():
                size_hits[key] += int(report.reject)

    for r in range(repetitions):
        seq = np.random.SeedSequence((seed, 2, r))
        draw_seq, perm_seq = seq.spawn(2)
        rng = np.random.default_rng(draw_seq)
        sub_a = class_a[rng.permutation(rows_a)[:k_a]]
        sub_b = class_b[rng.permutation(rows_b)[:k_b]]
        reports = evaluate_two_sample(sub_a, sub_b, tests, alpha, n_resamples, perm_seq)
        for key, report in reports.items():
            power_hits[key] += int(report.reject)

    rows_out = []
    for stat, method in sorted(tests, key=lambda t: (t[1], t[0])):
        rows_out.append(
            SubsampleRow(
                stat=stat,
                method=method,
                size=size_hits[(stat, method)] / (2 * repetitions),
                power=power_hits[(stat, method)] / repetitions,
                repetitions=repetitions,
            )
        )
    return rows_out


def subsample_table_csv(rows) -> str:
    """Render subsample protocol rows as CSV grouped by implementation."""
    if not rows:
        raise EmptyInputError("no subsample rows to render")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["stat", "method", "size", "power"])
    for row in rows:
        writer.writerow([row.stat, row.method, repr(row.size), repr(row.power)])
    return buf.getvalue()


def summarize_to_plot_data(points) -> str:
    """Render power-curve points as CSV plot data.

    Columns are (model, d, c, stat, method, rate, se); rows are sorted so
    that each curve (one (stat, method) pair) is a contiguous block in
    grid order.  Floats are written with repr and round-trip exactly.
    """
    points = list(points)
    if not points:
        raise EmptyInputError("no power curve points to summarize")
    points.sort(key=lambda p: (p.model, p.stat, p.method, p.d, p.c))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "d", "c", "stat", "method", "rate", "se"])
    for p in points:
        writer.writerow(
            [p.model, p.d, repr(p.c), p.stat, p.method,
             repr(p.rejection_rate), repr(p.std_err)]
        )
    return buf.getvalue()


def parse_plot_data(text: str) -> list:
    """Parse CSV plot data back into rows of plain dicts (exact floats)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["model", "d", "c", "stat", "method", "rate", "se"]:
        raise EmptyInputError("not a plot-data CSV")
    kinds = (str, int, float, str, str, float, float)
    return [{key: kind(cell) for key, kind, cell in zip(header, kinds, rec, strict=True)}
            for rec in reader]
