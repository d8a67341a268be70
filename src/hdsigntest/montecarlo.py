"""Experiment harness: size/power studies over seeded replicates and the
two-class subsample protocol for real datasets.

Every replicate draws its randomness from a seed sequence derived from
(base seed, grid index, replicate index), so results do not depend on
execution order and extending the replicate count leaves earlier
replicates unchanged.  Both studies run one replicate loop
(``_rejections``), which evaluates consecutive replicates in blocks: each
block is one ``_TwoSampleGram`` handed to ``inference._evaluate``, the
evaluators' block core.  A replicate's reports do not depend on its
block, and a failure names the first replicate that fails.  The core
trusts the study's checks: a plan or the subsample protocol checks its
inputs once, at entry, before any replicate runs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    EmptyInputError,
    HDTestError,
    InvalidSpecError,
    SubsampleTooSmallError,
    require_counts,
    require_integers,
    require_level,
    require_pairs,
    require_seed,
)
from .generators import SHIFT_FIRST, SPHERICAL_T5, GeneratorSpec, generate
from .inference import (
    METHOD_ASYMPTOTIC,
    METHOD_PERMUTATION,
    METHOD_RSRM_ORACLE,
    TWO_SAMPLE_METHODS,
    _check_tests,
    _evaluate,
)
from .statistics import TWO_SAMPLE_STATS, _TwoSampleGram, _require_same_dim, as_matrix


@dataclass(frozen=True)
class ExperimentPlan:
    """A size/power study: one model, a (d, shift) grid, and a test list.

    Every rule about a study's inputs is checked once, when the plan is
    built: the grid and the test list by the pair rule
    (``require_pairs``), every grid point's generator specs and the latent
    scales that an oracle test needs.  So an invalid plan raises
    ``InvalidSpecError`` before any replicate runs.
    """

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
        require_integers(InvalidSpecError, m=self.m, n=self.n)
        require_counts(InvalidSpecError, replications=self.replications)
        require_seed(InvalidSpecError, "base_seed", self.base_seed)
        if self.m < 2 or self.n < 2:
            raise InvalidSpecError("sample sizes m and n must be at least 2")
        _check_tests(InvalidSpecError, self.tests, TWO_SAMPLE_STATS, TWO_SAMPLE_METHODS,
                     self.alpha, self.n_resamples)
        # The checked integers as Python ints, so that no NumPy scalar
        # reaches a rate or the manifest.
        for name in ("m", "n", "replications", "n_resamples", "base_seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        methods = {method for _, method in self.tests}
        if min(self.m, self.n) < 4 and METHOD_ASYMPTOTIC in methods:
            raise InvalidSpecError("an asymptotic test needs m and n of at least 4")
        require_pairs(InvalidSpecError, self.grid, "grid point", "(d, c)",
                      "grid point (d={}, c={})", lambda d, c: _point_specs(self, d, c))
        if self.model != SPHERICAL_T5 and METHOD_RSRM_ORACLE in methods:
            raise InvalidSpecError(
                f"model {self.model!r} has no latent scales; the oracle backend "
                "is only available for randomly scaled models"
            )

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "grid": [[int(d), float(c)] for d, c in self.grid],
            "tests": [[s, meth] for s, meth in self.tests],
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


# Replicates per evaluation block of ``_rejections``, and the most
# coefficients that a block's samples and their centred rows hold (2 MB).
# Blocks stay small: when a larger block is freed, the C allocator can
# hand its memory back to the system, and the next block then takes a
# page fault on every page of it (about 65 per dataset with blocks of 4
# at 26 x 2000).
_BLOCK = 8
_BLOCK_COEFS = 1 << 18


def _rejections(replicates, tests, alpha, n_resamples) -> dict:
    """{(stat, method): rejections} of every test over ``replicates``.

    Each replicate is (where, key, draw): ``key`` seeds one stream for its
    data and one for its resamples, ``draw(rng)`` returns its dataset
    (x, y, aux) from the data stream, and ``where`` names it in the
    message of any failure.  All datasets share one shape, as a grid
    point or a subsample phase fixes it; a Gram constructor refuses a
    mixed block.  Consecutive replicates are evaluated in blocks of up to
    ``_BLOCK``, fewer where their samples and centred rows would pass
    ``_BLOCK_COEFS`` coefficients; a dataset's reports do not depend on
    its block.  A failed replicate aborts the study, with the error of the
    first replicate that fails; silently skipping it would bias the rates.
    """
    counts = {(stat, method): 0 for stat, method in tests}
    block = []
    for where, key, draw in replicates:
        data_seq, resample_seq = np.random.SeedSequence(key).spawn(2)
        try:
            x, y, aux = draw(np.random.default_rng(data_seq))
        except HDTestError as exc:
            # The replicates drawn before it come first.
            _count_block(block, counts, tests, alpha, n_resamples)
            raise type(exc)(f"{where}: {exc}") from exc
        block.append((where, x, y, resample_seq, aux))
        if len(block) >= _block_size(x, y):
            _count_block(block, counts, tests, alpha, n_resamples)
        del x, y, aux  # so that the next draw holds only the block
    _count_block(block, counts, tests, alpha, n_resamples)
    return counts


def _block_size(x, y) -> int:
    """Replicates per block for datasets of the shape of (x, y): ``_BLOCK``,
    or fewer so that their samples and centred rows, (2 (m + n) + 1) d
    coefficients per dataset, stay within ``_BLOCK_COEFS``."""
    (m, d), n = np.shape(x), np.shape(y)[0]
    return max(1, min(_BLOCK, _BLOCK_COEFS // ((2 * (m + n) + 1) * d)))


def _count_block(block, counts, tests, alpha, n_resamples) -> None:
    """Add the rejections of the replicates in ``block`` to ``counts`` and
    empty it.  If the block fails, its replicates are evaluated one at a
    time, so that the first failing replicate raises the error that it
    raises alone, prefixed with its ``where``."""
    if not block:
        return
    wheres, xs, ys, seqs, auxes = zip(*block)
    block.clear()
    try:
        reports = _evaluate(_TwoSampleGram(xs, ys), tests, alpha, n_resamples, seqs, auxes)
    except HDTestError:
        reports = []
        for where, x, y, seq, aux in zip(wheres, xs, ys, seqs, auxes):
            try:
                reports += _evaluate(_TwoSampleGram([x], [y]), tests, alpha, n_resamples,
                                     [seq], [aux])
            except HDTestError as exc:
                raise type(exc)(f"{where}: {exc}") from exc
    for dataset in reports:
        for test, report in dataset.items():
            counts[test] += int(report.reject)


def _point_specs(plan, d, c):
    """The generator specs (x, y) of the plan's grid point (d, c)."""
    try:
        base = GeneratorSpec(model=plan.model, d=d, rho=plan.rho, beta=plan.beta, df=plan.df)
        return base, base.with_shift(plan.shift_style, c)
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"grid point (d={d}, c={c}): {exc}") from exc


def _grid_replicates(plan, g_idx):
    """The replicates of grid point ``g_idx``."""
    d, c = plan.grid[g_idx]
    x_spec, y_spec = _point_specs(plan, d, c)

    def draw(rng):
        x, aux_x = generate(x_spec, plan.m, rng)
        y, aux_y = generate(y_spec, plan.n, rng)
        if aux_x is None:
            return x, y, None
        # Both samples share the latent covariance Sigma_V, so the cross
        # trace tr(Sigma_V Sigma_W) is the first sample's tr(Sigma_V^2).
        return x, y, replace(aux_x, q_scales=aux_y.p_scales, sigma_w_sq=aux_y.sigma_v_sq,
                             tr_sigma_w_sq=aux_y.tr_sigma_v_sq,
                             tr_sigma_vw=aux_x.tr_sigma_v_sq)

    return (
        (f"replicate {r} at grid point (d={d}, c={c})", (plan.base_seed, g_idx, r), draw)
        for r in range(plan.replications)
    )


def run_power_study(plan: ExperimentPlan) -> list:
    """Estimate the rejection rate of every planned test at every grid
    point, with binomial standard errors.

    The plan was checked when it was built, so only a replicate can fail
    here; a failure aborts the study with the grid point and replicate
    index attached.
    """
    points = []
    for g_idx, (d, c) in enumerate(plan.grid):
        counts = _rejections(_grid_replicates(plan, g_idx), plan.tests, plan.alpha,
                             plan.n_resamples)
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
    Subsample sizes are floor(fraction * class size).  The classes'
    widths, the fraction, count, seed and test list are checked before
    any repetition runs.
    """
    class_a = as_matrix(class_a, "class_a")
    class_b = as_matrix(class_b, "class_b")
    _require_same_dim(class_a, class_b)
    require_level(InvalidSpecError, "fraction", fraction)
    [repetitions] = require_counts(InvalidSpecError, repetitions=repetitions)
    require_seed(InvalidSpecError, "seed", seed)
    n_resamples = _check_tests(InvalidSpecError, tests, TWO_SAMPLE_STATS,
                               (METHOD_ASYMPTOTIC, METHOD_PERMUTATION), alpha, n_resamples)
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

    def halves(data, k, rng):
        idx = rng.permutation(data.shape[0])[: 2 * k]
        return data[idx[:k]], data[idx[k:]], None

    def cross(rng):
        sub_a = class_a[rng.permutation(rows_a)[:k_a]]
        sub_b = class_b[rng.permutation(rows_b)[:k_b]]
        return sub_a, sub_b, None

    phases = (
        ("size in class a", lambda rng: halves(class_a, k_a, rng)),
        ("size in class b", lambda rng: halves(class_b, k_b, rng)),
        ("power", cross),
    )
    size_a, size_b, power_hits = [
        _rejections(
            ((f"{name}, repetition {r}", (seed, phase, r), draw) for r in range(repetitions)),
            tests, alpha, n_resamples,
        )
        for phase, (name, draw) in enumerate(phases)
    ]

    rows_out = []
    for stat, method in sorted(tests, key=lambda t: (t[1], t[0])):
        rows_out.append(
            SubsampleRow(
                stat=stat,
                method=method,
                size=(size_a[(stat, method)] + size_b[(stat, method)]) / (2 * repetitions),
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
