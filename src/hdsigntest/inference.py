"""Decision backends: asymptotic plug-in, randomization, and the
simulation-only latent-scale oracle.

All tests are one-sided right-tailed: every statistic estimates a
nonnegative squared-norm quantity, so only large values are evidence
against the null.  One evaluator per sample count, ``evaluate_two_sample``
and ``evaluate_one_sample``, runs a list of (statistic, method) pairs on
one dataset and builds each shared input once; the ``asymptotic_*``,
``randomization_*`` and ``rsrm_oracle_*`` functions and the command line
call it.  Each evaluator checks its call and runs the block of one of
``_evaluate``, the one block core of both sample counts, which the study
harness calls on blocks of datasets of one shape; a dataset's bits do
not depend on its block.  The core takes a Gram object (``_TwoSampleGram``
or ``_OneSampleGram``), whose arrays and kernels take a leading batch
axis, and reads the case from its class: the randomization method, the
nuisance snapshots and the oracle variances.  One score rule, ``_z``,
standardizes every statistic.  The evaluators check the test list,
level, count, seed and latent scales once, at entry; the core trusts
their checks, or the study's, and the Gram object checks the samples.
The randomization core draws from each dataset's own generator in blocks
of 1024 resamples.  Every report of a statistic shows one observed
value, whatever its method.  Randomization p-values use the add-one
estimator (1 + #{resampled >= observed}) / (n_resamples + 1), which is
valid at any finite resample count and never exactly zero.  The core
counts ties against the statistic on its own resampling path, the
identity relabeling or the all-plus flip pattern, so draws that
reproduce it tie exactly.  With m = n a relabeling and its swap give the
same two-sample statistic; both are oriented to one mask, so a draw of
the swapped split ties too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    MismatchedAuxiliaryError,
    NonpositiveScaleError,
    require_counts,
    require_level,
    require_pairs,
    require_seed,
)
from .generators import RsrmAuxiliary
from .nuisance import VarianceSnapshot, _one_sample_snapshot, _two_sample_snapshot
from .statistics import (
    ONE_SAMPLE_STATS,
    TWO_SAMPLE_STATS,
    _OneSampleGram,
    _TwoSampleGram,
    _draw_blocks,
    _observed,
)

METHOD_ASYMPTOTIC = "asymptotic"
METHOD_PERMUTATION = "permutation"
METHOD_SIGNFLIP = "signflip"
METHOD_RSRM_ORACLE = "rsrm-oracle"
TWO_SAMPLE_METHODS = (METHOD_ASYMPTOTIC, METHOD_PERMUTATION, METHOD_RSRM_ORACLE)
ONE_SAMPLE_METHODS = (METHOD_ASYMPTOTIC, METHOD_SIGNFLIP, METHOD_RSRM_ORACLE)


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test."""

    stat_kind: str
    statistic: float
    p_value: float
    alpha: float
    reject: bool
    method: str
    z: float | None = None
    nuisance: VarianceSnapshot | None = None
    n_resamples: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "stat_kind": self.stat_kind,
            "statistic": self.statistic,
            "z": self.z,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "method": self.method,
            "n_resamples": self.n_resamples,
            "seed": self.seed,
            "nuisance": None if self.nuisance is None else self.nuisance.to_dict(),
        }


def gaussian_sf(z: float) -> float:
    """Upper-tail probability of the standard Gaussian via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _z(stat: str, value: float, d: int, sigma_sq: float, gamma: float) -> float:
    """The one score rule of every statistic: value / sqrt(gamma) for
    ``cq1`` and ``cq2``, d sigma^2 value / sqrt(gamma) for ``s`` and
    ``wmw``, and half that for ``sr``, with sigma^2 the summed sample
    variances (1 for the oracle's unit scales)."""
    root = math.sqrt(gamma)
    if stat in ("cq1", "cq2"):
        return value / root
    if stat == "sr":
        return d * sigma_sq * value / (2.0 * root)
    return d * sigma_sq * value / root


def one_sample_z(kind: str, value: float, d: int, sigma_sq: float, gamma: float) -> float:
    """Standardized score of a one-sample statistic under the null."""
    if kind not in ONE_SAMPLE_STATS:
        raise InvalidInputError(f"unknown one-sample statistic {kind!r}")
    return _z(kind, value, d, sigma_sq, gamma)


def two_sample_z(
    kind: str, value: float, d: int, sigma1_sq: float, sigma2_sq: float, gamma: float
) -> float:
    """Standardized score of a two-sample statistic under the null."""
    if kind not in TWO_SAMPLE_STATS:
        raise InvalidInputError(f"unknown two-sample statistic {kind!r}")
    return _z(kind, value, d, sigma1_sq + sigma2_sq, gamma)


# ---------------------------------------------------------------------------
# Randomization backends.
#
# One core serves both sample counts.  The Gram object's ``draws`` draws
# each dataset's resamples from the dataset's own generator: relabeling
# masks of the pooled rows for ``_TwoSampleGram``, flip patterns for
# ``_OneSampleGram``.  ``statistics._draw_blocks`` cuts them into blocks
# with a leading axis over the datasets, the first led by the identity
# relabeling or the all-plus flip pattern.  Each statistic is the Gram
# object's batch kernel of that name on each block.
# The core returns only p-values: it counts ties against the identity row
# of its first block, so a draw that reproduces the data ties exactly,
# while the reports show the one observed value of ``_observed``.  With
# m = n both two-sample statistics are symmetric in the groups, so every
# relabeling is oriented to put pooled row 0 in the first group: a draw of
# the swapped split is then the identity mask and ties too.
# ---------------------------------------------------------------------------


def _randomization_pvalues(gram, stats, n_resamples, rngs) -> dict:
    """{stat: p-values, one per dataset of ``gram``} over one shared set of
    ``gram.draws`` per dataset, each from ``np.random.default_rng`` of its
    entry of ``rngs``, with the add-one estimator
    (1 + #{drawn >= identity}) / (R + 1)."""
    try:
        rngs = [np.random.default_rng(rng) for rng in rngs]
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(
            f"seed must be one that np.random.default_rng takes: {exc}") from exc
    values = {stat: [] for stat in stats}
    for block in _draw_blocks(gram, n_resamples, rngs):
        for stat in stats:
            values[stat].append(getattr(gram, stat)(block))
    p_values = {}
    for stat, parts in values.items():
        drawn = np.concatenate(parts, axis=-1)
        ties = np.sum(drawn[..., 1:] >= drawn[..., :1], axis=-1)
        p_values[stat] = ((1.0 + ties) / drawn.shape[-1]).tolist()
    return p_values


# ---------------------------------------------------------------------------
# Latent-scale oracle backend.
#
# Under a randomly scaled model the statistics are Gaussian only
# conditionally on the per-observation scales.  With the scales and the
# population traces in hand (possible only in simulation), the conditional
# standardizers below are exact.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoSampleOracleTerms:
    s1: float
    l3: float
    l4: float
    l5: float
    s2: float
    s3: float


@dataclass(frozen=True)
class OneSampleOracleTerms:
    z1: float
    z4: float
    gamma3: float
    z2: float | None = None
    z3: float | None = None


def _check_scales(scales, count, name) -> np.ndarray:
    arr = np.asarray(scales, dtype=float).ravel()
    if arr.size != count:
        raise MismatchedAuxiliaryError(
            f"{name} has {arr.size} scales for {count} observations"
        )
    if not np.isfinite(arr).all() or (arr <= 0.0).any():
        raise NonpositiveScaleError(f"{name} scales must be strictly positive")
    return arr


def _offdiag_sum(mat: np.ndarray) -> float:
    return float(mat.sum() - np.trace(mat))


def two_sample_oracle_terms(aux: RsrmAuxiliary, m: int, n: int) -> TwoSampleOracleTerms:
    """Conditional centering and variance terms for the two-sample tests."""
    p = _check_scales(aux.p_scales, m, "first sample")
    if aux.q_scales is None or aux.sigma_w_sq is None:
        raise MismatchedAuxiliaryError("two-sample oracle needs second-sample scales")
    if aux.tr_sigma_w_sq is None or aux.tr_sigma_vw is None:
        raise MismatchedAuxiliaryError("two-sample oracle needs all three trace values")
    q = _check_scales(aux.q_scales, n, "second sample")
    sv, sw = aux.sigma_v_sq, aux.sigma_w_sq
    trv, trw, trvw = aux.tr_sigma_v_sq, aux.tr_sigma_w_sq, aux.tr_sigma_vw

    g = 1.0 / np.sqrt(sv / p[:, None] ** 2 + sw / q[None, :] ** 2)
    rsum = g.sum(axis=1)
    csum = g.sum(axis=0)
    a_mat = np.outer(rsum, rsum) - g @ g.T
    b_mat = np.outer(csum, csum) - g.T @ g
    c_mat = (rsum[:, None] - g) * (csum[None, :] - g)

    m2 = m * (m - 1)
    n2 = n * (n - 1)
    s1 = _offdiag_sum(a_mat) / (m2 * n2)

    pinv2 = p**-2.0
    qinv2 = q**-2.0
    l3 = 2.0 * _offdiag_sum(np.outer(pinv2, pinv2) * a_mat**2)
    l4 = 2.0 * _offdiag_sum(np.outer(qinv2, qinv2) * b_mat**2)
    l5 = 2.0 * float((np.outer(pinv2, qinv2) * c_mat**2).sum())
    s2 = (l3 * trv + l4 * trw + 2.0 * l5 * trvw) / (m2 * n2) ** 2

    s3 = (
        2.0 * trv * _offdiag_sum(np.outer(pinv2, pinv2)) / m2**2
        + 2.0 * trw * _offdiag_sum(np.outer(qinv2, qinv2)) / n2**2
        + 4.0 * trvw * float(pinv2.sum() * qinv2.sum()) / (m * n) ** 2
    )
    return TwoSampleOracleTerms(s1=s1, l3=l3, l4=l4, l5=l5, s2=s2, s3=s3)


def one_sample_oracle_terms(aux: RsrmAuxiliary, n: int) -> OneSampleOracleTerms:
    """Conditional centering and variance terms for the one-sample tests."""
    p = _check_scales(aux.p_scales, n, "sample")
    sv = aux.sigma_v_sq
    trv = aux.tr_sigma_v_sq
    n2 = n * (n - 1)

    z1 = _offdiag_sum(np.outer(p, p)) / (n2 * sv)
    pinv2 = p**-2.0
    z4 = 2.0 * trv * _offdiag_sum(np.outer(pinv2, pinv2)) / n2**2
    gamma3 = 2.0 * trv / (n2 * sv**2)

    z2 = z3 = None
    if n >= 4:
        n4 = n2 * (n - 2) * (n - 3)
        f_mat = p[None, :] / np.sqrt(p[:, None] ** 2 + p[None, :] ** 2)
        trow = f_mat.sum(axis=1)
        excl = trow[:, None] - np.diagonal(f_mat)[:, None] - f_mat
        ff = f_mat @ f_mat.T
        cross = (
            ff
            - np.diagonal(f_mat)[:, None] * f_mat.T
            - f_mat * np.diagonal(f_mat)[None, :]
        )
        u_tilde = excl * excl.T - cross
        z2_sum = _offdiag_sum(u_tilde * np.outer(p, p))
        z3_sum = _offdiag_sum(u_tilde**2)
        z2 = 2.0 * z2_sum / (n4 * sv)
        z3 = 8.0 * trv * z3_sum / (n4 * sv) ** 2
    return OneSampleOracleTerms(z1=z1, z4=z4, gamma3=gamma3, z2=z2, z3=z3)


# ---------------------------------------------------------------------------
# Evaluators: one per sample count, and the single-test functions on top.
# ---------------------------------------------------------------------------


def _check_tests(error, tests, stats, methods, alpha, n_resamples) -> int:
    """The one test-list rule of the evaluators and the studies: raise
    ``error`` unless ``tests`` is a nonempty list or tuple of distinct
    (stat, method) pairs from ``stats`` and ``methods`` (``require_pairs``),
    with a valid level and count.  Returns the count as a Python int."""
    require_level(error, "alpha", alpha)
    [n_resamples] = require_counts(error, n_resamples=n_resamples)

    def check(stat, method):
        if stat not in stats:
            raise error(f"statistic must be one of {stats}, not {stat!r}")
        if method not in methods:
            raise error(f"method must be one of {methods}, not {method!r}")

    require_pairs(error, tests, "test", "(stat, method)", "the {} {} test", check)
    return n_resamples


def _check_call(tests, stats, methods, alpha, n_resamples, rng, aux) -> int:
    """An evaluator's checks: ``_check_tests``, then an integer seed
    ``rng`` is non-negative and oracle tests have the latent scales
    ``aux``, an ``RsrmAuxiliary``.  A seed of a type that
    ``np.random.default_rng`` refuses is refused where the randomization
    core builds its generator.  Returns the count as a Python int."""
    n_resamples = _check_tests(InvalidInputError, tests, stats, methods, alpha, n_resamples)
    if isinstance(rng, numbers.Integral):
        require_seed(InvalidInputError, "seed", rng)
    for stat, method in tests:
        if method == METHOD_RSRM_ORACLE and not isinstance(aux, RsrmAuxiliary):
            raise MismatchedAuxiliaryError(
                f"the {stat} {method} test needs the latent scales (aux), got {aux!r}"
            )
    return n_resamples


# Each Gram class's case: its randomization method, its plug-in nuisance
# snapshots (one per dataset), a dataset's oracle terms from its latent
# scales, and the term that is the oracle variance of each statistic
# (of d * T for s, sr and wmw, of T for cq1 and cq2).
_CASES = {
    _TwoSampleGram: (METHOD_PERMUTATION, _two_sample_snapshot,
                     lambda gram, aux: two_sample_oracle_terms(aux, gram.m, gram.n),
                     {"wmw": "s2", "cq2": "s3"}),
    _OneSampleGram: (METHOD_SIGNFLIP, _one_sample_snapshot,
                     lambda gram, aux: one_sample_oracle_terms(aux, gram.n),
                     {"s": "gamma3", "sr": "z3", "cq1": "z4"}),
}


def _evaluate(gram, tests, alpha, n_resamples, rngs, auxes) -> list:
    """The one block core of both evaluators and the studies: one
    {(stat, method): TestReport} per dataset of ``gram``, a
    ``_TwoSampleGram`` or ``_OneSampleGram`` block, in order, with
    ``rngs`` the datasets' generators or seeds and ``auxes`` their latent
    scales.  Each dataset's reports have the bits of its block of one.  A
    failure raises one dataset's error, not always the first failing
    dataset's.  It trusts its callers' checks of the test list, level,
    count, seeds and latent scales: an evaluator, the study plan or the
    subsample protocol made them once.

    Asymptotic tests standardize by each dataset's plug-in snapshot,
    oracle tests by unit scales (sigma^2 = 1) and the oracle variance.
    """
    resample, snapshot, oracle_terms, variance = _CASES[type(gram)]
    methods = {method for _, method in tests}
    # The draws run first, so a randomization test meets its kernel's
    # error before any other.
    resampled = dict.fromkeys(stat for stat, method in tests if method == resample)
    if resampled:
        p_values = _randomization_pvalues(gram, resampled, n_resamples, rngs)
    values = {stat: _observed(gram, stat).tolist()
              for stat in dict.fromkeys(s for s, _ in tests)}
    snaps = snapshot(gram) if METHOD_ASYMPTOTIC in methods else None
    if METHOD_RSRM_ORACLE in methods:
        terms = [oracle_terms(gram, aux) for aux in auxes]

    out = []
    for b, rng in enumerate(rngs):
        seed = int(rng) if isinstance(rng, (int, np.integer)) else None
        reports = {}
        for stat, method in tests:
            value = values[stat][b]
            if method == resample:
                p, fields = p_values[stat][b], {"n_resamples": n_resamples, "seed": seed}
            elif method == METHOD_ASYMPTOTIC:
                snap = snaps[b]
                # A one-sample snapshot has no sigma2^2.
                sigma_sq = snap.sigma1_sq + (snap.sigma2_sq or 0.0)
                score = _z(stat, value, gram.d, sigma_sq, snap.gamma)
                p, fields = gaussian_sf(score), {"z": score, "nuisance": snap}
            else:
                score = _z(stat, value, gram.d, 1.0, getattr(terms[b], variance[stat]))
                p, fields = gaussian_sf(score), {"z": score}
            reports[(stat, method)] = TestReport(
                stat_kind=stat, statistic=value, p_value=p, alpha=alpha,
                reject=p <= alpha, method=method, **fields)
        out.append(reports)
    return out


def evaluate_two_sample(
    x, y, tests, alpha: float = 0.05, n_resamples: int = 500, rng=None, aux=None
) -> dict:
    """{(stat, method): TestReport} for every pair in ``tests`` on the
    samples x and y, with stat in {cq2, wmw}: the block of one of
    ``_evaluate``.

    Only permutation tests draw from ``rng`` (a Generator, or a seed for
    one, which their reports record), all from one set of relabelings.
    ``aux`` holds the latent scales that oracle tests need.
    """
    n_resamples = _check_call(tests, TWO_SAMPLE_STATS, TWO_SAMPLE_METHODS, alpha, n_resamples,
                              rng, aux)
    # d enters the statistics, the nuisance estimates and the permutation
    # kernels through this object's Gram matrix.
    return _evaluate(_TwoSampleGram([x], [y]), tests, alpha, n_resamples, [rng], [aux])[0]


def evaluate_one_sample(
    x, tests, alpha: float = 0.05, n_resamples: int = 500, rng=None, aux=None
) -> dict:
    """{(stat, method): TestReport} for every pair in ``tests`` on the
    sample x, with stat in {cq1, s, sr}; ``rng`` and ``aux`` are as in
    ``evaluate_two_sample``, with one set of flip patterns.
    """
    n_resamples = _check_call(tests, ONE_SAMPLE_STATS, ONE_SAMPLE_METHODS, alpha, n_resamples,
                              rng, aux)
    return _evaluate(_OneSampleGram([x]), tests, alpha, n_resamples, [rng], [aux])[0]


def asymptotic_one_sample(x, stat: str, alpha: float = 0.05) -> TestReport:
    """Gaussian plug-in test of E(X) = 0 for stat in {cq1, s, sr}."""
    key = (stat, METHOD_ASYMPTOTIC)
    return evaluate_one_sample(x, [key], alpha)[key]


def asymptotic_two_sample(x, y, stat: str, alpha: float = 0.05) -> TestReport:
    """Gaussian plug-in test of E(X) = E(Y) for stat in {cq2, wmw}."""
    key = (stat, METHOD_ASYMPTOTIC)
    return evaluate_two_sample(x, y, [key], alpha)[key]


def randomization_two_sample(
    x, y, stat: str, alpha: float = 0.05, n_resamples: int = 500, seed: int = 0
) -> TestReport:
    """Permutation test: pooled rows are relabeled into groups of the
    original sizes, the statistic is recomputed for each relabeling, and
    the add-one upper-tail p-value is reported.
    """
    key = (stat, METHOD_PERMUTATION)
    return evaluate_two_sample(x, y, [key], alpha, n_resamples, seed)[key]


def randomization_one_sample(
    x, stat: str, alpha: float = 0.05, n_resamples: int = 500, seed: int = 0
) -> TestReport:
    """Sign-flip test: each resample multiplies every row by an independent
    fair +-1 and recomputes the statistic.  Exact under symmetric nulls.
    """
    key = (stat, METHOD_SIGNFLIP)
    return evaluate_one_sample(x, [key], alpha, n_resamples, seed)[key]


def rsrm_oracle_two_sample(
    x, y, aux: RsrmAuxiliary, stat: str, alpha: float = 0.05
) -> TestReport:
    """Two-sample test standardized by the conditional oracle variances.

    Only usable where the latent scales are known, i.e. in simulation.
    """
    key = (stat, METHOD_RSRM_ORACLE)
    return evaluate_two_sample(x, y, [key], alpha, aux=aux)[key]


def rsrm_oracle_one_sample(
    x, aux: RsrmAuxiliary, stat: str, alpha: float = 0.05
) -> TestReport:
    """One-sample test standardized by the conditional oracle variances."""
    key = (stat, METHOD_RSRM_ORACLE)
    return evaluate_one_sample(x, [key], alpha, aux=aux)[key]
