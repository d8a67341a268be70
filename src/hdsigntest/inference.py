"""Decision backends: asymptotic plug-in, randomization, and the
simulation-only latent-scale oracle.

All tests are one-sided right-tailed: every statistic estimates a
nonnegative squared-norm quantity, so only large values are evidence
against the null.  One evaluator per sample count, ``evaluate_two_sample``
and ``evaluate_one_sample``, runs a list of (statistic, method) pairs on
one dataset and builds each shared input once; the ``asymptotic_*``,
``randomization_*`` and ``rsrm_oracle_*`` functions and the command line
call it.  ``evaluate_two_sample`` is the block of one of the batched core
``_evaluate_two_sample_block``, which the study harness calls on blocks of
datasets of one shape: one Gram object for the block, whose Gram products,
``cq2`` kernel, closed-form ``wmw`` and nuisance sums take a leading batch
axis, and a dataset's bits do not depend on its block.  Both evaluators
share one report loop and one randomization core over the Gram object,
whose draws come from each dataset's own generator.  Every report of a
statistic shows one observed value, whatever its method.  Randomization
p-values use the add-one estimator (1 + #{resampled >= observed}) /
(n_resamples + 1), which is valid at any finite resample count and never
exactly zero.  The core counts ties against the statistic on its own
resampling path, the identity relabeling or the all-plus flip pattern,
so draws that reproduce it tie exactly.  With m = n a relabeling and its
swap give the same two-sample statistic; both are oriented to one mask,
so a draw of the swapped split ties too.
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
    require_seed,
)
from .generators import RsrmAuxiliary
from .nuisance import VarianceSnapshot, _one_sample_snapshot, _two_sample_snapshot
from .statistics import (
    ONE_SAMPLE_STATS,
    TWO_SAMPLE_STATS,
    _OneSampleGram,
    _TwoSampleGram,
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


def one_sample_z(kind: str, value: float, d: int, sigma_sq: float, gamma: float) -> float:
    """Standardized score of a one-sample statistic under the null."""
    root = math.sqrt(gamma)
    if kind == "s":
        return d * sigma_sq * value / root
    if kind == "sr":
        return d * sigma_sq * value / (2.0 * root)
    if kind == "cq1":
        return value / root
    raise InvalidInputError(f"unknown one-sample statistic {kind!r}")


def two_sample_z(
    kind: str, value: float, d: int, sigma1_sq: float, sigma2_sq: float, gamma: float
) -> float:
    """Standardized score of a two-sample statistic under the null."""
    root = math.sqrt(gamma)
    if kind == "wmw":
        return d * (sigma1_sq + sigma2_sq) * value / root
    if kind == "cq2":
        return value / root
    raise InvalidInputError(f"unknown two-sample statistic {kind!r}")


# ---------------------------------------------------------------------------
# Randomization backends.
#
# One core serves both sample counts.  The Gram object draws each
# dataset's resamples from the dataset's own generator (``draws``): blocks
# of relabeling masks of the pooled rows, with a leading axis over the
# datasets, for ``_TwoSampleGram``, one block of flip patterns for
# ``_OneSampleGram``, each led by the identity relabeling or the all-plus
# flip pattern.  Each
# statistic is the Gram object's batch kernel of that name on each block.
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
    for block in gram.draws(n_resamples, rngs):
        for stat in stats:
            values[stat].append(getattr(gram, stat)(block))
    p_values = {}
    for stat, parts in values.items():
        drawn = np.concatenate(parts, axis=-1)
        ties = np.sum(drawn[..., 1:] >= drawn[..., :1], axis=-1)
        p_values[stat] = ((1.0 + ties) / drawn.shape[-1]).reshape(-1).tolist()
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


def _check_tests(error, tests, stats, methods, alpha, n_resamples) -> None:
    """The one test-list rule of the evaluators and the studies: raise
    ``error`` unless ``tests`` is a nonempty list or tuple of distinct
    (stat, method) pairs from ``stats`` and ``methods``, with a valid level
    and count.  A one-shot iterator is refused, as a check would use it
    up."""
    require_level(error, "alpha", alpha)
    require_counts(error, n_resamples=n_resamples)
    if not isinstance(tests, (list, tuple)):
        raise error(f"tests must be a list or tuple of (stat, method) pairs, "
                    f"not {type(tests).__name__}")
    if not tests:
        raise error("test list is empty")
    seen = set()
    for test in tests:
        if not isinstance(test, (list, tuple)) or len(test) != 2:
            raise error(f"each test must be a (stat, method) pair, not {test!r}")
        stat, method = test
        if stat not in stats:
            raise error(f"statistic must be one of {stats}, not {stat!r}")
        if method not in methods:
            raise error(f"method must be one of {methods}, not {method!r}")
        if (stat, method) in seen:
            raise error(f"the {stat} {method} test is listed twice")
        seen.add((stat, method))


def _check_call(tests, stats, methods, alpha, n_resamples, rngs, auxes) -> None:
    """An evaluator's checks: ``_check_tests``, then each integer seed in
    ``rngs`` is non-negative and oracle tests have each dataset's latent
    scales ``auxes``, an ``RsrmAuxiliary``.  A seed of a type that
    ``np.random.default_rng`` refuses is refused where the randomization
    core builds its generator."""
    _check_tests(InvalidInputError, tests, stats, methods, alpha, n_resamples)
    for rng, aux in zip(rngs, auxes, strict=True):
        if isinstance(rng, numbers.Integral):
            require_seed(InvalidInputError, "seed", rng)
        for stat, method in tests:
            if method == METHOD_RSRM_ORACLE and not isinstance(aux, RsrmAuxiliary):
                raise MismatchedAuxiliaryError(
                    f"the {stat} {method} test needs the latent scales (aux), got {aux!r}"
                )


def _evaluate(gram, tests, alpha, n_resamples, rngs, resample, z, oracle_var, snapshot):
    """The report loop of both evaluators: one {(stat, method):
    TestReport} per dataset of ``gram``, in order, with ``rngs`` the
    datasets' generators or seeds.

    ``resample`` is the randomization method.  ``z(stat, value, snap,
    gamma)`` standardizes a value by a plug-in nuisance snapshot ``snap``
    (from ``snapshot(gram)``, one per dataset) or, for the oracle, by unit
    scales (``snap`` None); ``oracle_var()`` gives each dataset's oracle
    variance of each statistic.
    """
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
        variances = oracle_var()

    out = []
    for b, rng in enumerate(rngs):
        seed = rng if isinstance(rng, (int, np.integer)) else None
        reports = {}
        for stat, method in tests:
            value = values[stat][b]
            if method == resample:
                p, fields = p_values[stat][b], {"n_resamples": n_resamples, "seed": seed}
            elif method == METHOD_ASYMPTOTIC:
                score = z(stat, value, snaps[b], snaps[b].gamma)
                p, fields = gaussian_sf(score), {"z": score, "nuisance": snaps[b]}
            else:
                score = z(stat, value, None, variances[b][stat])
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
    ``_evaluate_two_sample_block``.

    Only permutation tests draw from ``rng`` (a Generator, or a seed for
    one, which their reports record), all from one set of relabelings.
    ``aux`` holds the latent scales that oracle tests need.
    """
    return _evaluate_two_sample_block([x], [y], tests, alpha, n_resamples, [rng], [aux])[0]


def _evaluate_two_sample_block(xs, ys, tests, alpha, n_resamples, rngs, auxes) -> list:
    """``evaluate_two_sample`` on each dataset (xs[b], ys[b]) of a block of
    one shape, with its own ``rngs[b]`` and ``auxes[b]``: one report dict
    per dataset, in order, each with the bits that the dataset gives in a
    block of one.  A failure raises one dataset's error, not always the
    first failing dataset's."""
    _check_call(tests, TWO_SAMPLE_STATS, TWO_SAMPLE_METHODS, alpha, n_resamples, rngs, auxes)
    # d enters the statistics, the nuisance estimates and the permutation
    # kernels through this object's batched Gram matrices.
    gram = _TwoSampleGram(xs, ys)

    def z(stat, value, snap, gamma):
        # The oracle's plug-in z is at sigma1^2 + sigma2^2 = 1.
        s1, s2 = (0.5, 0.5) if snap is None else (snap.sigma1_sq, snap.sigma2_sq)
        return two_sample_z(stat, value, gram.d, s1, s2, gamma)

    def oracle_var():
        # Variances of d * T_WMW and T_CQ2.
        return [{"wmw": terms.s2, "cq2": terms.s3}
                for terms in (two_sample_oracle_terms(aux, gram.m, gram.n) for aux in auxes)]

    return _evaluate(gram, tests, alpha, n_resamples, rngs, METHOD_PERMUTATION,
                     z, oracle_var, _two_sample_snapshot)


def evaluate_one_sample(
    x, tests, alpha: float = 0.05, n_resamples: int = 500, rng=None, aux=None
) -> dict:
    """{(stat, method): TestReport} for every pair in ``tests`` on the
    sample x, with stat in {cq1, s, sr}; ``rng`` and ``aux`` are as in
    ``evaluate_two_sample``, with one set of flip patterns.
    """
    _check_call(tests, ONE_SAMPLE_STATS, ONE_SAMPLE_METHODS, alpha, n_resamples, [rng], [aux])
    # d enters the statistics, the nuisance estimates and the sign-flip
    # kernels through this object's one Gram matrix.
    gram = _OneSampleGram(x)

    def z(stat, value, snap, gamma):
        # The oracle's plug-in z is at sigma^2 = 1.
        sigma_sq = 1.0 if snap is None else snap.sigma1_sq
        return one_sample_z(stat, value, gram.d, sigma_sq, gamma)

    def oracle_var():
        terms = one_sample_oracle_terms(aux, gram.n)
        # Variances of d * T_S, d * T_SR and T_CQ1.
        return [{"s": terms.gamma3, "sr": terms.z3, "cq1": terms.z4}]

    return _evaluate(gram, tests, alpha, n_resamples, [rng], METHOD_SIGNFLIP,
                     z, oracle_var, lambda g: [_one_sample_snapshot(g)])[0]


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
