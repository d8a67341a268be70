"""Decision backends: asymptotic plug-in, randomization, and the
simulation-only latent-scale oracle.

All tests are one-sided right-tailed: every statistic estimates a
nonnegative squared-norm quantity, so only large values are evidence
against the null.  One evaluator per sample count, ``evaluate_two_sample``
and ``evaluate_one_sample``, runs a list of (statistic, method) pairs on
one dataset and builds each shared input once; the ``asymptotic_*``,
``randomization_*`` and ``rsrm_oracle_*`` functions, the study harness and
the command line all call it.  Randomization p-values use the add-one
estimator (1 + #{resampled >= observed}) / (n_resamples + 1), which is
valid at any finite resample count and never exactly zero.  The observed
statistic is computed on the resampling path, as the identity relabeling
or the all-plus flip pattern, so draws that reproduce it tie exactly.
With m = n a relabeling and its swap give the same two-sample statistic;
both are oriented to one mask, so a draw of the swapped split ties too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MismatchedAuxiliaryError,
    NonpositiveScaleError,
    TooFewObservationsError,
    ZeroVectorError,
)
from .generators import RsrmAuxiliary
from .nuisance import VarianceSnapshot, _one_sample_snapshot, _two_sample_snapshot
from .statistics import (
    ONE_SAMPLE_STATS,
    TWO_SAMPLE_STATS,
    _OneSampleGram,
    _TwoSampleGram,
    _observed,
    as_matrix,
    _require_same_dim,
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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def one_sample_z(kind: str, value: float, d: int, sigma_sq: float, gamma: float) -> float:
    """Standardized score of a one-sample statistic under the null."""
    root = math.sqrt(gamma)
    if kind == "s":
        return d * sigma_sq * value / root
    if kind == "sr":
        return d * sigma_sq * value / (2.0 * root)
    if kind == "cq1":
        return value / root
    raise ValueError(f"unknown one-sample statistic {kind!r}")


def two_sample_z(
    kind: str, value: float, d: int, sigma1_sq: float, sigma2_sq: float, gamma: float
) -> float:
    """Standardized score of a two-sample statistic under the null."""
    root = math.sqrt(gamma)
    if kind == "wmw":
        return d * (sigma1_sq + sigma2_sq) * value / root
    if kind == "cq2":
        return value / root
    raise ValueError(f"unknown two-sample statistic {kind!r}")


# ---------------------------------------------------------------------------
# Randomization backends.
#
# Resampled statistics are evaluated from quantities precomputed on the
# data, so no resample recomputes a statistic from scratch.  The
# permutation wmw kernel takes the pair norms from the pooled rows once and
# forms the pairwise unit differences one block of columns at a time, each
# written over the last in one reused buffer of about ``_SIGN_BLOCK``
# coefficients: its time is still O(N^2 d) per relabeling, but it holds one
# (N, N, block) array, not N^2 d, and its contractions over either pair
# index read that buffer in place (U_ba = -U_ab).  Every other kernel
# reads the dataset's one Gram matrix: permutation cq2 the pooled Gram
# read from ``_TwoSampleGram``, and sign-flip cq1, s and sr
# the (n + 1) x (n + 1) Gram matrix of ``_OneSampleGram``, O(n^2) per flip
# pattern for cq1 and s and O(n^3) for sr, so their memory does not grow
# with d times the number of patterns.
#
# Each kernel runs on one batch whose row 0 is the identity relabeling or
# the all-plus flip pattern, so the observed statistic comes from the same
# code path as the draws and a draw that reproduces it ties exactly.  With
# m = n both two-sample statistics are symmetric in the groups, so every
# relabeling is oriented to put pooled row 0 in the first group: a draw of
# the swapped split is then the identity mask and ties too.
# ---------------------------------------------------------------------------

# Relabelings per block of the permutation backend, so memory does not
# grow with n_resamples.
_PERM_BATCH = 1024


def _add_one_pvalue(obs, draws) -> tuple:
    p = (1.0 + int(np.sum(draws >= obs))) / (draws.shape[0] + 1.0)
    return float(obs), float(p)


def _spans(total: int, cap: int) -> list:
    """(start, stop) of consecutive blocks of ``cap`` rows covering
    range(total), with a last block of a single row joined to the one
    before it.

    NumPy hands a one-row product to gemv, which rounds differently from
    gemm, and a relabeling must get the same value in every row of every
    block.  Equal block sizes also let freed work arrays be reused.
    """
    stops = list(range(cap, total, cap))
    if stops and total - stops[-1] == 1:
        stops.pop()
    return list(zip([0] + stops, stops + [total]))


def _relabeling_blocks(m: int, n: int, n_resamples: int, rng):
    """Boolean relabeling masks of the m + n pooled rows (True = first
    group), in blocks of ``_PERM_BATCH`` rows as ``_spans`` cuts them:
    the identity, then ``n_resamples`` draws.

    The draws consume ``rng`` exactly as ``n_resamples`` calls of
    ``rng.permutation(m + n)[:m]`` would, and give the same masks.  With
    m = n each mask is oriented to hold pooled row 0.
    """
    big = m + n
    for start, stop in _spans(n_resamples + 1, _PERM_BATCH):
        lead = int(start == 0)
        masks = np.zeros((stop - start, big), dtype=bool)
        masks[:lead, :m] = True
        picks = rng.permuted(np.tile(np.arange(big), (stop - start - lead, 1)), axis=1)
        np.put_along_axis(masks[lead:], picks[:, :m], True, axis=1)
        if m == n:
            masks ^= ~masks[:, :1]
        yield masks


# Pair coefficients per column block of the pooled pairwise differences,
# so memory does not grow as N^2 d.
_SIGN_BLOCK = 1 << 19


def _pair_differences(pool: np.ndarray):
    """pool[a] - pool[b] for every pair of pooled rows, one (N, N, cols)
    block of consecutive columns at a time, with about ``_SIGN_BLOCK``
    coefficients per block.

    Every block is written into one buffer allocated once, so each block
    overwrites the one before it: a caller must be done with a block,
    and may modify it in place, before it asks for the next.  Each block,
    the short last one too, is a contiguous view of that buffer.
    """
    big, d = pool.shape
    cols = min(d, max(1, _SIGN_BLOCK // (big * big)))
    buffer = np.empty(big * big * cols)
    for lo in range(0, d, cols):
        block = pool[:, lo : lo + cols]
        view = buffer[: big * big * block.shape[1]].reshape(big, big, -1)
        np.subtract(block[:, None, :], block[None, :, :], out=view)
        yield view


def _pair_norms(pool: np.ndarray):
    """(norms, dup): ||pool[a] - pool[b]|| for every pair, taken from the
    rows, and the mask of coincident pairs.  The norms of the diagonal and
    of coincident pairs are set to 1, so they divide their zero
    differences harmlessly."""
    sq = np.zeros((pool.shape[0],) * 2)
    for diff in _pair_differences(pool):
        sq += np.add.reduce(np.square(diff, out=diff), axis=2)
    norms = np.sqrt(sq)
    np.fill_diagonal(norms, 1.0)
    dup = norms == 0.0
    norms[dup] = 1.0
    return norms, dup


def _wmw_from_masks(pool, norms, xmask, m, n, chunk=64):
    """T_WMW for each relabeling; xmask is (R, N) boolean, True = first group.

    U_ab is the unit vector of pool[a] - pool[b] (``norms`` from
    ``_pair_norms``).  For a relabeling with first-group indicator u and
    v = 1 - u, the sums of U_ab over a in the second group (``a_cols``)
    and over b in the first (``b_rows``) are the R_i and C_j of
    ``t_wmw``, and T is their total.  ||T||^2, sum ||R_i||^2 and
    sum ||C_j||^2 are sums over coordinates, so they are accumulated over
    the column blocks of ``_pair_differences``, each turned into unit
    vectors in place in the one reused buffer.  Both sums contract the
    block over its first axis, so neither copies it: since
    U_ba = -U_ab, the second gives -b_rows, and only ||b_rows||^2 is used.
    """
    count = xmask.shape[0]
    u_all = xmask.astype(float)
    v_all = 1.0 - u_all
    t_norm, r_term, c_term = np.zeros((3, count))
    spans = _spans(count, chunk)
    for signs in _pair_differences(pool):
        signs /= norms[:, :, None]
        for start, stop in spans:
            u, v = u_all[start:stop], v_all[start:stop]
            # a runs over pooled rows on the second-group side, b on the first.
            a_cols = np.einsum("ra,abd->rbd", v, signs, optimize=True)
            t_vec = np.einsum("rb,rbd->rd", u, a_cols)
            b_rows = np.einsum("rb,bad->rad", u, signs, optimize=True)
            part = slice(start, stop)
            t_norm[part] += np.einsum("rd,rd->r", t_vec, t_vec)
            r_term[part] += np.einsum("rbd,rbd,rb->r", a_cols, a_cols, u, optimize=True)
            c_term[part] += np.einsum("rad,rad,ra->r", b_rows, b_rows, v, optimize=True)
    out = (t_norm - r_term - c_term + m * n) / (m * (m - 1) * n * (n - 1))
    return np.clip(out, -1.0, 1.0)


def _permutation_pvalues(x, y, gram, stats, n_resamples, rng) -> dict:
    """{stat: (observed, p_value)} over one shared set of relabelings of
    the pooled sample; ``gram`` is the samples' ``_TwoSampleGram`` when
    cq2 is among ``stats``."""
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise TooFewObservationsError("permutation test needs at least 2 rows per sample")
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    pool = np.vstack([x, y])
    if "wmw" in stats:
        norms, dup = _pair_norms(pool)
        first, second = np.nonzero(np.triu(dup))

    values = {stat: [] for stat in stats}
    for masks in _relabeling_blocks(m, n, n_resamples, rng):
        for stat in stats:
            if stat == "wmw":
                if (masks[:, first] != masks[:, second]).any():
                    raise ZeroVectorError(
                        "a relabeling pairs two identical pooled observations"
                    )
                values[stat].append(_wmw_from_masks(pool, norms, masks, m, n))
            else:
                values[stat].append(gram.cq2(masks))
    results = {}
    for stat in stats:
        drawn = np.concatenate(values[stat])
        results[stat] = _add_one_pvalue(drawn[0], drawn[1:])
    return results


def _signflip_pvalues(gram, stats, n_resamples, rng) -> dict:
    """{stat: (observed, p_value)} over one shared set of flip patterns of
    the sample whose ``_OneSampleGram`` is ``gram``."""
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    flips = rng.integers(0, 2, size=(n_resamples, gram.n)) * 2.0 - 1.0
    # Row 0, the all-plus pattern, gives the observed statistic.
    flips = np.vstack([gram.identity, flips])
    results = {}
    for stat in stats:
        values = getattr(gram, stat)(flips)
        results[stat] = _add_one_pvalue(values[0], values[1:])
    return results


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


def _report(kind, value, p, alpha, method, **fields) -> TestReport:
    return TestReport(
        stat_kind=kind,
        statistic=value,
        p_value=p,
        alpha=alpha,
        reject=p <= alpha,
        method=method,
        **fields,
    )


def _check_tests(tests, stats, methods, alpha) -> set:
    _check_alpha(alpha)
    for stat, method in tests:
        if stat not in stats:
            raise ValueError(f"statistic must be one of {stats}, not {stat!r}")
        if method not in methods:
            raise ValueError(f"method must be one of {methods}, not {method!r}")
    return {method for _, method in tests}


def _stats_for(tests, *methods) -> list:
    """Distinct statistics requested with any of ``methods``, in order."""
    return list(dict.fromkeys(stat for stat, method in tests if method in methods))


def evaluate_two_sample(
    x, y, tests, alpha: float = 0.05, n_resamples: int = 500, rng=None, aux=None
) -> dict:
    """{(stat, method): TestReport} for every pair in ``tests`` on the
    samples x and y, with stat in {cq2, wmw}.

    Only permutation tests draw from ``rng`` (a Generator, or a seed for
    one, which their reports record), all from one set of relabelings.
    ``aux`` holds the latent scales that oracle tests need.
    """
    methods = _check_tests(tests, TWO_SAMPLE_STATS, TWO_SAMPLE_METHODS, alpha)
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    _require_same_dim(x, y)
    d = x.shape[1]
    perm_stats = _stats_for(tests, METHOD_PERMUTATION)
    values, snap, gram = {}, None, None
    if methods & {METHOD_ASYMPTOTIC, METHOD_RSRM_ORACLE} or "cq2" in perm_stats:
        # d enters the statistics, the nuisance estimates and the
        # permutation cq2 kernel through this object's one Gram matrix.
        gram = _TwoSampleGram(x, y)
        values = {
            stat: _observed(gram, stat)
            for stat in _stats_for(tests, METHOD_ASYMPTOTIC, METHOD_RSRM_ORACLE)
        }
        if METHOD_ASYMPTOTIC in methods:
            snap = _two_sample_snapshot(gram)
    if METHOD_RSRM_ORACLE in methods:
        terms = two_sample_oracle_terms(aux, x.shape[0], y.shape[0])
        # Variances of d * T_WMW and T_CQ2: plug-in z at sigma1^2 + sigma2^2 = 1.
        oracle_var = {"wmw": terms.s2, "cq2": terms.s3}
    if perm_stats:
        drawn = _permutation_pvalues(
            x, y, gram, perm_stats, n_resamples, np.random.default_rng(rng)
        )

    seed = rng if isinstance(rng, (int, np.integer)) else None
    reports = {}
    for stat, method in tests:
        if method == METHOD_PERMUTATION:
            report = _report(stat, *drawn[stat], alpha, method,
                             n_resamples=n_resamples, seed=seed)
        elif method == METHOD_ASYMPTOTIC:
            z = two_sample_z(
                stat, values[stat], d, snap.sigma1_sq, snap.sigma2_sq, snap.gamma
            )
            report = _report(stat, values[stat], gaussian_sf(z), alpha, method,
                             z=z, nuisance=snap)
        else:
            z = two_sample_z(stat, values[stat], d, 0.5, 0.5, oracle_var[stat])
            report = _report(stat, values[stat], gaussian_sf(z), alpha, method, z=z)
        reports[(stat, method)] = report
    return reports


def evaluate_one_sample(
    x, tests, alpha: float = 0.05, n_resamples: int = 500, rng=None, aux=None
) -> dict:
    """{(stat, method): TestReport} for every pair in ``tests`` on the
    sample x, with stat in {cq1, s, sr}; ``rng`` and ``aux`` are as in
    ``evaluate_two_sample``, with one set of flip patterns.
    """
    methods = _check_tests(tests, ONE_SAMPLE_STATS, ONE_SAMPLE_METHODS, alpha)
    x = as_matrix(x)
    n, d = x.shape
    # d enters the statistics, the nuisance estimates and the sign-flip
    # kernels through this object's one Gram matrix.
    gram = _OneSampleGram(x)
    values = {
        stat: _observed(gram, stat)
        for stat in _stats_for(tests, METHOD_ASYMPTOTIC, METHOD_RSRM_ORACLE)
    }
    snap = _one_sample_snapshot(gram) if METHOD_ASYMPTOTIC in methods else None
    if METHOD_RSRM_ORACLE in methods:
        terms = one_sample_oracle_terms(aux, n)
        # Variances of d * T_S, d * T_SR and T_CQ1: plug-in z at sigma^2 = 1.
        oracle_var = {"s": terms.gamma3, "sr": terms.z3, "cq1": terms.z4}
    flip_stats = _stats_for(tests, METHOD_SIGNFLIP)
    if flip_stats:
        drawn = _signflip_pvalues(
            gram, flip_stats, n_resamples, np.random.default_rng(rng)
        )

    seed = rng if isinstance(rng, (int, np.integer)) else None
    reports = {}
    for stat, method in tests:
        if method == METHOD_SIGNFLIP:
            report = _report(stat, *drawn[stat], alpha, method,
                             n_resamples=n_resamples, seed=seed)
        elif method == METHOD_ASYMPTOTIC:
            z = one_sample_z(stat, values[stat], d, snap.sigma1_sq, snap.gamma)
            report = _report(stat, values[stat], gaussian_sf(z), alpha, method,
                             z=z, nuisance=snap)
        else:
            z = one_sample_z(stat, values[stat], d, 1.0, oracle_var[stat])
            report = _report(stat, values[stat], gaussian_sf(z), alpha, method, z=z)
        reports[(stat, method)] = report
    return reports


def permutation_pvalues_two_sample(x, y, stats, n_resamples, rng) -> dict:
    """Observed statistics and permutation p-values for several statistics
    over one shared set of relabelings of the pooled sample, as
    ``evaluate_two_sample`` runs them.

    Returns {stat: (observed, p_value)}.
    """
    tests = [(stat, METHOD_PERMUTATION) for stat in stats]
    reports = evaluate_two_sample(x, y, tests, n_resamples=n_resamples, rng=rng)
    return {stat: (r.statistic, r.p_value) for (stat, _), r in reports.items()}


def signflip_pvalues_one_sample(x, stats, n_resamples, rng) -> dict:
    """Observed statistics and sign-flip p-values for several one-sample
    statistics over one shared set of flip patterns, as
    ``evaluate_one_sample`` runs them.

    Returns {stat: (observed, p_value)}.
    """
    tests = [(stat, METHOD_SIGNFLIP) for stat in stats]
    reports = evaluate_one_sample(x, tests, n_resamples=n_resamples, rng=rng)
    return {stat: (r.statistic, r.p_value) for (stat, _), r in reports.items()}


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
