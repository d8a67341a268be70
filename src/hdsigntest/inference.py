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
from .nuisance import VarianceSnapshot, gamma1_hat, gamma2_hat
from .statistics import (
    ONE_SAMPLE_STATS,
    TWO_SAMPLE_STATS,
    as_matrix,
    _pair_sum_signs,
    _require_rows,
    _require_same_dim,
    _row_signs,
    t_cq1,
    t_cq2,
    t_s,
    t_sr,
    t_wmw,
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
# pooled data (pairwise unit signs, Gram matrices), so one relabeling costs
# O(mnd) instead of a full recomputation; batches of relabelings are reduced
# with einsum.  The identity labeling and the all-plus flip pattern
# reproduce the observed statistic through the same code path.
# ---------------------------------------------------------------------------


def _add_one_pvalue(obs, draws) -> tuple:
    p = (1.0 + int(np.sum(draws >= obs))) / (draws.shape[0] + 1.0)
    return float(obs), float(p)


def _pooled_pair_signs(pool: np.ndarray):
    """Unit sign vectors of all pairwise differences pool[a] - pool[b].

    Returns (signs, dup) where dup marks coincident rows; the diagonal of
    signs is zeroed (a pooled row is never compared with itself).
    """
    diffs = pool[:, None, :] - pool[None, :, :]
    norms = np.linalg.norm(diffs, axis=2)
    np.fill_diagonal(norms, 1.0)
    dup = norms == 0.0
    norms = np.where(dup, 1.0, norms)
    signs = diffs / norms[:, :, None]
    return signs, dup


def _wmw_from_masks(signs, xmask, m, n, chunk=64):
    """T_WMW for each relabeling; xmask is (R, N) boolean, True = first group."""
    out = np.empty(xmask.shape[0])
    denom = m * (m - 1) * n * (n - 1)
    for start in range(0, xmask.shape[0], chunk):
        u = xmask[start : start + chunk].astype(float)
        v = 1.0 - u
        # a runs over pooled rows on the second-group side, b on the first.
        a_cols = np.einsum("ra,abd->rbd", v, signs, optimize=True)
        t_vec = np.einsum("rb,rbd->rd", u, a_cols)
        t_norm = np.einsum("rd,rd->r", t_vec, t_vec)
        r_term = np.einsum("rbd,rbd,rb->r", a_cols, a_cols, u, optimize=True)
        b_rows = np.einsum("rb,abd->rad", u, signs, optimize=True)
        c_term = np.einsum("rad,rad,ra->r", b_rows, b_rows, v, optimize=True)
        out[start : start + chunk] = (t_norm - r_term - c_term + m * n) / denom
    return np.clip(out, -1.0, 1.0)


def _cq2_from_masks(gram, xmask, m, n):
    """T_CQ2 for each relabeling from the pooled Gram matrix."""
    diag = np.diagonal(gram)
    u = xmask.astype(float)
    v = 1.0 - u
    xx = np.einsum("ra,ab,rb->r", u, gram, u, optimize=True) - u @ diag
    yy = np.einsum("ra,ab,rb->r", v, gram, v, optimize=True) - v @ diag
    cross = np.einsum("ra,ab,rb->r", u, gram, v, optimize=True)
    return xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * cross / (m * n)


def permutation_pvalues_two_sample(x, y, stats, n_resamples, rng):
    """Observed statistics and permutation p-values for several statistics
    over one shared set of relabelings of the pooled sample.

    Returns {stat: (observed, p_value)}.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    _require_same_dim(x, y)
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise TooFewObservationsError("permutation test needs at least 2 rows per sample")
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    pool = np.vstack([x, y])
    big = m + n
    masks = np.zeros((n_resamples, big), dtype=bool)
    for r in range(n_resamples):
        masks[r, rng.permutation(big)[:m]] = True
    obs_mask = np.zeros((1, big), dtype=bool)
    obs_mask[0, :m] = True

    results = {}
    for stat in stats:
        if stat == "wmw":
            signs, dup = _pooled_pair_signs(pool)
            if dup.any():
                all_masks = np.vstack([obs_mask, masks]).astype(float)
                hit = np.einsum(
                    "ra,rb,ab->r", all_masks, 1.0 - all_masks, dup.astype(float)
                )
                if (hit > 0).any():
                    raise ZeroVectorError(
                        "a relabeling pairs two identical pooled observations"
                    )
            obs = _wmw_from_masks(signs, obs_mask, m, n)[0]
            draws = _wmw_from_masks(signs, masks, m, n)
        elif stat == "cq2":
            # Centred on the pooled mean, as in t_cq2: a raw Gram matrix
            # loses the statistic to cancellation under a large offset.
            centred = pool - pool.mean(axis=0)
            gram = centred @ centred.T
            obs = _cq2_from_masks(gram, obs_mask, m, n)[0]
            draws = _cq2_from_masks(gram, masks, m, n)
        else:
            raise ValueError(f"permutation backend supports cq2 and wmw, not {stat!r}")
        results[stat] = _add_one_pvalue(obs, draws)
    return results


def _sr_from_flips(wplus, wminus, dup, flips, n):
    denom = n * (n - 1) * (n - 2) * (n - 3)
    out = np.empty(flips.shape[0])
    for r, eps in enumerate(flips):
        same = np.equal.outer(eps, eps)
        if dup.any() and (dup & ~same).any():
            raise ZeroVectorError(
                "a sign flip turns a duplicate pair into a zero pairwise sum"
            )
        w = np.where(same[:, :, None], wplus, wminus) * eps[:, None, None]
        a_vec = w.sum(axis=(0, 1))
        b_rows = w.sum(axis=1)
        quad = a_vec @ a_vec - 4.0 * np.einsum("ij,ij->", b_rows, b_rows)
        out[r] = (quad + 2.0 * n * (n - 1)) / denom
    return np.clip(out, -1.0, 1.0)


def signflip_pvalues_one_sample(x, stats, n_resamples, rng):
    """Observed statistics and sign-flip p-values for several one-sample
    statistics over one shared set of flip patterns.

    Returns {stat: (observed, p_value)}.
    """
    x = as_matrix(x)
    _require_rows(x, 2, "x")
    n = x.shape[0]
    if n_resamples < 1:
        raise ValueError("n_resamples must be at least 1")
    flips = rng.integers(0, 2, size=(n_resamples, n)) * 2.0 - 1.0
    # Row 0, the all-plus pattern, gives the observed statistic.
    flips = np.vstack([np.ones((1, n)), flips])

    results = {}
    for stat in stats:
        if stat == "cq1":
            m_mat = flips @ x
            quad = np.einsum("rd,rd->r", m_mat, m_mat) - np.einsum("ij,ij->", x, x)
            values = quad / (n * (n - 1))
        elif stat == "s":
            m_mat = flips @ _row_signs(x, "observation")
            values = (np.einsum("rd,rd->r", m_mat, m_mat) - n) / (n * (n - 1))
            values = np.clip(values, -1.0, 1.0)
        elif stat == "sr":
            _require_rows(x, 4, "x")
            wplus = _pair_sum_signs(x)
            diffs = x[:, None, :] - x[None, :, :]
            dnorm = np.linalg.norm(diffs, axis=2)
            np.fill_diagonal(dnorm, 1.0)
            dup = dnorm == 0.0
            dnorm = np.where(dup, 1.0, dnorm)
            wminus = diffs / dnorm[:, :, None]
            idx = np.arange(n)
            wminus[idx, idx, :] = 0.0
            values = _sr_from_flips(wplus, wminus, dup, flips, n)
        else:
            raise ValueError(f"sign-flip backend supports cq1, s and sr, not {stat!r}")
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
    statistic = {"cq2": t_cq2, "wmw": t_wmw}
    values = {
        stat: statistic[stat](x, y)
        for stat in _stats_for(tests, METHOD_ASYMPTOTIC, METHOD_RSRM_ORACLE)
    }
    snap = gamma1_hat(x, y) if METHOD_ASYMPTOTIC in methods else None
    if METHOD_RSRM_ORACLE in methods:
        terms = two_sample_oracle_terms(aux, x.shape[0], y.shape[0])
        # Variances of d * T_WMW and T_CQ2: plug-in z at sigma1^2 + sigma2^2 = 1.
        oracle_var = {"wmw": terms.s2, "cq2": terms.s3}
    perm_stats = _stats_for(tests, METHOD_PERMUTATION)
    if perm_stats:
        drawn = permutation_pvalues_two_sample(
            x, y, perm_stats, n_resamples, np.random.default_rng(rng)
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
    statistic = {"cq1": t_cq1, "s": t_s, "sr": t_sr}
    values = {
        stat: statistic[stat](x)
        for stat in _stats_for(tests, METHOD_ASYMPTOTIC, METHOD_RSRM_ORACLE)
    }
    snap = gamma2_hat(x) if METHOD_ASYMPTOTIC in methods else None
    if METHOD_RSRM_ORACLE in methods:
        terms = one_sample_oracle_terms(aux, n)
        # Variances of d * T_S, d * T_SR and T_CQ1: plug-in z at sigma^2 = 1.
        oracle_var = {"s": terms.gamma3, "sr": terms.z3, "cq1": terms.z4}
    flip_stats = _stats_for(tests, METHOD_SIGNFLIP)
    if flip_stats:
        drawn = signflip_pvalues_one_sample(
            x, flip_stats, n_resamples, np.random.default_rng(rng)
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
