"""Unbiased plug-in estimators for the variance of the test statistics.

The limiting variances of the mean- and rank-based statistics involve
tr(Sigma^2)-type functionals.  The estimators here are U-statistics over
squared cross inner products of pairwise differences, which makes them
exactly location invariant.  Fast paths reduce everything to Gram
matrices; naive loop oracles in ``_naive`` gate the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError
from .statistics import _dot, _OneSampleGram, _TwoSampleGram, _require_rows


@dataclass(frozen=True)
class VarianceSnapshot:
    """Nuisance estimates entering a standardized test statistic.

    Two-sample snapshots fill every field; one-sample snapshots leave the
    second-sample and cross entries as None.
    """

    tr_sigma1_sq: float
    gamma: float
    sigma1_sq: float
    tr_sigma2_sq: float | None = None
    tr_sigma_cross: float | None = None
    sigma2_sq: float | None = None

    def to_dict(self) -> dict:
        return {
            "tr1": self.tr_sigma1_sq,
            "tr2": self.tr_sigma2_sq,
            "tr12": self.tr_sigma_cross,
            "gamma": self.gamma,
            "sigma1_sq": self.sigma1_sq,
            "sigma2_sq": self.sigma2_sq,
        }


def _tr_sq_from_gram(g: np.ndarray) -> np.ndarray:
    """tr(Sigma^2) estimates from the Gram matrices G = XX' of one sample,
    one per matrix along the leading axes of ``g``.

    The average of [(X_i1 - X_i2)'(X_i3 - X_i4)]^2 over ordered quadruples
    of distinct indices, divided by 4.  Expanding the square and counting
    coincidence patterns gives

        sum = 4(m-2)(m-3) S2 - 8(m-3) S3 + 4 S4

    where S2 = sum_{p!=q} G_pq^2, S3 sums G_pq G_pr over distinct triples
    and S4 sums G_pq G_rs over fully distinct quadruples; S3 and S4 reduce
    to row sums of G by further inclusion-exclusion.  The estimator only
    involves differences of rows, so G of the centred sample gives the
    same value and keeps the reduction well conditioned under any shift.
    """
    m = g.shape[-1]
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    rows = g.sum(axis=-1) - diag
    s2 = np.einsum("...ij,...ij->...", g, g) - _dot(diag, diag)
    s3 = _dot(rows, rows) - s2
    tot = rows.sum(axis=-1)
    s4 = tot * tot - 4.0 * s3 - 2.0 * s2
    quad = (m - 2) * (m - 3) * s2 - 2.0 * (m - 3) * s3 + s4
    value = quad / (m * (m - 1) * (m - 2) * (m - 3))
    # The exact U-statistic is an average of squares; clamp float noise.
    return np.where(value < 0.0, 0.0, value)


def _tr_cross_from_gram(h: np.ndarray) -> np.ndarray:
    """tr(Sigma_1 Sigma_2) estimates from the cross Gram matrices H = XY',
    one per matrix along the leading axes of ``h``.

    The average of [(X_i1 - X_i2)'(Y_j1 - Y_j2)]^2 over distinct i-pairs
    and j-pairs, divided by 4, reduces to sums over H:

        sum = 4(m-1)(n-1) S - 4(m-1) S_row - 4(n-1) S_col + 4 S_disj

    As for ``_tr_sq_from_gram``, H of the centred samples is the one to
    use.
    """
    m, n = h.shape[-2:]
    sq = np.einsum("...ij,...ij->...", h, h)
    rows = h.sum(axis=-1)
    cols = h.sum(axis=-2)
    rows_sq, cols_sq = _dot(rows, rows), _dot(cols, cols)
    s_row = rows_sq - sq
    s_col = cols_sq - sq
    tot = h.sum(axis=(-2, -1))
    s_disj = tot * tot - rows_sq - cols_sq + sq
    quad = (m - 1) * (n - 1) * sq - (m - 1) * s_row - (n - 1) * s_col + s_disj
    value = quad / (m * (m - 1) * n * (n - 1))
    return np.where(value < 0.0, 0.0, value)


def tr_sigma_sq_hat(x) -> float:
    """Unbiased estimator of tr(Sigma^2) from one sample: the centred
    block Gc of its ``_OneSampleGram``; see ``_tr_sq_from_gram``."""
    gram = _OneSampleGram([x])
    _require_rows(gram.xs[0], 4, "x")
    return float(_tr_sq_from_gram(gram.gc)[0])


def tr_sigma_cross_hat(x, y) -> float:
    """Unbiased estimator of tr(Sigma_1 Sigma_2) from two samples: the
    block ``gxy`` of their ``_TwoSampleGram``; see ``_tr_cross_from_gram``."""
    return float(_tr_cross_from_gram(_TwoSampleGram([x], [y]).gxy)[0])


def sigma_sq_hat(x) -> float:
    """Marginal variance pooled over coordinates: the per-coordinate sample
    variance (denominator n-1) averaged over the d coordinates, which is
    tr Gc / (d (n-1)) for the centred block Gc of its ``_OneSampleGram``.
    It has the bits of ``gamma2_hat(x).sigma1_sq``.  ``gamma1_hat(x, y)``
    reads the same trace from the diagonal of the larger pooled Gram
    product of ``_TwoSampleGram``, which BLAS may round differently, so its
    ``sigma1_sq`` can differ from this value by a few ulps (up to 3 on 300
    random shapes, where 24 differed).
    """
    gram = _OneSampleGram([x])
    _require_rows(gram.xs[0], 2, "x")
    return float(np.trace(gram.gc[0]) / (gram.d * (gram.n - 1)))


def _check_gamma(gamma: float, spread: float) -> float:
    """``gamma`` unless it is rounding noise, which it is when at most
    1e-12 of ``spread``: the same functional with every trace
    tr(S_k S_l) replaced by tr(S_k) tr(S_l), estimated as d sigma_k^2
    from the centred rows.  That bounds gamma in the population and
    measures the size of the data, while the trace estimators are
    themselves rounding noise on data whose gamma is exactly zero.
    """
    if not np.isfinite(gamma) or gamma <= 1e-12 * max(spread, 1e-300):
        raise DegenerateVarianceError(
            "estimated variance of the statistic is zero; data are constant"
        )
    return gamma


def _two_sample_gamma(tr1: float, tr2: float, tr12: float, m: int, n: int) -> float:
    return 2.0 * tr1 / (m * (m - 1)) + 2.0 * tr2 / (n * (n - 1)) + 4.0 * tr12 / (m * n)


def gamma1_hat(x, y) -> VarianceSnapshot:
    """Two-sample variance functional estimate.

    gamma = 2 tr(S1^2)/(m)_2 + 2 tr(S2^2)/(n)_2 + 4 tr(S1 S2)/(mn), all
    traces replaced by their unbiased estimates; also records the pooled
    marginal variances of both samples.  Every field is read from the
    blocks of one ``_TwoSampleGram``: tr1 from ``gxx``, tr2 from ``gyy``,
    tr12 from ``gxy``, and sigma1^2 = tr gxx / (d(m-1)), sigma2^2 likewise.
    Each block is a Gram matrix of rows centred on their own sample mean,
    so every field is unchanged by separate shifts of x and y.
    """
    return _two_sample_snapshot(_TwoSampleGram([x], [y]))[0]


def _two_sample_snapshot(gram: _TwoSampleGram) -> list:
    """``gamma1_hat`` of each dataset of a ``_TwoSampleGram`` block: the
    sums over its Gram blocks are batched, and each dataset's few scalar
    steps run on Python floats."""
    m, n, d = gram.m, gram.n, gram.d
    _require_rows(gram.xs[0], 4, "x")
    _require_rows(gram.ys[0], 4, "y")
    fields = zip(
        _tr_sq_from_gram(gram.gxx).tolist(),
        _tr_sq_from_gram(gram.gyy).tolist(),
        _tr_cross_from_gram(gram.gxy).tolist(),
        (np.trace(gram.gxx, axis1=1, axis2=2) / (d * (m - 1))).tolist(),
        (np.trace(gram.gyy, axis1=1, axis2=2) / (d * (n - 1))).tolist(),
    )
    snaps = []
    for tr1, tr2, tr12, sigma1_sq, sigma2_sq in fields:
        s1, s2 = d * sigma1_sq, d * sigma2_sq
        gamma = _check_gamma(
            _two_sample_gamma(tr1, tr2, tr12, m, n),
            _two_sample_gamma(s1 * s1, s2 * s2, s1 * s2, m, n),
        )
        snaps.append(VarianceSnapshot(
            tr_sigma1_sq=tr1,
            tr_sigma2_sq=tr2,
            tr_sigma_cross=tr12,
            gamma=gamma,
            sigma1_sq=sigma1_sq,
            sigma2_sq=sigma2_sq,
        ))
    return snaps


def gamma2_hat(x) -> VarianceSnapshot:
    """One-sample variance functional estimate: 2 tr(Sigma^2)hat / (n)_2,
    with every field read from one ``_OneSampleGram``."""
    return _one_sample_snapshot(_OneSampleGram([x]))[0]


def _one_sample_snapshot(gram: _OneSampleGram) -> list:
    """``gamma2_hat`` of each sample of a ``_OneSampleGram`` block."""
    n, d = gram.n, gram.d
    _require_rows(gram.xs[0], 4, "x")
    snaps = []
    for tr1, sigma1_sq in zip(_tr_sq_from_gram(gram.gc).tolist(),
                              (np.trace(gram.gc, axis1=1, axis2=2) / (d * (n - 1))).tolist()):
        s1 = d * sigma1_sq
        gamma = _check_gamma(2.0 * tr1 / (n * (n - 1)), 2.0 * s1 * s1 / (n * (n - 1)))
        snaps.append(VarianceSnapshot(tr_sigma1_sq=tr1, gamma=gamma, sigma1_sq=sigma1_sq))
    return snaps
