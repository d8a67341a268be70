"""Reference computations for the benchmark's correctness checks.

Everything here is written from the definitions of the statistics (averages
of a kernel over tuples of distinct indices) with NumPy alone; nothing here
imports hdsigntest, including its ``_naive`` module.  Each statistic is
evaluated by building its kernel for every index tuple from a Gram matrix
and averaging it under an explicit mask of distinct indices, which is a
different route from the package's inclusion-exclusion reductions.

None of the checks compares against a stored copy of earlier output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

STAT_RTOL = 1e-9
# Width of every binomial band, in standard errors.
BAND_SE = 4.0
# The asymptotic tests are approximations at m = n = 20 and at the 6- and
# 13-row subsamples; their size is allowed to miss alpha by this much on top
# of the binomial band (measured sizes are 0.05 to 0.075).
ASYMPTOTIC_SIZE_SLACK = 0.05
# Randomization tests are exact, up to the add-one estimator.
RANDOMIZATION_SIZE_SLACK = 0.01


def _distinct(shape, *pairs):
    """Boolean mask over an index array of ``shape`` that is True where the
    indices on each listed pair of axes differ."""
    grids = np.indices(shape, sparse=True)
    mask = np.ones(shape, dtype=bool)
    for a, b in pairs:
        mask &= grids[a] != grids[b]
    return mask


def _average(kernel, mask):
    vals = kernel[mask]
    return float(vals.mean()), float(np.abs(vals).mean())


def _two_sample_kernel(x, y, unit):
    """K[i, j, k, l] = V_ij . V_kl with V_ij = y_j - x_i, from the Gram matrix
    of the pooled sample centred on its mean (the kernel only involves
    differences, so centring changes nothing but the rounding)."""
    m = x.shape[0]
    pool = np.vstack([x, y])
    pool = pool - pool.mean(axis=0)
    g = pool @ pool.T
    gxx, gyy, gxy = g[:m, :m], g[m:, m:], g[:m, m:]
    k = (
        gyy[None, :, None, :]
        - gxy.T[None, :, :, None]
        - gxy[:, None, None, :]
        + gxx[:, None, :, None]
    )
    if unit:
        sq = np.diagonal(gyy)[None, :] - 2.0 * gxy + np.diagonal(gxx)[:, None]
        norm = np.sqrt(sq)
        k = k / norm[:, :, None, None] / norm[None, None, :, :]
    return k


def t_wmw(x, y):
    """Average of S(Y_j1 - X_i1)'S(Y_j2 - X_i2) over i1 != i2, j1 != j2.

    Returns (value, scale): scale is the mean absolute kernel value, the
    yardstick for the relative tolerance."""
    m, n = x.shape[0], y.shape[0]
    mask = _distinct((m, n, m, n), (0, 2), (1, 3))
    return _average(_two_sample_kernel(x, y, unit=True), mask)


def t_cq2(x, y):
    """Average of (X_i1 - Y_j1)'(X_i2 - Y_j2) over i1 != i2, j1 != j2."""
    m, n = x.shape[0], y.shape[0]
    mask = _distinct((m, n, m, n), (0, 2), (1, 3))
    return _average(_two_sample_kernel(x, y, unit=False), mask)


def t_sr(x):
    """Average of S(X_a + X_b)'S(X_c + X_d) over distinct a, b, c, d."""
    n = x.shape[0]
    g = x @ x.T
    diag = np.diagonal(g)
    sq = diag[:, None] + 2.0 * g + diag[None, :]
    np.fill_diagonal(sq, 1.0)
    norm = np.sqrt(sq)
    k = (
        g[:, None, :, None]
        + g[:, None, None, :]
        + g[None, :, :, None]
        + g[None, :, None, :]
    )
    k = k / norm[:, :, None, None] / norm[None, None, :, :]
    mask = _distinct((n, n, n, n), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    return _average(k, mask)


def tr_sigma_sq(x):
    """Average of [(X_a - X_b)'(X_c - X_d)]^2 / 4 over distinct a, b, c, d."""
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    g = xc @ xc.T
    inner = (
        g[:, None, :, None]
        - g[:, None, None, :]
        - g[None, :, :, None]
        + g[None, :, None, :]
    )
    mask = _distinct((n, n, n, n), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    return _average(inner**2 / 4.0, mask)


def tr_sigma_cross(x, y):
    """Average of [(X_a - X_b)'(Y_c - Y_d)]^2 / 4 over a != b, c != d."""
    m, n = x.shape[0], y.shape[0]
    pool = np.vstack([x, y])
    pool = pool - pool.mean(axis=0)
    h = pool[:m] @ pool[m:].T
    inner = (
        h[:, None, :, None]
        - h[:, None, None, :]
        - h[None, :, :, None]
        + h[None, :, None, :]
    )
    mask = _distinct((m, m, n, n), (0, 1), (2, 3))
    return _average(inner**2 / 4.0, mask)


def nuisance_two_sample(x, y):
    """gamma = 2 tr1/(m)_2 + 2 tr2/(n)_2 + 4 tr12/(mn) from the brute-force
    trace averages, with the pooled marginal variances of both samples."""
    m, n = x.shape[0], y.shape[0]
    tr1 = tr_sigma_sq(x)[0]
    tr2 = tr_sigma_sq(y)[0]
    tr12 = tr_sigma_cross(x, y)[0]
    gamma = 2.0 * tr1 / (m * (m - 1)) + 2.0 * tr2 / (n * (n - 1)) + 4.0 * tr12 / (m * n)
    return {
        "tr1": tr1,
        "tr2": tr2,
        "tr12": tr12,
        "gamma": gamma,
        "sigma1_sq": float(np.var(x, axis=0, ddof=1).mean()),
        "sigma2_sq": float(np.var(y, axis=0, ddof=1).mean()),
    }


def close(got, want, scale=0.0, rtol=STAT_RTOL):
    return abs(got - want) <= rtol * max(abs(want), scale)


def gaussian_tail(z):
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def on_lattice(p, n_resamples):
    """An add-one randomization p-value is k / (R + 1) with 1 <= k <= R + 1."""
    k = p * (n_resamples + 1)
    return abs(k - round(k)) <= 1e-9 * (n_resamples + 1) and 1 <= round(k) <= n_resamples + 1


def rate_on_grid(rate, replicates):
    k = rate * replicates
    return abs(k - round(k)) <= 1e-9 * replicates


def _binomial_se(p, reps):
    return math.sqrt(max(p * (1.0 - p), 0.0) / reps)


def size_ok(hits, reps, alpha, slack):
    """Null rejection rate within the binomial band around alpha.
    Returns (ok, detail)."""
    half = slack + BAND_SE * _binomial_se(alpha, reps)
    detail = f"{hits}/{reps}, allowed {max(alpha - half, 0.0):.3f} .. {alpha + half:.3f}"
    return abs(hits / reps - alpha) <= half, detail


def paired_rates_agree(hits_a, hits_b, reps_per_round):
    """Two tests' rejection counts, one pair per independent round in which
    both tests saw the same datasets, have a summed difference within
    BAND_SE standard errors of zero.

    The variance of the summed difference is estimated by the sum of the
    squared per-round differences, so only datasets on which the tests
    disagree widen the band.  As the differences are whole numbers, the
    check fails only once the net difference exceeds BAND_SE ** 2 = 16
    datasets.  Returns (ok, detail)."""
    diffs = [a - b for a, b in zip(hits_a, hits_b)]
    reps = reps_per_round * len(diffs)
    total = sum(diffs)
    band = BAND_SE * math.sqrt(sum(d * d for d in diffs))
    detail = (f"{sum(hits_a)}/{reps} vs {sum(hits_b)}/{reps}, difference {total}, "
              f"band +-{band:.1f} ({band / reps:.3f} as a rate)")
    return abs(total) <= band, detail


def _exact_band(observed, values, scale):
    """Exact upper-tail probability of the observed value among equally
    likely ``values``.  Values within rounding of the observed one count as
    ties on either side, so the result is an interval."""
    tol = STAT_RTOL * max(abs(observed), scale)
    values = np.asarray(values)
    return float(np.mean(values >= observed + tol)), float(np.mean(values >= observed - tol))


def exact_permutation_band(x, y, stat):
    """All C(m+n, m) relabelings of the pooled rows into groups of the
    original sizes, each statistic evaluated by brute force."""
    fn = {"wmw": t_wmw, "cq2": t_cq2}[stat]
    m = x.shape[0]
    pool = np.vstack([x, y])
    everyone = range(pool.shape[0])
    values = []
    for first in itertools.combinations(everyone, m):
        rest = [i for i in everyone if i not in first]
        values.append(fn(pool[list(first)], pool[rest])[0])
    observed, scale = fn(x, y)
    return _exact_band(observed, values, scale)


def exact_signflip_band(x):
    """All 2^n sign patterns of the rows, t_sr evaluated by brute force."""
    n = x.shape[0]
    values = [
        t_sr(x * np.array(signs)[:, None])[0]
        for signs in itertools.product((1.0, -1.0), repeat=n)
    ]
    observed, scale = t_sr(x)
    return _exact_band(observed, values, scale)


def randomization_matches_exact(p, n_resamples, band):
    """The add-one estimate lies within a Monte Carlo bound of the exact
    p-value (any point of the tie interval)."""
    lo, hi = band
    exact = min(max(p, lo), hi)
    bound = 5.0 * math.sqrt(max(exact * (1.0 - exact), 1.0 / n_resamples) / n_resamples)
    return abs(p - exact) <= bound + 1.0 / (n_resamples + 1)
